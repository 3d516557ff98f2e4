"""Server-assisted cooperative localization with a split-covariance EKF.

A team of robots dead-reckons locally; whenever one robot measures another,
a server combines the pair's local reports with its stored cross-correlation
factors and broadcasts one fixed-size correction per robot. Under perfect
communication the result reproduces the centralized full-team EKF exactly;
when robots miss a broadcast, the remaining robots still receive the
minimum-variance correction and the disconnected ones resume seamlessly.
The package bundles the filter itself, a centralized reference
implementation, a lossy-channel simulator, a Monte-Carlo harness and
executable equivalence checks.
"""

from .harness import (
    ALL_ESTIMATORS,
    DR,
    JOINT_EKF,
    PARTIAL_ORACLE,
    SA_SPLIT,
    SA_SPLIT_DROPOUT,
    MetricReport,
    RunRecord,
    export_metrics,
    run_monte_carlo,
    run_once,
)
from .joint_ekf import JointBelief
from .messages import LandmarkMessage, UpdateMessage
from .model import RelativeMeasurement, wrap_angle
from .network import DeliveryReport, channel_epoch, gate_measurement
from .protocol import CooperationServer, RobotNode
from .scenario import Scenario, build_table1_scenario, random_scenario
from .split_ekf import CrossFactorStore, SplitTeamState
from .verify import check_dropout_equivalence, check_exact_equivalence

__version__ = "0.1.0"

__all__ = [
    "ALL_ESTIMATORS",
    "DR",
    "JOINT_EKF",
    "PARTIAL_ORACLE",
    "SA_SPLIT",
    "SA_SPLIT_DROPOUT",
    "CooperationServer",
    "CrossFactorStore",
    "DeliveryReport",
    "JointBelief",
    "LandmarkMessage",
    "MetricReport",
    "RelativeMeasurement",
    "RobotNode",
    "RunRecord",
    "Scenario",
    "SplitTeamState",
    "UpdateMessage",
    "build_table1_scenario",
    "channel_epoch",
    "check_dropout_equivalence",
    "check_exact_equivalence",
    "export_metrics",
    "gate_measurement",
    "random_scenario",
    "run_monte_carlo",
    "run_once",
    "wrap_angle",
]
