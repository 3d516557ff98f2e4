"""Spans around splitcl's public functions, installed from outside the package.

``Trace(names)`` patches each named function (module attribute or class
attribute) with a wrapper that times the call and, for a few functions,
counts what the call produced. Leaving the ``with`` block restores every
original attribute. Spans are aggregated in memory as they close:

``calls``     number of calls
``total_s``   summed wall time of the calls
``self_s``    ``total_s`` minus the time covered by wrapped calls made inside

A ``Trace`` may be entered several times; its figures add up.

No file under ``src/`` knows about the trace.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable

from splitcl import harness, joint_ekf, messages, model, network, protocol, split_ekf, verify

_MODULES = {
    "harness": harness,
    "joint_ekf": joint_ekf,
    "messages": messages,
    "model": model,
    "network": network,
    "protocol": protocol,
    "split_ekf": split_ekf,
    "verify": verify,
}

# Names of the form "<module>.<attribute path>". A function that other
# modules import by name is patched where it is looked up: verify imports
# build_realization and delivery_reports from harness, and harness imports
# channel_epoch from network. Every other name is its own only site.
_SITES = {
    "harness.build_realization": ("harness.build_realization", "verify.build_realization"),
    "harness.delivery_reports": ("harness.delivery_reports", "verify.delivery_reports"),
    "network.channel_epoch": ("harness.channel_epoch",),
}

SPANS = (
    "harness.run_once",
    "harness.build_realization",
    "harness.delivery_reports",
    "model.propagate_pose",
    "protocol.RobotNode.step",
    "protocol.RobotNode.apply_update",
    "protocol.CooperationServer.handle_epoch",
    "split_ekf.innovation",
    "split_ekf.update_factors",
    "split_ekf.apply_update",
    "split_ekf.CrossFactorStore.update",
    "split_ekf.CrossFactorStore.reconstruct",
    "messages.LandmarkMessage.encode",
    "messages.LandmarkMessage.decode",
    "messages.UpdateMessage.encode",
    "messages.UpdateMessage.decode",
    "network.channel_epoch",
    "joint_ekf.propagate",
    "joint_ekf.partial_update",
    "joint_ekf.JointBelief.min_eigenvalue",
    "verify.check_exact_equivalence",
    "verify.check_dropout_equivalence",
)

# What the end-to-end run wraps: the server's epoch latency and the codec's
# byte counts, one wrapper each.
PROBES = (
    "protocol.CooperationServer.handle_epoch",
    "messages.LandmarkMessage.encode",
    "messages.UpdateMessage.encode",
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


def _resolve(site: str) -> tuple[object, str]:
    module, *path = site.split(".")
    owner: object = _MODULES[module]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


def sites(name: str) -> tuple[str, ...]:
    return _SITES.get(name, (name,))


class Trace:
    """Patch the named functions while the ``with`` block runs."""

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        self.stats = {name: SpanStats() for name in self.names}
        self.epoch_ms: list[float] = []
        self.bytes_up = 0
        self.bytes_down = 0
        self.frame_lengths: dict[str, set[int]] = defaultdict(set)
        self.robot_epochs = 0
        self.missed_robot_epochs = 0
        self.store_bytes_computed = 0
        self.wall_s = 0.0
        self._open: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self._t0 = 0.0

    def __enter__(self) -> "Trace":
        try:
            for name in self.names:
                for site in sites(name):
                    self._patch(name, *_resolve(site))
        except BaseException:
            self._restore()
            raise
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s += perf_counter() - self._t0
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, name: str, owner: object, attr: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        wrapper = self._wrap(fn, self.stats[name], _HOOKS.get(name))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._saved.append((owner, attr, original))

    def _wrap(self, fn: Callable, stats: SpanStats, hook: Callable | None) -> Callable:
        open_spans = self._open
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stats.calls += 1
                stats.total_s += elapsed
                stats.child_s += open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if hook is not None:
                hook(trace, args, result, elapsed)
            return result

        return wrapper

    def wire_bytes_per_epoch(self) -> float:
        return (self.bytes_up + self.bytes_down) / len(self.epoch_ms)


def _on_epoch(trace: Trace, args, result, elapsed: float) -> None:
    trace.epoch_ms.append(elapsed * 1e3)


def _on_landmark_frame(trace: Trace, args, frame: bytes, elapsed: float) -> None:
    trace.bytes_up += len(frame)
    trace.frame_lengths["landmark"].add(len(frame))


def _on_update_frame(trace: Trace, args, frame: bytes, elapsed: float) -> None:
    trace.bytes_down += len(frame)
    trace.frame_lengths["update_" + args[0].kind].add(len(frame))


def _on_channel(trace: Trace, args, report, elapsed: float) -> None:
    trace.robot_epochs += len(report.delivered) + len(report.missed)
    trace.missed_robot_epochs += len(report.missed)


def _on_store_update(trace: Trace, args, result, elapsed: float) -> None:
    # One 3x3 float64 block (72 bytes) rewritten per robot pair.
    n = len(args[0].team)
    trace.store_bytes_computed += 72 * n * (n - 1) // 2


_HOOKS = {
    "protocol.CooperationServer.handle_epoch": _on_epoch,
    "messages.LandmarkMessage.encode": _on_landmark_frame,
    "messages.UpdateMessage.encode": _on_update_frame,
    "network.channel_epoch": _on_channel,
    "split_ekf.CrossFactorStore.update": _on_store_update,
}
