"""Wire formats exchanged between robot nodes and the server.

Both message kinds serialize to a fixed-length little-endian binary frame so
the payload size provably does not depend on the team size. Each kind is one
packed numpy record in ``_FRAMES``; its ``itemsize`` is the frame length:

==================  =======================================================
frame               layout
==================  =======================================================
common header       ``b"SCL2"`` format tag, 1 byte kind
landmark (kind 1)   sender u32, time u32, landmark u32 (0 = none),
                    has_z u8, z 2xf64, mean 3xf64, cov 9xf64,
                    jac_accum 2xf64  (146 bytes total)
update (kind 2)     single-measurement payload: recipient u32, time u32,
                    whitened residual 2xf64, update factor 6xf64 (77 bytes)
update (kind 3)     summed multi-measurement payload: recipient u32,
                    time u32, correction vector 3xf64, correction outer
                    product 9xf64 (109 bytes)
==================  =======================================================

A single update frame is the factored form ``(r, D)`` of the correction
pair ``(D r, D D')``; a summed frame carries the summed pairs themselves.
Matrices are row-major; ``jac_accum`` is the translation of the sender's
accumulated Jacobian, a shear (see :mod:`split_ekf`). A landmark-role
message carries no measurement (``z is None``); an observer's message
carries ``z`` plus the landmark id, or ``z`` alone for an absolute
measurement.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

FORMAT_TAG = b"SCL2"
_KIND_LANDMARK = 1
_UPDATE_KINDS = {"single": 2, "summed": 3}
_HEADER = [("tag", "S4"), ("kind", "u1")]
_FRAMES = {
    _KIND_LANDMARK: np.dtype(_HEADER + [
        ("sender", "<u4"), ("time", "<u4"), ("landmark", "<u4"), ("has_z", "u1"),
        ("z", "<f8", (2,)), ("mean", "<f8", (3,)), ("cov", "<f8", (3, 3)),
        ("jac_accum", "<f8", (2,)),
    ]),
    _UPDATE_KINDS["single"]: np.dtype(_HEADER + [
        ("recipient", "<u4"), ("time", "<u4"),
        ("residual_payload", "<f8", (2,)), ("gain_payload", "<f8", (3, 2)),
    ]),
    _UPDATE_KINDS["summed"]: np.dtype(_HEADER + [
        ("recipient", "<u4"), ("time", "<u4"),
        ("residual_payload", "<f8", (3,)), ("gain_payload", "<f8", (3, 3)),
    ]),
}


class ProtocolError(ValueError):
    """Malformed message or payload."""


def _check_shapes(msg, kind: int, names: tuple[str, ...]) -> None:
    """Every payload named ``names`` has its field's shape in frame ``kind``.

    Runs on every message construction, decoded ones included, so it reads
    an array's ``shape`` directly and leaves ``np.shape`` to other
    payloads (lists, say).
    """
    frame = _FRAMES[kind]
    for name in names:
        value = getattr(msg, name)
        got = value.shape if type(value) is np.ndarray else np.shape(value)
        want = frame[name].shape
        if got != want:
            raise ProtocolError(f"{name} must have shape {want}, got {got}")


def _pack(kind: int, ints: tuple, floats: tuple) -> bytes:
    """One frame; a non-integer or out-of-range integer field raises."""
    fields = (FORMAT_TAG, kind, *map(operator.index, ints), *floats)
    return np.array(fields, _FRAMES[kind]).tobytes()


def _unpack(raw: bytes, *kinds: int) -> np.void:
    """The record of a frame of one of ``kinds``, or :class:`ProtocolError`."""
    if raw[:4] != FORMAT_TAG:
        raise ProtocolError(f"unknown format tag {bytes(raw[:4])!r}")
    kind = raw[4] if len(raw) > 4 else None
    if kind not in kinds:
        raise ProtocolError(f"unexpected message kind {kind}")
    frame = _FRAMES[kind]
    if len(raw) != frame.itemsize:
        raise ProtocolError(f"kind {kind} frame has {len(raw)} bytes, not {frame.itemsize}")
    return np.frombuffer(raw, frame)[0]


@dataclass(frozen=True, eq=False)
class LandmarkMessage:
    """A robot's contribution to one measurement epoch.

    Every involved robot reports its predicted estimate, own covariance and
    accumulated Jacobian; the observer additionally reports the measurement
    value and which robot it observed (``landmark is None`` marks an
    absolute measurement). Shapes are checked at construction, and so is
    the landmark: neither the sender nor robot 0, which encodes as none.
    """

    sender: int
    time: int
    mean: np.ndarray
    cov: np.ndarray
    jac_accum: np.ndarray
    landmark: int | None = None
    z: np.ndarray | None = None

    def __post_init__(self) -> None:
        names = ("mean", "cov", "jac_accum") + (() if self.z is None else ("z",))
        _check_shapes(self, _KIND_LANDMARK, names)
        if self.landmark == self.sender:
            raise ProtocolError(f"robot {self.sender} cannot measure itself")
        if self.landmark == 0:
            raise ProtocolError("robot 0 cannot be a landmark: the frame encodes 0 as none")

    def encode(self) -> bytes:
        has_z = self.z is not None
        return _pack(
            _KIND_LANDMARK, (self.sender, self.time, self.landmark or 0, has_z),
            (self.z if has_z else np.zeros(2), self.mean, self.cov, self.jac_accum),
        )

    @classmethod
    def decode(cls, raw: bytes) -> "LandmarkMessage":
        rec = _unpack(raw, _KIND_LANDMARK)
        return cls(
            int(rec["sender"]), int(rec["time"]), rec["mean"].copy(), rec["cov"].copy(),
            rec["jac_accum"].copy(), int(rec["landmark"]) or None,
            rec["z"].copy() if rec["has_z"] else None,
        )


@dataclass(frozen=True, eq=False)
class UpdateMessage:
    """Per-robot correction broadcast by the server after an epoch.

    ``kind == "single"``: ``residual_payload`` is the whitened residual
    ``r`` (length 2) and ``gain_payload`` the robot's 3x2 update factor
    ``D``, the factored form of the correction pair ``(D r, D D')``.

    ``kind == "summed"``: the payloads are the sum of a multi-measurement
    epoch's pairs, a length-3 vector and a 3x3 outer-product sum.
    Either way the robot applies the message using only its own local state.
    """

    recipient: int
    time: int
    kind: str
    residual_payload: np.ndarray
    gain_payload: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in _UPDATE_KINDS:
            raise ProtocolError(f"unknown update-message kind {self.kind!r}")
        _check_shapes(self, _UPDATE_KINDS[self.kind], ("residual_payload", "gain_payload"))

    def encode(self) -> bytes:
        return _pack(
            _UPDATE_KINDS[self.kind], (self.recipient, self.time),
            (self.residual_payload, self.gain_payload),
        )

    @classmethod
    def decode(cls, raw: bytes) -> "UpdateMessage":
        rec = _unpack(raw, *_UPDATE_KINDS.values())
        return cls(
            int(rec["recipient"]), int(rec["time"]),
            "single" if rec["kind"] == _UPDATE_KINDS["single"] else "summed",
            rec["residual_payload"].copy(), rec["gain_payload"].copy(),
        )
