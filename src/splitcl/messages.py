"""Wire formats exchanged between robot nodes and the server.

Both message kinds serialize to a fixed-length little-endian binary frame so
the payload size provably does not depend on the team size. Each kind is one
precompiled :class:`struct.Struct` in ``_FRAMES``; its ``size`` is the frame
length:

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
accumulated Jacobian, a shear (see :mod:`split_ekf`). Every measurement
is relative, robot to robot, so a landmark frame has one of two roles: a
landmark-role message carries no measurement (``z is None``, zero ``z``
bytes) and names no landmark; an observer's message carries ``z`` and the
landmark id. Decoding refuses a frame that would not encode back to its
own bytes, and one that fits neither role.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass

import numpy as np

FORMAT_TAG = b"SCL2"
_KIND_LANDMARK = 1
_UPDATE_KINDS = {"single": 2, "summed": 3}
_FRAMES = {
    _KIND_LANDMARK: struct.Struct("<4sBIIIB16d"),
    _UPDATE_KINDS["single"]: struct.Struct("<4sBII8d"),
    _UPDATE_KINDS["summed"]: struct.Struct("<4sBII12d"),
}
_LANDMARK_SHAPES = {"mean": (3,), "cov": (3, 3), "jac_accum": (2,)}
_OBSERVER_SHAPES = {**_LANDMARK_SHAPES, "z": (2,)}
_UPDATE_SHAPES = {
    "single": {"residual_payload": (2,), "gain_payload": (3, 2)},
    "summed": {"residual_payload": (3,), "gain_payload": (3, 3)},
}


class ProtocolError(ValueError):
    """Malformed message or payload."""


def _check_shapes(msg, shapes: dict[str, tuple[int, ...]]) -> None:
    """Every payload named in ``shapes`` has its shape there. Runs on every
    construction, so an array's ``shape`` is read directly."""
    for name, want in shapes.items():
        value = getattr(msg, name)
        got = value.shape if type(value) is np.ndarray else np.shape(value)
        if got != want:
            raise ProtocolError(f"{name} must have shape {want}, got {got}")


def _floats(payload) -> list[float]:
    """A payload's entries in row-major order."""
    if type(payload) is not np.ndarray:
        payload = np.asarray(payload, dtype=float)
    return payload.ravel().tolist()


def _pack(kind: int, ints: tuple, floats: list[float]) -> bytes:
    """One frame; a non-integer id raises ``TypeError``, one outside u32
    ``OverflowError``."""
    try:
        return _FRAMES[kind].pack(FORMAT_TAG, kind, *ints, *floats)
    except struct.error:
        for value in ints:
            if not 0 <= operator.index(value) < 2 ** 32:
                raise OverflowError(f"id {value} does not fit in u32") from None
        raise


def _unpack(raw: bytes, *kinds: int) -> tuple:
    """The fields of a frame of one of ``kinds``, or :class:`ProtocolError`."""
    if raw[:4] != FORMAT_TAG:
        raise ProtocolError(f"unknown format tag {bytes(raw[:4])!r}")
    kind = raw[4] if len(raw) > 4 else None
    if kind not in kinds:
        raise ProtocolError(f"unexpected message kind {kind}")
    frame = _FRAMES[kind]
    if len(raw) != frame.size:
        raise ProtocolError(f"kind {kind} frame has {len(raw)} bytes, not {frame.size}")
    return frame.unpack(raw)


@dataclass(frozen=True, eq=False)
class LandmarkMessage:
    """A robot's contribution to one measurement epoch.

    Every involved robot reports its predicted estimate, own covariance and
    accumulated Jacobian; the observer additionally reports the measurement
    value ``z`` and which robot it observed, the ``landmark``. Shapes are
    checked at construction, and so is the role: ``z`` and ``landmark``
    come together or not at all, and the landmark is neither the sender
    nor robot 0, which encodes as none.
    """

    sender: int
    time: int
    mean: np.ndarray
    cov: np.ndarray
    jac_accum: np.ndarray
    landmark: int | None = None
    z: np.ndarray | None = None

    def __post_init__(self) -> None:
        _check_shapes(self, _LANDMARK_SHAPES if self.z is None else _OBSERVER_SHAPES)
        if self.z is None and self.landmark is not None:
            raise ProtocolError(
                f"robot {self.sender} names landmark {self.landmark} without a measurement"
            )
        if self.z is not None and self.landmark is None:
            raise ProtocolError(f"robot {self.sender} sends a measurement without a landmark")
        if self.landmark == self.sender:
            raise ProtocolError(f"robot {self.sender} cannot measure itself")
        if self.landmark == 0:
            raise ProtocolError("robot 0 cannot be a landmark: the frame encodes 0 as none")

    def encode(self) -> bytes:
        has_z = self.z is not None
        floats = [
            *(_floats(self.z) if has_z else (0.0, 0.0)),
            *_floats(self.mean), *_floats(self.cov), *_floats(self.jac_accum),
        ]
        return _pack(_KIND_LANDMARK, (self.sender, self.time, self.landmark or 0, has_z), floats)

    @classmethod
    def decode(cls, raw: bytes) -> "LandmarkMessage":
        _, _, sender, time, landmark, has_z, *floats = _unpack(raw, _KIND_LANDMARK)
        if has_z > 1:
            raise ProtocolError(f"has_z byte is {has_z}, not 0 or 1")
        # Without a measurement the z bytes are the zeros encode writes.
        if not has_z and raw[18:34] != bytes(16):
            raise ProtocolError("a frame without a measurement must carry zero z bytes")
        values = np.array(floats)
        return cls(
            sender, time, values[2:5], values[5:14].reshape(3, 3), values[14:],
            landmark or None, values[:2] if has_z else None,
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
        if self.kind not in _UPDATE_SHAPES:
            raise ProtocolError(f"unknown update-message kind {self.kind!r}")
        _check_shapes(self, _UPDATE_SHAPES[self.kind])

    def encode(self) -> bytes:
        floats = [*_floats(self.residual_payload), *_floats(self.gain_payload)]
        return _pack(_UPDATE_KINDS[self.kind], (self.recipient, self.time), floats)

    @classmethod
    def decode(cls, raw: bytes) -> "UpdateMessage":
        _, byte, recipient, time, *floats = _unpack(raw, *_UPDATE_KINDS.values())
        kind = "single" if byte == _UPDATE_KINDS["single"] else "summed"
        (n,) = _UPDATE_SHAPES[kind]["residual_payload"]
        values = np.array(floats)
        return cls(recipient, time, kind, values[:n], values[n:].reshape(3, n))
