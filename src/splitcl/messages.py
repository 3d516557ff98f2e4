"""Wire formats exchanged between robot nodes and the server.

Both message kinds serialize to a fixed-length little-endian binary frame so
the payload size provably does not depend on the team size. Each kind is one
precompiled :class:`struct.Struct` in ``_FRAMES``; its ``size`` is the frame
length:

==================  =======================================================
frame               layout
==================  =======================================================
common header       ``b"SCL3"`` format tag, 1 byte kind
landmark (kind 1)   sender u32, time u32, landmark u32 (0 = none),
                    has_z u8, z 2xf64, mean 3xf64, cov 6xf64,
                    jac_accum 2xf64  (122 bytes total)
update (kind 2)     single-measurement payload: recipient u32, time u32,
                    whitened residual 2xf64, update factor 6xf64 (77 bytes)
update (kind 3)     summed multi-measurement payload: recipient u32,
                    time u32, correction vector 3xf64, correction outer
                    product 6xf64 (85 bytes)
==================  =======================================================

A single update frame is the factored form ``(r, D)`` of the correction
pair ``(D r, D D')``; a summed frame carries the summed pairs themselves.
The two symmetric 3x3 payloads, a landmark frame's ``cov`` and a summed
frame's outer product, go on the wire as their upper triangle in row-major
order ``(00, 01, 02, 11, 12, 22)``; the lower triangle of a payload handed
to the encoder is not sent, and the decoder mirrors the six entries back
into nine. Their receivers read only the upper triangle. The 3x2 update
factor is sent whole, row-major. ``jac_accum`` is the translation of the
sender's accumulated Jacobian, a shear (see :mod:`split_ekf`). Every
measurement is relative, robot to robot, so a landmark frame has one of two
roles: a landmark-role message carries no measurement (``z is None``, zero
``z`` bytes) and names no landmark; an observer's message carries ``z`` and
the landmark id. Decoding refuses a frame that would not encode back to its
own bytes, and one that fits neither role.

A message holds each payload as the tuple of its floats, row-major (a 3x3
as nine), the layout :func:`split_ekf.correct_row` and the server's
:data:`split_ekf.Row` read: a decoded frame's payloads are the floats the
kernels take, sliced from the unpacked frame. A constructor also takes an
array of a payload's documented shape and turns it into floats once.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass

import numpy as np

FORMAT_TAG = b"SCL3"
_KIND_LANDMARK = 1
_UPDATE_KINDS = {"single": 2, "summed": 3}
_FRAMES = {
    _KIND_LANDMARK: struct.Struct("<4sBIIIB13d"),
    _UPDATE_KINDS["single"]: struct.Struct("<4sBII8d"),
    _UPDATE_KINDS["summed"]: struct.Struct("<4sBII9d"),
}
# Each payload's name, array shape and number of floats.
_LANDMARK_PAYLOADS = (("mean", (3,), 3), ("cov", (3, 3), 9), ("jac_accum", (2,), 2))
_OBSERVER_PAYLOADS = (*_LANDMARK_PAYLOADS, ("z", (2,), 2))
_UPDATE_PAYLOADS = {
    "single": (("residual_payload", (2,), 2), ("gain_payload", (3, 2), 6)),
    "summed": (("residual_payload", (3,), 3), ("gain_payload", (3, 3), 9)),
}


class ProtocolError(ValueError):
    """Malformed message or payload."""


def _take_payloads(msg, payloads: tuple) -> None:
    """Hold each ``(name, shape, length)`` payload of ``msg`` as the tuple
    of its ``length`` floats: such a tuple as it is, an array of ``shape``
    turned into its floats, any other form refused. Runs on every
    construction."""
    for name, shape, length in payloads:
        value = getattr(msg, name)
        if type(value) is tuple and len(value) == length:
            continue
        if isinstance(value, np.ndarray) and value.shape == shape:
            setattr(msg, name, tuple(value.ravel().tolist()))
            continue
        got = value.shape if isinstance(value, np.ndarray) else type(value).__name__
        raise ProtocolError(
            f"{name} must be an array of shape {shape} or a tuple of {length} floats, got {got}"
        )


def _upper(m: tuple) -> tuple:
    """The six floats sent for the nine of a symmetric 3x3, its upper triangle."""
    m00, m01, m02, _, m11, m12, _, _, m22 = m
    return m00, m01, m02, m11, m12, m22


def _mirrored(u: tuple) -> tuple:
    """The nine floats of the symmetric 3x3 whose upper triangle is ``u``."""
    u00, u01, u02, u11, u12, u22 = u
    return u00, u01, u02, u01, u11, u12, u02, u12, u22


def _pack(kind: int, ids: dict[str, int], floats: tuple) -> bytes:
    """One frame; a non-integer id raises ``TypeError``, one outside u32
    ``OverflowError``, each naming its field."""
    try:
        return _FRAMES[kind].pack(FORMAT_TAG, kind, *ids.values(), *floats)
    except struct.error:
        for name, value in ids.items():
            try:
                fits = 0 <= operator.index(value) < 2 ** 32
            except TypeError:
                raise TypeError(f"{name} {value} is not an integer") from None
            if not fits:
                raise OverflowError(f"{name} {value} does not fit in u32") from None
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


@dataclass(slots=True, eq=False)
class LandmarkMessage:
    """A robot's contribution to one measurement epoch.

    Every involved robot reports its predicted estimate, own covariance and
    accumulated Jacobian; the observer additionally reports the measurement
    value ``z`` and which robot it observed, the ``landmark``. Payload forms
    are checked at construction, and so is the role: ``z`` and ``landmark``
    come together or not at all, and the landmark is neither the sender
    nor robot 0, which encodes as none. ``cov`` is symmetric: only its
    upper triangle is encoded, so its lower triangle is not part of the
    message, and a decoded ``cov`` is the upper triangle mirrored.
    """

    sender: int
    time: int
    mean: tuple
    cov: tuple
    jac_accum: tuple
    landmark: int | None = None
    z: tuple | None = None

    def __post_init__(self) -> None:
        _take_payloads(self, _LANDMARK_PAYLOADS if self.z is None else _OBSERVER_PAYLOADS)
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
        ids = {"sender": self.sender, "time": self.time, "landmark": self.landmark or 0,
               "has_z": self.z is not None}
        floats = (*(self.z or (0.0, 0.0)), *self.mean, *_upper(self.cov), *self.jac_accum)
        return _pack(_KIND_LANDMARK, ids, floats)

    @classmethod
    def decode(cls, raw: bytes) -> "LandmarkMessage":
        fields = _unpack(raw, _KIND_LANDMARK)
        _, _, sender, time, landmark, has_z = fields[:6]
        if has_z > 1:
            raise ProtocolError(f"has_z byte is {has_z}, not 0 or 1")
        # Without a measurement the z bytes are the zeros encode writes.
        if not has_z and raw[18:34] != bytes(16):
            raise ProtocolError("a frame without a measurement must carry zero z bytes")
        return cls(
            sender, time, fields[8:11], _mirrored(fields[11:17]), fields[17:],
            landmark or None, fields[6:8] if has_z else None,
        )


@dataclass(slots=True, eq=False)
class UpdateMessage:
    """Per-robot correction broadcast by the server after an epoch.

    ``kind == "single"``: ``residual_payload`` is the whitened residual
    ``r`` (length 2) and ``gain_payload`` the robot's 3x2 update factor
    ``D``, the factored form of the correction pair ``(D r, D D')``.

    ``kind == "summed"``: the payloads are the sum of a multi-measurement
    epoch's pairs, a length-3 vector and a symmetric 3x3 outer-product
    sum. Only that sum's upper triangle is encoded, so its lower triangle
    is not part of the message, and a decoded one is the upper triangle
    mirrored. Either way the robot applies the message using only its own
    local state.
    """

    recipient: int
    time: int
    kind: str
    residual_payload: tuple
    gain_payload: tuple

    def __post_init__(self) -> None:
        if self.kind not in _UPDATE_PAYLOADS:
            raise ProtocolError(f"unknown update-message kind {self.kind!r}")
        _take_payloads(self, _UPDATE_PAYLOADS[self.kind])

    def encode(self) -> bytes:
        gain = _upper(self.gain_payload) if self.kind == "summed" else self.gain_payload
        ids = {"recipient": self.recipient, "time": self.time}
        return _pack(_UPDATE_KINDS[self.kind], ids, (*self.residual_payload, *gain))

    @classmethod
    def decode(cls, raw: bytes) -> "UpdateMessage":
        fields = _unpack(raw, *_UPDATE_KINDS.values())
        _, byte, recipient, time = fields[:4]
        if byte == _UPDATE_KINDS["single"]:
            return cls(recipient, time, "single", fields[4:6], fields[6:])
        return cls(recipient, time, "summed", fields[4:7], _mirrored(fields[7:]))
