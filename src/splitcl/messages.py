"""Wire formats exchanged between robot nodes and the server.

Both message kinds serialize to a fixed-length little-endian binary frame so
the payload size provably does not depend on the team size:

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

Matrices are row-major; ``jac_accum`` is the translation of the sender's
accumulated Jacobian, a shear (see :mod:`split_ekf`). A landmark-role
message carries no measurement (``z is None``); an observer's message
carries ``z`` plus the landmark id, or ``z`` alone for an absolute
measurement.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

FORMAT_TAG = b"SCL2"
_KIND_LANDMARK = 1
_KIND_UPDATE_SINGLE = 2
_KIND_UPDATE_SUMMED = 3

_HEADER = struct.Struct("<4sB")
_LANDMARK_HEAD = struct.Struct("<IIIB")
_UPDATE_HEAD = struct.Struct("<II")


class ProtocolError(ValueError):
    """Malformed message or payload."""


def _f64(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def _read_f64(raw: bytes, offset: int, shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    count = int(np.prod(shape))
    end = offset + 8 * count
    if len(raw) < end:
        raise ProtocolError("message truncated inside payload")
    arr = np.frombuffer(raw[offset:end], dtype="<f8").reshape(shape).copy()
    return arr, end


def _unpack(struct_obj: struct.Struct, raw: bytes, offset: int) -> tuple:
    if len(raw) < offset + struct_obj.size:
        raise ProtocolError("message truncated inside header")
    return struct_obj.unpack_from(raw, offset)


@dataclass(frozen=True, eq=False)
class LandmarkMessage:
    """A robot's contribution to one measurement epoch.

    Every involved robot reports its predicted estimate, own covariance and
    accumulated Jacobian; the observer additionally reports the measurement
    value and which robot it observed (``landmark is None`` marks an
    absolute measurement). Shapes are checked at construction.
    """

    sender: int
    time: int
    mean: np.ndarray
    cov: np.ndarray
    jac_accum: np.ndarray
    landmark: int | None = None
    z: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name, want in (("mean", (3,)), ("cov", (3, 3)), ("jac_accum", (2,)), ("z", (2,))):
            got = np.shape(getattr(self, name))
            if got != want and not (name == "z" and self.z is None):
                raise ProtocolError(f"landmark {name} must have shape {want}, got {got}")

    def encode(self) -> bytes:
        has_z = self.z is not None
        z = self.z if has_z else np.zeros(2)
        return b"".join([
            _HEADER.pack(FORMAT_TAG, _KIND_LANDMARK),
            _LANDMARK_HEAD.pack(self.sender, self.time, self.landmark or 0, int(has_z)),
            _f64(z),
            _f64(self.mean),
            _f64(self.cov),
            _f64(self.jac_accum),
        ])

    @classmethod
    def decode(cls, raw: bytes) -> "LandmarkMessage":
        offset = _check_header(raw, _KIND_LANDMARK)
        sender, time, landmark, has_z = _unpack(_LANDMARK_HEAD, raw, offset)
        offset += _LANDMARK_HEAD.size
        z, offset = _read_f64(raw, offset, (2,))
        mean, offset = _read_f64(raw, offset, (3,))
        cov, offset = _read_f64(raw, offset, (3, 3))
        jac_accum, offset = _read_f64(raw, offset, (2,))
        _check_consumed(raw, offset)
        return cls(sender, time, mean, cov, jac_accum, landmark or None, z if has_z else None)


@dataclass(frozen=True, eq=False)
class UpdateMessage:
    """Per-robot correction broadcast by the server after an epoch.

    ``kind == "single"``: ``residual_payload`` is the whitened residual
    (length 2) and ``gain_payload`` the robot's 3x2 update factor.

    ``kind == "summed"``: the payloads are the pre-combined corrections of a
    multi-measurement epoch, a length-3 vector and a 3x3 outer-product sum.
    Either way the robot applies the message using only its own local state.
    """

    recipient: int
    time: int
    kind: str
    residual_payload: np.ndarray
    gain_payload: np.ndarray

    def __post_init__(self) -> None:
        shapes = {
            "single": ((2,), (3, 2)),
            "summed": ((3,), (3, 3)),
        }
        if self.kind not in shapes:
            raise ProtocolError(f"unknown update-message kind {self.kind!r}")
        want_r, want_g = shapes[self.kind]
        if self.residual_payload.shape != want_r or self.gain_payload.shape != want_g:
            raise ProtocolError(
                f"{self.kind} payload shapes must be {want_r}/{want_g}, got "
                f"{self.residual_payload.shape}/{self.gain_payload.shape}"
            )

    def encode(self) -> bytes:
        kind = _KIND_UPDATE_SINGLE if self.kind == "single" else _KIND_UPDATE_SUMMED
        return b"".join([
            _HEADER.pack(FORMAT_TAG, kind),
            _UPDATE_HEAD.pack(self.recipient, self.time),
            _f64(self.residual_payload),
            _f64(self.gain_payload),
        ])

    @classmethod
    def decode(cls, raw: bytes) -> "UpdateMessage":
        offset = _check_header(raw, _KIND_UPDATE_SINGLE, _KIND_UPDATE_SUMMED)
        kind_byte = raw[_HEADER.size - 1]
        recipient, time = _unpack(_UPDATE_HEAD, raw, offset)
        offset += _UPDATE_HEAD.size
        if kind_byte == _KIND_UPDATE_SINGLE:
            kind = "single"
            residual, offset = _read_f64(raw, offset, (2,))
            gain, offset = _read_f64(raw, offset, (3, 2))
        else:
            kind = "summed"
            residual, offset = _read_f64(raw, offset, (3,))
            gain, offset = _read_f64(raw, offset, (3, 3))
        _check_consumed(raw, offset)
        return cls(
            recipient=recipient,
            time=time,
            kind=kind,
            residual_payload=residual,
            gain_payload=gain,
        )


def _check_header(raw: bytes, *kinds: int) -> int:
    if len(raw) < _HEADER.size:
        raise ProtocolError("message truncated before header")
    tag, kind = _HEADER.unpack_from(raw, 0)
    if tag != FORMAT_TAG:
        raise ProtocolError(f"unknown format tag {tag!r}")
    if kind not in kinds:
        raise ProtocolError(f"unexpected message kind {kind}")
    return _HEADER.size


def _check_consumed(raw: bytes, offset: int) -> None:
    if len(raw) != offset:
        raise ProtocolError(f"message has {len(raw) - offset} trailing bytes")
