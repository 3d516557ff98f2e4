"""Wire-format round trips and size invariance."""

import dataclasses
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitcl.messages import (
    FORMAT_TAG,
    LandmarkMessage,
    ProtocolError,
    UpdateMessage,
)


def symmetric(rng):
    """A random symmetric 3x3, as a robot's covariance or a summed gain is."""
    m = rng.uniform(-1, 1, (3, 3))
    return np.triu(m) + np.triu(m, 1).T


def sample_landmark(rng, sender=3, with_z=True, landmark=5):
    return LandmarkMessage(
        sender=sender,
        time=42,
        mean=rng.uniform(-2, 2, 3),
        cov=symmetric(rng),
        jac_accum=rng.uniform(-1, 1, 2),
        landmark=landmark if with_z else None,
        z=rng.uniform(-1, 1, 2) if with_z else None,
    )


class TestLandmarkMessage:
    def test_round_trip_observer(self):
        rng = np.random.default_rng(60)
        msg = sample_landmark(rng)
        back = LandmarkMessage.decode(msg.encode())
        assert back.sender == msg.sender and back.time == msg.time
        assert back.landmark == msg.landmark
        np.testing.assert_array_equal(back.z, msg.z)
        np.testing.assert_array_equal(back.mean, msg.mean)
        np.testing.assert_array_equal(back.cov, msg.cov)
        np.testing.assert_array_equal(back.jac_accum, msg.jac_accum)

    def test_round_trip_landmark_role_omits_measurement(self):
        rng = np.random.default_rng(61)
        msg = sample_landmark(rng, with_z=False)
        back = LandmarkMessage.decode(msg.encode())
        assert back.z is None and back.landmark is None

    def test_byte_length_independent_of_content_and_fields_fixed(self):
        rng = np.random.default_rng(63)
        lengths = {
            len(sample_landmark(rng, sender=s, with_z=wz).encode())
            for s in (1, 2, 8, 16)
            for wz in (True, False)
        }
        assert len(lengths) == 1
        assert len(dataclasses.fields(LandmarkMessage)) == 7

    @pytest.mark.parametrize("field, bad", [
        ("mean", np.zeros(2)),
        ("cov", np.zeros(9)),
        ("jac_accum", np.eye(3)),
        ("jac_accum", np.zeros(3)),
        ("z", np.zeros(3)),
    ])
    def test_bad_shapes_rejected_at_construction(self, field, bad):
        msg = sample_landmark(np.random.default_rng(68))
        with pytest.raises(ProtocolError, match=field):
            dataclasses.replace(msg, **{field: bad})


    @pytest.mark.parametrize("sender, landmark, message", [
        (3, 3, "robot 3 cannot measure itself"),
        (3, 0, "robot 0 cannot be a landmark"),
        (0, 0, "robot 0 cannot measure itself"),
    ])
    def test_unencodable_landmark_rejected_at_construction(self, sender, landmark, message):
        # Landmark 0 would encode as "no landmark" and decode as a
        # measurement without a landmark; a robot measuring itself has no
        # cross factor.
        rng = np.random.default_rng(71)
        with pytest.raises(ProtocolError, match=message):
            sample_landmark(rng, sender=sender, landmark=landmark)
        with pytest.raises(ProtocolError, match=message):
            dataclasses.replace(sample_landmark(rng, sender=sender, landmark=7), landmark=landmark)

    def test_frame_naming_its_sender_as_landmark_rejected_at_decode(self):
        raw = bytearray(sample_landmark(np.random.default_rng(72), sender=3).encode())
        raw[13:17] = struct.pack("<I", 3)
        with pytest.raises(ProtocolError, match="robot 3 cannot measure itself"):
            LandmarkMessage.decode(bytes(raw))

    def test_landmark_without_measurement_rejected_at_construction(self):
        # It would encode as a landmark-role frame, which names no landmark.
        with pytest.raises(ProtocolError, match="robot 3 names landmark 4 without a measurement"):
            LandmarkMessage(3, 0, np.zeros(3), np.eye(3), np.zeros(2), landmark=4)
        # Nor is a measurement sent without its landmark: the server would
        # have no pair to correct.
        with pytest.raises(ProtocolError, match="robot 3 sends a measurement without a landmark"):
            LandmarkMessage(3, 0, np.zeros(3), np.eye(3), np.zeros(2), z=np.zeros(2))

    def test_non_canonical_frames_rejected_at_decode(self):
        # Each of these frames would decode to a message that encodes to
        # other bytes, or to one that fits neither role.
        rng = np.random.default_rng(73)
        observer = bytearray(sample_landmark(rng, sender=3, landmark=5).encode())
        role = bytearray(sample_landmark(rng, sender=3, with_z=False).encode())
        assert observer[17] == 1 and role[17] == 0 and role[18:34] == bytes(16)

        has_z_two = bytearray(observer)
        has_z_two[17] = 2
        with pytest.raises(ProtocolError, match="has_z byte is 2"):
            LandmarkMessage.decode(bytes(has_z_two))

        named_without_z = bytearray(observer)
        named_without_z[17] = 0
        named_without_z[18:34] = bytes(16)
        with pytest.raises(ProtocolError, match="names landmark 5 without a measurement"):
            LandmarkMessage.decode(bytes(named_without_z))

        z_without_landmark = bytearray(observer)
        z_without_landmark[13:17] = bytes(4)
        with pytest.raises(ProtocolError, match="measurement without a landmark"):
            LandmarkMessage.decode(bytes(z_without_landmark))

        for z in (1.0, -0.0, 5e-324):
            stray_z = bytearray(role)
            stray_z[26:34] = struct.pack("<d", z)
            with pytest.raises(ProtocolError, match="zero z bytes"):
                LandmarkMessage.decode(bytes(stray_z))


class TestUpdateMessage:
    def test_single_round_trip(self):
        rng = np.random.default_rng(64)
        msg = UpdateMessage(
            recipient=2,
            time=7,
            kind="single",
            residual_payload=rng.uniform(-1, 1, 2),
            gain_payload=rng.uniform(-1, 1, (3, 2)),
        )
        back = UpdateMessage.decode(msg.encode())
        assert (back.recipient, back.time, back.kind) == (2, 7, "single")
        np.testing.assert_array_equal(back.residual_payload, msg.residual_payload)
        np.testing.assert_array_equal(back.gain_payload, msg.gain_payload)

    def test_summed_round_trip(self):
        rng = np.random.default_rng(65)
        msg = UpdateMessage(
            recipient=9,
            time=100,
            kind="summed",
            residual_payload=rng.uniform(-1, 1, 3),
            gain_payload=symmetric(rng),
        )
        back = UpdateMessage.decode(msg.encode())
        assert back.kind == "summed"
        np.testing.assert_array_equal(back.residual_payload, msg.residual_payload)
        np.testing.assert_array_equal(back.gain_payload, msg.gain_payload)

    def test_only_the_upper_triangle_of_a_symmetric_payload_is_sent(self):
        # The lower triangle handed to the encoder is not part of the
        # message: the decoded matrix is the upper triangle mirrored.
        rng = np.random.default_rng(74)
        upper = np.triu(rng.uniform(-1, 1, (3, 3)))
        lopsided = upper + np.tril(rng.uniform(-1, 1, (3, 3)), -1)
        mirrored = upper + np.triu(upper, 1).T
        summed = UpdateMessage(9, 100, "summed", np.zeros(3), lopsided)
        assert summed.encode() == UpdateMessage(9, 100, "summed", np.zeros(3), mirrored).encode()
        mirrored_floats = tuple(mirrored.ravel().tolist())
        assert UpdateMessage.decode(summed.encode()).gain_payload == mirrored_floats
        landmark = dataclasses.replace(sample_landmark(rng), cov=lopsided)
        assert LandmarkMessage.decode(landmark.encode()).cov == mirrored_floats

    def test_bad_shapes_rejected(self):
        bad = [
            ("single", np.zeros(3), np.zeros((3, 2))),
            ("summed", np.zeros(3), np.zeros((3, 2))),
            ("other", np.zeros(2), np.zeros((3, 2))),
            ("single", [0.0, 0.0, 0.0], np.zeros((3, 2))),
            ("single", np.zeros(2), [[0.0, 0.0]] * 2),
            ("summed", [0.0, 0.0], [[0.0] * 3] * 3),
            ("summed", np.zeros(3), np.zeros(9)),
        ]
        for kind, residual, gain in bad:
            with pytest.raises(ProtocolError):
                UpdateMessage(1, 0, kind, residual, gain)

    def test_float_tuple_payloads_round_trip(self):
        msg = UpdateMessage(4, 3, "single", (0.5, -1.0), (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        back = UpdateMessage.decode(msg.encode())
        assert back.residual_payload == (0.5, -1.0)
        assert back.gain_payload == msg.gain_payload

    def test_format_tag_checked(self):
        raw = bytearray(
            UpdateMessage(1, 0, "single", np.zeros(2), np.zeros((3, 2))).encode()
        )
        raw[:4] = b"XXXX"
        with pytest.raises(ProtocolError):
            UpdateMessage.decode(bytes(raw))
        assert FORMAT_TAG == b"SCL3"
        # A frame of the previous layout, which sent symmetric payloads
        # whole, is refused by its tag.
        old = struct.pack("<4sBII12d", b"SCL2", 3, 1, 0, *np.zeros(12))
        with pytest.raises(ProtocolError, match="unknown format tag b'SCL2'"):
            UpdateMessage.decode(old)

    def test_truncated_and_padded_frames_rejected(self):
        raw = UpdateMessage(1, 0, "single", np.zeros(2), np.zeros((3, 2))).encode()
        for bad in (raw[:10], raw[:5], raw[:4], b"", raw + b"\x00"):
            with pytest.raises(ProtocolError):
                UpdateMessage.decode(bad)

    def test_kind_byte_must_match_the_frame_length(self):
        single = UpdateMessage(1, 0, "single", np.zeros(2), np.zeros((3, 2))).encode()
        summed = UpdateMessage(1, 0, "summed", np.zeros(3), np.zeros((3, 3))).encode()
        with pytest.raises(ProtocolError):
            UpdateMessage.decode(single[:4] + b"\x03" + single[5:])
        with pytest.raises(ProtocolError):
            UpdateMessage.decode(summed[:4] + b"\x02" + summed[5:])

    def test_kind_mixup_rejected(self):
        raw = sample_landmark(np.random.default_rng(66)).encode()
        with pytest.raises(ProtocolError):
            UpdateMessage.decode(raw)


def test_frame_lengths_match_the_documented_layout():
    # 5-byte header + 13-byte ids + z, mean, cov's upper triangle,
    # jac_accum (16 + 24 + 48 + 16)
    rng = np.random.default_rng(67)
    assert len(sample_landmark(rng).encode()) == 122
    # 5-byte header + 8-byte ids + 2 + 6 floats, or 3 + 6 floats
    assert len(UpdateMessage(1, 0, "single", np.zeros(2), np.zeros((3, 2))).encode()) == 77
    assert len(UpdateMessage(1, 0, "summed", np.zeros(3), np.zeros((3, 3))).encode()) == 85


def upper_triangle(m):
    """A 3x3's upper triangle, field by field in the order it is sent; ``m``
    is an array or its nine floats, row-major."""
    m = np.reshape(m, (3, 3))
    return [m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2]]


def test_frames_are_the_documented_bytes():
    # Each frame built field by field, independently of the codec.
    rng = np.random.default_rng(69)
    observer = sample_landmark(rng, sender=3, landmark=5)
    floats = [*observer.z, *observer.mean, *upper_triangle(observer.cov), *observer.jac_accum]
    assert observer.encode() == struct.pack("<4sBIIIB13d", b"SCL3", 1, 3, 42, 5, 1, *floats)

    observed = sample_landmark(rng, sender=2 ** 32 - 1, with_z=False)
    floats = [0.0, 0.0, *observed.mean, *upper_triangle(observed.cov), *observed.jac_accum]
    assert observed.encode() == struct.pack(
        "<4sBIIIB13d", b"SCL3", 1, 2 ** 32 - 1, 42, 0, 0, *floats
    )

    r, g = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (3, 2))
    single = UpdateMessage(7, 11, "single", r, g)
    assert single.encode() == struct.pack("<4sBII8d", b"SCL3", 2, 7, 11, *r, *g.ravel())

    r, g = rng.uniform(-1, 1, 3), symmetric(rng)
    summed = UpdateMessage(9, 2 ** 32 - 1, "summed", r, g)
    assert summed.encode() == struct.pack(
        "<4sBII9d", b"SCL3", 3, 9, 2 ** 32 - 1, *r, *upper_triangle(g)
    )


@pytest.mark.parametrize("bad, error", [
    (-1, OverflowError),
    (2 ** 32, OverflowError),
    (np.int64(-1), OverflowError),
    (np.int64(2 ** 32), OverflowError),
    (3.7, TypeError),
])
def test_ids_outside_u32_raise_at_encode(bad, error):
    # The error names the field that does not fit, e.g. "time -1 does not
    # fit in u32", not every field an id.
    rng = np.random.default_rng(70)
    messages = [
        ("recipient", UpdateMessage(bad, 0, "single", np.zeros(2), np.zeros((3, 2)))),
        ("time", UpdateMessage(1, bad, "summed", np.zeros(3), np.zeros((3, 3)))),
        ("sender", dataclasses.replace(sample_landmark(rng), sender=bad)),
        ("time", dataclasses.replace(sample_landmark(rng), time=bad)),
        ("landmark", dataclasses.replace(sample_landmark(rng), landmark=bad)),
    ]
    for field, msg in messages:
        with pytest.raises(error, match=rf"^{field} {re.escape(str(bad))} "):
            msg.encode()


def as_floats(payload):
    """An array payload as the tuple of its floats, row-major."""
    return tuple(np.ravel(payload).tolist())


class TestPayloadForms:
    """A payload is taken as an array of its documented shape or as a tuple
    of its documented number of floats; any other form names the field."""

    def test_arrays_and_float_tuples_make_the_same_message(self):
        rng = np.random.default_rng(76)
        arrays = sample_landmark(rng)
        floats = LandmarkMessage(
            arrays.sender, arrays.time, arrays.mean, arrays.cov, arrays.jac_accum,
            arrays.landmark, arrays.z,
        )
        assert floats.encode() == arrays.encode()
        for name in ("mean", "cov", "jac_accum", "z"):
            assert type(getattr(arrays, name)) is tuple
            assert getattr(floats, name) == getattr(arrays, name)
        r, g = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (3, 2))
        single = UpdateMessage(7, 11, "single", r, g)
        assert (single.residual_payload, single.gain_payload) == (as_floats(r), as_floats(g))
        again = UpdateMessage(7, 11, "single", as_floats(r), as_floats(g))
        assert again.encode() == single.encode()
        v, m = rng.uniform(-1, 1, 3), symmetric(rng)
        summed = UpdateMessage(9, 2, "summed", v, m)
        assert (summed.residual_payload, summed.gain_payload) == (as_floats(v), as_floats(m))
        assert UpdateMessage(9, 2, "summed", as_floats(v), as_floats(m)).encode() == summed.encode()

    @pytest.mark.parametrize("bad", [
        pytest.param(lambda v: list(np.ravel(v)), id="list"),
        pytest.param(lambda v: as_floats(v)[:-1], id="short-tuple"),
        pytest.param(lambda v: (*as_floats(v), 0.0), id="long-tuple"),
        pytest.param(lambda v: np.ravel(v)[:-1], id="short-array"),
        pytest.param(lambda v: np.reshape(v, (1, -1)), id="reshaped-array"),
        pytest.param(lambda v: tuple(np.atleast_2d(v)), id="tuple-of-rows"),
        pytest.param(lambda v: 1.0, id="float"),
        pytest.param(lambda v: None, id="none"),
    ])
    @pytest.mark.parametrize("field", ["mean", "cov", "jac_accum", "z"])
    def test_other_landmark_forms_are_refused_naming_the_field(self, field, bad):
        msg = sample_landmark(np.random.default_rng(77))
        value = np.reshape(getattr(msg, field), {"cov": (3, 3)}.get(field, -1))
        if field == "z" and bad(value) is None:
            return  # a frame without z is the landmark role
        with pytest.raises(ProtocolError, match=rf"^{field} must be an array of shape"):
            dataclasses.replace(msg, **{field: bad(value)})

    @pytest.mark.parametrize("kind, field, shape", [
        ("single", "residual_payload", (2,)), ("single", "gain_payload", (3, 2)),
        ("summed", "residual_payload", (3,)), ("summed", "gain_payload", (3, 3)),
    ])
    def test_other_update_forms_are_refused_naming_the_field(self, kind, field, shape):
        sound = {
            "residual_payload": np.zeros(3 if kind == "summed" else 2),
            "gain_payload": np.zeros((3, 3) if kind == "summed" else (3, 2)),
        }
        value = np.ones(shape)
        bads = [list(value.ravel()), as_floats(value)[1:], value.ravel()[1:],
                value.reshape(1, -1), tuple(np.atleast_2d(value)), 0.0, None]
        if value.T.shape != shape:
            bads.append(value.T)
        for bad in bads:
            with pytest.raises(ProtocolError, match=rf"^{field} must be an array of shape"):
                UpdateMessage(1, 0, kind, **{**sound, field: bad})

    @pytest.mark.parametrize("entry", ["a", None], ids=["str", "none"])
    def test_a_non_float_entry_is_refused_at_encode_naming_the_payload(self, entry):
        # A tuple's entries are not checked at construction; encode, which
        # packs them, names the payload instead of raising struct.error.
        landmark = sample_landmark(np.random.default_rng(78))
        messages = [
            (name, dataclasses.replace(landmark, **{name: (entry, *getattr(landmark, name)[1:])}))
            for name in ("mean", "cov", "jac_accum", "z")
        ]
        for kind, residual, gain in (("single", 2, 6), ("summed", 3, 9)):
            sound = {"residual_payload": (0.0,) * residual, "gain_payload": (0.0,) * gain}
            for name, floats in sound.items():
                payloads = {**sound, name: (entry, *floats[1:])}
                messages.append((name, UpdateMessage(1, 0, kind, **payloads)))
        for name, msg in messages:
            with pytest.raises(ProtocolError, match=rf"^{name} entry {entry!r} is not a float$"):
                msg.encode()


# Signed zeros, the smallest and largest subnormals, and quiet and
# signalling NaNs with payload bits, as raw 64-bit patterns.
SPECIAL_BITS = [
    0x8000000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
    0x7FF8000000000123, 0xFFF8DEADBEEF0001, 0x7FF0000000000001, 0xFFF4000000000000,
]


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@pytest.mark.parametrize("shift", range(len(SPECIAL_BITS)))
def test_decoded_frames_reencode_to_their_bytes_with_special_floats(shift):
    # Each payload slot gets every special pattern in turn: the decoded
    # frame's floats carry the sent bits, and it encodes to its own bytes.
    def floats(n):
        return [from_bits(SPECIAL_BITS[(shift + i) % len(SPECIAL_BITS)]) for i in range(n)]

    frames = [
        (LandmarkMessage, struct.pack("<4sBIIIB13d", b"SCL3", 1, 3, 42, 5, 1, *floats(13))),
        (LandmarkMessage, struct.pack("<4sBIIIB13d", b"SCL3", 1, 3, 42, 0, 0, 0.0, 0.0,
                                      *floats(11))),
        (UpdateMessage, struct.pack("<4sBII8d", b"SCL3", 2, 7, 11, *floats(8))),
        (UpdateMessage, struct.pack("<4sBII9d", b"SCL3", 3, 9, 11, *floats(9))),
    ]
    for codec, raw in frames:
        msg = codec.decode(raw)
        assert msg.encode() == raw
        if codec is LandmarkMessage:
            sent = [*(msg.z or (0.0, 0.0)), *msg.mean, *upper_triangle(msg.cov), *msg.jac_accum]
        else:
            gain = msg.gain_payload
            sent = [*msg.residual_payload, *(upper_triangle(gain) if len(gain) == 9 else gain)]
        assert float_bits(sent) == raw[-8 * len(sent):]


# Every 64-bit pattern is a float: signed zeros, subnormals, infinities and
# NaNs with any payload, signalling ones included.
any_float = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072009e-308, math.inf, -math.inf, math.nan]),
    st.floats(),
    st.integers(0, 2 ** 64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
)
u32 = st.integers(0, 2 ** 32 - 1)


@st.composite
def frames(draw):
    """``(codec, raw, ids, floats)``: a valid frame of any kind, packed field
    by field independently of the codec, with the fields it carries."""
    role = draw(st.sampled_from(["observer", "landmark-role", "single", "summed"]))
    first, time = draw(u32), draw(u32)
    if role in ("single", "summed"):
        floats = draw(st.lists(any_float, min_size=8, max_size=8) if role == "single"
                      else st.lists(any_float, min_size=9, max_size=9))
        kind = 2 if role == "single" else 3
        raw = struct.pack(f"<4sBII{len(floats)}d", b"SCL3", kind, first, time, *floats)
        return UpdateMessage, raw, (first, time, role), floats
    landmark = draw(u32.filter(lambda b: b not in (0, first))) if role == "observer" else 0
    has_z = role == "observer"
    floats = draw(st.lists(any_float, min_size=13, max_size=13))
    if not has_z:
        floats[:2] = [0.0, 0.0]
    raw = struct.pack("<4sBIIIB13d", b"SCL3", 1, first, time, landmark, has_z, *floats)
    return LandmarkMessage, raw, (first, time, landmark or None, has_z), floats


def float_bits(values) -> bytes:
    """The IEEE bytes of ``values``, to compare floats bit for bit."""
    values = [float(v) for v in values]
    return struct.pack(f"<{len(values)}d", *values)


class TestCodecProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(frame=frames())
    def test_every_frame_round_trips_bit_for_bit(self, frame):
        codec, raw, ids, floats = frame
        msg = codec.decode(raw)
        assert msg.encode() == raw
        # A symmetric payload is sent as its upper triangle and decodes to a
        # 3x3 whose two triangles are the same floats, bit for bit.
        if codec is LandmarkMessage:
            assert (msg.sender, msg.time, msg.landmark, msg.z is not None) == ids
            z = [0.0, 0.0] if msg.z is None else msg.z
            # The payloads are the floats the row kernel takes: a 3x3 as
            # nine, row-major.
            assert [len(p) for p in (z, msg.mean, msg.cov, msg.jac_accum)] == [2, 3, 9, 2]
            payloads = (z, msg.mean, upper_triangle(msg.cov), msg.jac_accum)
            mirrored = [msg.cov]
        else:
            assert (msg.recipient, msg.time, msg.kind) == ids
            gain, summed = msg.gain_payload, msg.kind == "summed"
            assert (len(msg.residual_payload), len(gain)) == ((3, 9) if summed else (2, 6))
            payloads = (msg.residual_payload, upper_triangle(gain) if summed else gain)
            mirrored = [gain] if summed else []
        for m in mirrored:
            m = np.reshape(m, (3, 3))
            assert float_bits(m.ravel()) == float_bits(m.T.ravel())
        assert float_bits(np.concatenate([np.ravel(p) for p in payloads])) == float_bits(floats)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(frame=frames(), pos=st.sampled_from(range(18)) | st.integers(0, 121),
           byte=st.sampled_from([0, 1, 2, 3, 255]) | st.integers(0, 255))
    def test_corrupted_frame_is_refused_or_reads_as_itself(self, frame, pos, byte):
        # Header bytes and small values are drawn often, so the tag, the
        # kind, the ids and the has_z byte are all hit.
        codec, raw, _, _ = frame
        bad = bytearray(raw)
        bad[pos % len(raw)] = byte
        try:
            msg = codec.decode(bytes(bad))
        except ProtocolError:
            return
        assert msg.encode() == bytes(bad)
