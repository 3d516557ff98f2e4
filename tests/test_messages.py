"""Wire-format round trips and size invariance."""

import dataclasses
import math
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


def sample_landmark(rng, sender=3, with_z=True, landmark=5):
    return LandmarkMessage(
        sender=sender,
        time=42,
        mean=rng.uniform(-2, 2, 3),
        cov=rng.uniform(-1, 1, (3, 3)),
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
            gain_payload=rng.uniform(-1, 1, (3, 3)),
        )
        back = UpdateMessage.decode(msg.encode())
        assert back.kind == "summed"
        np.testing.assert_array_equal(back.gain_payload, msg.gain_payload)

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

    def test_right_shaped_list_payloads_round_trip(self):
        msg = UpdateMessage(4, 3, "single", [0.5, -1.0], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        back = UpdateMessage.decode(msg.encode())
        np.testing.assert_array_equal(back.residual_payload, [0.5, -1.0])
        np.testing.assert_array_equal(back.gain_payload, msg.gain_payload)

    def test_format_tag_checked(self):
        raw = bytearray(
            UpdateMessage(1, 0, "single", np.zeros(2), np.zeros((3, 2))).encode()
        )
        raw[:4] = b"XXXX"
        with pytest.raises(ProtocolError):
            UpdateMessage.decode(bytes(raw))
        assert FORMAT_TAG == b"SCL2"

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
    # 5-byte header + 13-byte ids + z, mean, cov, jac_accum (16 + 24 + 72 + 16)
    rng = np.random.default_rng(67)
    assert len(sample_landmark(rng).encode()) == 146
    # 5-byte header + 8-byte ids + 2 + 6 floats, or 3 + 9 floats
    assert len(UpdateMessage(1, 0, "single", np.zeros(2), np.zeros((3, 2))).encode()) == 77
    assert len(UpdateMessage(1, 0, "summed", np.zeros(3), np.zeros((3, 3))).encode()) == 109


def test_frames_are_the_documented_bytes():
    # Each frame built field by field, independently of the codec.
    rng = np.random.default_rng(69)
    observer = sample_landmark(rng, sender=3, landmark=5)
    floats = [*observer.z, *observer.mean, *observer.cov.ravel(), *observer.jac_accum]
    assert observer.encode() == struct.pack("<4sBIIIB16d", b"SCL2", 1, 3, 42, 5, 1, *floats)

    observed = sample_landmark(rng, sender=2 ** 32 - 1, with_z=False)
    floats = [0.0, 0.0, *observed.mean, *observed.cov.ravel(), *observed.jac_accum]
    assert observed.encode() == struct.pack(
        "<4sBIIIB16d", b"SCL2", 1, 2 ** 32 - 1, 42, 0, 0, *floats
    )

    r, g = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (3, 2))
    single = UpdateMessage(7, 11, "single", r, g)
    assert single.encode() == struct.pack("<4sBII8d", b"SCL2", 2, 7, 11, *r, *g.ravel())

    r, g = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, (3, 3))
    summed = UpdateMessage(9, 2 ** 32 - 1, "summed", r, g)
    assert summed.encode() == struct.pack(
        "<4sBII12d", b"SCL2", 3, 9, 2 ** 32 - 1, *r, *g.ravel()
    )


@pytest.mark.parametrize("bad, error", [
    (-1, OverflowError),
    (2 ** 32, OverflowError),
    (np.int64(-1), OverflowError),
    (np.int64(2 ** 32), OverflowError),
    (3.7, TypeError),
])
def test_ids_outside_u32_raise_at_encode(bad, error):
    rng = np.random.default_rng(70)
    messages = [
        UpdateMessage(bad, 0, "single", np.zeros(2), np.zeros((3, 2))),
        UpdateMessage(1, bad, "summed", np.zeros(3), np.zeros((3, 3))),
        dataclasses.replace(sample_landmark(rng), sender=bad),
        dataclasses.replace(sample_landmark(rng), time=bad),
        dataclasses.replace(sample_landmark(rng), landmark=bad),
    ]
    for msg in messages:
        with pytest.raises(error):
            msg.encode()


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
                      else st.lists(any_float, min_size=12, max_size=12))
        kind = 2 if role == "single" else 3
        raw = struct.pack(f"<4sBII{len(floats)}d", b"SCL2", kind, first, time, *floats)
        return UpdateMessage, raw, (first, time, role), floats
    landmark = draw(u32.filter(lambda b: b not in (0, first))) if role == "observer" else 0
    has_z = role == "observer"
    floats = draw(st.lists(any_float, min_size=16, max_size=16))
    if not has_z:
        floats[:2] = [0.0, 0.0]
    raw = struct.pack("<4sBIIIB16d", b"SCL2", 1, first, time, landmark, has_z, *floats)
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
        if codec is LandmarkMessage:
            assert (msg.sender, msg.time, msg.landmark, msg.z is not None) == ids
            z = [0.0, 0.0] if msg.z is None else msg.z
            payloads = (z, msg.mean, msg.cov, msg.jac_accum)
            assert [np.shape(p) for p in payloads] == [(2,), (3,), (3, 3), (2,)]
        else:
            assert (msg.recipient, msg.time, msg.kind) == ids
            payloads = (msg.residual_payload, msg.gain_payload)
        assert float_bits(np.concatenate([np.ravel(p) for p in payloads])) == float_bits(floats)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(frame=frames(), pos=st.sampled_from(range(18)) | st.integers(0, 145),
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
