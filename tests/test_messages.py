"""Wire-format round trips and size invariance."""

import dataclasses

import numpy as np
import pytest

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

    def test_absolute_announcement_round_trip(self):
        rng = np.random.default_rng(62)
        msg = dataclasses.replace(sample_landmark(rng), landmark=None)
        back = LandmarkMessage.decode(msg.encode())
        assert back.landmark is None
        np.testing.assert_array_equal(back.z, msg.z)

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
        with pytest.raises(ProtocolError):
            UpdateMessage(1, 0, "single", np.zeros(3), np.zeros((3, 2)))
        with pytest.raises(ProtocolError):
            UpdateMessage(1, 0, "summed", np.zeros(3), np.zeros((3, 2)))
        with pytest.raises(ProtocolError):
            UpdateMessage(1, 0, "other", np.zeros(2), np.zeros((3, 2)))

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
        with pytest.raises(ProtocolError):
            UpdateMessage.decode(raw[:10])
        with pytest.raises(ProtocolError):
            UpdateMessage.decode(raw + b"\x00")

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
