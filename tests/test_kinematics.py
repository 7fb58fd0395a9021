import math

import numpy as np
import pytest

from formcoach.alignment import dtw_align
from formcoach.kinematics import (ANGLE_JOINTS, interior_angles, masked_sum, pair_dots,
                                  sequence_descriptors)
from formcoach.skeleton import JointId
from formcoach.synth import MotionSpec, generate

import reference
from test_alignment import raises_bug
from test_normalize import (frame_from_points, normalize_frame, random_frame,
                            similarity)


def angle(points, joint):
    """:func:`interior_angles` at one joint of one (17, 2) frame."""
    return float(interior_angles(points[None], (joint,))[0, 0])


def describe(frame, targeted):
    """:func:`sequence_descriptors` of one frame after normalization."""
    return sequence_descriptors(normalize_frame(frame)[0][None],
                                frame.occlusion_mask()[None], targeted,
                                (frame.frame_id,))


def two_pair(*vectors):
    """The (1, 2, 2) vectors and (1, 2) mask of one two-joint frame with
    hand-chosen unit vectors."""
    return np.array([vectors], dtype=float), np.ones((1, 2), bool)


def cosine(a, b):
    """The mean cosine over the pairs valid in both of two one-frame
    (vectors, mask) descriptors."""
    sums, counts = masked_sum(*pair_dots(*a, *b))
    return float(sums[0] / counts[0])


class TestJointAngle:
    def build(self, shoulder, elbow, wrist):
        pts = np.zeros((17, 2))
        pts[JointId.LEFT_SHOULDER] = shoulder
        pts[JointId.LEFT_ELBOW] = elbow
        pts[JointId.LEFT_WRIST] = wrist
        return pts

    def test_straight_arm(self):
        pts = self.build((0, 0), (1, 0), (2, 0))
        assert angle(pts, JointId.LEFT_ELBOW) == pytest.approx(180.0)

    def test_right_angle_elbow(self):
        pts = self.build((0, 0), (1, 0), (1, 1))
        assert angle(pts, JointId.LEFT_ELBOW) == pytest.approx(90.0)

    def test_law_of_cosines_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s, e, w = rng.uniform(-10, 10, (3, 2))
            a = np.linalg.norm(s - e)
            b = np.linalg.norm(w - e)
            c = np.linalg.norm(s - w)
            if a < 1e-3 or b < 1e-3:
                continue
            expected = math.degrees(
                math.acos(np.clip((a * a + b * b - c * c) / (2 * a * b), -1, 1)))
            pts = self.build(s, e, w)
            assert angle(pts, JointId.LEFT_ELBOW) == pytest.approx(expected, abs=1e-9)

    def test_end_joint_has_no_angle(self):
        pts = random_frame(np.random.default_rng(2)).points
        assert math.isnan(angle(pts, JointId.LEFT_WRIST))
        assert not math.isnan(angle(pts, JointId.LEFT_ELBOW))

    def test_similarity_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            f = random_frame(rng)
            moved = frame_from_points(
                similarity(f.points, rng.uniform(0.3, 4), rng.uniform(-3, 3),
                           rng.uniform(-100, 100, 2)))
            base = interior_angles(normalize_frame(f)[0], ANGLE_JOINTS)
            again = interior_angles(normalize_frame(moved)[0], ANGLE_JOINTS)
            assert np.abs(again - base).max() < 1e-7


class TestJointVectors:
    def test_two_joints_two_vectors(self):
        desc = describe(random_frame(np.random.default_rng(2)),
                        [JointId.LEFT_WRIST, JointId.RIGHT_WRIST])
        assert desc.valid.sum() == 2
        assert np.allclose(desc.vectors[0, 0], -desc.vectors[0, 1])

    def test_four_joints_twelve_vectors(self):
        targeted = [JointId.LEFT_WRIST, JointId.RIGHT_WRIST,
                    JointId.LEFT_ELBOW, JointId.RIGHT_ELBOW]
        desc = describe(random_frame(np.random.default_rng(3)), targeted)
        assert desc.valid.sum() == 12
        assert np.allclose(np.linalg.norm(desc.vectors[0], axis=1), 1.0, atol=1e-9)

    def test_count_is_n_times_n_minus_one(self):
        rng = np.random.default_rng(4)
        joints = list(JointId)
        for n in (2, 3, 5, 8, 17):
            desc = describe(random_frame(rng), joints[:n])
            assert desc.valid.sum() == n * (n - 1)

    def test_coincident_pair_skipped(self):
        f = random_frame(np.random.default_rng(5))
        pts = f.points.copy()
        pts[JointId.RIGHT_WRIST] = pts[JointId.LEFT_WRIST]
        desc = describe(frame_from_points(pts), [JointId.LEFT_WRIST,
                                                 JointId.RIGHT_WRIST, JointId.NOSE])
        valid = dict(zip(desc.pairs, desc.valid[0]))
        assert not valid[(JointId.LEFT_WRIST, JointId.RIGHT_WRIST)]
        assert sum(valid.values()) == 4

    def test_occluded_joint_dropped(self):
        f = random_frame(np.random.default_rng(6))
        conf = np.ones(17)
        conf[JointId.NOSE] = 0.0
        desc = describe(frame_from_points(f.points, conf),
                        [JointId.NOSE, JointId.LEFT_WRIST, JointId.RIGHT_WRIST])
        assert desc.valid.sum() == 2

    def test_fewer_than_two(self):
        with raises_bug("need at least 2 targeted joints"):
            describe(random_frame(np.random.default_rng(7)), [JointId.NOSE])


class TestFrameCosine:
    def test_identical_fields(self):
        desc = describe(random_frame(np.random.default_rng(8)), list(JointId)[:6])
        a = desc.vectors, desc.valid
        assert cosine(a, a) == pytest.approx(1.0)

    def test_negated_fields(self):
        a = two_pair([1.0, 0.0], [-1.0, 0.0])
        b = two_pair([-1.0, 0.0], [1.0, 0.0])
        assert cosine(a, b) == pytest.approx(-1.0)

    def test_one_pair_rotated_90(self):
        a = two_pair([1.0, 0.0], [-1.0, 0.0])
        b = two_pair([1.0, 0.0], [0.0, 1.0])
        assert cosine(a, b) == pytest.approx(0.5)  # mean of {1, 0}

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            v1 = rng.normal(size=(2, 2))
            v1 /= np.linalg.norm(v1, axis=1, keepdims=True)
            v2 = rng.normal(size=(2, 2))
            v2 /= np.linalg.norm(v2, axis=1, keepdims=True)
            a, b = two_pair(*v1), two_pair(*v2)
            assert cosine(a, b) == pytest.approx(cosine(b, a))
            assert -1.0 <= cosine(a, b) <= 1.0

    def test_mismatched_joint_sets(self):
        f = random_frame(np.random.default_rng(10))
        a = describe(f, (JointId.NOSE, JointId.LEFT_EYE))
        b = describe(f, (JointId.NOSE, JointId.RIGHT_EYE))
        with raises_bug("mismatched targeted joints"):
            dtw_align(a, b)


class TestSequenceAngles:
    def test_matches_reference_angles(self):
        seq, _ = generate(MotionSpec(template="press", n_frames=14,
                                     noise_std=2.0), seed=7)
        expected = [[reference.interior_angle(frame.points, j) for j in ANGLE_JOINTS]
                    for frame in seq.frames]
        got = interior_angles(seq.points, ANGLE_JOINTS, seq.occlusion_mask())
        assert np.abs(got - np.array(expected)).max() <= 1e-9
