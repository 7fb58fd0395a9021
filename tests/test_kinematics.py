import math

import numpy as np
import pytest

from formcoach.kinematics import (ANGLE_JOINTS, DescriptorError,
                                  JointVectorField, UndefinedAngleError,
                                  angle_at, frame_cosine, interior_angles,
                                  joint_angle, joint_vectors, select_key_joints)
from formcoach.normalize import normalize_global, normalize_sequence
from formcoach.skeleton import Frame, JointId, Sequence
from formcoach.synth import MotionSpec, generate

from test_normalize import frame_from_points, random_frame, similarity


def make_field(vectors, joints=(JointId.NOSE, JointId.LEFT_EYE)):
    """Two-joint field with hand-chosen unit vectors."""
    pairs = ((joints[0], joints[1]), (joints[1], joints[0]))
    return JointVectorField(frame_id="t", targeted=joints, pairs=pairs,
                            vectors=np.array(vectors, dtype=float))


class TestJointAngle:
    def build(self, shoulder, elbow, wrist):
        pts = np.zeros((17, 2))
        pts[JointId.LEFT_SHOULDER] = shoulder
        pts[JointId.LEFT_ELBOW] = elbow
        pts[JointId.LEFT_WRIST] = wrist
        return pts

    def test_straight_arm(self):
        pts = self.build((0, 0), (1, 0), (2, 0))
        assert angle_at(pts, JointId.LEFT_ELBOW) == pytest.approx(180.0)

    def test_right_angle_elbow(self):
        pts = self.build((0, 0), (1, 0), (1, 1))
        assert angle_at(pts, JointId.LEFT_ELBOW) == pytest.approx(90.0)

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
            assert angle_at(pts, JointId.LEFT_ELBOW) == pytest.approx(expected, abs=1e-9)

    def test_end_joint_has_no_angle(self):
        pts = np.zeros((17, 2))
        with pytest.raises(UndefinedAngleError):
            angle_at(pts, JointId.LEFT_WRIST)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            f = random_frame(rng)
            skel = normalize_global(f)
            moved = frame_from_points(
                similarity(f.points, rng.uniform(0.3, 4), rng.uniform(-3, 3),
                           rng.uniform(-100, 100, 2)))
            skel2 = normalize_global(moved)
            for j in ANGLE_JOINTS:
                assert joint_angle(skel2, j) == pytest.approx(
                    joint_angle(skel, j), abs=1e-7)


class TestJointVectors:
    def test_two_joints_two_vectors(self):
        skel = normalize_global(random_frame(np.random.default_rng(2)))
        field = joint_vectors(skel, [JointId.LEFT_WRIST, JointId.RIGHT_WRIST])
        assert len(field.pairs) == 2
        assert np.allclose(field.vectors[0], -field.vectors[1])

    def test_four_joints_twelve_vectors(self):
        skel = normalize_global(random_frame(np.random.default_rng(3)))
        targeted = [JointId.LEFT_WRIST, JointId.RIGHT_WRIST,
                    JointId.LEFT_ELBOW, JointId.RIGHT_ELBOW]
        field = joint_vectors(skel, targeted)
        assert len(field.pairs) == 12
        assert np.allclose(np.linalg.norm(field.vectors, axis=1), 1.0, atol=1e-9)

    def test_count_is_n_times_n_minus_one(self):
        rng = np.random.default_rng(4)
        joints = list(JointId)
        for n in (2, 3, 5, 8, 17):
            skel = normalize_global(random_frame(rng))
            field = joint_vectors(skel, joints[:n])
            assert len(field.pairs) == n * (n - 1)

    def test_coincident_pair_skipped(self):
        f = random_frame(np.random.default_rng(5))
        pts = f.points.copy()
        pts[JointId.RIGHT_WRIST] = pts[JointId.LEFT_WRIST]
        skel = normalize_global(frame_from_points(pts))
        field = joint_vectors(skel, [JointId.LEFT_WRIST, JointId.RIGHT_WRIST,
                                     JointId.NOSE])
        assert (JointId.LEFT_WRIST, JointId.RIGHT_WRIST) in field.skipped
        assert len(field.pairs) == 4

    def test_occluded_joint_dropped(self):
        f = random_frame(np.random.default_rng(6))
        conf = np.ones(17)
        conf[JointId.NOSE] = 0.0
        skel = normalize_global(frame_from_points(f.points, conf))
        field = joint_vectors(skel, [JointId.NOSE, JointId.LEFT_WRIST,
                                     JointId.RIGHT_WRIST])
        assert len(field.pairs) == 2

    def test_fewer_than_two(self):
        skel = normalize_global(random_frame(np.random.default_rng(7)))
        with pytest.raises(DescriptorError):
            joint_vectors(skel, [JointId.NOSE])


class TestFrameCosine:
    def test_identical_fields(self):
        skel = normalize_global(random_frame(np.random.default_rng(8)))
        f = joint_vectors(skel, list(JointId)[:6])
        assert frame_cosine(f, f) == pytest.approx(1.0)

    def test_negated_fields(self):
        a = make_field([[1.0, 0.0], [-1.0, 0.0]])
        b = make_field([[-1.0, 0.0], [1.0, 0.0]])
        assert frame_cosine(a, b) == pytest.approx(-1.0)

    def test_one_pair_rotated_90(self):
        a = make_field([[1.0, 0.0], [-1.0, 0.0]])
        b = make_field([[1.0, 0.0], [0.0, 1.0]])
        assert frame_cosine(a, b) == pytest.approx(0.5)  # mean of {1, 0}

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            v1 = rng.normal(size=(2, 2))
            v1 /= np.linalg.norm(v1, axis=1, keepdims=True)
            v2 = rng.normal(size=(2, 2))
            v2 /= np.linalg.norm(v2, axis=1, keepdims=True)
            a, b = make_field(v1), make_field(v2)
            assert frame_cosine(a, b) == pytest.approx(frame_cosine(b, a))
            assert -1.0 <= frame_cosine(a, b) <= 1.0

    def test_mismatched_joint_sets(self):
        a = make_field([[1, 0], [-1, 0]])
        b = make_field([[1, 0], [-1, 0]], joints=(JointId.NOSE, JointId.RIGHT_EYE))
        with pytest.raises(DescriptorError):
            frame_cosine(a, b)


def key_joints(seq, threshold_deg):
    """:func:`select_key_joints` over ``seq`` normalized with one
    :func:`normalize_sequence` call."""
    occluded = seq.occlusion_mask()
    points = normalize_sequence(seq.points_array(), occluded,
                                [f.frame_id for f in seq.frames])[0]
    return select_key_joints(points, occluded, threshold_deg)


class TestSelectKeyJoints:
    def test_static_sequence_empty(self):
        seq, _ = generate(MotionSpec(template="squat", n_frames=10,
                                     amplitude_deg={JointId.LEFT_KNEE: 0,
                                                    JointId.RIGHT_KNEE: 0,
                                                    JointId.LEFT_HIP: 0,
                                                    JointId.RIGHT_HIP: 0}), seed=0)
        assert key_joints(seq, threshold_deg=15.0) == []

    def test_squat_flexes_knees_and_hips(self):
        seq, _ = generate(MotionSpec(template="squat", n_frames=31,
                                     amplitude_deg={JointId.LEFT_KNEE: 80,
                                                    JointId.RIGHT_KNEE: 80,
                                                    JointId.LEFT_HIP: 80,
                                                    JointId.RIGHT_HIP: 80}), seed=0)
        # use the descending half-repetition so first/last frames differ
        half = Sequence(exercise_id=seq.exercise_id, class_label=seq.class_label,
                        frames=seq.frames[:16], fps_hint=seq.fps_hint)
        selected = set(key_joints(half, threshold_deg=15.0))
        assert selected == {JointId.LEFT_KNEE, JointId.RIGHT_KNEE,
                            JointId.LEFT_HIP, JointId.RIGHT_HIP}

    def test_zero_threshold_returns_all_angle_joints(self):
        seq, _ = generate(MotionSpec(template="press", n_frames=16), seed=1)
        half = Sequence(exercise_id="p", class_label="correct",
                        frames=seq.frames[:8], fps_hint=None)
        assert set(key_joints(half, threshold_deg=0.0)) == set(ANGLE_JOINTS)

    def test_sorted_by_descending_deviation(self):
        seq, _ = generate(MotionSpec(template="squat", n_frames=21), seed=2)
        half = Sequence(exercise_id="s", class_label="correct",
                        frames=seq.frames[:11], fps_hint=None)
        joints = key_joints(half, threshold_deg=5.0)
        first = normalize_global(half.frames[0])
        last = normalize_global(half.frames[-1])
        devs = [abs(joint_angle(last, j) - joint_angle(first, j)) for j in joints]
        assert devs == sorted(devs, reverse=True)

    def test_invariant_under_similarity(self):
        seq, _ = generate(MotionSpec(template="pull", n_frames=20), seed=3)
        half_frames = seq.frames[:10]
        moved = tuple(
            Frame(frame_id=f.frame_id, timestamp=f.timestamp,
                  points=similarity(f.points, 2.5, 1.1, (50, -30)),
                  confidence=f.confidence)
            for f in half_frames)
        a = Sequence(exercise_id="x", class_label="correct", frames=half_frames)
        b = Sequence(exercise_id="x", class_label="correct", frames=moved)
        assert key_joints(a, 10.0) == key_joints(b, 10.0)


class TestSequenceAngles:
    def test_matches_angle_at_bit_for_bit(self):
        seq, _ = generate(MotionSpec(template="press", n_frames=14,
                                     noise_std=2.0), seed=7)
        expected = [[angle_at(frame.points, j) for j in ANGLE_JOINTS]
                    for frame in seq.frames]
        assert interior_angles(seq.points_array(), ANGLE_JOINTS,
                               seq.occlusion_mask()).tolist() == expected
