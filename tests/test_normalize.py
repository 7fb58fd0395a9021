import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from formcoach.correction import build_aid
from formcoach.normalize import (DegenerateSkeletonError, OccludedJointError,
                                 Pose, normalize_sequence)
from formcoach.skeleton import Frame, JointId

import reference

TOL = 1e-9


def frame_from_points(pts, conf=None, frame_id="t"):
    conf = np.ones(17) if conf is None else conf
    return Frame(frame_id=frame_id, timestamp=0.0, points=pts, confidence=conf)


def random_frame(rng, spread=80.0, center=(300.0, 250.0)):
    pts = rng.normal(0.0, spread, (17, 2)) + np.array(center)
    # pin the four torso joints so the torso is never degenerate
    pts[JointId.LEFT_SHOULDER] = center + np.array([-25.0, -70.0]) + rng.normal(0, 5, 2)
    pts[JointId.RIGHT_SHOULDER] = center + np.array([25.0, -70.0]) + rng.normal(0, 5, 2)
    pts[JointId.LEFT_HIP] = center + np.array([-18.0, 45.0]) + rng.normal(0, 5, 2)
    pts[JointId.RIGHT_HIP] = center + np.array([18.0, 45.0]) + rng.normal(0, 5, 2)
    return frame_from_points(pts)


def similarity(pts, scale, theta, t):
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    return scale * (pts @ R.T) + np.asarray(t)


def normalize_frame(frame):
    """:func:`normalize_sequence` of one frame: its canonical (17, 2) points,
    theta, scale and (2,) center."""
    canon, theta, scale, center = normalize_sequence(
        frame.points[None], frame.occlusion_mask()[None], (frame.frame_id,))
    return canon[0], float(theta[0]), float(scale[0]), center[0]


def torso_length(frame):
    """The torso length in pixels: the reciprocal of the frame's scale."""
    return 1.0 / normalize_frame(frame)[2]


class TestTorsoLength:
    def test_axis_aligned_rectangle(self):
        pts = np.zeros((17, 2))
        pts[JointId.LEFT_SHOULDER] = (0, 0)
        pts[JointId.RIGHT_SHOULDER] = (2, 0)
        pts[JointId.LEFT_HIP] = (0, 4)
        pts[JointId.RIGHT_HIP] = (2, 4)
        assert torso_length(frame_from_points(pts)) == pytest.approx(4.0)

    def test_degenerate(self):
        pts = np.zeros((17, 2))
        with pytest.raises(DegenerateSkeletonError):
            torso_length(frame_from_points(pts))

    def test_occluded_torso_joint(self):
        f = random_frame(np.random.default_rng(0))
        conf = np.ones(17)
        conf[JointId.LEFT_HIP] = 0.0
        occluded = frame_from_points(f.points, conf)
        with pytest.raises(OccludedJointError, match="left_hip"):
            torso_length(occluded)

    def test_scales_linearly(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            f = random_frame(rng)
            k = rng.uniform(0.2, 5.0)
            scaled = frame_from_points(f.points * k)
            assert torso_length(scaled) == pytest.approx(k * torso_length(f))


class TestNormalizeGlobal:
    def test_canonical_fixed_point(self):
        # A skeleton already expressed in canonical form (unit torso, hip->
        # shoulder along +y, box centered) maps through the identity.
        rng = np.random.default_rng(2)
        canon = normalize_frame(random_frame(rng))[0]
        points, theta, scale, center = normalize_frame(frame_from_points(canon))
        assert abs(theta) < TOL
        assert scale == pytest.approx(1.0, abs=TOL)
        assert np.abs(center).max() < 1e-6
        assert np.abs(points - canon).max() < TOL

    def test_unit_torso_and_upright(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            points = normalize_frame(random_frame(rng))[0]
            sm = 0.5 * (points[JointId.LEFT_SHOULDER] + points[JointId.RIGHT_SHOULDER])
            hm = 0.5 * (points[JointId.LEFT_HIP] + points[JointId.RIGHT_HIP])
            torso = sm - hm
            assert np.linalg.norm(torso) == pytest.approx(1.0, abs=TOL)
            assert abs(torso[0]) < TOL and torso[1] > 0

    def test_similarity_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            f = random_frame(rng)
            base = normalize_frame(f)[0]
            k = rng.uniform(0.2, 5.0)
            theta = rng.uniform(-math.pi, math.pi)
            t = rng.uniform(-500, 500, 2)
            moved = frame_from_points(similarity(f.points, k, theta, t))
            assert np.abs(normalize_frame(moved)[0] - base).max() < TOL

    def test_rotated_scaled_example(self):
        rng = np.random.default_rng(5)
        f = random_frame(rng)
        moved = frame_from_points(similarity(f.points, 3.0, math.pi / 2, (10, -40)))
        diff = np.abs(normalize_frame(moved)[0] - normalize_frame(f)[0])
        assert diff.max() < TOL

    def test_too_few_visible_joints(self):
        f = random_frame(np.random.default_rng(6))
        conf = np.zeros(17)
        for j in (JointId.LEFT_SHOULDER, JointId.RIGHT_SHOULDER,
                  JointId.LEFT_HIP, JointId.RIGHT_HIP):
            conf[j] = 1.0
        # torso is visible (4 joints >= 3) so this normalizes; drop to 2
        conf[JointId.LEFT_SHOULDER] = 0.0
        with pytest.raises((DegenerateSkeletonError, OccludedJointError)):
            normalize_frame(frame_from_points(f.points, conf))

    def test_occluded_joints_excluded_from_box(self):
        rng = np.random.default_rng(7)
        f = random_frame(rng)
        # an occluded outlier at (0, 0) must not shift the body center
        pts = f.points.copy()
        pts[JointId.NOSE] = (0.0, 0.0)
        conf = np.ones(17)
        conf[JointId.NOSE] = 0.0
        with_outlier = normalize_frame(frame_from_points(pts, conf))[0]
        pts2 = f.points.copy()
        pts2[JointId.NOSE] = pts2[JointId.LEFT_EYE]
        conf2 = np.ones(17)
        conf2[JointId.NOSE] = 0.0
        without = normalize_frame(frame_from_points(pts2, conf2))[0]
        assert np.abs(with_outlier[1:] - without[1:]).max() < TOL


def pose_of(*frames):
    """The :class:`Pose` of a stack of frames."""
    points = np.stack([f.points for f in frames])
    occluded = np.stack([f.occlusion_mask() for f in frames])
    _, theta, scale, _ = normalize_sequence(points, occluded,
                                            [f.frame_id for f in frames])
    return Pose(points, occluded, theta, scale)


def aid_head(cand, ref, joint, body_class):
    """The head of the one arrow :func:`build_aid` draws for ``joint`` of
    candidate frame ``cand`` against reference frame ``ref``."""
    aid = build_aid(pose_of(cand), pose_of(ref), [cand.frame_id], [(0, joint, 0)],
                    body_class, min_arrow_px=0.0)[0]
    (arrow,) = aid.arrows
    return np.array(arrow.head)


class TestNormalizeLocal:
    """Local normalization: the global rotation and scale about a root
    joint, as :func:`build_aid` applies it to place arrow heads."""

    def test_root_at_origin(self):
        # a flagged root joint sits at its own root, so its arrow is empty
        rng = np.random.default_rng(8)
        for root, body_class in ((JointId.LEFT_SHOULDER, "Upper"),
                                 (JointId.RIGHT_HIP, "Lower")):
            cand, ref = random_frame(rng), random_frame(rng)
            assert np.array_equal(aid_head(cand, ref, root, body_class),
                                  cand.points[root])

    def test_camera_distance_invariance(self):
        rng = np.random.default_rng(9)
        f, ref = random_frame(rng), random_frame(rng)
        near = aid_head(f, ref, JointId.LEFT_ELBOW, "Upper")
        far = aid_head(f, frame_from_points(ref.points * 0.3 + 100.0),
                       JointId.LEFT_ELBOW, "Upper")
        assert np.abs(near - far).max() < TOL


def square_torso(offset=(0.0, 0.0)):
    """A frame whose unit torso points along +y with its box centered on
    ``offset``: every other joint sits at the offset."""
    pts = np.zeros((17, 2))
    pts[JointId.LEFT_SHOULDER] = (-0.5, 0.5)
    pts[JointId.RIGHT_SHOULDER] = (0.5, 0.5)
    pts[JointId.LEFT_HIP] = (-0.5, -0.5)
    pts[JointId.RIGHT_HIP] = (0.5, -0.5)
    return frame_from_points(pts + np.asarray(offset))


class TestTransform:
    """The per-frame transform that :func:`normalize_sequence` returns:
    ``canonical = scale * R(theta) @ (pixel - center)``."""

    def test_identity(self):
        f = square_torso()
        points, theta, scale, center = normalize_frame(f)
        assert (theta, scale) == (0.0, 1.0)
        assert np.array_equal(center, [0.0, 0.0])
        assert np.allclose(points, f.points)

    def test_translation_only(self):
        points, theta, scale, center = normalize_frame(square_torso((5.0, 7.0)))
        assert (theta, scale) == (0.0, 1.0)
        assert np.allclose(center, [5.0, 7.0])
        assert np.allclose(points, square_torso().points)

    def test_roundtrip_many_points(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = frame_from_points(similarity(
                random_frame(rng).points, rng.uniform(0.01, 10.0),
                rng.uniform(-math.pi, math.pi), rng.uniform(-300, 300, 2)))
            points, theta, scale, center = normalize_frame(f)
            c, s = math.cos(theta), math.sin(theta)
            pixels = points / scale @ np.array([[c, -s], [s, c]]) + center
            assert np.abs(pixels - f.points).max() < TOL

    def test_theta_wrapped(self):
        rng = np.random.default_rng(12)
        for turn in np.linspace(-3 * math.pi, 3 * math.pi, 37):
            f = frame_from_points(similarity(random_frame(rng).points, 1.0, turn, (0, 0)))
            assert -math.pi < normalize_frame(f)[1] <= math.pi


TORSO = (JointId.LEFT_SHOULDER, JointId.RIGHT_SHOULDER,
         JointId.LEFT_HIP, JointId.RIGHT_HIP)

similarities = st.tuples(st.floats(0.2, 5.0), st.floats(-math.pi, math.pi),
                         st.tuples(st.floats(-500, 500), st.floats(-500, 500)))


@st.composite
def frame_stacks(draw, min_frames=1):
    """(T, 17, 2) points, each frame a random skeleton under its own
    similarity transform, and a (T, 17) mask occluding random non-torso
    joints."""
    n = draw(st.integers(min_frames, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = np.stack([similarity(random_frame(rng).points, *draw(similarities))
                       for _ in range(n)])
    occluded = np.array(draw(st.lists(st.booleans(), min_size=17 * n,
                                      max_size=17 * n))).reshape(n, 17)
    occluded[:, TORSO] = False
    return points, occluded


def stack_frames(points, occluded):
    return [frame_from_points(p, np.where(o, 0.0, 1.0), f"f{t}")
            for t, (p, o) in enumerate(zip(points, occluded))]


class TestNormalizeSequence:
    @settings(max_examples=60, deadline=None)
    @given(frame_stacks())
    def test_matches_per_frame_reference(self, stack):
        points, occluded = stack
        canon, theta, scale, center = normalize_sequence(
            points, occluded, [f"f{t}" for t in range(len(points))])
        for t, (p, o) in enumerate(zip(points, occluded)):
            expected, ref_theta, ref_scale, (cx, cy) = reference.normalize(p, o)
            assert np.abs(canon[t] - expected).max() <= 1e-12
            got = (theta[t], scale[t], center[t, 0], center[t, 1])
            assert np.abs(np.subtract(got, (ref_theta, ref_scale, cx, cy))).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(frame_stacks(), similarities)
    def test_invariant_under_similarity_of_the_stack(self, stack, moved_by):
        points, occluded = stack
        ids = [f"f{t}" for t in range(len(points))]
        base = normalize_sequence(points, occluded, ids)[0]
        moved = normalize_sequence(similarity(points, *moved_by), occluded, ids)[0]
        assert np.abs(moved - base).max() < TOL

    @settings(max_examples=60, deadline=None)
    @given(frame_stacks(min_frames=2), st.data())
    def test_first_occluded_torso_frame_raises(self, stack, data):
        points, occluded = stack
        n = len(points)
        k = data.draw(st.integers(0, n - 2))
        later = data.draw(st.integers(k + 1, n - 1))
        for t in (k, later):
            occluded[t, data.draw(st.sampled_from(TORSO))] = True
        frames = stack_frames(points, occluded)
        with pytest.raises(OccludedJointError) as per_frame:
            for frame in frames:
                normalize_frame(frame)
        with pytest.raises(OccludedJointError, match=f"frame 'f{k}'") as err:
            normalize_sequence(points, occluded, [f.frame_id for f in frames])
        assert str(err.value) == str(per_frame.value)
