import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from formcoach.normalize import (CanonicalSkeleton, DegenerateSkeletonError,
                                 NormalizationTransform, OccludedJointError,
                                 normalize_global, normalize_local,
                                 normalize_sequence, torso_length)
from formcoach.skeleton import Frame, JointId

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
        canon = normalize_global(random_frame(rng)).points
        again = normalize_global(frame_from_points(canon))
        tr = again.transform
        assert abs(tr.theta) < TOL
        assert tr.scale == pytest.approx(1.0, abs=TOL)
        assert np.abs(np.array(tr.center)) .max() < 1e-6
        assert np.abs(again.points - canon).max() < TOL

    def test_unit_torso_and_upright(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            skel = normalize_global(random_frame(rng))
            sm = 0.5 * (skel.points[JointId.LEFT_SHOULDER]
                        + skel.points[JointId.RIGHT_SHOULDER])
            hm = 0.5 * (skel.points[JointId.LEFT_HIP]
                        + skel.points[JointId.RIGHT_HIP])
            torso = sm - hm
            assert np.linalg.norm(torso) == pytest.approx(1.0, abs=TOL)
            assert abs(torso[0]) < TOL and torso[1] > 0

    def test_similarity_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            f = random_frame(rng)
            base = normalize_global(f).points
            k = rng.uniform(0.2, 5.0)
            theta = rng.uniform(-math.pi, math.pi)
            t = rng.uniform(-500, 500, 2)
            moved = frame_from_points(similarity(f.points, k, theta, t))
            assert np.abs(normalize_global(moved).points - base).max() < TOL

    def test_rotated_scaled_example(self):
        rng = np.random.default_rng(5)
        f = random_frame(rng)
        moved = frame_from_points(similarity(f.points, 3.0, math.pi / 2, (10, -40)))
        diff = np.abs(normalize_global(moved).points - normalize_global(f).points)
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
            normalize_global(frame_from_points(f.points, conf))

    def test_occluded_joints_excluded_from_box(self):
        rng = np.random.default_rng(7)
        f = random_frame(rng)
        # an occluded outlier at (0, 0) must not shift the body center
        pts = f.points.copy()
        pts[JointId.NOSE] = (0.0, 0.0)
        conf = np.ones(17)
        conf[JointId.NOSE] = 0.0
        with_outlier = normalize_global(frame_from_points(pts, conf))
        pts2 = f.points.copy()
        pts2[JointId.NOSE] = pts2[JointId.LEFT_EYE]
        conf2 = np.ones(17)
        conf2[JointId.NOSE] = 0.0
        without = normalize_global(frame_from_points(pts2, conf2))
        assert np.abs(with_outlier.points[1:] - without.points[1:]).max() < TOL


class TestNormalizeLocal:
    def test_root_at_origin(self):
        rng = np.random.default_rng(8)
        for root in (JointId.LEFT_SHOULDER, JointId.RIGHT_HIP, JointId.LEFT_WRIST):
            skel = normalize_local(random_frame(rng), root)
            assert np.abs(skel.points[root]).max() < TOL

    def test_camera_distance_invariance(self):
        rng = np.random.default_rng(9)
        f = random_frame(rng)
        near = normalize_local(f, JointId.LEFT_SHOULDER)
        far = normalize_local(frame_from_points(f.points * 0.3 + 100.0),
                              JointId.LEFT_SHOULDER)
        assert np.abs(near.points - far.points).max() < TOL

    def test_occluded_root(self):
        f = random_frame(np.random.default_rng(10))
        conf = np.ones(17)
        conf[JointId.LEFT_WRIST] = 0.0
        with pytest.raises(OccludedJointError, match="left_wrist"):
            normalize_local(frame_from_points(f.points, conf), JointId.LEFT_WRIST)


class TestTransform:
    def test_identity(self):
        tr = NormalizationTransform(theta=0.0, scale=1.0, center=(0.0, 0.0))
        assert np.allclose(tr.invert(np.array([1.0, 2.0])), [1.0, 2.0])

    def test_translation_only(self):
        tr = NormalizationTransform(theta=0.0, scale=1.0, center=(5.0, 7.0))
        assert np.allclose(tr.invert(np.array([0.0, 0.0])), [5.0, 7.0])

    def test_roundtrip_many_points(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            tr = NormalizationTransform(
                theta=rng.uniform(-math.pi, math.pi),
                scale=rng.uniform(0.01, 10.0),
                center=tuple(rng.uniform(-300, 300, 2)),
            )
            px = rng.uniform(-1000, 1000, (50, 2))
            assert np.abs(tr.invert(tr.apply(px)) - px).max() < TOL

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            NormalizationTransform(theta=0.0, scale=0.0, center=(0, 0))

    def test_theta_wrapped(self):
        tr = NormalizationTransform(theta=3 * math.pi, scale=1.0, center=(0, 0))
        assert -math.pi < tr.theta <= math.pi


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
    def test_matches_per_frame_normalize_global(self, stack):
        points, occluded = stack
        frames = stack_frames(points, occluded)
        canon, theta, scale, center = normalize_sequence(
            points, occluded, [f.frame_id for f in frames])
        for t, frame in enumerate(frames):
            skel = normalize_global(frame)
            assert np.abs(canon[t] - skel.points).max() <= 1e-12
            got = (theta[t], 0.0, 0.0, scale[t], center[t, 0], center[t, 1])
            assert np.abs(np.subtract(got, skel.transform.as_tuple())).max() <= 1e-12

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
                normalize_global(frame)
        with pytest.raises(OccludedJointError, match=f"frame 'f{k}'") as err:
            normalize_sequence(points, occluded, [f.frame_id for f in frames])
        assert str(err.value) == str(per_frame.value)
