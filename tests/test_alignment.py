import math
import tracemalloc

import numpy as np
import pytest

from formcoach.alignment import (AlignmentError, WarpPath, dtw_align,
                                 moving_average, pace_profile)
from formcoach.assessment import pace_score
from formcoach.kinematics import (DescriptorError, JointVectorSequence,
                                  interior_angles, ordered_pairs,
                                  sequence_descriptors)
from formcoach.normalize import normalize_sequence
from formcoach.skeleton import JointId, Sequence
from formcoach.synth import InjectedError, MotionSpec, generate

import reference
from test_normalize import random_frame

WRIST_NOSE = (JointId.LEFT_WRIST, JointId.RIGHT_WRIST, JointId.NOSE)


def describe(points, occluded, joints):
    """The descriptors of a (T, 17, 2) stack after normalization."""
    ids = [f"f{t}" for t in range(len(points))]
    canonical = normalize_sequence(points, occluded, ids)[0]
    return sequence_descriptors(canonical, occluded, joints, ids)


OCCLUSION_JOINTS = (JointId.NOSE, JointId.LEFT_WRIST, JointId.RIGHT_WRIST,
                    JointId.LEFT_ANKLE)


def random_fields(rng, n, joints=WRIST_NOSE, occlude=()):
    """Descriptors of ``n`` random skeletons, and the reference oracle's
    descriptors of the same frames; on about a third of the frames one of
    ``occlude`` is occluded."""
    points, occluded = np.empty((n, 17, 2)), np.zeros((n, 17), bool)
    for t in range(n):
        points[t] = random_frame(rng).points
        if occlude and rng.random() < 0.35:
            occluded[t, occlude[int(rng.integers(len(occlude)))]] = True
    return (describe(points, occluded, joints),
            reference.frame_descriptors(list(zip(points, occluded)), joints))


def take(desc, rows):
    """The frames ``rows`` of a descriptor sequence, in that order."""
    return JointVectorSequence(tuple(desc.frame_ids[t] for t in rows), desc.targeted,
                               desc.pairs, desc.vectors[rows], desc.valid[rows],
                               desc.lengths[rows])


def two_joint_sequence(*frames):
    """Descriptors over two joints from hand-chosen unit vectors, one
    (a->b, b->a) pair of vectors per frame."""
    joints = (JointId.NOSE, JointId.LEFT_EYE)
    vectors = np.array(frames, dtype=float)
    shape = vectors.shape[:2]
    return JointVectorSequence(tuple(f"f{t}" for t in range(len(frames))), joints,
                               ordered_pairs(joints), vectors, np.ones(shape, bool),
                               np.ones(shape))


def brute_force_cost(cost):
    """Exhaustively enumerate every monotone path, summing costs forward."""
    m, n = cost.shape
    best = [math.inf]

    def walk(i, j, acc):
        acc = acc + cost[i, j]
        if i == m - 1 and j == n - 1:
            if acc < best[0]:
                best[0] = acc
            return
        if i + 1 < m and j + 1 < n:
            walk(i + 1, j + 1, acc)
        if i + 1 < m:
            walk(i + 1, j, acc)
        if j + 1 < n:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


class TestWarpPathInvariants:
    def test_must_start_at_origin(self):
        with pytest.raises(AlignmentError):
            WarpPath(pairs=((1, 0), (2, 1)), cost=0.0)

    def test_rejects_jumps(self):
        with pytest.raises(AlignmentError):
            WarpPath(pairs=((0, 0), (2, 1)), cost=0.0)

    def test_rejects_backward_steps(self):
        with pytest.raises(AlignmentError):
            WarpPath(pairs=((0, 0), (1, 1), (0, 1)), cost=0.0)


class TestDtwAlign:
    def test_identical_sequences_diagonal(self):
        fields, _ = random_fields(np.random.default_rng(0), 6)
        path = dtw_align(fields, fields)
        assert path.pairs == tuple((i, i) for i in range(6))
        assert path.cost == pytest.approx(0.0, abs=1e-12)

    def test_empty_input(self):
        fields, _ = random_fields(np.random.default_rng(1), 3)
        with pytest.raises(AlignmentError):
            dtw_align(take(fields, []), fields)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            m, n = rng.integers(2, 9, 2)
            cand, cand_ref = random_fields(rng, int(m))
            ref, ref_ref = random_fields(rng, int(n))
            path = dtw_align(cand, ref)
            assert path.pairs[-1] == (m - 1, n - 1)
            cost = np.array(reference.cost_matrix(cand_ref, ref_ref))
            assert path.cost == pytest.approx(brute_force_cost(cost), abs=1e-12)

    def test_duplicated_frames_visit_each_ref_twice(self):
        fields, _ = random_fields(np.random.default_rng(3), 4)
        doubled = take(fields, [t for t in range(4) for _ in range(2)])
        path = dtw_align(doubled, fields)
        assert path.cost == pytest.approx(0.0, abs=1e-12)
        visits = {}
        for i, j in path.pairs:
            visits[j] = visits.get(j, 0) + 1
        assert all(v == 2 for v in visits.values())

    def test_equal_costs_prefer_diagonal(self):
        # Identical static frames: every cell costs exactly 0, so each step
        # is a tie and the path shows the tie-break order.
        frame, _ = random_fields(np.random.default_rng(7), 1)
        path = dtw_align(take(frame, [0] * 5), take(frame, [0] * 3))
        assert path.pairs == ((0, 0), (1, 0), (2, 0), (3, 1), (4, 2))
        path = dtw_align(take(frame, [0] * 3), take(frame, [0] * 5))
        assert path.pairs == ((0, 0), (0, 1), (0, 2), (1, 3), (2, 4))

    def test_tie_prefers_candidate_advance_over_reference_advance(self):
        # cand A B A against ref A C A: cos(A, B) = cos(A, C) = 0.5 exactly
        # and B, C point apart, so the diagonal through (1, 1) is dearer and
        # (2, 2) is reached from (1, 2) and (2, 1) at equal cost.
        s = math.sqrt(3.0) / 2.0
        a = [[1.0, 0.0], [-1.0, 0.0]]
        b = [[0.5, s], [-0.5, -s]]
        c = [[0.5, -s], [-0.5, s]]
        path = dtw_align(two_joint_sequence(a, b, a), two_joint_sequence(a, c, a))
        assert path.pairs == ((0, 0), (0, 1), (1, 2), (2, 2))
        assert path.cost == 1.0

    def test_masked_cells_match_explicit_loop(self):
        # Targeted joints occluded at random: DTW cells whose frames keep
        # different pair sets average over the common pairs only.
        rng = np.random.default_rng(8)
        for _ in range(25):
            m, n = (int(k) for k in rng.integers(2, 8, 2))
            cand, cand_ref = random_fields(rng, m, OCCLUSION_JOINTS, OCCLUSION_JOINTS)
            ref, ref_ref = random_fields(rng, n, OCCLUSION_JOINTS, OCCLUSION_JOINTS)
            cost = np.array(reference.cost_matrix(cand_ref, ref_ref))
            path = dtw_align(cand, ref)
            assert path.cost == pytest.approx(brute_force_cost(cost), abs=1e-12)

    def test_oracle_across_row_blocks(self):
        # The cost matrix is computed 64 candidate rows at a time; these
        # lengths stop one row short of a block edge, on it, one row past it
        # and past two edges.
        rng = np.random.default_rng(11)
        for m in (63, 64, 65, 130):
            cand, cand_ref = random_fields(rng, m, OCCLUSION_JOINTS, OCCLUSION_JOINTS)
            ref, ref_ref = random_fields(rng, 5, OCCLUSION_JOINTS, OCCLUSION_JOINTS)
            cost = reference.cost_matrix(cand_ref, ref_ref)
            path = dtw_align(cand, ref)
            want_cost, want_pairs = reference.dtw(cost)
            assert path.pairs == want_pairs
            assert path.cost == pytest.approx(want_cost, abs=1e-12)
            two = [row[:2] for row in cost]
            path = dtw_align(cand, take(ref, [0, 1]))
            assert path.cost == pytest.approx(brute_force_cost(np.array(two)),
                                              abs=1e-12)

    def test_no_common_pair_in_a_later_block(self):
        # Candidate frame 100 (second row block) keeps only pair a->b and
        # reference frame 2 only b->a: that one cell has nothing to compare.
        cand = two_joint_sequence(*[[[1.0, 0.0], [-1.0, 0.0]]] * 130)
        ref = two_joint_sequence(*[[[1.0, 0.0], [-1.0, 0.0]]] * 4)
        cand.vectors[100, 1] = 0.0
        cand.valid[100, 1] = False
        ref.vectors[2, 0] = 0.0
        ref.valid[2, 0] = False
        with pytest.raises(DescriptorError, match="no common usable joint pairs"):
            dtw_align(cand, ref)

    def test_long_identity_is_diagonal(self):
        fields, _ = random_fields(np.random.default_rng(12), 150)
        path = dtw_align(fields, fields)
        assert path.pairs == tuple((i, i) for i in range(150))
        assert 0.0 <= path.cost <= 1e-12

    def test_peak_memory_stays_near_the_accumulator(self):
        # The GEMMs run on row blocks, so their temporaries stay small next
        # to the (m + 1) x (n + 1) accumulated costs: a whole-matrix product
        # would add two more matrices of that size.
        rng = np.random.default_rng(13)
        m, n = 299, 300
        joints = tuple(JointId)[:6]
        pairs = ordered_pairs(joints)

        def descriptors(t):
            v = rng.normal(size=(t, len(pairs), 2))
            v /= np.linalg.norm(v, axis=-1, keepdims=True)
            return JointVectorSequence(tuple(f"f{k}" for k in range(t)), joints,
                                       pairs, v, np.ones((t, len(pairs)), bool),
                                       np.ones((t, len(pairs))))

        cand, ref = descriptors(m), descriptors(n)
        tracemalloc.start()
        try:
            dtw_align(cand, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * (m + 1) * (n + 1)

    def test_cost_symmetry_and_path_transpose(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            cand, _ = random_fields(rng, int(rng.integers(2, 7)))
            ref, _ = random_fields(rng, int(rng.integers(2, 7)))
            fwd = dtw_align(cand, ref)
            rev = dtw_align(ref, cand)
            assert fwd.cost == pytest.approx(rev.cost, abs=1e-12)
            assert tuple((j, i) for i, j in rev.pairs) == fwd.pairs


class TestMovingAverage:
    def test_window_one_is_identity(self):
        x = np.array([3.0, 1.0, 4.0])
        assert np.array_equal(moving_average(x, 1), x)

    def test_constant_preserved(self):
        assert np.allclose(moving_average(np.full(10, 7.0), 5), 7.0)

    def test_matches_direct_mean(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=20)
        out = moving_average(x, 5)
        for i in range(20):
            lo, hi = max(0, i - 2), min(20, i + 3)
            assert out[i] == pytest.approx(x[lo:hi].mean())


def sequence_fields(seq, joints):
    return describe(seq.points_array(), seq.occlusion_mask(), joints)


def knee_angles(seq):
    """The raw left-knee angle series that pace segments phases on."""
    return interior_angles(seq.points_array(), (JointId.LEFT_KNEE,),
                           seq.occlusion_mask())[:, 0]


class TestPaceProfile:
    def test_identity(self):
        seq, _ = generate(MotionSpec(template="squat", n_frames=20), seed=0)
        fields = sequence_fields(seq, [JointId.LEFT_KNEE, JointId.LEFT_ANKLE,
                                       JointId.LEFT_HIP])
        path = dtw_align(fields, fields)
        profile = pace_profile(seq, seq, path, knee_angles(seq))
        assert profile.duration_ratio == 1.0
        assert profile.warp_deviation == 0.0
        for p in profile.phases:
            assert p.cand_seconds == pytest.approx(p.ref_seconds)

    def test_double_speed_candidate(self):
        ref, _ = generate(MotionSpec(template="squat", n_frames=24), seed=1)
        fast_spec = MotionSpec(template="squat", n_frames=24,
                               injected_errors=(InjectedError(
                                   kind="speed_factor", magnitude=2.0),),
                               class_label="correct")
        cand, _ = generate(fast_spec, seed=1)
        fields = sequence_fields(ref, [JointId.LEFT_KNEE, JointId.LEFT_ANKLE])
        path = dtw_align(fields, fields)
        profile = pace_profile(cand, ref, path, knee_angles(ref))
        assert profile.duration_ratio == 0.5
        assert profile.warp_deviation == 0.0
        assert pace_score(profile) == 50.0

    def test_monotone_angle_single_full_phase(self):
        seq, _ = generate(MotionSpec(template="squat", n_frames=20), seed=2)
        half = Sequence(exercise_id="s", class_label="correct",
                        frames=seq.frames[:10])
        fields = sequence_fields(half, [JointId.LEFT_KNEE, JointId.LEFT_ANKLE])
        path = dtw_align(fields, fields)
        profile = pace_profile(half, half, path, knee_angles(half))
        assert [p.name for p in profile.phases] == ["full"]

    def test_fast_eccentric_phase_duration(self):
        ref, rann = generate(MotionSpec(template="squat", n_frames=48), seed=3)
        spec = MotionSpec(template="squat", n_frames=48,
                          injected_errors=(InjectedError(
                              kind="speed_factor", magnitude=2.0,
                              phase="eccentric"),),
                          class_label="wrong")
        cand, _ = generate(spec, seed=3)
        fields = sequence_fields(ref, [JointId.LEFT_KNEE, JointId.LEFT_ANKLE,
                                       JointId.LEFT_HIP])
        path = dtw_align(fields, fields)
        profile = pace_profile(cand, ref, path, knee_angles(ref))
        ecc = next(p for p in profile.phases if p.name == "eccentric")
        assert ecc.cand_seconds / ecc.ref_seconds == pytest.approx(0.5, abs=0.05)

