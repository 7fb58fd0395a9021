from dataclasses import replace

import numpy as np
import pytest

from formcoach.alignment import WarpPath, pace_profile
from formcoach.kinematics import interior_angles
from formcoach.skeleton import JointId, ValidationError
from formcoach.synth import (InjectedError, MotionSpec, TEMPLATES, _frame_phases,
                             exercise_config, generate)

J = JointId


def angles(seq, joint):
    """The interior angle series of ``joint`` over the frames of ``seq``."""
    return interior_angles(seq.points, (joint,))[:, 0].tolist()


class TestMotionSpecValidation:
    def test_minimum_frames(self):
        with pytest.raises(ValidationError):
            MotionSpec(template="squat", n_frames=4)

    def test_negative_noise(self):
        with pytest.raises(ValidationError):
            MotionSpec(template="squat", noise_std=-1.0)

    def test_unknown_error_kind(self):
        with pytest.raises(ValidationError):
            InjectedError(kind="teleport", magnitude=1.0)

    def test_angle_offset_needs_elbow_or_knee(self):
        with pytest.raises(ValidationError):
            InjectedError(kind="angle_offset_deg", magnitude=10.0,
                          joint=J.LEFT_WRIST)

    def test_unknown_template(self):
        with pytest.raises(ValidationError):
            generate(MotionSpec(template="deadlift"), seed=0)


class TestGenerate:
    def test_determinism(self):
        spec = MotionSpec(template="press", n_frames=20, noise_std=2.0)
        a, ann_a = generate(spec, seed=42)
        b, ann_b = generate(spec, seed=42)
        assert a == b and ann_a == ann_b
        c, _ = generate(spec, seed=43)
        assert a != c

    def test_zero_amplitude_zero_noise_static(self):
        amps = {j: 0.0 for j in TEMPLATES["squat"].driven}
        seq, _ = generate(MotionSpec(template="squat", n_frames=10,
                                     amplitude_deg=amps), seed=0)
        first = seq.frames[0].points
        for f in seq.frames[1:]:
            assert np.array_equal(f.points, first)

    def test_angle_offset_exact(self):
        spec = MotionSpec(template="press", n_frames=16, injected_errors=(
            InjectedError(kind="angle_offset_deg", magnitude=30.0,
                          joint=J.LEFT_ELBOW),))
        seq, _ = generate(spec, seed=0)
        clean, _ = generate(replace(spec, injected_errors=()), seed=0)
        for a, b in zip(angles(seq, J.LEFT_ELBOW), angles(clean, J.LEFT_ELBOW)):
            assert abs(a - b) == pytest.approx(30.0, abs=0.01)

    def test_angle_offset_moves_joint_not_parent(self):
        spec = MotionSpec(template="squat", n_frames=12, injected_errors=(
            InjectedError(kind="angle_offset_deg", magnitude=20.0,
                          joint=J.RIGHT_KNEE),))
        seq, _ = generate(spec, seed=1)
        clean, _ = generate(replace(spec, injected_errors=()), seed=1)
        for f, g in zip(seq.frames, clean.frames):
            assert np.linalg.norm(f.points[J.RIGHT_KNEE]
                                  - g.points[J.RIGHT_KNEE]) > 2.0
            assert np.allclose(f.points[J.RIGHT_HIP], g.points[J.RIGHT_HIP])
            # distal shank keeps its world direction
            assert np.allclose(f.points[J.RIGHT_ANKLE] - f.points[J.RIGHT_KNEE],
                               g.points[J.RIGHT_ANKLE] - g.points[J.RIGHT_KNEE])

    def test_speed_factor_halves_duration(self):
        base, _ = generate(MotionSpec(template="pull", n_frames=20), seed=0)
        fast, _ = generate(MotionSpec(template="pull", n_frames=20,
                                      injected_errors=(InjectedError(
                                          kind="speed_factor", magnitude=2.0),)),
                           seed=0)
        assert fast.duration == base.duration / 2.0
        assert np.array_equal(fast.frames[3].points, base.frames[3].points)

    def test_phase_restricted_offset(self):
        spec = MotionSpec(template="squat", n_frames=20, injected_errors=(
            InjectedError(kind="angle_offset_deg", magnitude=25.0,
                          joint=J.LEFT_KNEE, phase="eccentric"),))
        seq, ann = generate(spec, seed=2)
        clean, _ = generate(replace(spec, injected_errors=()), seed=2)
        flagged = {fid for fid, j, _ in ann.per_frame_mistakes}
        assert 0 < len(flagged) < 20
        for f, a, b in zip(seq.frames, angles(seq, J.LEFT_KNEE),
                           angles(clean, J.LEFT_KNEE)):
            delta = abs(a - b)
            if f.frame_id in flagged:
                assert delta == pytest.approx(25.0, abs=0.01)
            else:
                assert delta == pytest.approx(0.0, abs=1e-9)

    def test_rom_truncation_halves_achieved_range(self):
        spec = MotionSpec(template="squat", n_frames=24, injected_errors=(
            InjectedError(kind="rom_truncation_fraction", magnitude=0.5,
                          joint=J.LEFT_KNEE),))
        seq, ann = generate(spec, seed=3)
        knee = angles(seq, J.LEFT_KNEE)
        achieved = max(knee) - min(knee)
        lo, hi = ann.reference_angles[J.LEFT_KNEE]
        assert achieved == pytest.approx((hi - lo) / 2.0, rel=1e-6)

    def test_class_label_defaults(self):
        clean, _ = generate(MotionSpec(template="press", n_frames=10), seed=0)
        assert clean.class_label == "groundtruth"
        bad, _ = generate(MotionSpec(template="press", n_frames=10,
                                     injected_errors=(InjectedError(
                                         kind="speed_factor", magnitude=2.0),)),
                          seed=0)
        assert bad.class_label == "wrong"

    def test_annotation_reference_angles_match_clean_trajectory(self):
        seq, ann = generate(MotionSpec(template="pull", n_frames=18), seed=4)
        for j, (lo, hi) in ann.reference_angles.items():
            series = angles(seq, j)
            assert min(series) == pytest.approx(lo, abs=1e-6)
            assert max(series) == pytest.approx(hi, abs=1e-6)

    def test_noise_applied_after_injection(self):
        spec = MotionSpec(template="press", n_frames=10, noise_std=1.5)
        noisy, _ = generate(spec, seed=5)
        clean, _ = generate(replace(spec, noise_std=0.0), seed=5)
        diffs = np.concatenate([(f.points - g.points).ravel()
                                for f, g in zip(noisy.frames, clean.frames)])
        assert 1.0 < diffs.std() < 2.0

    @pytest.mark.parametrize("n_frames", [48, 150, 300])
    @pytest.mark.parametrize("template", ["squat", "press", "pull"])
    def test_phase_labels_agree_with_pace_profile(self, template, n_frames):
        """An injected error's phase covers the frames that pace_profile
        names alike: inside each phase of a clean reference against itself,
        every frame carries that phase's label."""
        seq, _ = generate(MotionSpec(template=template, n_frames=n_frames), seed=0)
        spec = TEMPLATES[template]
        labels = _frame_phases(spec, np.linspace(0.0, 1.0, n_frames))
        path = WarpPath(pairs=tuple((i, i) for i in range(n_frames)), cost=0.0)
        profile = pace_profile(seq, seq, path, angles(seq, spec.primary),
                               spec.eccentric_direction)
        for phase in profile.phases:
            start, end = phase.ref_range
            assert set(labels[start + 1:end]) == {phase.name}, phase


class TestExerciseConfigHelper:
    def test_reference_angles_from_annotation(self):
        seq, ann = generate(MotionSpec(template="squat", n_frames=12), seed=0)
        cfg = exercise_config("squat", ann)
        assert cfg.reference_angles == ann.reference_angles
        assert cfg.body_class == "Lower"
        assert cfg.phase.primary_joint == J.LEFT_KNEE

    def test_overrides(self):
        cfg = exercise_config("press", mistake_threshold=0.07)
        assert cfg.mistake_threshold == 0.07
        assert cfg.targeted_joints == TEMPLATES["press"].targeted
