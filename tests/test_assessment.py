import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from formcoach.alignment import PaceProfile
from formcoach.assessment import (AssessmentReport, Correction, FrameDeviation,
                                  MistakeFlag, assess_pair, flag_mistakes,
                                  load_report, pace_score, prepare,
                                  range_score, save_report, textual_feedback)
from formcoach.config import CorrectionRule
from formcoach.kinematics import interior_angles
from formcoach.skeleton import JointId, ValidationError
from formcoach.synth import InjectedError, MotionSpec, exercise_config, generate

import reference

J = JointId


def make_pair(template="press", n_frames=32, cand_errors=(), noise=0.0,
              seed=0, **config_overrides):
    spec = MotionSpec(template=template, n_frames=n_frames, noise_std=noise,
                      injected_errors=tuple(cand_errors))
    cand, _ = generate(spec, seed=seed)
    ref, rann = generate(replace(spec, injected_errors=(), noise_std=0.0,
                                 class_label="groundtruth"), seed=seed)
    cfg = exercise_config(template, rann, **config_overrides)
    return cand, ref, cfg


def assess(cand, ref, cfg):
    """:func:`assess_pair` against a reference prepared for this call."""
    return assess_pair(cand, prepare(ref, cfg), cfg)


def raw_range_score(cand, targeted, reference):
    """:func:`range_score` over the interior angles of ``cand``'s raw
    keypoints."""
    angles = interior_angles(cand.points_array(), targeted, cand.occlusion_mask())
    return range_score(angles, targeted, reference)


def reference_alignment(cand, ref, targeted):
    """The reference oracle's descriptors of both sequences and the path of
    its DTW between them."""
    cf, rf = (reference.frame_descriptors(
        [(f.points, f.occlusion_mask()) for f in seq.frames], targeted)
        for seq in (cand, ref))
    return cf, rf, reference.dtw(reference.cost_matrix(cf, rf))[1]


def occlude_at_random(seq, rng, joints, share=0.3):
    """Copy of ``seq`` with one of ``joints`` occluded on about ``share`` of
    the frames."""
    frames = []
    for frame in seq.frames:
        if rng.random() < share:
            conf = frame.confidence.copy()
            conf[joints[int(rng.integers(len(joints)))]] = 0.0
            frame = replace(frame, confidence=conf)
        frames.append(frame)
    return replace(seq, frames=tuple(frames))


class TestJointScore:
    def test_identity_is_100(self):
        cand, ref, cfg = make_pair()
        res = assess(cand, cand, cfg)
        assert res.report.joint_score == pytest.approx(100.0, abs=1e-6)

    def test_matches_brute_force_over_pairs(self):
        cand, ref, cfg = make_pair(cand_errors=(
            InjectedError(kind="angle_offset_deg", magnitude=25.0,
                          joint=J.LEFT_ELBOW),))
        cf, rf, path = reference_alignment(cand, ref, cfg.targeted_joints)
        total, count = 0.0, 0
        for i, j in path:
            for cos in reference.cosines(cf[i], rf[j]):
                total += (cos + 1.0) / 2.0
                count += 1
        expected = 100.0 * total / count
        res = assess(cand, ref, cfg)
        assert res.path.pairs == path
        assert res.report.joint_score == pytest.approx(expected)

    def test_occluded_joints_match_explicit_loop(self):
        # Path pairs whose frames keep different pair sets score over the
        # common pairs only.
        cand, ref, cfg = make_pair(template="squat", noise=1.0, seed=4)
        rng = np.random.default_rng(10)
        hidden = (J.LEFT_KNEE, J.LEFT_ANKLE, J.RIGHT_ANKLE)
        cand, ref = (occlude_at_random(s, rng, hidden) for s in (cand, ref))
        targeted = cfg.targeted_joints
        cf, rf, path = reference_alignment(cand, ref, targeted)
        total, count = 0.0, 0
        for i, j in path:
            for cos in reference.cosines(cf[i], rf[j]):
                total += (cos + 1.0) / 2.0
                count += 1
        assert count < len(path) * len(targeted) * (len(targeted) - 1)
        res = assess(cand, ref, cfg)
        assert res.path.pairs == path
        assert res.report.joint_score == pytest.approx(
            100.0 * total / count, abs=1e-10)

    def test_wrong_scores_below_correct(self):
        # directionality only: a clean repeat outscores a distorted one
        clean, ref, cfg = make_pair(noise=0.5, seed=3)
        wrong, _, _ = make_pair(cand_errors=(
            InjectedError(kind="angle_offset_deg", magnitude=35.0,
                          joint=J.LEFT_ELBOW),), noise=0.5, seed=3)
        s_clean = assess(clean, ref, cfg).report.joint_score
        s_wrong = assess(wrong, ref, cfg).report.joint_score
        assert s_wrong < s_clean


class TestPaceScore:
    def test_perfect(self):
        profile = PaceProfile(duration_ratio=1.0, warp_deviation=0.0, phases=())
        assert pace_score(profile) == 100.0

    def test_double_speed_is_50(self):
        profile = PaceProfile(duration_ratio=0.5, warp_deviation=0.0, phases=())
        assert pace_score(profile) == 50.0

    def test_floor_at_zero(self):
        profile = PaceProfile(duration_ratio=4.0, warp_deviation=1.0, phases=())
        assert pace_score(profile) == 0.0

    def test_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ratio = float(rng.uniform(0.2, 5.0))
            dev = float(rng.uniform(0.0, 1.0))
            profile = PaceProfile(duration_ratio=ratio, warp_deviation=dev,
                                  phases=())
            expected = 100.0 * (0.5 * max(0.0, 1.0 - abs(math.log2(ratio)))
                                + 0.5 * (1.0 - dev))
            assert pace_score(profile) == pytest.approx(expected)


class TestRangeScore:
    def test_full_range_scores_100(self):
        cand, ref, cfg = make_pair(template="squat")
        assert raw_range_score(cand, cfg.targeted_joints, cfg.reference_angles
                               ) == pytest.approx(100.0, abs=1e-6)

    def test_truncated_knee_scores_half(self):
        cand, ref, cfg = make_pair(
            template="squat",
            cand_errors=(InjectedError(kind="rom_truncation_fraction",
                                       magnitude=0.5, joint=J.LEFT_KNEE),))
        reference = {J.LEFT_KNEE: cfg.reference_angles[J.LEFT_KNEE]}
        assert raw_range_score(cand, (J.LEFT_KNEE,), reference
                               ) == pytest.approx(50.0, abs=5.0)

    def test_no_reference_ranges_not_applicable(self):
        cand, _, _ = make_pair()
        assert raw_range_score(cand, (J.LEFT_ELBOW,), {}) is None

    def test_overachieved_range_clamped(self):
        cand, _, cfg = make_pair(template="squat")
        lo, hi = cfg.reference_angles[J.LEFT_KNEE]
        reference = {J.LEFT_KNEE: (lo, lo + (hi - lo) / 2)}
        assert raw_range_score(cand, (J.LEFT_KNEE,), reference) == pytest.approx(100.0)


def detail(devs_by_frame):
    return tuple(
        FrameDeviation(frame_index=i, frame_id=f"f{i:04d}", deviations=d)
        for i, d in enumerate(devs_by_frame))


class TestFlagMistakes:
    def test_all_zero_no_flags(self):
        fd = detail([{J.LEFT_ELBOW: 0.0} for _ in range(10)])
        assert flag_mistakes(fd, threshold=0.25) == []

    def test_single_spike(self):
        devs = [{J.LEFT_ELBOW: 0.0} for _ in range(10)]
        devs[4] = {J.LEFT_ELBOW: 0.6}
        flags = flag_mistakes(detail(devs), threshold=0.25)
        assert len(flags) == 1
        assert flags[0].frame_index == 4
        assert flags[0].joint == J.LEFT_ELBOW

    def test_one_flag_per_joint_per_phase(self):
        devs = [{J.LEFT_ELBOW: 0.0} for _ in range(10)]
        devs[2] = {J.LEFT_ELBOW: 0.5}
        devs[7] = {J.LEFT_ELBOW: 0.6}
        flags = flag_mistakes(detail(devs), threshold=0.25,
                              phases=[("down", (0, 4)), ("up", (5, 9))])
        assert [(f.frame_index, f.phase) for f in flags] == [(2, "down"), (7, "up")]
        single = flag_mistakes(detail(devs), threshold=0.25)
        assert [(f.frame_index) for f in single] == [7]  # largest wins

    def test_matches_local_maxima_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            series = rng.uniform(0, 0.6, n)
            fd = detail([{J.LEFT_KNEE: float(v)} for v in series])
            flags = flag_mistakes(fd, threshold=0.25)
            # oracle: best local max above threshold over the whole range
            candidates = []
            for k in range(n):
                left = k == 0 or series[k - 1] <= series[k]
                right = k == n - 1 or series[k + 1] <= series[k]
                if left and right and series[k] > 0.25:
                    candidates.append(k)
            if not candidates:
                assert flags == []
            else:
                best = max(candidates, key=lambda k: series[k])
                assert len(flags) == 1 and flags[0].frame_index == best


class TestTextualFeedback:
    def test_rule_match(self):
        rules = (CorrectionRule(joint=J.LEFT_ELBOW, message="Abduct arm",
                                deviation_above=0.1),)
        flags = [MistakeFlag(frame_index=3, frame_id="f0003",
                             joint=J.LEFT_ELBOW, deviation=0.3)]
        out = textual_feedback(flags, rules)
        assert out == [Correction(text="Abduct arm", joint=J.LEFT_ELBOW,
                                  frame_ids=("f0003",))]

    def test_no_flags_no_corrections(self):
        assert textual_feedback([], ()) == []

    def test_generic_fallback(self):
        flags = [MistakeFlag(frame_index=0, frame_id="f0000",
                             joint=J.RIGHT_KNEE, deviation=0.4)]
        out = textual_feedback(flags, ())
        assert out[0].text == "adjust right_knee toward reference"

    def test_angle_predicate_uses_context(self):
        rules = (CorrectionRule(joint=J.LEFT_ELBOW, message="Bend less",
                                angle_below=60.0),)
        flags = [MistakeFlag(frame_index=1, frame_id="f0001",
                             joint=J.LEFT_ELBOW, deviation=0.3)]
        with_ctx = textual_feedback(flags, rules, {(1, J.LEFT_ELBOW): 45.0})
        assert with_ctx[0].text == "Bend less"
        without = textual_feedback(flags, rules, {(1, J.LEFT_ELBOW): 90.0})
        assert without[0].text.startswith("adjust")

    def test_phase_restriction(self):
        rules = (CorrectionRule(joint=J.LEFT_KNEE, message="Slow down",
                                phase="eccentric"),)
        ecc = [MistakeFlag(frame_index=0, frame_id="a", joint=J.LEFT_KNEE,
                           deviation=0.3, phase="eccentric")]
        conc = [MistakeFlag(frame_index=9, frame_id="b", joint=J.LEFT_KNEE,
                            deviation=0.3, phase="concentric")]
        assert textual_feedback(ecc, rules)[0].text == "Slow down"
        assert textual_feedback(conc, rules)[0].text.startswith("adjust")


class TestAssessPair:
    def test_self_assessment_identity(self):
        for template in ("squat", "press", "pull"):
            cand, _, cfg = make_pair(template=template, seed=5)
            res = assess(cand, cand, cfg)
            r = res.report
            assert r.joint_score == pytest.approx(100.0, abs=1e-6)
            assert r.pace_score == pytest.approx(100.0, abs=1e-6)
            assert r.range_score == pytest.approx(100.0, abs=1e-6)
            assert res.flags == ()
            assert r.corrections == ()

    def test_scores_bounded_under_heavy_distortion(self):
        cand, ref, cfg = make_pair(
            noise=6.0, seed=6,
            cand_errors=(InjectedError(kind="angle_offset_deg", magnitude=45.0,
                                       joint=J.LEFT_ELBOW),
                         InjectedError(kind="speed_factor", magnitude=3.0),))
        r = assess(cand, ref, cfg).report
        for v in (r.joint_score, r.pace_score, r.range_score):
            assert 0.0 <= v <= 100.0

    def test_monotone_under_growing_offset(self):
        _, ref, cfg = make_pair(template="squat", seed=7)
        scores = []
        for off in range(0, 50, 5):
            errs = () if off == 0 else (InjectedError(
                kind="angle_offset_deg", magnitude=float(off), joint=J.LEFT_KNEE),)
            cand, _ = generate(MotionSpec(template="squat", n_frames=32,
                                          noise_std=0.2, injected_errors=errs),
                               seed=7)
            scores.append(assess(cand, ref, cfg).report.joint_score)
        assert all(b <= a + 1e-9 for a, b in zip(scores, scores[1:]))

    def test_rule_table_produces_named_correction(self):
        cand, ref, cfg = make_pair(
            cand_errors=(InjectedError(kind="angle_offset_deg", magnitude=25.0,
                                       joint=J.LEFT_ELBOW),),
            noise=0.5, seed=8,
            mistake_threshold=0.07,
            rules=(CorrectionRule(joint=J.LEFT_ELBOW, message="Abduct arm",
                                  deviation_above=0.05),))
        r = assess(cand, ref, cfg).report
        assert any(c.text == "Abduct arm" for c in r.corrections)
        assert all(c.frame_ids for c in r.corrections)

    def test_occluded_joint_warning_is_one_record_per_sequence(self, caplog):
        cand, ref, cfg = make_pair(template="squat")
        frames = list(cand.frames)
        hidden = (3, 10, 17)
        for t in hidden:
            conf = frames[t].confidence.copy()
            conf[J.LEFT_ANKLE] = 0.0
            frames[t] = replace(frames[t], confidence=conf)
        with caplog.at_level(logging.WARNING, logger="formcoach"):
            assess(replace(cand, frames=tuple(frames)), ref, cfg)
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "left_ankle" in message
        assert all(frames[t].frame_id in message for t in hidden)

    def test_class_tag_echoed(self):
        cand, ref, cfg = make_pair(seed=9)
        assert assess(cand, ref, cfg).report.name == "press(GT)"
        wrong, _ = generate(MotionSpec(
            template="press", n_frames=32,
            injected_errors=(InjectedError(kind="speed_factor", magnitude=2.0),)),
            seed=9)
        assert assess(wrong, ref, cfg).report.name == "press(W)"


class TestReportIO:
    def make_report(self, range_na=False):
        return AssessmentReport(
            name="press(W)", body_class="Upper",
            joint_score=72.25, pace_score=87.5,
            range_score=None if range_na else 93.8125,
            corrections=(Correction(text="Abduct arm", joint=J.LEFT_ELBOW,
                                    frame_ids=("f0003", "f0017")),),
            frame_detail=(FrameDeviation(
                frame_index=0, frame_id="f0000",
                deviations={J.LEFT_ELBOW: 0.125, J.LEFT_WRIST: 0.0625},
                transform=(0.1, 0.0, 0.0, 0.01, 320.0, 240.0)),),
            aux_scores={"joint": 70.0, "pace": 80.0, "range": 90.0},
        )

    def test_roundtrip(self, tmp_path):
        for na in (False, True):
            report = self.make_report(range_na=na)
            path = tmp_path / f"r{na}.json"
            save_report(report, path)
            assert load_report(path) == report

    def test_table_columns_present(self, tmp_path):
        import json
        path = tmp_path / "r.json"
        save_report(self.make_report(), path)
        doc = json.loads(path.read_text())
        for col in ("name", "class", "joint", "pace", "range", "correction"):
            assert col in doc
        assert doc["correction"] == "Abduct arm"

    def test_not_applicable_serialized_as_slash(self, tmp_path):
        import json
        path = tmp_path / "r.json"
        save_report(self.make_report(range_na=True), path)
        assert json.loads(path.read_text())["range"] == "/"

    def test_empty_corrections(self, tmp_path):
        import json
        report = AssessmentReport(name="x", body_class="Both", joint_score=100.0,
                                  pace_score=100.0, range_score=100.0)
        path = tmp_path / "r.json"
        save_report(report, path)
        doc = json.loads(path.read_text())
        assert doc["corrections"] == [] and doc["correction"] == ""
        assert load_report(path) == report

    def test_random_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        joints = list(JointId)
        for trial in range(25):
            corrections = tuple(
                Correction(text=f"msg{k}", joint=joints[int(rng.integers(17))],
                           frame_ids=tuple(f"f{int(i):04d}"
                                           for i in rng.integers(0, 50, 2)))
                for k in range(int(rng.integers(0, 4))))
            detail_entries = tuple(
                FrameDeviation(
                    frame_index=i, frame_id=f"f{i:04d}",
                    deviations={joints[int(rng.integers(17))]: float(rng.uniform())},
                    transform=tuple(float(v) for v in rng.normal(size=6)))
                for i in range(int(rng.integers(0, 5))))
            report = AssessmentReport(
                name=f"ex{trial}", body_class=("Upper", "Lower", "Both")[trial % 3],
                joint_score=float(rng.uniform(0, 100)),
                pace_score=float(rng.uniform(0, 100)),
                range_score=None if trial % 4 == 0 else float(rng.uniform(0, 100)),
                corrections=corrections, frame_detail=detail_entries,
            )
            path = tmp_path / f"r{trial}.json"
            save_report(report, path)
            assert load_report(path) == report

    def test_score_bounds_enforced(self):
        with pytest.raises(ValidationError):
            AssessmentReport(name="x", body_class="Upper", joint_score=101.0,
                             pace_score=50.0, range_score=None)

    def test_correction_needs_frames(self):
        with pytest.raises(ValidationError):
            Correction(text="x", joint=J.NOSE, frame_ids=())
