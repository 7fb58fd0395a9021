"""Exit codes of the CLI on bad input, and the errors it must not swallow.

Exit code 2 means the input failed validation. A bare ``ValueError`` from
inside the pipeline is a bug, not bad input, so it must escape instead of
being reported as exit 2.
"""

import json
import shutil

import pytest

from formcoach import assessment, cli, sttf
from formcoach.alignment import AlignmentError
from formcoach.kinematics import DescriptorError
from formcoach.normalize import normalize_sequence
from formcoach.skeleton import JointId, save_annotation, save_sequence
from formcoach.synth import MotionSpec, generate

from test_cli import run_assess, write_inputs
from test_sttf import SMALL


def assess_argv(tmp_path, *extra):
    return ["assess",
            "--candidate", str(tmp_path / "cand.sequence.json"),
            "--reference", str(tmp_path / "ref.sequence.json"),
            "--config", str(tmp_path / "squat.config.json"),
            "--out", str(tmp_path / "out"), *extra]


@pytest.mark.parametrize("which", ["cand", "ref"])
def test_null_coordinate_exits_2_naming_frame(tmp_path, capsys, which):
    write_inputs(tmp_path)
    path = tmp_path / f"{which}.sequence.json"
    doc = json.loads(path.read_text())
    doc["frames"][4]["keypoints"][13][1] = None
    path.write_text(json.dumps(doc))
    assert cli.main(assess_argv(tmp_path)) == cli.EXIT_VALIDATION
    assert "frame 4: keypoint 'left_knee'" in capsys.readouterr().err


def write_train_inputs(tmp_path, **config):
    """A one-example dataset and a small training config; returns the argv
    of a ``train`` call on them."""
    seq, ann = generate(MotionSpec(template="squat", n_frames=12), seed=0)
    save_sequence(seq, tmp_path / "squat.sequence.json")
    save_annotation(ann, tmp_path / "squat.annotation.json")
    path = tmp_path / "train.json"
    path.write_text(json.dumps({"d_model": 8, "n_heads": 2, "seq_len": 8,
                                "epochs": 1, **config}))
    return ["train", "--dataset", str(tmp_path), "--config", str(path),
            "--checkpoint-out", str(tmp_path / "model.json")]


def assess_three_ways(tmp_path):
    """``assess`` of the candidate written under three names; returns the
    exit code and the output directory."""
    cands = []
    for k in range(3):
        path = tmp_path / f"cand{k}.sequence.json"
        shutil.copy(tmp_path / "cand.sequence.json", path)
        cands.append(str(path))
    out = tmp_path / "out"
    rc = cli.main(["assess", "--candidate", *cands,
                   "--reference", str(tmp_path / "ref.sequence.json"),
                   "--config", str(tmp_path / "squat.config.json"),
                   "--out", str(out)])
    return rc, out


def edit_reference_frame(tmp_path, frame, edit):
    path = tmp_path / "ref.sequence.json"
    doc = json.loads(path.read_text())
    edit(doc["frames"][frame]["keypoints"])
    path.write_text(json.dumps(doc))


def hide_left_hip(keypoints):
    keypoints[JointId.LEFT_HIP][2] = 0.0


def collapse_torso(keypoints):
    for j in (JointId.RIGHT_SHOULDER, JointId.LEFT_HIP, JointId.RIGHT_HIP):
        keypoints[j][:2] = keypoints[JointId.LEFT_SHOULDER][:2]


@pytest.mark.parametrize("edit, code", [
    (hide_left_hip, cli.EXIT_VALIDATION),
    (collapse_torso, cli.EXIT_DEGENERATE),
], ids=["occluded-torso", "degenerate"])
def test_bad_reference_fails_once_naming_it(tmp_path, capsys, edit, code):
    write_inputs(tmp_path)
    edit_reference_frame(tmp_path, 2, edit)
    rc, out = assess_three_ways(tmp_path)
    assert rc == code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert str(tmp_path / "ref.sequence.json") in lines[0]
    assert "reference" in lines[0]
    assert not any(f"cand{k}.sequence.json" in lines[0] for k in range(3))
    assert captured.out == ""
    assert not out.exists() or not any(out.iterdir())


def test_assess_normalizes_the_reference_once(tmp_path, monkeypatch):
    write_inputs(tmp_path)
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return normalize_sequence(*args)
    monkeypatch.setattr(assessment, "normalize_sequence", counted)
    rc, _ = assess_three_ways(tmp_path)
    assert rc == cli.EXIT_OK
    assert len(calls) == 4


def test_aux_model_reuses_the_candidate_normalization(tmp_path, monkeypatch,
                                                      capsys):
    write_inputs(tmp_path)
    ckpt = tmp_path / "model.json"
    sttf.save_checkpoint(sttf.STTFModel(SMALL), ckpt)
    cand = tmp_path / "cand.sequence.json"
    threshold = json.loads((tmp_path / "squat.config.json").read_text())[
        "occlusion_threshold"]
    assert cli.main(["score-model", "--checkpoint", str(ckpt), "--sequence",
                     str(cand), "--occlusion-threshold", repr(threshold)]) == 0
    expected = json.loads(capsys.readouterr().out)

    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return normalize_sequence(*args)
    monkeypatch.setattr(assessment, "normalize_sequence", counted)
    monkeypatch.setattr(sttf, "normalize_sequence", counted)
    assert cli.main(assess_argv(tmp_path, "--aux-model", str(ckpt))) == cli.EXIT_OK
    assert len(calls) == 2
    report = json.loads((tmp_path / "out" / "cand_report.json").read_text())
    assert report["aux_scores"] == expected


@pytest.mark.parametrize("file, digits, expected", [
    ("keypoints", 400, "frame 4: keypoint 'left_knee'"),
    ("config", 400, "mistake_threshold: 1000"),
    ("keypoints", 5000, "cand.sequence.json: not valid JSON (Exceeds the limit"),
], ids=["keypoints", "config", "digit-limit"])
def test_integer_too_large_for_a_float_exits_2_naming_it(tmp_path, capsys, file,
                                                         digits, expected):
    write_inputs(tmp_path)
    path = tmp_path / ("cand.sequence.json" if file == "keypoints"
                       else "squat.config.json")
    doc = json.loads(path.read_text())
    if file == "keypoints":
        doc["frames"][4]["keypoints"][13][1] = "BIG"
    else:
        doc["mistake_threshold"] = "BIG"
    path.write_text(json.dumps(doc).replace('"BIG"', "1" + "0" * digits))
    assert cli.main(assess_argv(tmp_path)) == cli.EXIT_VALIDATION
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("file", ["config", "annotation"])
def test_non_finite_angle_bound_exits_2_naming_the_joint(tmp_path, capsys, file,
                                                         bound):
    if file == "annotation":
        argv = write_train_inputs(tmp_path)
        path = tmp_path / "squat.annotation.json"
    else:
        write_inputs(tmp_path)
        argv = assess_argv(tmp_path)
        path = tmp_path / "squat.config.json"
    doc = json.loads(path.read_text())
    doc["reference_angles"] = {"left_knee": [60.0, "BOUND"]}
    path.write_text(json.dumps(doc).replace('"BOUND"', bound))
    assert cli.main(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "reference_angles[left_knee]: bounds must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key", ["key_joint_threshold_deg", "mistake_threshold",
                                 "occlusion_threshold", "pace_ratio_weight"])
def test_non_number_config_value_exits_2(tmp_path, capsys, key):
    write_inputs(tmp_path)
    path = tmp_path / "squat.config.json"
    doc = json.loads(path.read_text())
    doc[key] = "abc"
    path.write_text(json.dumps(doc))
    assert cli.main(assess_argv(tmp_path)) == cli.EXIT_VALIDATION
    assert f"{key}: 'abc' is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, match", [
    ("n_joints", 16, "17-joint"),
    ("n_scores", 2, "3-score"),
], ids=["joints", "scores"])
def test_train_rejects_joint_or_score_count(tmp_path, capsys, key, value, match):
    argv = write_train_inputs(tmp_path, **{key: value})
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("config, field", [
    ({"n_heads": 0}, "n_heads"),
    ({"d_model": 0}, "d_model"),
    ({"seq_len": 8.5}, "seq_len"),
    ({"spatial_layers": -1}, "spatial_layers"),
    ({"seed": -1}, "seed"),
    ({"epochs": 0}, "epochs"),
    ({"lr": 0}, "lr"),
    ({"lr": "fast"}, "lr"),
    ({"epoch": 3}, "unknown training config key 'epoch'"),
], ids=["heads", "width", "seq-len", "layers", "seed", "epochs", "lr", "lr-text",
        "unknown-key"])
def test_bad_training_config_exits_2(tmp_path, capsys, config, field):
    argv = write_train_inputs(tmp_path, **config)
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert field in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("flag", ["--epochs", "--lr", "--seed"])
def test_training_settings_have_no_flags(tmp_path, flag):
    argv = write_train_inputs(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        cli.main([*argv, flag, "1"])
    assert exit_.value.code == cli.EXIT_VALIDATION
    assert not (tmp_path / "model.json").exists()


def test_bare_value_error_in_train_escapes(tmp_path, monkeypatch):
    argv = write_train_inputs(tmp_path)
    assert cli.main(argv) == cli.EXIT_OK

    def fail(*args):
        raise ValueError("a bug, not bad input")
    monkeypatch.setattr(cli, "_load_train_config", fail)
    with pytest.raises(ValueError, match="a bug"):
        cli.main(argv)


@pytest.mark.parametrize("file, key, value, expected", [
    ("annotation", "scores", {"joint": 50.0, "range": 50.0}, "pace"),
    ("annotation", "scores", {"joint": "high", "pace": 50.0, "range": 50.0},
     "scores.joint"),
    ("annotation", "per_frame_mistakes", [{"joint": "left_knee"}], "frame_id"),
    ("annotation", "reference_angles", {"left_knee": [60.0, "x"]},
     "reference_angles.left_knee"),
    ("annotation", "targeted_joints", 5, "targeted_joints"),
    ("config", "phase", {"eccentric_direction": "decreasing"}, "primary_joint"),
    ("config", "phase", 3, "phase"),
    ("config", "rules", [{"joint": "left_knee"}], "message"),
    ("config", "reference_angles", {"left_knee": ["x", 170.0]},
     "reference_angles.left_knee"),
    ("config", "rules", [{"joint": "left_knee", "message": "m", "angle_above": "x"}],
     "rules[0].angle_above"),
], ids=["scores-missing", "score-text", "mistake-frame", "annotation-angle",
        "targeted-not-list", "phase-joint", "phase-number", "rule-message",
        "config-angle", "rule-angle-text"])
def test_malformed_annotation_or_config_exits_2(tmp_path, capsys, file, key, value,
                                                expected):
    if file == "annotation":
        argv = write_train_inputs(tmp_path)
        path = tmp_path / "squat.annotation.json"
    else:
        write_inputs(tmp_path)
        argv = assess_argv(tmp_path)
        path = tmp_path / "squat.config.json"
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    assert cli.main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert str(path) in err and expected in err


def test_corrupt_checkpoint_exits_2(tmp_path, capsys):
    write_inputs(tmp_path)
    ckpt = tmp_path / "model.json"
    ckpt.write_text('{"format": "formcoach-sttf", "vers')
    assert cli.main(assess_argv(tmp_path, "--aux-model", str(ckpt))) == cli.EXIT_VALIDATION
    assert cli.main(["score-model", "--checkpoint", str(ckpt), "--sequence",
                     str(tmp_path / "cand.sequence.json")]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("not valid JSON") == 2


@pytest.mark.parametrize("error", [DescriptorError, AlignmentError])
def test_documented_pipeline_errors_exit_2(tmp_path, monkeypatch, error):
    def fail(*args):
        raise error("no common usable joint pairs")
    monkeypatch.setattr(cli, "assess_pair", fail)
    rc, _ = run_assess(tmp_path)
    assert rc == cli.EXIT_VALIDATION


def test_bare_value_error_in_assess_escapes(tmp_path, monkeypatch):
    def fail(*args):
        raise ValueError("a bug, not bad input")
    monkeypatch.setattr(cli, "assess_pair", fail)
    with pytest.raises(ValueError, match="a bug"):
        run_assess(tmp_path)


def test_degenerate_sequence_in_score_model_exits_3_naming_it(tmp_path, capsys):
    write_inputs(tmp_path)
    ckpt = tmp_path / "model.json"
    sttf.save_checkpoint(sttf.STTFModel(SMALL), ckpt)
    path = tmp_path / "ref.sequence.json"
    edit_reference_frame(tmp_path, 2, collapse_torso)
    argv = ["score-model", "--checkpoint", str(ckpt), "--sequence", str(path)]
    assert cli.main(argv) == cli.EXIT_DEGENERATE
    assert f"degenerate data in {path}: frame 'f0002'" in capsys.readouterr().err


def test_bare_value_error_in_score_model_escapes(tmp_path, monkeypatch):
    write_inputs(tmp_path)
    ckpt = tmp_path / "model.json"
    sttf.save_checkpoint(sttf.STTFModel(SMALL), ckpt)
    argv = ["score-model", "--checkpoint", str(ckpt),
            "--sequence", str(tmp_path / "cand.sequence.json")]
    assert cli.main(argv) == cli.EXIT_OK

    def fail(*args):
        raise ValueError("a bug, not bad input")
    monkeypatch.setattr(cli, "_aux_scores", fail)
    with pytest.raises(ValueError, match="a bug"):
        cli.main(argv)


@pytest.mark.parametrize("where, value", [
    ("mistake_threshold", "NaN"),
    ("occlusion_threshold", "NaN"),
    ("key_joint_threshold_deg", "Infinity"),
    ("mistake_threshold", "-1"),
    ("--occlusion-threshold", "nan"),
    ("--occlusion-threshold", "-1"),
], ids=["mistake-nan", "occlusion-nan", "key-joint-inf", "mistake-negative",
        "score-model-nan", "score-model-negative"])
def test_threshold_must_be_finite_and_non_negative(tmp_path, capsys, where, value):
    write_inputs(tmp_path)
    if where.startswith("--"):
        ckpt = tmp_path / "model.json"
        sttf.save_checkpoint(sttf.STTFModel(SMALL), ckpt)
        argv = ["score-model", "--checkpoint", str(ckpt),
                "--sequence", str(tmp_path / "cand.sequence.json"), where, value]
    else:
        path = tmp_path / "squat.config.json"
        doc = json.loads(path.read_text())
        doc[where] = float(value)
        path.write_text(json.dumps(doc))
        argv = assess_argv(tmp_path)
    assert cli.main(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert f"{where} must be finite and non-negative" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec, expected", [
    ({"injected_errors": [{"type": "angle_offset_deg", "magnitude": "x",
                           "joint": "left_knee"}]}, "injected_errors[0].magnitude"),
    ({"n_frames": "abc"}, "n_frames: 'abc' is not a number"),
    ({"n_frames": 12.5}, "n_frames must be an integer"),
    ({"injected_errors": [3]}, "injected_errors[0]"),
    ({"injected_errors": {"type": "speed_factor"}}, "injected_errors"),
    ({"amplitude_deg": {"left_knee": None}}, "amplitude_deg.left_knee"),
    ({"amplitude_deg": [80]}, "amplitude_deg"),
    ({"noise_std": "NaN"}, "noise_std"),
    ({"template": ["squat"]}, "unknown template"),
], ids=["magnitude-text", "frames-text", "frames-fraction", "error-not-object",
        "errors-not-list", "amplitude-null", "amplitudes-not-object", "noise-nan",
        "template-list"])
def test_bad_motion_spec_exits_2(tmp_path, capsys, spec, expected):
    path = tmp_path / "spec.json"
    doc = {"template": "squat", "n_frames": 12, **spec}
    path.write_text(json.dumps(doc).replace('"NaN"', "NaN"))
    out = tmp_path / "out"
    assert cli.main(["synth", "--spec", str(path), "--out", str(out)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: invalid motion spec") and expected in err
    assert not out.exists()


def test_degenerate_training_sequence_exits_3_naming_it(tmp_path, capsys):
    argv = write_train_inputs(tmp_path)
    path = tmp_path / "squat.sequence.json"
    doc = json.loads(path.read_text())
    collapse_torso(doc["frames"][2]["keypoints"])
    path.write_text(json.dumps(doc))
    assert cli.main(argv) == cli.EXIT_DEGENERATE
    assert f"degenerate data in {path}: frame 'f0002'" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_training_mistake_on_absent_frame_exits_2_naming_it(tmp_path, capsys):
    argv = write_train_inputs(tmp_path)
    path = tmp_path / "squat.annotation.json"
    doc = json.loads(path.read_text())
    doc["per_frame_mistakes"] = [{"frame_id": "g0003", "joint": "left_knee"}]
    path.write_text(json.dumps(doc))
    assert cli.main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{tmp_path / 'squat.sequence.json'}: " in err and "'g0003'" in err
    assert not (tmp_path / "model.json").exists()


NOT_JSON = '{"exercise_id": "squat", "fra'


def inverted_knee_range(doc):
    """A fault that ``ExerciseConfig.__post_init__`` raises, not the reader."""
    doc["reference_angles"] = {"left_knee": [170.0, 60.0]}


def degenerate_frame(doc):
    collapse_torso(doc["frames"][2]["keypoints"])


def nan_fps(doc):
    doc["fps"] = float("nan")


def command_inputs(tmp_path, command):
    """Valid inputs of ``command``, with every optional input file given;
    the argv of a call on them."""
    if command == "synth":
        (tmp_path / "spec.json").write_text('{"template": "squat", "n_frames": 12}')
        return ["synth", "--spec", str(tmp_path / "spec.json"),
                "--out", str(tmp_path / "out")]
    if command == "train":
        return write_train_inputs(tmp_path)
    write_inputs(tmp_path)
    ckpt = tmp_path / "model.json"
    sttf.save_checkpoint(sttf.STTFModel(SMALL), ckpt)
    if command == "assess":
        return assess_argv(tmp_path, "--aux-model", str(ckpt))
    report = tmp_path / "report.json"
    assessment.save_report(assessment.AssessmentReport(
        name="cand", body_class="Lower", joint_score=50.0, pace_score=50.0,
        range_score=None), report)
    return ["score-model", "--checkpoint", str(ckpt), "--sequence",
            str(tmp_path / "cand.sequence.json"), "--report", str(report)]


@pytest.mark.parametrize("command, file, fault, code", [
    ("assess", "squat.config.json", inverted_knee_range, cli.EXIT_VALIDATION),
    ("assess", "squat.config.json", NOT_JSON, cli.EXIT_VALIDATION),
    ("assess", "model.json", NOT_JSON, cli.EXIT_VALIDATION),
    ("assess", "ref.sequence.json", "[]", cli.EXIT_VALIDATION),
    ("assess", "ref.sequence.json", degenerate_frame, cli.EXIT_DEGENERATE),
    ("assess", "cand.sequence.json", "[]", cli.EXIT_VALIDATION),
    ("assess", "cand.sequence.json", NOT_JSON, cli.EXIT_VALIDATION),
    ("assess", "cand.sequence.json", None, cli.EXIT_VALIDATION),
    ("synth", "spec.json", NOT_JSON, cli.EXIT_VALIDATION),
    ("train", "train.json", "[]", cli.EXIT_VALIDATION),
    ("train", "squat.annotation.json", NOT_JSON, cli.EXIT_VALIDATION),
    ("train", "squat.sequence.json", nan_fps, cli.EXIT_VALIDATION),
    ("train", "squat.sequence.json", degenerate_frame, cli.EXIT_DEGENERATE),
    ("score-model", "model.json", '{"format": "other"}', cli.EXIT_VALIDATION),
    ("score-model", "cand.sequence.json", degenerate_frame, cli.EXIT_DEGENERATE),
    ("score-model", "report.json", NOT_JSON, cli.EXIT_VALIDATION),
], ids=["config-post-init", "config-not-json", "aux-model", "reference",
        "reference-degenerate", "candidate", "candidate-not-json",
        "candidate-missing", "motion-spec", "training-config", "annotation",
        "training-sequence", "training-sequence-degenerate", "checkpoint",
        "score-model-sequence", "report"])
def test_each_failing_input_is_named_once(tmp_path, capsys, command, file, fault,
                                          code):
    """One error line names the failing input exactly once. ``fault`` is the
    file's new text, an edit of its JSON document, or None to delete it."""
    argv = command_inputs(tmp_path, command)
    path = tmp_path / file
    if fault is None:
        path.unlink()
    elif callable(fault):
        doc = json.loads(path.read_text())
        fault(doc)
        path.write_text(json.dumps(doc))
    else:
        path.write_text(fault)
    assert cli.main(argv) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0].count(str(path)) == 1


@pytest.mark.parametrize("edit, key", [
    (lambda doc: doc.update(joint="abc"), "joint: 'abc' is not a number"),
    (lambda doc: doc["corrections"][0].pop("text"), "corrections[0]"),
    (lambda doc: doc["frame_detail"][0].pop("frame_id"), "frame_detail[0]"),
    (lambda doc: doc["frame_detail"][0].update(frame_index=float("nan")),
     "frame_detail[0].frame_index"),
], ids=["score-text", "correction-text", "detail-frame-id", "detail-index-nan"])
def test_malformed_report_exits_2_naming_file_and_key(tmp_path, capsys, edit,
                                                      key):
    rc, out = run_assess(tmp_path)
    assert rc == cli.EXIT_OK
    path = out / "cand_report.json"
    doc = json.loads(path.read_text())
    assert doc["corrections"] and doc["frame_detail"]
    edit(doc)
    text = json.dumps(doc)
    path.write_text(text)
    ckpt = tmp_path / "model.json"
    sttf.save_checkpoint(sttf.STTFModel(SMALL), ckpt)
    capsys.readouterr()
    assert cli.main(["score-model", "--checkpoint", str(ckpt), "--sequence",
                     str(tmp_path / "cand.sequence.json"),
                     "--report", str(path)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and key in err
    assert path.read_text() == text


def test_dataset_without_pairs_exits_2_naming_it(tmp_path, capsys):
    argv = write_train_inputs(tmp_path)
    (tmp_path / "squat.annotation.json").unlink()
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {tmp_path}: empty training dataset\n"
    assert not (tmp_path / "model.json").exists()
