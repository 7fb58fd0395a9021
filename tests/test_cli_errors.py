"""Exit codes of the CLI on bad input, and the errors it must not swallow.

Exit code 2 means the input failed validation. A bare ``ValueError`` from
inside the pipeline is a bug, not bad input, so it must escape instead of
being reported as exit 2.
"""

import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from formcoach import assessment, cli, sttf
from formcoach.alignment import WarpPath
from formcoach.kinematics import pair_dots
from formcoach.normalize import DegenerateSkeletonError, normalize_sequence
from formcoach.skeleton import (JOINT_NAMES, JointId, ValidationError, save_annotation,
                                save_sequence)
from formcoach.synth import InjectedError, MotionSpec, generate

from test_cli import run_assess, write_inputs
from test_sttf import (SMALL, edit_config, edited_checkpoint, read_checkpoint,
                       write_checkpoint)


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
    assert cli.main(["score-model", "--checkpoint", str(ckpt), "--sequence",
                     str(cand)]) == 0
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


@pytest.mark.parametrize("value", ["NaN", "Infinity", '"nan"'])
@pytest.mark.parametrize("key", ["angle_above", "angle_below", "deviation_above"])
def test_non_finite_rule_threshold_exits_2_naming_it(tmp_path, capsys, key, value):
    """A NaN threshold would match no flag, without a word; an infinite one
    is refused too."""
    write_inputs(tmp_path)
    path = tmp_path / "squat.config.json"
    doc = json.loads(path.read_text())
    doc["rules"] = [{"joint": "left_knee", "message": "m", key: "VALUE"}]
    path.write_text(json.dumps(doc).replace('"VALUE"', value))
    assert cli.main(assess_argv(tmp_path)) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert f"rules[0].{key}: must be a finite number" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["mistake_threshold", "occlusion_threshold",
                                 "pace_ratio_weight"])
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
    ({"seq_len": 10 ** 10}, "seq_len must be at most 4096, got 10000000000"),
    ({"spatial_layers": -1}, "spatial_layers"),
    ({"spatial_layers": 100000}, "spatial_layers must be at most 64, got 100000"),
    ({"temporal_layers": 65}, "temporal_layers must be at most 64, got 65"),
    ({"d_model": 100000, "n_heads": 1, "mlp_ratio": 1000},
     "d_model must be at most 1024, got 100000"),
    ({"d_model": 1028, "n_heads": 4}, "d_model must be at most 1024, got 1028"),
    ({"mlp_ratio": 17}, "mlp_ratio must be at most 16, got 17"),
    ({"seed": -1}, "seed"),
    ({"epochs": 0}, "epochs"),
    ({"epochs": 1e308}, "epochs must be at most 100000, got 1e+308"),
    ({"epochs": 100001}, "epochs must be at most 100000, got 100001"),
    ({"lr": 0}, "lr"),
    ({"lr": "fast"}, "lr"),
    ({"epochs": True}, "epochs: True is not a number"),
    ({"epochs": "6"}, "epochs: '6' is not a number"),
    ({"lr": True}, "lr: True is not a number"),
    ({"lr": "0.01"}, "lr: '0.01' is not a number"),
    ({"epoch": 3}, "unknown training config key 'epoch'"),
], ids=["heads", "width", "seq-len", "huge-seq-len", "layers", "huge-spatial-layers",
        "huge-temporal-layers", "huge-width", "too-wide", "huge-mlp-ratio", "seed",
        "epochs", "huge-epochs", "too-many-epochs", "lr", "lr-text", "epochs-bool", "epochs-text", "lr-bool", "lr-numeric-text",
        "unknown-key"])
def test_bad_training_config_exits_2(tmp_path, capsys, monkeypatch, config, field):
    """One error line, before any dataset file is read: a bound that did not
    hold would otherwise train a huge model or for ever."""
    argv = write_train_inputs(tmp_path, **config)

    def unread(path):
        raise AssertionError(f"read {path} after a bad training config")
    monkeypatch.setattr(cli, "load_annotation", unread)
    assert cli.main(argv) == cli.EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert field in lines[0]
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("flag", ["--epochs", "--lr", "--seed"])
def test_training_settings_have_no_flags(tmp_path, flag):
    argv = write_train_inputs(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        cli.main([*argv, flag, "1"])
    assert exit_.value.code == cli.EXIT_VALIDATION
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("flag, value", [("--report", "x"),
                                         ("--occlusion-threshold", "0.5")])
def test_score_model_has_no_report_or_threshold_flag(tmp_path, flag, value):
    """``assess --aux-model`` writes the scores into its report, masking at
    the exercise config's threshold; ``score-model`` only prints them."""
    argv = command_inputs(tmp_path, "score-model")
    with pytest.raises(SystemExit) as exit_:
        cli.main([*argv, flag, value])
    assert exit_.value.code == cli.EXIT_VALIDATION


@pytest.mark.parametrize("command, flag, output, error", [
    ("assess", "--out", "file", errno.EEXIST),
    ("synth", "--out", "file", errno.EEXIST),
    ("train", "--checkpoint-out", "directory", errno.EISDIR),
    ("train", "--checkpoint-out", "x" * 300, errno.ENAMETOOLONG),
    ("train", "--loss-csv", "directory", errno.EISDIR),
], ids=["assess-out-file", "synth-out-file", "checkpoint-directory",
        "checkpoint-name-too-long", "loss-csv-directory"])
def test_unwritable_output_exits_2_naming_it(tmp_path, capsys, command, flag,
                                             output, error):
    """An output path that cannot be written fails in one line naming it.
    ``output`` is a file or a directory put in its place, or its name."""
    argv = command_inputs(tmp_path, command)
    path = tmp_path / output
    if output == "file":
        path.write_text("")
    elif output == "directory":
        path.mkdir()
    if flag in argv:
        argv[argv.index(flag) + 1] = str(path)
    else:
        argv += [flag, str(path)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: {os.strerror(error)}\n"
    assert captured.out == ""


@pytest.mark.parametrize("output", ["cand_report.json", "cand_f0006_aid.svg",
                                    "cand_aids_index.json"])
def test_unwritable_assess_output_exits_2_naming_it(tmp_path, capsys, output):
    """A report, aid or aids index that cannot be written fails its candidate
    in one line that names the output, not the candidate or a temp file."""
    write_inputs(tmp_path)
    path = tmp_path / "out" / output
    path.mkdir(parents=True)
    assert cli.main(assess_argv(tmp_path)) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: {os.strerror(errno.EISDIR)}\n"
    assert captured.out == ""


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
    ("config", "phase", {"primary_joint": "left_wrist"},
     "primary_joint 'left_wrist' has no interior angle"),
    ("config", "rules", [{"joint": "left_knee"}], "message"),
    ("config", "reference_angles", {"left_knee": ["x", 170.0]},
     "reference_angles.left_knee"),
    ("config", "rules", [{"joint": "left_knee", "message": "m", "angle_above": "x"}],
     "rules[0].angle_above"),
    ("config", "mistake_treshold", 0.05, "unknown exercise config key 'mistake_treshold'"),
    ("config", "rules", [{"joint": "left_knee", "message": "m", "angle_abov": 90.0}],
     "rules[0]: unknown correction rule key 'angle_abov'"),
    ("config", "phase", {"primary_joint": "left_knee", "direction": "decreasing"},
     "phase: unknown phase key 'direction'"),
    ("annotation", "per_frame_mistakes",
     [{"frame_id": "f0000", "joint": "left_knee", "notes": "x"}],
     "per_frame_mistakes[0]: unknown annotation mistake key 'notes'"),
], ids=["scores-missing", "score-text", "mistake-frame", "annotation-angle",
        "targeted-not-list", "phase-joint", "phase-number", "phase-joint-no-angle",
        "rule-message",
        "config-angle", "rule-angle-text", "config-misspelt-key", "rule-misspelt-key",
        "phase-misspelt-key", "mistake-misspelt-key"])
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
    write_checkpoint(ckpt, b'{"__metadata__": {"format": "formcoach-sttf", "vers')
    assert cli.main(assess_argv(tmp_path, "--aux-model", str(ckpt))) == cli.EXIT_VALIDATION
    assert cli.main(["score-model", "--checkpoint", str(ckpt), "--sequence",
                     str(tmp_path / "cand.sequence.json")]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("not valid JSON") == 2


def test_non_finite_checkpoint_exits_2(tmp_path, capsys):
    write_inputs(tmp_path)
    ckpt = tmp_path / "model.json"

    def edit(header, buffer):
        begin, end = header["score_head.b"]["data_offsets"]
        buffer[begin:end] = np.array([0.0, np.nan, 0.0], "<f8").tobytes()
    edited_checkpoint(ckpt, edit)
    assert cli.main(["score-model", "--checkpoint", str(ckpt), "--sequence",
                     str(tmp_path / "cand.sequence.json")]) == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {ckpt}: score_head.b has non-finite values\n"


def test_huge_checkpoint_weight_exits_2_naming_it(tmp_path, capsys):
    """A finite weight of 1e300 would overflow the squares of the first
    LayerNorm and score every sequence 50.0; it is refused by name."""
    write_inputs(tmp_path)
    ckpt = tmp_path / "model.ckpt"

    def edit(header, buffer):
        begin = header["joint_embed.W"]["data_offsets"][0]
        buffer[begin:begin + 8] = np.array(1e300, "<f8").tobytes()
    edited_checkpoint(ckpt, edit)
    assert cli.main(["score-model", "--checkpoint", str(ckpt), "--sequence",
                     str(tmp_path / "cand.sequence.json")]) == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {ckpt}: joint_embed.W has values of magnitude above 1e+18\n"


@pytest.mark.parametrize("edit, name", [
    (lambda header: header.update(
        {"spatial.2.ln1.gamma": header["spatial.0.ln1.gamma"]}),
     "spatial.2.ln1.gamma"),
    (lambda header: edit_config(header, seq_len=10 ** 10),
     "seq_len must be at most 4096, got 10000000000"),
], ids=["extra-parameter", "huge-seq-len"])
def test_checkpoint_parameters_must_be_the_configs(tmp_path, capsys, edit, name):
    """Nothing is allocated for a checkpoint that does not fit its config:
    an extra parameter is not ignored, and a huge ``seq_len`` is refused by
    the config's bounds rather than allocated."""
    write_inputs(tmp_path)
    ckpt = tmp_path / "model.json"
    edited_checkpoint(ckpt, lambda header, buffer: edit(header))
    assert cli.main(["score-model", "--checkpoint", str(ckpt), "--sequence",
                     str(tmp_path / "cand.sequence.json")]) == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {ckpt}: ") and name in err


def test_checkpoint_beyond_the_config_bounds_exits_2(tmp_path, capsys):
    """A checkpoint whose every tensor fits its stored ``seq_len`` of 4097 is
    refused by the bound a training config meets, not scored."""
    write_inputs(tmp_path)
    header = {"__metadata__": {"format": "formcoach-sttf", "version": "3", "config":
                               json.dumps({**dataclasses.asdict(SMALL), "seq_len": 4097,
                                           **sttf.FIXED_COUNTS})}}
    tensors, offset = [], 0
    for p in sttf.STTFModel(SMALL).parameters():
        value = np.zeros((4097, SMALL.d_model)) if p.name == "temporal_pos" else p.value
        tensors.append(value.astype("<f8").tobytes())
        header[p.name] = {"dtype": "F64", "shape": list(value.shape),
                          "data_offsets": [offset, offset + len(tensors[-1])]}
        offset += len(tensors[-1])
    ckpt = tmp_path / "model.ckpt"
    write_checkpoint(ckpt, header, b"".join(tensors))
    assert cli.main(["score-model", "--checkpoint", str(ckpt), "--sequence",
                     str(tmp_path / "cand.sequence.json")]) == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    [line] = err.splitlines()
    assert out == "" and line.startswith(f"error: {ckpt}: ")
    assert "seq_len must be at most 4096, got 4097" in line


def test_checkpoint_config_bound_is_reported_as_it_is(tmp_path, capsys):
    """The config's own bound names the field, not wrapped as malformed."""
    write_inputs(tmp_path)
    ckpt = edited_checkpoint(tmp_path / "model.ckpt", lambda header, buffer:
                             edit_config(header, seq_len=4097))
    assert cli.main(["score-model", "--checkpoint", str(ckpt), "--sequence",
                     str(tmp_path / "cand.sequence.json")]) == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {ckpt}: seq_len must be at most 4096, got 4097\n"


@pytest.mark.parametrize("error, code", [
    (ValidationError, cli.EXIT_VALIDATION),
    (DegenerateSkeletonError, cli.EXIT_DEGENERATE),
], ids=["ValidationError", "DegenerateSkeletonError"])
def test_documented_pipeline_errors_exit_2(tmp_path, monkeypatch, error, code):
    def fail(*args):
        raise error("no common usable joint pairs")
    monkeypatch.setattr(cli, "assess_pair", fail)
    rc, _ = run_assess(tmp_path)
    assert rc == code


def test_bare_value_error_in_assess_escapes(tmp_path, monkeypatch):
    def fail(*args):
        raise ValueError("a bug, not bad input")
    monkeypatch.setattr(cli, "assess_pair", fail)
    with pytest.raises(ValueError, match="a bug"):
        run_assess(tmp_path)


def test_broken_warp_path_invariant_escapes(tmp_path, monkeypatch):
    """A warp path that skips a frame can only come from a bug in the
    alignment, so it escapes rather than blaming the candidate."""
    def align(cand, ref):
        return WarpPath(pairs=((0, 0), (2, 1)), cost=0.0)
    monkeypatch.setattr(assessment, "dtw_align", align)
    write_inputs(tmp_path)
    with pytest.raises(ValueError, match="invalid warp step") as err:
        cli.main(assess_argv(tmp_path))
    assert not isinstance(err.value, ValidationError)


def test_unscorable_warp_path_invariant_escapes(tmp_path, monkeypatch):
    """A warp path with no common joint pair along it can only come from a
    bug, since dtw_align refuses such a cell, so it escapes rather than
    blaming the candidate."""
    def no_common_pairs(a, a_valid, b, b_valid):
        dots, both = pair_dots(a, a_valid, b, b_valid)
        return dots, np.zeros_like(both)
    monkeypatch.setattr(assessment, "pair_dots", no_common_pairs)
    write_inputs(tmp_path)
    with pytest.raises(ValueError, match="no usable targeted joint pairs") as err:
        cli.main(assess_argv(tmp_path))
    assert not isinstance(err.value, ValidationError)


KNEES_AND_ANKLES = [JointId.LEFT_KNEE, JointId.RIGHT_KNEE, JointId.LEFT_ANKLE,
                    JointId.RIGHT_ANKLE]


def knee_and_ankle_inputs(tmp_path):
    """``write_inputs`` with the squat config narrowed to the knees and ankles."""
    write_inputs(tmp_path)
    config = tmp_path / "squat.config.json"
    config.write_text(json.dumps({**json.loads(config.read_text()), "targeted_joints": [
        j.name.lower() for j in KNEES_AND_ANKLES]}))


def hide_in_frame(path, frame, joints):
    """Set ``joints`` to confidence 0 in one frame of a keypoint file."""
    doc = json.loads(path.read_text())
    for j in joints:
        doc["frames"][frame]["keypoints"][j][2] = 0.0
    path.write_text(json.dumps(doc))


def test_frame_with_fewer_than_two_usable_targeted_joints_exits_2(tmp_path, capsys):
    """Candidate frame 5 keeps only the right ankle of the four targeted joints."""
    knee_and_ankle_inputs(tmp_path)
    cand = tmp_path / "cand.sequence.json"
    hide_in_frame(cand, 5, KNEES_AND_ANKLES[:3])
    assert cli.main(assess_argv(tmp_path)) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {cand}: frame 'f0005': fewer than 2 usable targeted joints")


def test_frames_without_a_common_usable_pair_exit_2(tmp_path, capsys):
    """Candidate frame 5 keeps only the ankles and reference frame 2 only
    the knees: that cell of the cost matrix has no pair to compare."""
    knee_and_ankle_inputs(tmp_path)
    cand = tmp_path / "cand.sequence.json"
    hide_in_frame(cand, 5, KNEES_AND_ANKLES[:2])
    hide_in_frame(tmp_path / "ref.sequence.json", 2, KNEES_AND_ANKLES[2:])
    assert cli.main(assess_argv(tmp_path)) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {cand}: no common usable joint pairs")


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
    ("mistake_threshold", "-1"),
    ("occlusion_threshold", "1.5"),
], ids=["mistake-nan", "occlusion-nan", "mistake-negative", "occlusion-above-1"])
def test_threshold_must_be_finite_and_non_negative(tmp_path, capsys, where, value):
    write_inputs(tmp_path)
    path = tmp_path / "squat.config.json"
    doc = json.loads(path.read_text())
    doc[where] = float(value)
    path.write_text(json.dumps(doc))
    assert cli.main(assess_argv(tmp_path)) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert f"{where} must be finite and non-negative" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("joints", [[], ["left_knee"], ["left_knee", "LEFT_KNEE"]],
                         ids=["empty", "one", "one-twice"])
def test_fewer_than_two_targeted_joints_exit_2_naming_the_key(tmp_path, capsys, joints):
    """Fewer than two distinct targeted joints are refused, as when one
    joint is given twice under two spellings."""
    write_inputs(tmp_path)
    path = tmp_path / "squat.config.json"
    doc = json.loads(path.read_text())
    doc["targeted_joints"] = joints
    path.write_text(json.dumps(doc))
    assert cli.main(assess_argv(tmp_path)) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(
        f"error: {path}: targeted_joints: need at least 2 distinct joints")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit", [lambda doc: doc.pop("targeted_joints"),
                                  lambda doc: doc.update(targeted_joints=None)],
                         ids=["missing", "null"])
def test_config_without_targeted_joints_exits_2(tmp_path, capsys, edit):
    """A config must name its targeted joints; it fails at load, before any
    sequence is read."""
    write_inputs(tmp_path)
    path = tmp_path / "squat.config.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    assert cli.main(assess_argv(tmp_path)) == cli.EXIT_VALIDATION
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}: ") and "targeted_joints" in line
    assert not (tmp_path / "out").exists()


def test_reference_of_another_exercise_exits_2(tmp_path, capsys):
    """A reference whose exercise_id is not the config's fails the call
    before any candidate runs."""
    write_inputs(tmp_path)
    path = tmp_path / "ref.sequence.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "exercise_id": "press"}))
    assert cli.main(assess_argv(tmp_path)) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == (f"error: reference {path}: exercise_id 'press' differs "
                            "from the config's 'squat'\n")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_candidate_of_another_exercise_fails_alone(tmp_path, capsys):
    """A candidate whose exercise_id is not the config's fails, naming it;
    the next candidate's outputs are still written."""
    write_inputs(tmp_path)
    cand = tmp_path / "cand.sequence.json"
    press = tmp_path / "press.sequence.json"
    press.write_text(json.dumps({**json.loads(cand.read_text()), "exercise_id": "press"}))
    argv = assess_argv(tmp_path)
    argv[2:3] = [str(press), str(cand)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == (f"error: {press}: exercise_id 'press' differs from the "
                            "config's 'squat'\n")
    assert len(captured.out.splitlines()) == 1
    out = tmp_path / "out"
    assert json.loads((out / "cand_report.json").read_text())["name"] == "squat(W)"
    assert not (out / "press_report.json").exists()


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
    ({"n_frame": 12}, "unknown motion spec key 'n_frame'"),
    ({"n_frames": 1e308}, "n_frames must be at most 100000, got 1e+308"),
    ({"injected_errors": [{"type": "speed_factor", "magnitude": 1e-320}]},
     "frame times that overflow"),
    ({"amplitude_deg": {"left_knee": math.inf}},
     "amplitude_deg.left_knee: must be a finite number, got inf"),
], ids=["magnitude-text", "frames-text", "frames-fraction", "error-not-object",
        "errors-not-list", "amplitude-null", "amplitudes-not-object", "noise-nan",
        "template-list", "misspelt-key", "huge-frames", "tiny-speed-factor",
        "infinite-amplitude"])
def test_bad_motion_spec_exits_2(tmp_path, capsys, spec, expected):
    path = tmp_path / "spec.json"
    doc = {"template": "squat", "n_frames": 12, **spec}
    path.write_text(json.dumps(doc).replace('"NaN"', "NaN"))
    out = tmp_path / "out"
    assert cli.main(["synth", "--spec", str(path), "--out", str(out)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: invalid motion spec") and expected in err
    assert not out.exists()


def test_negative_seed_exits_2_before_writing(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"template": "squat", "n_frames": 12}))
    out = tmp_path / "out"
    argv = ["synth", "--spec", str(path), "--out", str(out), "--seed", "-1"]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == "error: synth: --seed must be finite and non-negative, got -1\n"
    assert captured.out == ""
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


# NumPy's warnings bypass capsys, so they are made to fail the test instead.
@pytest.mark.filterwarnings("error")
def test_diverging_training_exits_4_with_one_line(tmp_path, capsys):
    for seed, errors in ((1, ()), (2, ()), (3, (InjectedError(
            kind="angle_offset_deg", magnitude=25.0, joint=JointId.LEFT_ELBOW,
            phase="eccentric"),))):
        seq, ann = generate(MotionSpec(template="press", n_frames=20,
                                       injected_errors=errors), seed=seed)
        save_sequence(seq, tmp_path / f"press{seed}.sequence.json")
        save_annotation(ann, tmp_path / f"press{seed}.annotation.json")
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"d_model": 8, "n_heads": 2, "spatial_layers": 1,
                                  "temporal_layers": 1, "seq_len": 8, "lr": 1e6}))
    ckpt = tmp_path / "model.json"
    assert cli.main(["train", "--dataset", str(tmp_path), "--config", str(config),
                     "--checkpoint-out", str(ckpt)]) == cli.EXIT_DIVERGED
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: loss is")
    assert not ckpt.exists()
    assert not (tmp_path / "model.json.loss.csv").exists()


NOT_JSON = '{"exercise_id": "squat", "fra'
NESTED_TOO_DEEP = "[" * 5000
# A checkpoint whose JSON header is nested too deep.
NESTED_TOO_DEEP_HEADER = (5000).to_bytes(8, "little") + b"[" * 5000


def inverted_knee_range(doc):
    """A fault that ``ExerciseConfig.__post_init__`` raises, not the reader."""
    doc["reference_angles"] = {"left_knee": [170.0, 60.0]}


def degenerate_frame(doc):
    collapse_torso(doc["frames"][2]["keypoints"])


def nan_fps(doc):
    doc["fps"] = float("nan")


DIRECTORY = "a directory in place of the file"


def command_inputs(tmp_path, command):
    """Valid inputs of ``command``, with every optional input file given;
    the argv of a call on them. No command reads a report, so ``"report"``
    writes one and returns None: ``assessment.load_report`` reads it."""
    if command == "synth":
        (tmp_path / "spec.json").write_text('{"template": "squat", "n_frames": 12}')
        return ["synth", "--spec", str(tmp_path / "spec.json"),
                "--out", str(tmp_path / "out")]
    if command == "train":
        return write_train_inputs(tmp_path)
    if command == "report":
        assessment.save_report(assessment.AssessmentReport(
            name="cand", body_class="Lower", joint_score=50.0, pace_score=50.0,
            range_score=None), tmp_path / "report.json")
        return None
    write_inputs(tmp_path)
    ckpt = tmp_path / "model.json"
    sttf.save_checkpoint(sttf.STTFModel(SMALL), ckpt)
    if command == "assess":
        return assess_argv(tmp_path, "--aux-model", str(ckpt))
    return ["score-model", "--checkpoint", str(ckpt), "--sequence",
            str(tmp_path / "cand.sequence.json")]


@pytest.mark.parametrize("command, file, fault, code", [
    ("assess", "squat.config.json", inverted_knee_range, cli.EXIT_VALIDATION),
    ("assess", "squat.config.json", NOT_JSON, cli.EXIT_VALIDATION),
    ("assess", "model.json", NOT_JSON, cli.EXIT_VALIDATION),
    ("assess", "ref.sequence.json", "[]", cli.EXIT_VALIDATION),
    ("assess", "ref.sequence.json", degenerate_frame, cli.EXIT_DEGENERATE),
    ("assess", "cand.sequence.json", "[]", cli.EXIT_VALIDATION),
    ("assess", "cand.sequence.json", NOT_JSON, cli.EXIT_VALIDATION),
    ("assess", "cand.sequence.json", NESTED_TOO_DEEP, cli.EXIT_VALIDATION),
    ("assess", "cand.sequence.json", None, cli.EXIT_VALIDATION),
    ("synth", "spec.json", NOT_JSON, cli.EXIT_VALIDATION),
    ("train", "train.json", "[]", cli.EXIT_VALIDATION),
    ("train", "squat.annotation.json", NOT_JSON, cli.EXIT_VALIDATION),
    ("train", "squat.sequence.json", nan_fps, cli.EXIT_VALIDATION),
    ("train", "squat.sequence.json", degenerate_frame, cli.EXIT_DEGENERATE),
    ("score-model", "model.json", '{"format": "other"}', cli.EXIT_VALIDATION),
    ("score-model", "model.json", DIRECTORY, cli.EXIT_VALIDATION),
    ("score-model", "model.json", NESTED_TOO_DEEP_HEADER, cli.EXIT_VALIDATION),
    ("score-model", "cand.sequence.json", degenerate_frame, cli.EXIT_DEGENERATE),
], ids=["config-post-init", "config-not-json", "aux-model", "reference",
        "reference-degenerate", "candidate", "candidate-not-json",
        "candidate-nested-too-deep", "candidate-missing", "motion-spec",
        "training-config", "annotation", "training-sequence",
        "training-sequence-degenerate", "checkpoint", "checkpoint-directory",
        "checkpoint-nested-too-deep", "score-model-sequence"])
def test_each_failing_input_is_named_once(tmp_path, capsys, command, file, fault,
                                          code):
    """One error line names the failing input exactly once. ``fault`` is the
    file's new text or bytes, an edit of its JSON document, None to delete
    it, or DIRECTORY to put an empty directory in its place."""
    argv = command_inputs(tmp_path, command)
    path = tmp_path / file
    if fault is None:
        path.unlink()
    elif fault is DIRECTORY:
        path.unlink()
        path.mkdir()
    elif callable(fault):
        doc = json.loads(path.read_text())
        fault(doc)
        path.write_text(json.dumps(doc))
    elif isinstance(fault, bytes):
        path.write_bytes(fault)
    else:
        path.write_text(fault)
    assert cli.main(argv) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0].count(str(path)) == 1


def edited_report(tmp_path, edit):
    """The path of a written report, with corrections, frame detail and a
    float range score, after ``edit`` of its JSON document."""
    rc, out = run_assess(tmp_path)
    assert rc == cli.EXIT_OK
    path = out / "cand_report.json"
    doc = json.loads(path.read_text())
    assert doc["corrections"] and doc["frame_detail"]["frame_ids"]
    assert isinstance(doc["range"], float)
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("edit, key", [
    (lambda doc: doc.update(joint="abc"), "joint: 'abc' is not a number"),
    (lambda doc: doc["corrections"][0].pop("text"), "corrections[0]"),
    (lambda doc: doc["frame_detail"]["deviations"][0].pop(),
     "frame_detail.deviations"),
    (lambda doc: doc["frame_detail"]["transforms"][0].extend([0.0, 0.0]),
     "frame_detail.transforms"),
    (lambda doc: doc.pop("version"),
     "report version 1 is not supported; `formcoach assess`"),
    (lambda doc: doc.update(name=7), "name must be a string"),
    (lambda doc: doc.update({"class": "Sideways"}), "class must be one of"),
    (lambda doc: doc.update(aux_scores="oops"), "aux_scores"),
    (lambda doc: doc.update(aux_scores={"joint": 1.0, "pace": "x", "range": 1.0}),
     "aux_scores.pace"),
    (lambda doc: doc.update(aux_scores={"joint": 1.0, "pace": 1.0,
                                        "range": float("nan")}), "aux_scores.range"),
    (lambda doc: doc["corrections"][0]["frames"].__setitem__(0, 7),
     "corrections[0].frames[0]: must be a string, got 7"),
    (lambda doc: doc["frame_detail"]["frame_ids"].__setitem__(0, float("nan")),
     "frame_detail.frame_ids[0]: must be a string, got nan"),
    (lambda doc: doc["frame_detail"]["deviations"].__setitem__(0, 5.0),
     "frame_detail.deviations[0]: must be a list, got 5.0"),
    (lambda doc: doc["frame_detail"]["transforms"].__setitem__(0, "1234"),
     "frame_detail.transforms[0]: must be a list, got '1234'"),
    (lambda doc: doc["corrections"][0].update(frame=["f0000"]),
     "corrections[0]: unknown correction key 'frame'"),
], ids=["score-text", "correction-text", "detail-short-deviations-row",
        "detail-transforms-row-of-6", "version-1", "name-number", "class-unknown",
        "aux-not-object", "aux-text", "aux-nan", "correction-frame-number",
        "detail-frame-id-nan", "detail-deviations-row-number",
        "detail-transforms-row-text", "correction-misspelt-key"])
def test_malformed_report_exits_2_naming_file_and_key(tmp_path, edit, key):
    """``load_report`` refuses each edit of a written report, naming its key.
    A report without ``"version"`` is a version-1 report, and the message
    says which command writes a current one."""
    path = edited_report(tmp_path, edit)
    with pytest.raises(ValidationError) as refused:
        assessment.load_report(path)
    assert str(refused.value).startswith(key)


def add_rule(doc, joint):
    doc["rules"] = [{"joint": joint, "message": "m"}]


def add_correction(doc, joint):
    doc["corrections"] = [{"text": "t", "joint": joint, "frames": ["f0000"]}]


def add_keypoint(doc, joint):
    """Frame 5's keypoints as a mapping with ``joint`` added to the 17."""
    frame = doc["frames"][5]
    frame["keypoints"] = {**dict(zip(JOINT_NAMES, frame["keypoints"])),
                          joint: frame["keypoints"][0]}


@pytest.mark.parametrize("command, file, edit, key", [
    ("assess", "cand.sequence.json", add_keypoint, "frame 5"),
    ("report", "report.json", add_correction, "corrections[0].joint"),
    ("report", "report.json",
     lambda doc, j: doc["frame_detail"].update(joints=["left_knee", j]),
     "frame_detail.joints[1]"),
    ("assess", "squat.config.json", lambda doc, j: doc.update(targeted_joints=[j]),
     "targeted_joints[0]"),
    ("assess", "squat.config.json", add_rule, "rules[0].joint"),
    ("assess", "squat.config.json", lambda doc, j: doc["phase"].update(primary_joint=j),
     "phase.primary_joint"),
    ("assess", "squat.config.json",
     lambda doc, j: doc.update(reference_angles={j: [60.0, 170.0]}), "reference_angles"),
    ("train", "squat.annotation.json",
     lambda doc, j: doc.update(targeted_joints=["left_knee", j]), "targeted_joints[1]"),
    ("train", "squat.annotation.json",
     lambda doc, j: doc.update(per_frame_mistakes=[{"frame_id": "f0000", "joint": j}]),
     "per_frame_mistakes[0].joint"),
    ("synth", "spec.json", lambda doc, j: doc.update(injected_errors=[
        {"type": "angle_offset_deg", "magnitude": 30.0, "joint": j}]),
     "injected_errors[0].joint"),
    ("synth", "spec.json", lambda doc, j: doc.update(amplitude_deg={j: 80.0}),
     "amplitude_deg"),
], ids=["keypoint-file", "report-correction", "report-detail", "config-targeted",
        "config-rule", "config-phase", "config-angles", "annotation-targeted",
        "annotation-mistake", "spec-error", "spec-amplitude"])
def test_unknown_joint_name_exits_2_naming_its_key(tmp_path, capsys, command, file,
                                                   edit, key):
    argv = command_inputs(tmp_path, command)
    path = tmp_path / file
    doc = json.loads(path.read_text())
    edit(doc, "elbowz")
    path.write_text(json.dumps(doc))
    if argv is None:
        with pytest.raises(ValidationError) as refused:
            assessment.load_report(path)
        assert str(refused.value) == f"{key}: unknown joint name 'elbowz'"
        return
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0].endswith(f"{key}: unknown joint name 'elbowz'")


@pytest.mark.parametrize("edit, key", [
    (lambda doc: doc.update(joint=str(doc["joint"])), "joint"),
    (lambda doc: doc.update(pace=str(doc["pace"])), "pace"),
    (lambda doc: doc.update(range=str(doc["range"])), "range"),
    (lambda doc: doc.update(joint=True), "joint"),
    (lambda doc: doc.update(aux_scores={"joint": "0.5", "pace": 1.0, "range": 1.0}),
     "aux_scores.joint"),
    (lambda doc: doc["frame_detail"]["deviations"][0].__setitem__(0, "0.5"),
     "frame_detail.deviations[0][0]"),
    (lambda doc: doc["frame_detail"]["transforms"][2].__setitem__(1, "1.0"),
     "frame_detail.transforms[2][1]"),
], ids=["joint-text", "pace-text", "range-text", "joint-bool", "aux-text",
        "deviation-text", "transform-text"])
def test_report_numbers_must_be_json_numbers(tmp_path, edit, key):
    """``float`` takes ``"0.5"`` and ``true``; ``load_report`` refuses a
    report that holds either rather than read numbers in their place."""
    path = edited_report(tmp_path, edit)
    with pytest.raises(ValidationError) as refused:
        assessment.load_report(path)
    assert str(refused.value).startswith(f"{key}: ")
    assert str(refused.value).endswith("is not a number")


def test_dataset_without_pairs_exits_2_naming_it(tmp_path, capsys):
    argv = write_train_inputs(tmp_path)
    (tmp_path / "squat.annotation.json").unlink()
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {tmp_path}: empty training dataset\n"
    assert not (tmp_path / "model.json").exists()


def rename_candidate_frames(tmp_path, frame_id):
    """Give frame ``i`` of the candidate file the id ``frame_id(i)``; returns
    the ids."""
    path = tmp_path / "cand.sequence.json"
    doc = json.loads(path.read_text())
    for i, frame in enumerate(doc["frames"]):
        frame["id"] = frame_id(i)
    path.write_text(json.dumps(doc))
    return [frame["id"] for frame in doc["frames"]]


@pytest.mark.parametrize("frame_id, escaped", [
    (lambda i: f"/../../outside_{i}", "cand_%2F..%2F..%2Foutside_"),
    (lambda i: f"f{i}\0", "%00_aid.svg"),
    (lambda i: f"{i}%2F", "%252F_aid.svg"),
], ids=["slash", "nul", "percent"])
def test_aid_file_names_stay_in_out(tmp_path, frame_id, escaped):
    """Frame ids are free strings: each aid is written into ``--out`` under
    a name of its own, and the index keeps the id as it was."""
    write_inputs(tmp_path)
    ids = rename_candidate_frames(tmp_path, frame_id)
    inputs = sorted(p.name for p in tmp_path.iterdir())
    assert cli.main(assess_argv(tmp_path)) == cli.EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs + ["out"])
    out = tmp_path / "out"
    index = json.loads((out / "cand_aids_index.json").read_text())
    assert index
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted([e["file"] for e in index]
                             + ["cand_aids_index.json", "cand_report.json"])
    for entry in index:
        assert entry["frame_id"] in ids and escaped in entry["file"]


def test_repeated_frame_id_exits_2_naming_it(tmp_path, capsys):
    write_inputs(tmp_path)
    rename_candidate_frames(tmp_path, lambda i: "dup")
    assert cli.main(assess_argv(tmp_path)) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (f"error: {tmp_path / 'cand.sequence.json'}: "
                                       "frame 'dup': repeated frame id\n")
    assert not (tmp_path / "out" / "cand_aids_index.json").exists()


def test_candidates_sharing_a_stem_keep_the_first_outputs(tmp_path, capsys):
    """A later candidate whose output names the call has already given out
    fails alone, naming the earlier file, and writes nothing."""
    write_inputs(tmp_path)
    first = tmp_path / "a" / "cand.sequence.json"
    second = tmp_path / "b" / "cand.sequence.json"
    doc = json.loads((tmp_path / "cand.sequence.json").read_text())
    for path, label in ((first, "correct"), (second, "groundtruth")):
        path.parent.mkdir()
        path.write_text(json.dumps({**doc, "class": label}))
    argv = assess_argv(tmp_path)
    argv[2:3] = [str(first), str(second)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == (f"error: {second}: output name 'cand' is already "
                            f"taken by {first}\n")
    assert len(captured.out.splitlines()) == 1
    out = tmp_path / "out"
    assert json.loads((out / "cand_report.json").read_text())["name"] == "squat(C)"
    index = json.loads((out / "cand_aids_index.json").read_text())
    assert index
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [e["file"] for e in index] + ["cand_aids_index.json", "cand_report.json"])


def test_too_long_aid_file_name_fails_only_its_candidate(tmp_path, capsys):
    """Frame ids of 300 characters make an aid file name longer than a file
    system allows. That candidate fails alone in one line, keeping the
    report it wrote first, and the next candidate still runs."""
    write_inputs(tmp_path)
    second = tmp_path / "second.sequence.json"
    shutil.copy(tmp_path / "cand.sequence.json", second)
    ids = rename_candidate_frames(tmp_path, lambda i: f"{i:04d}".ljust(300, "x"))
    first = tmp_path / "cand.sequence.json"
    argv = assess_argv(tmp_path)
    argv[2:3] = [str(first), str(second)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    prefix = f"error: {first}: output file name too long: "
    assert line.startswith(prefix)
    assert line[len(prefix):] in {repr(f"cand_{fid}_aid.svg") for fid in ids}
    [summary] = captured.out.splitlines()
    assert summary.startswith("squat(W)  Lower")
    out = tmp_path / "out"
    index = json.loads((out / "second_aids_index.json").read_text())
    assert index
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [e["file"] for e in index]
        + ["cand_report.json", "second_aids_index.json", "second_report.json"])


@pytest.fixture(scope="module")
def fuzzed_checkpoint(tmp_path_factory):
    """A SMALL checkpoint's bytes, its path and a score-model argv that reads it."""
    directory = tmp_path_factory.mktemp("fuzz")
    write_inputs(directory)
    ckpt = directory / "model.json"
    sttf.save_checkpoint(sttf.STTFModel(SMALL), ckpt)
    argv = ["score-model", "--checkpoint", str(ckpt),
            "--sequence", str(directory / "ref.sequence.json")]
    return ckpt.read_bytes(), ckpt, argv


def mutate(path, blob: bytes, kind: str, draw) -> None:
    """Write ``blob``, a checkpoint, to ``path`` with one ``kind`` of fault
    drawn by ``draw``."""
    n = int.from_bytes(blob[:8], "little")
    if kind == "truncate":
        blob = blob[:draw(st.integers(0, len(blob) - 1))]
    elif kind == "length":
        blob = draw(st.integers(0, 2 ** 64 - 1)).to_bytes(8, "little") + blob[8:]
    elif kind == "flip":
        at, bits = draw(st.integers(8, 8 + n - 1)), draw(st.integers(1, 255))
        blob = blob[:at] + bytes([blob[at] ^ bits]) + blob[at + 1:]
    path.write_bytes(blob)
    if kind in ("truncate", "length", "flip"):
        return
    header, buffer = read_checkpoint(path)
    name = draw(st.sampled_from(sorted(k for k in header if k != "__metadata__")))
    entry = header[name]
    ints = st.integers(-2, 2 ** 20) | st.sampled_from([2 ** 63, 2 ** 64])
    if kind == "shape":
        entry["shape"] = draw(st.lists(ints, max_size=3) | st.sampled_from(
            [None, 3, "3", [3.0], [True]]))
    elif kind == "dtype":
        entry["dtype"] = draw(st.sampled_from(["F32", "F16", "I64", "f64", "", None, 8]))
    elif kind == "offsets":
        begin, end = entry["data_offsets"]
        entry["data_offsets"] = draw(
            st.tuples(st.integers(-16, 16), st.integers(-16, 16)).map(
                lambda d: [begin + d[0], end + d[1]])
            | st.lists(ints, max_size=3) | st.sampled_from([None, [0.0, 8.0], "0"]))
    else:
        begin, end = entry["data_offsets"]
        at = begin + 8 * draw(st.integers(0, (end - begin) // 8 - 1))
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300]))
        buffer[at:at + 8] = np.array(value, "<f8").tobytes()
    write_checkpoint(path, header, buffer)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["truncate", "length", "flip", "shape", "dtype",
                             "offsets", "extreme"]), data=st.data())
def test_mutated_checkpoint_exits_0_or_2_naming_it(fuzzed_checkpoint, kind, data):
    """Whatever one fault does to a checkpoint, ``score-model`` scores the
    sequence or prints one error line naming the checkpoint; no exception
    escapes."""
    blob, ckpt, argv = fuzzed_checkpoint
    mutate(ckpt, blob, kind, data.draw)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION)
    if code == cli.EXIT_VALIDATION:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {ckpt}: ")
        assert lines[0].count(str(ckpt)) == 1 and out.getvalue() == ""
    else:
        scores = json.loads(out.getvalue())
        assert all(0.0 <= scores[k] <= 100.0 for k in ("joint", "pace", "range"))
