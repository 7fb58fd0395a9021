"""Exit codes of the CLI on bad input, and the errors it must not swallow.

Exit code 2 means the input failed validation. A bare ``ValueError`` from
inside the pipeline is a bug, not bad input, so it must escape instead of
being reported as exit 2.
"""

import json

import pytest

from formcoach import cli, sttf
from formcoach.alignment import AlignmentError
from formcoach.kinematics import DescriptorError
from formcoach.skeleton import save_annotation, save_sequence
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
    seq, ann = generate(MotionSpec(template="squat", n_frames=12), seed=0)
    save_sequence(seq, tmp_path / "squat.sequence.json")
    save_annotation(ann, tmp_path / "squat.annotation.json")
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"d_model": 8, "n_heads": 2, "seq_len": 8,
                                  "epochs": 1, key: value}))
    argv = ["train", "--dataset", str(tmp_path), "--config", str(config),
            "--checkpoint-out", str(tmp_path / "model.json")]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert match in capsys.readouterr().err


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
