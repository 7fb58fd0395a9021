"""End-to-end test of ``formcoach assess`` on a small synthetic squat pair.

The candidate carries a 45 degree left-knee offset and one frame with an
occluded left ankle. The written report, the aids index and every SVG must
match, byte for byte, the golden files in ``tests/data``, so any change to
scores, deviations, flags, corrections or correction arrows on this input
shows here.

The golden report holds full-precision floats. The pair kernel's products
are plain ``x*x' + y*y'``, but other steps still use routines whose last bits
may depend on the NumPy/BLAS build and the CPU: the BLAS dot behind the
descriptor and interior-angle norms, the matrix products of normalization,
and NumPy's vectorized cos, sin and arctan2. The file was written with NumPy
2.4.6 and OpenBLAS 0.3.31 on an x86-64 CPU with AVX-512. On another build or
CPU, a byte mismatch in the last digits is not by itself a regression:
compare the warp path, flags and corrections first.
"""

import json
import logging
from dataclasses import replace
from pathlib import Path

from formcoach import cli, correction
from formcoach.assessment import load_report, report_to_dict
from formcoach.config import save_exercise_config
from formcoach.skeleton import JointId, Sequence, save_sequence
from formcoach.synth import InjectedError, MotionSpec, exercise_config, generate

GOLDEN_REPORT = Path(__file__).parent / "data" / "assess_squat_report.json"
GOLDEN_AIDS = Path(__file__).parent / "data" / "assess_squat_aids"
OCCLUDED_FRAME = 9


def write_inputs(directory: Path):
    spec = MotionSpec(template="squat", n_frames=24, noise_std=0.5,
                      injected_errors=(InjectedError(
                          kind="angle_offset_deg", magnitude=45.0,
                          joint=JointId.LEFT_KNEE),))
    cand, _ = generate(spec, seed=3)
    ref, ann = generate(MotionSpec(template="squat", n_frames=24), seed=3)
    frames = list(cand.frames)
    conf = frames[OCCLUDED_FRAME].confidence.copy()
    conf[JointId.LEFT_ANKLE] = 0.0
    frames[OCCLUDED_FRAME] = replace(frames[OCCLUDED_FRAME], confidence=conf)
    cand = Sequence(exercise_id=cand.exercise_id, class_label=cand.class_label,
                    frames=frames, fps_hint=cand.fps_hint)
    save_sequence(cand, directory / "cand.sequence.json")
    save_sequence(ref, directory / "ref.sequence.json")
    save_exercise_config(exercise_config("squat", ann),
                         directory / "squat.config.json")


def run_assess(tmp_path: Path) -> tuple:
    write_inputs(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["assess",
                   "--candidate", str(tmp_path / "cand.sequence.json"),
                   "--reference", str(tmp_path / "ref.sequence.json"),
                   "--config", str(tmp_path / "squat.config.json"),
                   "--out", str(out)])
    return rc, out


def test_assess_writes_golden_report_and_aids(tmp_path):
    rc, out = run_assess(tmp_path)
    assert rc == cli.EXIT_OK

    report_path = out / "cand_report.json"
    doc = json.loads(report_path.read_text())
    assert report_to_dict(load_report(report_path)) == doc

    index = json.loads((out / "cand_aids_index.json").read_text())
    assert index, "the knee offset should raise at least one visual aid"
    for entry in index:
        assert (out / entry["file"]).is_file()

    assert report_path.read_bytes() == GOLDEN_REPORT.read_bytes()
    written = sorted(p.name for p in out.iterdir() if p.name != report_path.name)
    assert written == sorted(p.name for p in GOLDEN_AIDS.iterdir())
    for name in written:
        assert (out / name).read_bytes() == (GOLDEN_AIDS / name).read_bytes(), name


def test_svgs_use_config_occlusion_threshold(tmp_path):
    """A joint below the config's occlusion threshold, but above the default
    one, is left out of the SVGs as it is left out of the assessment."""
    write_inputs(tmp_path)
    config_path = tmp_path / "squat.config.json"
    config = json.loads(config_path.read_text())
    config["occlusion_threshold"] = 0.5
    config_path.write_text(json.dumps(config))
    cand_path = tmp_path / "cand.sequence.json"
    cand = json.loads(cand_path.read_text())
    for frame in cand["frames"]:
        frame["keypoints"][JointId.NOSE][2] = 0.3
    cand_path.write_text(json.dumps(cand))

    out = tmp_path / "out"
    rc = cli.main(["assess", "--candidate", str(cand_path),
                   "--reference", str(tmp_path / "ref.sequence.json"),
                   "--config", str(config_path), "--out", str(out)])
    assert rc == cli.EXIT_OK
    index = json.loads((out / "cand_aids_index.json").read_text())
    assert index
    for entry in index:
        assert (out / entry["file"]).read_text().count("<circle") == 16


def test_warnings_name_their_file(tmp_path, caplog):
    """The candidate's occluded ankle and one hidden in the reference are
    reported under their own files; a warning logged outside a file's step
    is left as it is."""
    write_inputs(tmp_path)
    ref_path = tmp_path / "ref.sequence.json"
    ref = json.loads(ref_path.read_text())
    ref["frames"][5]["keypoints"][JointId.LEFT_ANKLE][2] = 0.0
    ref_path.write_text(json.dumps(ref))
    with caplog.at_level(logging.WARNING, logger="formcoach"):
        rc = cli.main(["assess",
                       "--candidate", str(tmp_path / "cand.sequence.json"),
                       "--reference", str(ref_path),
                       "--config", str(tmp_path / "squat.config.json"),
                       "--out", str(tmp_path / "out")])
        cli._guarded("other.json", lambda: correction.logger.warning(
            "skipping arrows for occluded flagged joints: %s", "left_knee in frames f1"))
        correction.logger.warning("outside")
    assert rc == cli.EXIT_OK
    assert [r.getMessage() for r in caplog.records] == [
        f"reference {ref_path}: dropping occluded targeted joints: "
        "left_ankle in frames f0005",
        f"{tmp_path / 'cand.sequence.json'}: dropping occluded targeted joints: "
        f"left_ankle in frames f{OCCLUDED_FRAME:04d}",
        "other.json: skipping arrows for occluded flagged joints: "
        "left_knee in frames f1",
        "outside"]
