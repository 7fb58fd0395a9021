"""End-to-end test of ``formcoach assess`` on a small synthetic squat pair.

The candidate carries a 45 degree left-knee offset and one frame with an
occluded left ankle. The written report, the aids index and every SVG must
match, byte for byte, the golden files in ``tests/data``, so any change to
scores, deviations, flags, corrections or correction arrows on this input
shows here.

The golden report was re-pinned once when reports became version 2, with
the frame detail as arrays: every score, correction, deviation and transform
value stayed equal, and the aids index and SVGs were not re-pinned.

The golden report holds full-precision floats. Its 2-vector arithmetic is
plain ``+ - * / sqrt`` on NumPy arrays, which IEEE 754 rounds the same way
on every build, and its cos, sin, atan2 and acos are Python's ``math``
functions. So the bytes do not depend on the BLAS kernel or on the CPU's
SIMD features, which ``test_golden_assess_is_the_same_under_every_kernel``
checks; they may still depend on the platform's C math library. The report
was re-pinned once more when that arithmetic replaced BLAS products and
NumPy's vectorized trigonometry: 103 floats moved, by at most 1.1e-12, and
the aids index and SVGs stayed the same.
"""

import html
import json
import logging
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from formcoach import cli, correction
from formcoach.assessment import load_report, report_to_dict, save_report
from formcoach.config import CorrectionRule, load_exercise_config, save_exercise_config
from formcoach.skeleton import (JOINT_NAMES, JointId, Sequence, joint_from_name,
                                load_annotation, load_sequence, read_json,
                                save_annotation, save_sequence, write_json_atomic)
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
    doc = json.loads(report_path.read_text(), parse_constant=refuse_constant)
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


def kernel_settings() -> dict:
    """``{name: environment}`` of each NumPy and BLAS kernel setting this
    machine can run: the default, OpenBLAS's Nehalem kernels, its Haswell
    kernels given AVX2 and FMA3, and NumPy with its dispatched SIMD
    features switched off."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    settings = {"default": {}}
    if __cpu_features__.get("SSE42"):
        settings["nehalem"] = {"OPENBLAS_CORETYPE": "Nehalem"}
    if __cpu_features__.get("AVX2") and __cpu_features__.get("FMA3"):
        settings["haswell"] = {"OPENBLAS_CORETYPE": "Haswell"}
    dispatched = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    if dispatched:
        settings["baseline-simd"] = {"NPY_DISABLE_CPU_FEATURES": " ".join(dispatched)}
    return settings


def test_golden_assess_is_the_same_under_every_kernel(tmp_path):
    """The golden run, input synthesis included, writes the same bytes under
    every kernel setting: a report is a function of its input alone."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join((str(Path(cli.__file__).parents[1]),
                                         str(Path(__file__).parent)))
    code = ("import sys; from pathlib import Path; from test_cli import run_assess; "
            "sys.exit(run_assess(Path(sys.argv[1]))[0])")
    runs = {}
    for name, setting in kernel_settings().items():
        (tmp_path / name).mkdir()
        runs[name] = subprocess.Popen([sys.executable, "-c", code, str(tmp_path / name)],
                                      env=dict(env, **setting), stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE)
    outputs = {}
    for name, proc in runs.items():
        _, err = proc.communicate()
        assert proc.returncode == cli.EXIT_OK, (name, err.decode("utf-8", "replace"))
        outputs[name] = {p.name: p.read_bytes()
                         for p in (tmp_path / name / "out").iterdir()}
    default = outputs.pop("default")
    differ = {name: sorted(f for f in files.keys() | default.keys()
                           if files.get(f) != default.get(f))
              for name, files in outputs.items()}
    assert differ == {name: [] for name in outputs}


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


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    """A config stored as UTF-8 loads, and a non-ASCII caption is written
    as UTF-8, when the locale's encoding is ASCII."""
    write_inputs(tmp_path)
    config_path = tmp_path / "squat.config.json"
    config = json.loads(config_path.read_text())
    config["rules"] = [{"joint": "left_knee", "message": "Knie → außen"}]
    config_path.write_bytes(json.dumps(config, ensure_ascii=False).encode("utf-8"))
    env = dict(os.environ, PYTHONUTF8="0", LC_ALL="POSIX",
               PYTHONPATH=str(Path(cli.__file__).parents[1]),
               # The summary line on stdout is not a file this test covers.
               PYTHONIOENCODING="utf-8")
    locale = subprocess.run(
        [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    if locale != "ANSI_X3.4-1968":
        pytest.skip(f"the POSIX locale's encoding here is {locale}, not ASCII")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "formcoach", "assess",
         "--candidate", str(tmp_path / "cand.sequence.json"),
         "--reference", str(tmp_path / "ref.sequence.json"),
         "--config", str(config_path), "--out", str(out)],
        env=env, capture_output=True)
    assert proc.returncode == cli.EXIT_OK, proc.stderr.decode("utf-8")
    index = json.loads((out / "cand_aids_index.json").read_text(encoding="utf-8"))
    assert index
    for entry in index:
        assert "Knie → außen" in (out / entry["file"]).read_bytes().decode("utf-8")
    report = json.loads((out / "cand_report.json").read_bytes().decode("utf-8"))
    assert report["correction"] == "Knie → außen"


def test_summary_line_is_escaped_under_an_ascii_locale(tmp_path):
    """With stdout in the locale's ASCII encoding, the summary line prints
    what it cannot encode as backslash escapes, and ``assess`` exits 0."""
    write_inputs(tmp_path)
    config_path = tmp_path / "squat.config.json"
    config = json.loads(config_path.read_text())
    config["rules"] = [{"joint": "left_knee", "message": "Knie → außen"}]
    config_path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONUTF8="0", LC_ALL="POSIX",
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONIOENCODING", None)
    encoding = subprocess.run(
        [sys.executable, "-c",
         "import codecs, sys; print(codecs.lookup(sys.stdout.encoding).name)"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    if encoding != "ascii":
        pytest.skip(f"stdout's encoding under the POSIX locale here is {encoding}")
    proc = subprocess.run(
        [sys.executable, "-m", "formcoach", "assess",
         "--candidate", str(tmp_path / "cand.sequence.json"),
         "--reference", str(tmp_path / "ref.sequence.json"),
         "--config", str(config_path), "--out", str(tmp_path / "out")],
        env=env, capture_output=True)
    assert proc.returncode == cli.EXIT_OK, proc.stderr.decode("ascii", "replace")
    assert proc.stdout.endswith(b"  correction=Knie \\u2192 au\\xdfen\n")


def refuse_constant(name):
    """A ``parse_constant`` that fails on ``NaN`` and the infinities, which
    ``json.loads`` accepts but RFC 8259 does not."""
    raise AssertionError(f"{name} is not valid JSON")


def test_every_json_file_is_one_compact_line(tmp_path):
    """Reports, aids indexes, keypoint files, annotations and exercise
    configs share one format: compact JSON on one line, keys in the order
    they were given, non-ASCII text as ``\\uXXXX`` escapes. Each loader
    reads a file back to its value, and saving that value again gives the
    same text."""
    write_inputs(tmp_path)
    config_path = tmp_path / "squat.config.json"
    config = load_exercise_config(config_path)
    config.rules = (CorrectionRule(joint=JointId.LEFT_KNEE, message="Knie → außen"),)
    save_exercise_config(config, config_path)
    _, ann = generate(MotionSpec(template="squat", n_frames=24), seed=3)
    save_annotation(ann, tmp_path / "squat.annotation.json")
    out = tmp_path / "out"
    assert cli.main(["assess", "--candidate", str(tmp_path / "cand.sequence.json"),
                     "--reference", str(tmp_path / "ref.sequence.json"),
                     "--config", str(config_path), "--out", str(out)]) == cli.EXIT_OK

    files = {
        out / "cand_report.json": (load_report, save_report),
        out / "cand_aids_index.json": (read_json, lambda v, p: write_json_atomic(p, v)),
        tmp_path / "cand.sequence.json": (load_sequence, save_sequence),
        tmp_path / "ref.sequence.json": (load_sequence, save_sequence),
        tmp_path / "squat.annotation.json": (load_annotation, save_annotation),
        config_path: (load_exercise_config, save_exercise_config),
    }
    for path, (load, save) in files.items():
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text, parse_constant=refuse_constant),
                                  separators=(",", ":")) + "\n", path
        assert text.isascii(), path
        value = load(path)
        again = tmp_path / "again.json"
        save(value, again)
        assert load(again) == value, path
        assert again.read_text(encoding="utf-8") == text, path
    assert load_exercise_config(config_path) == config
    assert load_annotation(tmp_path / "squat.annotation.json") == ann
    escaped = '"Knie \\u2192 au\\u00dfen"'
    assert f'"correction":{escaped}' in (out / "cand_report.json").read_text()
    assert f'"message":{escaped}' in config_path.read_text()


@pytest.mark.parametrize("template, joint", [("squat", JointId.LEFT_KNEE),
                                             ("press", JointId.LEFT_ELBOW)])
def test_aid_captions_say_what_the_report_says(tmp_path, template, joint):
    """Each aid's caption joins the texts of the report's corrections that
    cite its frame for its arrows' joints, in root, then joint order. An
    eccentric-only rule on the offset joint gives that joint the rule's text
    in one frame and the generic text in another."""
    ref, ann = generate(MotionSpec(template=template, n_frames=150), seed=0)
    cand, _ = generate(MotionSpec(template=template, n_frames=150, noise_std=1.0,
                                  injected_errors=(InjectedError(
                                      kind="angle_offset_deg", magnitude=45.0,
                                      joint=joint),)), seed=3)
    save_sequence(cand, tmp_path / "cand.sequence.json")
    save_sequence(ref, tmp_path / "ref.sequence.json")
    config = exercise_config(template, ann, rules=(
        CorrectionRule(joint=joint, message="RULE-ECC", phase="eccentric"),))
    save_exercise_config(config, tmp_path / "config.json")
    out = tmp_path / "out"
    assert cli.main(["assess", "--candidate", str(tmp_path / "cand.sequence.json"),
                     "--reference", str(tmp_path / "ref.sequence.json"),
                     "--config", str(tmp_path / "config.json"),
                     "--out", str(out)]) == cli.EXIT_OK

    corrections = read_json(out / "cand_report.json")["corrections"]
    assert len({c["text"] for c in corrections if c["joint"] == JOINT_NAMES[joint]}) > 1
    for entry in read_json(out / "cand_aids_index.json"):
        joints = sorted(map(joint_from_name, entry["joints"]),
                        key=lambda j: (correction.local_root_for(j, config.body_class), j))
        expected = "; ".join(c["text"] for j in joints for c in corrections
                             if c["joint"] == JOINT_NAMES[j]
                             and entry["frame_id"] in c["frames"])
        caption = re.search(r"<text [^>]*>(.*)</text>|$", (out / entry["file"]).read_text())
        assert html.unescape(caption.group(1) or "") == expected, entry["frame_id"]
