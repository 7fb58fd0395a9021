"""Mutation fuzzing of the JSON inputs through ``cli.main``.

Random edits of valid input find faults that hand-picked bad input misses
(Miller, Fredriksen and So, "An empirical study of the reliability of UNIX
utilities", CACM 1990). Each example starts from one valid file of one kind
(exercise config, annotation, motion spec, training config, or the candidate
keypoint file of ``assess --aux-model``), makes one structural edit of its
JSON and runs the subcommand that reads the file.
Whatever the edit:

* ``cli.main`` returns 0, 2, 3 or 4;
* no exception escapes, not even under the warning filters of
  ``pyproject.toml``;
* a failing call prints one ``error:`` line. At exit 2 or 3 it names the
  input, or the sequence the input made unusable: a config whose joints or
  thresholds leave the reference or the candidate nothing to assess names
  that sequence, and an annotation whose mistake cites a frame its sequence
  lacks names that sequence. Divergence (exit 4) is a property of the
  training run, and its line names no file.

No subcommand reads a report, so a report's edits go to
``assessment.load_report`` alone, which returns the report or raises
``ValidationError``. The checkpoint has its own fuzz test in
``test_cli_errors.py``.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from formcoach import cli, sttf
from formcoach.assessment import load_report
from formcoach.skeleton import (Annotation, JointId, ValidationError, load_annotation,
                                save_annotation, save_sequence)
from formcoach.synth import MotionSpec, generate

from test_cli import write_inputs
from test_cli_errors import assess_argv
from test_sttf import SMALL

OTHER_TYPES = [None, True, 0.5, "x", [], {}]
EXTREME_NUMBERS = [0, -1, 2 ** 63, 10 ** 400, 1e308, -1e308, 1e-320, 5e-324]
NON_FINITE = [math.nan, math.inf, -math.inf]
EDITS = ("type", "extreme", "non-finite", "drop", "duplicate", "add-key")

SPEC = {"template": "squat", "n_frames": 12, "fps": 30.0,
        "amplitude_deg": {"left_knee": 80.0}, "noise_std": 0.5,
        "injected_errors": [
            {"type": "angle_offset_deg", "magnitude": 30.0, "joint": "left_knee",
             "phase": "eccentric"},
            {"type": "speed_factor", "magnitude": 2.0, "phase": "concentric"}],
        "class_label": "wrong"}
TRAIN_CONFIG = {"d_model": 8, "n_heads": 2, "spatial_layers": 1, "temporal_layers": 1,
                "seq_len": 8, "n_joints": 17, "n_scores": 3, "mlp_ratio": 2, "seed": 0,
                "epochs": 1, "lr": 0.01}


def run(argv):
    """``cli.main(argv)``: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """``{kind: (path, valid document, argv, other paths an error may name)}``."""
    directory = tmp_path_factory.mktemp("fuzz-inputs")
    write_inputs(directory)
    config = directory / "squat.config.json"
    doc = json.loads(config.read_text())
    doc["rules"] = [
        {"joint": "left_knee", "message": "sit back", "angle_below": 100.0,
         "deviation_above": 0.1, "phase": "eccentric"},
        {"joint": "left_knee", "message": "stand tall", "angle_above": 150.0}]
    config.write_text(json.dumps(doc))

    ckpt = directory / "model.ckpt"
    sttf.save_checkpoint(sttf.STTFModel(SMALL), ckpt)

    train = directory / "train"
    seq, ann = generate(MotionSpec(template="squat", n_frames=12), seed=0)
    save_sequence(seq, train / "squat.sequence.json")
    annotation = train / "squat.annotation.json"
    save_annotation(Annotation(
        exercise_id=ann.exercise_id, targeted_joints=ann.targeted_joints,
        reference_angles=ann.reference_angles,
        per_frame_mistakes=(("f0003", JointId.LEFT_KNEE, "knee in"),),
        scores=(60.0, 70.0, 80.0)), annotation)
    assert load_annotation(annotation).per_frame_mistakes
    train_config = directory / "train.json"
    train_config.write_text(json.dumps(TRAIN_CONFIG))
    train_argv = ["train", "--dataset", str(train), "--config", str(train_config),
                  "--checkpoint-out", str(directory / "trained.ckpt")]

    spec = directory / "spec.json"
    spec.write_text(json.dumps(SPEC))
    calls = {
        "keypoints": (directory / "cand.sequence.json",
                      assess_argv(directory, "--aux-model", str(ckpt)), ()),
        "config": (config, assess_argv(directory),
                   (directory / "ref.sequence.json", directory / "cand.sequence.json")),
        "annotation": (annotation, train_argv, (train / "squat.sequence.json",)),
        "spec": (spec, ["synth", "--spec", str(spec), "--out",
                        str(directory / "synth")], ()),
        "training-config": (train_config, train_argv, ()),
    }
    return {kind: (path, json.loads(path.read_text()), argv, named)
            for kind, (path, argv, named) in calls.items()}


def test_the_valid_inputs_run(inputs):
    """Each valid file of the fuzz test is read and used without a fault."""
    for path, doc, argv, _ in inputs.values():
        path.write_text(json.dumps(doc))
        assert run(argv)[0] == cli.EXIT_OK, path


def paths(doc, path=()):
    """The path of every value in ``doc``, the document's own first."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from paths(value, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(doc, edit, draw):
    """``doc``, a JSON document, with one ``edit`` drawn by ``draw``."""
    doc = copy.deepcopy(doc)
    if edit in ("type", "extreme", "non-finite"):
        path = draw(st.sampled_from(list(paths(doc))))
        value = draw(st.sampled_from({"type": OTHER_TYPES, "extreme": EXTREME_NUMBERS,
                                     "non-finite": NON_FINITE}[edit]))
        if not path:
            return value
        at(doc, path[:-1])[path[-1]] = value
        return doc
    kinds = {"drop": (dict, list), "duplicate": list, "add-key": dict}[edit]
    containers = [p for p in paths(doc)
                  if isinstance(at(doc, p), kinds) and (edit == "add-key" or at(doc, p))]
    assume(containers)    # a training config holds no list to duplicate from
    path = draw(st.sampled_from(containers))
    container = at(doc, path)
    if edit == "add-key":
        container[draw(st.sampled_from(["extra", "Extra", ""]))] = 1
        return doc
    key = draw(st.sampled_from(list(container.keys() if isinstance(container, dict)
                                    else range(len(container)))))
    if edit == "drop":
        del container[key]
    else:
        container.insert(key, copy.deepcopy(container[key]))
    return doc


@pytest.mark.parametrize("kind", ["keypoints", "config", "annotation", "spec",
                                  "training-config"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(edit=st.sampled_from(EDITS), data=st.data())
def test_mutated_input_exits_0_to_4_naming_it(inputs, kind, edit, data):
    check_edit(inputs, kind, edit, data.draw)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """A report of ``assess --aux-model`` with corrections: its path and
    document."""
    directory = tmp_path_factory.mktemp("fuzz-report")
    write_inputs(directory)
    ckpt = directory / "model.ckpt"
    sttf.save_checkpoint(sttf.STTFModel(SMALL), ckpt)
    assert run(assess_argv(directory, "--aux-model", str(ckpt)))[0] == cli.EXIT_OK
    path = directory / "out" / "cand_report.json"
    doc = json.loads(path.read_text())
    assert doc["corrections"] and doc["aux_scores"]
    return path, doc


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(edit=st.sampled_from(EDITS), data=st.data())
def test_mutated_report_loads_or_is_refused(report, edit, data):
    path, valid = report
    path.write_text(json.dumps(mutate(valid, edit, data.draw)))
    try:
        load_report(path)
    except ValidationError:
        pass


def test_huge_coordinate_exits_0_to_4_naming_it(inputs):
    """A keypoint coordinate of 1e308, whose square overflows. The
    derandomized examples miss this edit, and an ``@example`` would be run
    for every kind of input, though the path exists only in keypoint files."""
    draws = iter([("frames", 1, "keypoints", JointId.LEFT_KNEE, 0), 1e308])
    check_edit(inputs, "keypoints", "extreme", lambda strategy: next(draws))


def check_edit(inputs, kind, edit, draw):
    """Make one ``edit``, drawn by ``draw``, of the ``kind`` of input, run
    the subcommand that reads it and check the properties above."""
    for other, doc, _, _ in inputs.values():    # undo the last example's edit
        other.write_text(json.dumps(doc))
    path, valid, argv, also_named = inputs[kind]
    path.write_text(json.dumps(mutate(valid, edit, draw)))
    code, _, err = run(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_DEGENERATE,
                    cli.EXIT_DIVERGED)
    if code == cli.EXIT_OK:
        return
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    if code == cli.EXIT_DIVERGED:
        assert line.startswith("error: loss is")
    else:
        assert any(str(p) in line for p in (path, *also_named)), line
