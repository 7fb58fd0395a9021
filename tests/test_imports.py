"""What importing ``formcoach`` loads.

``import formcoach`` resolves its public names on first use, and ``cli``
imports ``sttf`` and ``synth`` only in the subcommands that use them, so a
process loads the modules its call needs. Each import set is checked in a
fresh interpreter, since this one has imported everything already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import formcoach
from formcoach import (alignment, assessment, config, correction, normalize, skeleton,
                       sttf, synth)

from test_cli import write_inputs
from test_sttf import SMALL

# The package's 52 public names, by the module that defines each.
PUBLIC = {
    skeleton: ["Annotation", "Frame", "JointId", "Sequence", "ValidationError",
               "load_annotation", "load_sequence", "save_annotation", "save_sequence"],
    normalize: ["DegenerateSkeletonError", "OccludedJointError", "normalize_sequence"],
    alignment: ["PaceProfile", "Phase", "WarpPath", "dtw_align", "pace_profile"],
    assessment: ["AssessmentReport", "AssessmentResult", "Correction", "MistakeFlag",
                 "Prepared", "assess_pair", "flag_mistakes", "load_report",
                 "pace_score", "prepare", "range_score", "save_report",
                 "textual_feedback"],
    config: ["CorrectionRule", "ExerciseConfig", "PhaseConfig", "load_exercise_config",
             "save_exercise_config"],
    correction: ["Arrow", "VisualAid", "build_aid", "local_root_for", "render_svg"],
    synth: ["InjectedError", "MotionSpec", "TEMPLATES", "exercise_config", "generate"],
    sttf: ["STTFConfig", "STTFModel", "TrainingDivergedError", "load_checkpoint",
           "save_checkpoint", "sequence_to_model_input", "train"],
}


def loaded_after(code: str, *args) -> set:
    """The ``formcoach`` modules, ``logging`` and ``numpy.random`` that a
    fresh interpreter holds after running ``code`` with ``args`` as
    ``sys.argv[1:]``."""
    env = dict(os.environ, PYTHONPATH=str(Path(formcoach.__file__).parents[1]))
    report = ("\nprint(json.dumps([m for m in sys.modules if m.split('.')[0] == "
              "'formcoach' or m in ('logging', 'numpy.random')]))")
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code + report,
                           *map(str, args)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    write_inputs(directory)
    sttf.save_checkpoint(sttf.STTFModel(SMALL), directory / "model.ckpt")
    return directory


def test_reading_inputs_loads_no_pipeline_module(inputs):
    """The loaders need ``skeleton``, ``config``, ``normalize`` and ``sttf``:
    not the pipeline, the synthesizer, ``logging`` or ``numpy.random``."""
    loaded = loaded_after(
        "import formcoach\n"
        "formcoach.load_exercise_config(sys.argv[1])\n"
        "formcoach.load_sequence(sys.argv[2])\n"
        "formcoach.load_checkpoint(sys.argv[3])",
        inputs / "squat.config.json", inputs / "cand.sequence.json",
        inputs / "model.ckpt")
    assert loaded == {"formcoach", "formcoach.config", "formcoach.normalize",
                      "formcoach.skeleton", "formcoach.sttf"}


def test_assess_without_aux_model_loads_no_model_or_synth(inputs, tmp_path):
    loaded = loaded_after(
        "import formcoach.cli\n"
        "assert formcoach.cli.main(['assess', '--candidate', sys.argv[1],\n"
        "    '--reference', sys.argv[2], '--config', sys.argv[3],\n"
        "    '--out', sys.argv[4]]) == 0",
        inputs / "cand.sequence.json", inputs / "ref.sequence.json",
        inputs / "squat.config.json", tmp_path)
    assert not {"formcoach.sttf", "formcoach.synth", "numpy.random"} & loaded
    assert (tmp_path / "cand_report.json").is_file()


def test_public_names_are_the_modules_own():
    names = [name for names in PUBLIC.values() for name in names]
    assert sorted(formcoach.__all__) == sorted(names) and len(names) == 52
    for module, names in PUBLIC.items():
        for name in names:
            assert getattr(formcoach, name) is getattr(module, name), name
    assert set(formcoach.__all__) <= set(dir(formcoach))
    with pytest.raises(AttributeError, match="no attribute 'load_sequences'"):
        formcoach.load_sequences


def test_public_names_are_not_cached(monkeypatch):
    """A patched and restored module attribute leaves no copy in the package."""
    original = skeleton.load_sequence
    with monkeypatch.context() as patch:
        patch.setattr(skeleton, "load_sequence", len)
        assert formcoach.load_sequence is len
    assert formcoach.load_sequence is original
    assert "load_sequence" not in vars(formcoach)
