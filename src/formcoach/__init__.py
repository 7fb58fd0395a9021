"""formcoach: assess and correct exercise performances from 2D keypoints.

Public names resolve on first use (PEP 562): ``import formcoach`` imports no
submodule. A name is looked up in its module at each access, never cached
here, so a module attribute patched and then restored (by a test's
monkeypatch or the benchmark's tracer) leaves no stale copy behind.
"""

from importlib import import_module

_EXPORTS = {
    "skeleton": ("Annotation", "Frame", "JointId", "Sequence", "ValidationError",
                 "load_annotation", "load_sequence", "save_annotation", "save_sequence"),
    "normalize": ("DegenerateSkeletonError", "normalize_sequence"),
    "alignment": ("PaceProfile", "Phase", "WarpPath", "dtw_align", "pace_profile"),
    "assessment": ("AssessmentReport", "AssessmentResult", "Correction", "MistakeFlag",
                   "Prepared", "assess_pair", "flag_mistakes", "load_report", "pace_score",
                   "prepare", "range_score", "save_report", "textual_feedback"),
    "config": ("CorrectionRule", "ExerciseConfig", "PhaseConfig",
               "load_exercise_config", "save_exercise_config"),
    "correction": ("Arrow", "VisualAid", "build_aid", "local_root_for", "render_svg"),
    "synth": ("InjectedError", "MotionSpec", "TEMPLATES", "exercise_config", "generate"),
    "sttf": ("STTFConfig", "STTFModel", "TrainingDivergedError", "load_checkpoint",
             "save_checkpoint", "sequence_to_model_input", "train"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
