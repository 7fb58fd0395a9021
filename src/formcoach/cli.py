"""Command-line interface.

Subcommands:

* ``assess``      — load candidate + reference keypoint files, run the full
                    pipeline and write a report plus SVG visual aids.
* ``synth``       — generate a synthetic sequence + annotation from a motion
                    spec file.
* ``train``       — train the transformer scorer on a directory of sequence /
                    annotation pairs, writing a checkpoint and loss CSV.
* ``score-model`` — score a sequence with a trained checkpoint and print
                    the scores.

Errors: every input fault is a ``ValidationError`` (exit 2, or exit 3 for its
subclass ``DegenerateSkeletonError``), and any other exception, a bare
``ValueError`` included, is a bug and escapes. A failing input prints one line,
``error: <input>: <fault>`` (exit 2) or ``error: degenerate data in <input>:
<fault>`` (exit 3), that names the input once, with its role where it has one
(``reference <path>``); a missing file prints Python's own message (exit 2). An
output that cannot be written prints ``error: <output>: <fault>`` (exit 2).
Only this module names inputs: the readers' messages do not; they name the key
path instead. Exercise configs, annotations, reports, motion specs and training
configs refuse a key their reader's table does not list (``rules[0]: unknown
correction rule key 'angle_abov'``); keypoint files ignore such keys. Training
divergence exits 4.

``assess`` prepares the reference once, before it loads any candidate. An
unusable reference fails the call; an unusable candidate fails only itself.
A sequence whose ``exercise_id`` is not the config's is unusable.
A candidate whose file stem or frame id makes an output file name too long
fails too (exit 2); the outputs it wrote before that stay. ``train`` stops
at the first unusable file. Warnings name their file too.

``sttf`` and ``synth`` are imported by the subcommands that use them
(``assess --aux-model``, ``train``, ``score-model`` and ``synth``), so a
plain ``assess`` loads neither them nor ``numpy.random``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import json
import logging
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence as Seq, Tuple

import numpy as np

from .assessment import AssessmentResult, Prepared, assess_pair, prepare, save_report
from .config import ExerciseConfig, load_exercise_config, require_threshold
from .correction import VisualAid, build_aid, render_svg
from .normalize import DegenerateSkeletonError
from .skeleton import (JOINT_NAMES, REQUIRED, SCORE_NAMES, Annotation, JointId,
                       ValidationError, _as_is, _as_str, _finite, _json_number,
                       _list_of, _number, _object_of, joint_from_name, load_annotation,
                       load_sequence, read_json, read_object, save_annotation,
                       save_sequence, write_json_atomic, write_text_atomic)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_DIVERGED = 4

# The most epochs a training config may ask for, checked before any input is
# read; sttf.STTFConfig bounds the model's fields. The default model takes
# about 0.4 s per epoch over 16 examples on a 2-vCPU Xeon, so 100000 epochs
# run for about half a day, where 1e308, an integer too, would run until
# killed.
_MAX_TRAIN_EPOCHS = 100_000

# Frame ids are free strings; with these escaped, each aid's file stays inside
# the output directory and gets a name that no other frame id maps to.
_FILE_NAME_ESCAPES = str.maketrans({"%": "%25", "/": "%2F", "\0": "%00"})


def build_frame_aids(result: AssessmentResult,
                     config: ExerciseConfig) -> Dict[int, VisualAid]:
    """One visual aid per flagged candidate frame, keyed by the frame's index;
    each flagged joint points at the first reference frame aligned to it.
    A flagged joint's caption joins the texts of the report's corrections
    that cite its frame for that joint."""
    cited: Dict[Tuple[str, JointId], List[str]] = {}
    for corr in result.report.corrections:
        for frame_id in dict.fromkeys(corr.frame_ids):
            cited.setdefault((frame_id, corr.joint), []).append(corr.text)
    captions = {key: "; ".join(texts) for key, texts in cited.items()}
    # The path's candidate indexes never decrease, so a flagged frame's first
    # pair is where a left search for its index lands.
    ci, ri = np.array(result.path.pairs).T
    first = ri[np.searchsorted(ci, [f.frame_index for f in result.flags])].tolist()
    flagged = [(f.frame_index, f.joint, k) for f, k in zip(result.flags, first)]
    return build_aid(result.cand.pose, result.ref.pose,
                     result.cand.desc.frame_ids, flagged,
                     config.body_class, captions)


def _aux_scores(model: "sttf.STTFModel", x) -> Dict[str, float]:
    scores, _logits = model.forward(x)
    return {name: float(score) * 100.0 for name, score in zip(SCORE_NAMES, scores)}


def _assess_one(cand_path: Path, stem: str, ref: Prepared, config: ExerciseConfig,
                out_dir: Path, aux_model) -> str:
    cand = load_sequence(cand_path)
    result = assess_pair(cand, ref, config)
    report = result.report
    if aux_model is not None:
        from . import sttf
        report.aux_scores = _aux_scores(aux_model, sttf.resample(
            result.cand.canonical, cand.timestamps, aux_model.config.seq_len))

    pose = result.cand.pose
    index = []
    out = out_dir / f"{stem}_report.json"    # the output being written
    try:
        save_report(report, out)
        for i, aid in build_frame_aids(result, config).items():
            name = f"{stem}_{aid.frame_id.translate(_FILE_NAME_ESCAPES)}_aid.svg"
            out = out_dir / name
            write_text_atomic(out, render_svg(aid, pose.points[i], pose.occluded[i]))
            index.append({
                "frame_id": aid.frame_id,
                "file": name,
                "joints": [JOINT_NAMES[a.joint] for a in aid.arrows],
            })
        out = out_dir / f"{stem}_aids_index.json"
        write_json_atomic(out, index)
    except OSError as e:
        # The names come from the candidate's file stem and frame ids.
        if e.errno == errno.ENAMETOOLONG:
            raise ValidationError(f"output file name too long: {out.name!r}") from None
        print(f"error: {out}: {e.strerror}", file=sys.stderr)
        raise _Failed(EXIT_VALIDATION) from None

    rng = "/" if report.range_score is None else f"{report.range_score:.1f}"
    corr = "; ".join(c.text for c in report.corrections)
    return (f"{report.name}  {report.body_class}  "
            f"joint={report.joint_score:.1f}  pace={report.pace_score:.1f}  "
            f"range={rng}  correction={corr or '-'}")


# The loggers whose warnings are about one input sequence.
_SEQUENCE_LOGGERS = (logging.getLogger("formcoach.kinematics"),
                     logging.getLogger("formcoach.correction"))


@contextlib.contextmanager
def _warnings_naming(path):
    """Prefix ``path`` to the sequence warnings logged inside the block."""
    def name(record: logging.LogRecord) -> bool:
        record.msg, record.args = f"{path}: {record.getMessage()}", ()
        return True

    for logger in _SEQUENCE_LOGGERS:
        logger.addFilter(name)
    try:
        yield
    finally:
        for logger in _SEQUENCE_LOGGERS:
            logger.removeFilter(name)


class _Failed(Exception):
    """A documented failure, already reported; ``args[0]`` is the exit code."""


def _guarded(name, step):
    """``step()``, run on the input or output ``name``. A documented failure
    of it is reported in one line that names ``name`` once and raises
    :class:`_Failed`. The warnings ``step`` logs name ``name`` too."""
    try:
        with _warnings_naming(name):
            return step()
    except FileNotFoundError as e:    # its message names the file
        code, line = EXIT_VALIDATION, f"error: {e}"
    except OSError as e:    # a write's: the readers raise ValidationError
        code, line = EXIT_VALIDATION, f"error: {name}: {e.strerror}"
    except DegenerateSkeletonError as e:
        code, line = EXIT_DEGENERATE, f"error: degenerate data in {name}: {e}"
    except ValidationError as e:
        code, line = EXIT_VALIDATION, f"error: {name}: {e}"
    print(line, file=sys.stderr)
    raise _Failed(code)


def cmd_assess(args) -> int:
    config = _guarded(args.config, lambda: load_exercise_config(args.config))
    aux_model = None
    if args.aux_model:
        from . import sttf
        aux_model = _guarded(args.aux_model, lambda: sttf.load_checkpoint(args.aux_model))
    ref = _guarded(f"reference {args.reference}",
                   lambda: prepare(load_sequence(args.reference), config))

    out_dir = Path(args.out)
    _guarded(out_dir, lambda: out_dir.mkdir(parents=True, exist_ok=True))
    code = EXIT_OK
    owners: Dict[str, Path] = {}    # output stem -> the candidate that has it
    for path in map(Path, args.candidate):
        stem = path.stem.removesuffix(".sequence").removesuffix(".keypoints")
        owner = owners.setdefault(stem, path)

        def run() -> str:
            if owner is not path:
                raise ValidationError(f"output name {stem!r} is already taken "
                                      f"by {owner}")
            return _assess_one(path, stem, ref, config, out_dir, aux_model)
        try:
            line = _guarded(path, run)
        except _Failed as e:
            code = max(code, e.args[0])
            continue
        # Report text comes from the inputs; what stdout cannot encode is
        # printed as backslash escapes.
        encoding = sys.stdout.encoding or "utf-8"
        print(line.encode(encoding, "backslashreplace").decode(encoding))
    return code


def _integer(value, where: str) -> int:
    number = _number(value, where)
    if not number.is_integer():
        raise ValidationError(f"{where} must be an integer, got {number:g}")
    return int(number)


def _amplitudes(value, where: str) -> dict:
    """A ``{joint_name: degrees}`` JSON object."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must map joint names to degrees")
    return {joint_from_name(name, where): _finite(degrees, f"{where}.{name}")
            for name, degrees in value.items()}


def _motion_spec_from_file(path: Path) -> "synth.MotionSpec":
    """The motion spec in ``path``; messages name the key, not the file."""
    from .synth import InjectedError, MotionSpec
    # The keys of a motion spec and of its injected errors; numbers may be
    # given as text, as float() reads them.
    injected_error = {
        "type": (_as_is, REQUIRED),
        "magnitude": (_number, REQUIRED),
        "joint": (joint_from_name, None),
        "phase": (_as_is, "all"),
    }
    keys = {
        "template": (_as_str, REQUIRED),
        "n_frames": (_integer, 48),
        "fps": (_number, 30.0),
        "amplitude_deg": (_amplitudes, None),
        "noise_std": (_number, 0.0),
        "injected_errors": (_list_of(_object_of(
            injected_error, "injected error",
            lambda **error: InjectedError(error.pop("type"), **error))), ()),
        "class_label": (_as_is, None),
    }
    return MotionSpec(**read_object(read_json(path), "", keys, "motion spec"))


def cmd_synth(args) -> int:
    from .synth import generate
    _guarded("synth", lambda: require_threshold(args.seed, "--seed"))
    name = f"invalid motion spec {args.spec}"
    spec = _guarded(name, lambda: _motion_spec_from_file(Path(args.spec)))
    seq, ann = _guarded(name, lambda: generate(spec, seed=args.seed))
    out_dir = Path(args.out)
    _guarded(out_dir, lambda: out_dir.mkdir(parents=True, exist_ok=True))
    stem = f"{spec.template}_{args.seed}"
    seq_path = out_dir / f"{stem}.sequence.json"
    _guarded(seq_path, lambda: save_sequence(seq, seq_path))
    ann_path = out_dir / f"{stem}.annotation.json"
    _guarded(ann_path, lambda: save_annotation(ann, ann_path))
    print(f"wrote {stem}.sequence.json and {stem}.annotation.json to {out_dir}")
    return EXIT_OK


def _load_train_config(path: Optional[str]) -> Tuple["sttf.STTFConfig", int, float]:
    """(model config, epochs, lr) from ``path`` or the defaults. Messages
    name the key, not the file."""
    from . import sttf
    # The keys of a training config: the model's, which config_from_fields
    # checks, and the two of training, which must be JSON numbers.
    keys = {
        **{f.name: (_as_is, f.default) for f in dataclasses.fields(sttf.STTFConfig)},
        **{key: (_as_is, count) for key, count in sttf.FIXED_COUNTS.items()},
        "epochs": (_json_number, 50.0),
        "lr": (_json_number, 1e-2),
    }
    fields = read_object(read_json(path) if path else {}, "", keys, "training config")
    epochs, lr = fields.pop("epochs"), fields.pop("lr")
    config = sttf.config_from_fields(fields)
    if not (epochs >= 1 and epochs.is_integer()):
        raise ValidationError(f"epochs must be a positive integer, got {epochs:g}")
    if epochs > _MAX_TRAIN_EPOCHS:
        raise ValidationError(f"epochs must be at most {_MAX_TRAIN_EPOCHS}, "
                              f"got {epochs:g}")
    if not (lr > 0 and math.isfinite(lr)):
        raise ValidationError(f"lr must be positive and finite, got {lr:g}")
    return config, int(epochs), lr


def _training_example(seq_path: Path, ann: Annotation, seq_len: int) -> tuple:
    """(model input, target scores, per-frame labels) of one dataset pair."""
    from . import sttf
    seq = load_sequence(seq_path)
    x = sttf.sequence_to_model_input(seq, seq_len)
    t_scores, labels = sttf.targets_from_annotation(seq, ann, seq_len)
    return x, t_scores, labels


def cmd_train(args) -> int:
    from . import sttf
    config, epochs, lr = _guarded(args.config, lambda: _load_train_config(args.config))
    dataset = []
    for sf in sorted(Path(args.dataset).glob("*.sequence.json")):
        af = sf.with_name(sf.name.replace(".sequence.json", ".annotation.json"))
        if not af.exists():
            continue
        ann = _guarded(af, lambda: load_annotation(af))
        dataset.append(_guarded(
            sf, lambda: _training_example(sf, ann, config.seq_len)))

    model = sttf.STTFModel(config)
    try:
        losses = _guarded(args.dataset, lambda: sttf.train(model, dataset,
                                                           epochs=epochs, lr=lr))
    except sttf.TrainingDivergedError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGED

    ckpt = Path(args.checkpoint_out)
    _guarded(ckpt, lambda: sttf.save_checkpoint(model, ckpt))
    csv_path = args.loss_csv or str(ckpt) + ".loss.csv"
    rows = "".join(f"{i},{v!r}\n" for i, v in enumerate(losses))
    _guarded(csv_path, lambda: write_text_atomic(csv_path, "epoch,loss\n" + rows))
    print(f"trained {len(dataset)} examples for {epochs} epochs; "
          f"final loss {losses[-1]:.6f}; checkpoint {ckpt}")
    return EXIT_OK


def cmd_score_model(args) -> int:
    from . import sttf
    model = _guarded(args.checkpoint, lambda: sttf.load_checkpoint(args.checkpoint))
    aux = _guarded(args.sequence, lambda: _aux_scores(
        model, sttf.sequence_to_model_input(load_sequence(args.sequence),
                                            model.config.seq_len)))
    print(json.dumps(aux, indent=2))
    return EXIT_OK


@functools.cache    # parse_args does not change the parser; build it once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formcoach",
        description="Assess and correct exercise performances from 2D "
                    "keypoint sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assess", help="score a candidate against a reference")
    p.add_argument("--candidate", required=True, nargs="+",
                   help="candidate keypoint file(s)")
    p.add_argument("--reference", required=True, help="reference keypoint file")
    p.add_argument("--config", required=True, help="exercise config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--aux-model", default=None,
                   help="transformer checkpoint for auxiliary scores")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("synth", help="generate a synthetic sequence")
    p.add_argument("--spec", required=True, help="motion spec JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the transformer scorer")
    p.add_argument("--dataset", required=True,
                   help="directory of *.sequence.json / *.annotation.json pairs")
    p.add_argument("--config", default=None,
                   help="JSON with model/training parameters")
    p.add_argument("--checkpoint-out", required=True)
    p.add_argument("--loss-csv", default=None,
                   help="loss curve CSV path (default: <checkpoint>.loss.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score-model", help="score a sequence with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sequence", required=True)
    p.set_defaults(func=cmd_score_model)
    return parser


def main(argv: Optional[Seq[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failed as e:
        return e.args[0]


if __name__ == "__main__":
    sys.exit(main())
