"""Command-line interface.

Subcommands:

* ``assess``      — load candidate + reference keypoint files, run the full
                    pipeline and write a report plus SVG visual aids.
* ``synth``       — generate a synthetic sequence + annotation from a motion
                    spec file.
* ``train``       — train the transformer scorer on a directory of sequence /
                    annotation pairs, writing a checkpoint and loss CSV.
* ``score-model`` — score a sequence with a trained checkpoint; optionally
                    append the scores to an existing report.

Errors: a failing input prints one line, ``error: <input>: <fault>`` (exit 2)
or ``error: degenerate data in <input>: <fault>`` (exit 3), that names the
input once, with its role where it has one (``reference <path>``); a missing
file prints Python's own message (exit 2). Only this module names inputs: the
readers' messages do not. Training divergence exits 4. Any other exception,
a bare ``ValueError`` included, is a bug and escapes.

``assess`` prepares the reference once, before it loads any candidate. An
unusable reference fails the call; an unusable candidate fails only itself.
``train`` stops at the first unusable file. Warnings name their file too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence as Seq, Tuple

from . import sttf
from .alignment import AlignmentError
from .assessment import (AssessmentResult, Prepared, assess_pair, load_report,
                         prepare, save_report)
from .config import ExerciseConfig, load_exercise_config, require_threshold
from .correction import VisualAid, build_aid, render_svg
from .kinematics import DescriptorError
from .normalize import DegenerateSkeletonError, OccludedJointError
from .skeleton import (Annotation, Sequence, ValidationError, _key, _list,
                       _number, joint_from_name, load_annotation, load_sequence,
                       read_json, save_annotation, save_sequence,
                       write_json_atomic, write_text_atomic)
from .synth import InjectedError, MotionSpec, generate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_DIVERGED = 4


def build_frame_aids(cand: Sequence, result: AssessmentResult,
                     config: ExerciseConfig) -> Dict[int, VisualAid]:
    """One visual aid per flagged candidate frame, keyed by the frame's index;
    each flagged joint points at the first reference frame aligned to it."""
    captions = {}
    for corr in result.report.corrections:
        captions.setdefault(corr.joint, corr.text)
    ref_for_cand = {}
    for i, j in result.path.pairs:
        ref_for_cand.setdefault(i, j)
    flagged = [(f.frame_index, f.joint, ref_for_cand[f.frame_index])
               for f in result.flags]
    return build_aid(result.cand.pose, result.ref.pose,
                     [f.frame_id for f in cand.frames], flagged,
                     config.body_class, captions)


def _aux_scores(model: "sttf.STTFModel", x) -> Dict[str, float]:
    scores, _logits = model.forward(x)
    return {
        "joint": float(scores[0]) * 100.0,
        "pace": float(scores[1]) * 100.0,
        "range": float(scores[2]) * 100.0,
    }


def _assess_one(cand_path: Path, ref: Prepared, config: ExerciseConfig,
                out_dir: Path, aux_model) -> str:
    cand = load_sequence(cand_path)
    result = assess_pair(cand, ref, config)
    report = result.report
    if aux_model is not None:
        report.aux_scores = _aux_scores(aux_model, sttf.resample(
            result.cand.canonical, cand.timestamps, aux_model.config.seq_len))

    stem = cand_path.stem
    for suffix in (".sequence", ".keypoints"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
    save_report(report, out_dir / f"{stem}_report.json")

    pose = result.cand.pose
    index = []
    for i, aid in build_frame_aids(cand, result, config).items():
        name = f"{stem}_{aid.frame_id}_aid.svg"
        write_text_atomic(out_dir / name,
                          render_svg(aid, pose.points[i], pose.occluded[i]))
        index.append({
            "frame_id": aid.frame_id,
            "file": name,
            "joints": [a.joint.name.lower() for a in aid.arrows],
        })
    write_json_atomic(out_dir / f"{stem}_aids_index.json", index)

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
    """``step()``, run on the input ``name``. A documented failure of it is
    reported in one line that names ``name`` once and raises
    :class:`_Failed`. The warnings ``step`` logs name ``name`` too."""
    try:
        with _warnings_naming(name):
            return step()
    except FileNotFoundError as e:    # its message names the file
        code, line = EXIT_VALIDATION, f"error: {e}"
    except DegenerateSkeletonError as e:
        code, line = EXIT_DEGENERATE, f"error: degenerate data in {name}: {e}"
    except (ValidationError, OccludedJointError, DescriptorError,
            AlignmentError) as e:
        code, line = EXIT_VALIDATION, f"error: {name}: {e}"
    print(line, file=sys.stderr)
    raise _Failed(code)


def cmd_assess(args) -> int:
    config = _guarded(args.config, lambda: load_exercise_config(args.config))
    aux_model = (_guarded(args.aux_model, lambda: sttf.load_checkpoint(args.aux_model))
                 if args.aux_model else None)
    ref = _guarded(f"reference {args.reference}",
                   lambda: prepare(load_sequence(args.reference), config))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    code = EXIT_OK
    for path in map(Path, args.candidate):
        try:
            print(_guarded(path, lambda: _assess_one(path, ref, config, out_dir,
                                                     aux_model)))
        except _Failed as e:
            code = max(code, e.args[0])
    return code


def _motion_spec_from_file(path: Path) -> MotionSpec:
    """The motion spec in ``path``; messages name the key, not the file."""
    doc = read_json(path)
    template = _key(doc, "template", "top level")

    def number(key: str, default: float) -> float:
        return _number(doc.get(key, default), key)

    errors = []
    for i, e in enumerate(_list(doc.get("injected_errors", []), "injected_errors")):
        where = f"injected_errors[{i}]"
        magnitude = _number(_key(e, "magnitude", where), f"{where}.magnitude")
        errors.append(InjectedError(
            kind=e.get("type", e.get("kind")),
            magnitude=magnitude,
            joint=None if e.get("joint") is None else joint_from_name(e["joint"]),
            phase=e.get("phase", "all"),
        ))
    amplitudes = doc.get("amplitude_deg", {})
    if not isinstance(amplitudes, dict):
        raise ValidationError("amplitude_deg must map joint names to degrees")
    n_frames = number("n_frames", 48)
    if not n_frames.is_integer():
        raise ValidationError(f"n_frames must be an integer, got {n_frames:g}")
    return MotionSpec(
        template=str(template),
        n_frames=int(n_frames),
        fps=number("fps", 30.0),
        amplitude_deg={joint_from_name(k): _number(v, f"amplitude_deg.{k}")
                       for k, v in amplitudes.items()} or None,
        noise_std=number("noise_std", 0.0),
        injected_errors=tuple(errors),
        class_label=doc.get("class_label"),
    )


def cmd_synth(args) -> int:
    name = f"invalid motion spec {args.spec}"
    spec = _guarded(name, lambda: _motion_spec_from_file(Path(args.spec)))
    seq, ann = _guarded(name, lambda: generate(spec, seed=args.seed))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{spec.template}_{args.seed}"
    save_sequence(seq, out_dir / f"{stem}.sequence.json")
    save_annotation(ann, out_dir / f"{stem}.annotation.json")
    print(f"wrote {stem}.sequence.json and {stem}.annotation.json to {out_dir}")
    return EXIT_OK


def _load_train_config(path: Optional[str]) -> Tuple[sttf.STTFConfig, int, float]:
    """(model config, epochs, lr) from ``path`` or the defaults; messages
    name the key, not the file."""
    doc = {}
    if path:
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise ValidationError("training config must be an object")
    model_keys = sttf.STTFConfig.__dataclass_fields__.keys()
    unknown = [k for k in doc if k not in model_keys and k not in ("epochs", "lr")]
    if unknown:
        raise ValidationError(f"unknown training config key {unknown[0]!r}")
    config = sttf.STTFConfig(**{k: v for k, v in doc.items() if k in model_keys})
    epochs = _number(doc.get("epochs", 50), "epochs")
    lr = _number(doc.get("lr", 1e-2), "lr")
    if not (epochs >= 1 and epochs.is_integer()):
        raise ValidationError(f"epochs must be a positive integer, got {epochs:g}")
    if not (lr > 0 and math.isfinite(lr)):
        raise ValidationError(f"lr must be positive and finite, got {lr:g}")
    return config, int(epochs), lr


def _training_example(seq_path: Path, ann: Annotation, seq_len: int) -> tuple:
    """(model input, target scores, per-frame labels) of one dataset pair."""
    seq = load_sequence(seq_path)
    x = sttf.sequence_to_model_input(seq, seq_len)
    t_scores, labels = sttf.targets_from_annotation(seq, ann, seq_len)
    return x, t_scores, labels


def cmd_train(args) -> int:
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
    sttf.save_checkpoint(model, ckpt)
    csv_path = args.loss_csv or str(ckpt) + ".loss.csv"
    rows = "".join(f"{i},{v!r}\n" for i, v in enumerate(losses))
    write_text_atomic(csv_path, "epoch,loss\n" + rows)
    print(f"trained {len(dataset)} examples for {epochs} epochs; "
          f"final loss {losses[-1]:.6f}; checkpoint {ckpt}")
    return EXIT_OK


def cmd_score_model(args) -> int:
    _guarded("score-model", lambda: require_threshold(args.occlusion_threshold,
                                                      "--occlusion-threshold"))
    model = _guarded(args.checkpoint, lambda: sttf.load_checkpoint(args.checkpoint))
    aux = _guarded(args.sequence, lambda: _aux_scores(
        model, sttf.sequence_to_model_input(load_sequence(args.sequence),
                                            model.config.seq_len,
                                            args.occlusion_threshold)))
    if args.report:
        report = _guarded(args.report, lambda: load_report(args.report))
        report.aux_scores = aux
        save_report(report, args.report)
    print(json.dumps(aux, indent=2))
    return EXIT_OK


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
    p.add_argument("--report", default=None,
                   help="existing report to append the scores to")
    p.add_argument("--occlusion-threshold", type=float, default=0.05)
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
