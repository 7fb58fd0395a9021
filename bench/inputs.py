"""Seeded input sets for the benchmark workloads.

Every file the CLI reads is written here, before any timing starts, from
``formcoach.synth.generate`` and a NumPy generator seeded with the run's
seed. The same seed gives byte-identical files. A manifest records what was
injected into each candidate, so the output checks and the flag-quality
metrics can compare the CLI's written outputs with the synth annotations.

The shape of each input set (lengths, which slots carry which injection,
how many candidates have gaps or occlusions) is fixed; the seed only picks
the details (jitter, joints, phases, frames, order). That keeps the work per
run, and so the timings, comparable across seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from formcoach.config import save_exercise_config
from formcoach.skeleton import (Frame, JointId, Sequence, save_annotation,
                                save_sequence)
from formcoach.synth import InjectedError, MotionSpec, exercise_config, generate

J = JointId
PHASES = ("all", "eccentric", "concentric")
OFFSET_JOINTS = {"squat": (J.LEFT_KNEE, J.RIGHT_KNEE),
                 "press": (J.LEFT_ELBOW, J.RIGHT_ELBOW),
                 "pull": (J.LEFT_ELBOW, J.RIGHT_ELBOW)}
ROM_JOINTS = {"squat": (J.LEFT_KNEE, J.RIGHT_KNEE, J.LEFT_HIP, J.RIGHT_HIP),
              "press": (J.LEFT_ELBOW, J.RIGHT_ELBOW, J.LEFT_SHOULDER,
                        J.RIGHT_SHOULDER)}
# Targeted distal joints; occluding them changes a frame's descriptor pairs.
DISTAL_JOINTS = {"squat": (J.LEFT_ANKLE, J.RIGHT_ANKLE),
                 "press": (J.LEFT_WRIST, J.RIGHT_WRIST)}
JITTER_PX = 1.0

# assess-long: one candidate per call, T = ratio * reference length for the
# four ratios, alternating squat and press. Each call has its own reference,
# 300 / sqrt(ratio) frames long, so every call has about 300 * 300 DTW cells
# and costs about the same; a short pass lets several whole passes fit.
LONG_FRAMES = 300
LONG_RATIOS = (1.0, 1.2, 0.9, 1.1)
LONG_OFFSET_SLOTS = (1, 2)
LONG_OFFSET_DEG = (45.0, 50.0, 55.0, 60.0)

# assess-batch: 16 candidates per template in two calls of 8. Every call
# gets the same multiset of lengths, so every call does the same DTW work.
BATCH_REF_FRAMES = 51
BATCH_LENGTHS = (41, 45, 47, 51, 53, 55, 57, 59)
BATCH_SLOTS = (
    ("identity", None), ("clean", None), ("clean", None),
    ("offset", 15.0), ("offset", 30.0), ("offset", 45.0), ("offset", 60.0),
    ("offset", 15.0), ("offset", 30.0), ("offset", 45.0), ("offset", 60.0),
    ("speed", 0.5), ("speed", 2.0), ("speed", 2.0),
    ("rom", 0.3), ("rom", 0.5),
)
BATCH_GAPS_PER_CALL = 3       # candidates with two dropped interior frames
BATCH_OCCLUDED_PER_CALL = 3   # candidates with a distal joint hidden
OCCLUDED_FRAMES = 3

# train-score: a fixed-size training set and held-out set.
TRAIN_PAIRS = 16
HELD_OUT = 8
TRAIN_FRAMES = 48
TRAIN_EPOCHS = 6
TRAIN_LR = 1e-2


def _rel(path: Path, base: Path) -> str:
    return path.relative_to(base).as_posix()


def _write_reference(base: Path, template: str, n_frames: int):
    """Write a clean reference and its exercise config; return the manifest
    entry plus the reference and its annotation."""
    ref, ann = generate(MotionSpec(template=template, n_frames=n_frames,
                                   class_label="groundtruth"), seed=0)
    ref_path = base / f"{template}{n_frames}_reference.sequence.json"
    cfg_path = base / f"{template}{n_frames}.config.json"
    save_sequence(ref, ref_path)
    save_exercise_config(exercise_config(template, ann), cfg_path)
    entry = {"reference": _rel(ref_path, base), "config": _rel(cfg_path, base),
             "reference_frames": n_frames}
    return entry, ref, ann


def _error_for(kind: str, magnitude: float, template: str,
               rng: np.random.Generator) -> InjectedError:
    if kind == "offset":
        return InjectedError("angle_offset_deg", magnitude,
                             joint=OFFSET_JOINTS[template][rng.integers(2)],
                             phase=PHASES[rng.integers(3)])
    if kind == "speed":
        return InjectedError("speed_factor", magnitude,
                             phase=PHASES[rng.integers(3)])
    joints = ROM_JOINTS[template]
    return InjectedError("rom_truncation_fraction", magnitude,
                         joint=joints[rng.integers(len(joints))])


def _drop_frames(seq: Sequence, count: int, rng: np.random.Generator) -> Sequence:
    """Remove ``count`` interior frames, keeping the others' timestamps."""
    drop = set(rng.choice(np.arange(1, len(seq.frames) - 1), count,
                          replace=False).tolist())
    return replace(seq, frames=tuple(f for i, f in enumerate(seq.frames)
                                     if i not in drop))


def _occlude(seq: Sequence, joint: JointId, rng: np.random.Generator) -> Sequence:
    """Zero the confidence of ``joint`` on a few interior frames."""
    hide = set(rng.choice(np.arange(1, len(seq.frames) - 1), OCCLUDED_FRAMES,
                          replace=False).tolist())
    frames = []
    for i, f in enumerate(seq.frames):
        if i in hide:
            conf = f.confidence.copy()
            conf[joint] = 0.0
            f = Frame(frame_id=f.frame_id, timestamp=f.timestamp,
                      points=f.points, confidence=conf)
        frames.append(f)
    return replace(seq, frames=tuple(frames))


def _write_candidate(base: Path, stem: str, seq: Sequence, ann,
                     entry: dict) -> dict:
    present = {f.frame_id for f in seq.frames}
    ann = replace(ann, per_frame_mistakes=tuple(
        m for m in ann.per_frame_mistakes if m[0] in present))
    seq_path = base / f"{stem}.sequence.json"
    ann_path = base / f"{stem}.annotation.json"
    save_sequence(seq, seq_path)
    save_annotation(ann, ann_path)
    return dict(entry, file=_rel(seq_path, base),
                annotation=_rel(ann_path, base), frames=len(seq.frames))


def write_assess_long(base: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    calls = []
    for k, ratio in enumerate(LONG_RATIOS):
        template = ("squat", "press")[k % 2]
        ref_entry = _write_reference(base, template,
                                     round(LONG_FRAMES / math.sqrt(ratio)))[0]
        n = round(LONG_FRAMES * math.sqrt(ratio)) + int(rng.integers(-3, 4))
        errors = ()
        kind, magnitude = "clean", None
        if k in LONG_OFFSET_SLOTS:
            kind = "offset"
            magnitude = float(LONG_OFFSET_DEG[rng.integers(len(LONG_OFFSET_DEG))])
            errors = (_error_for(kind, magnitude, template, rng),)
        seq, ann = generate(MotionSpec(template=template, n_frames=n,
                                       noise_std=JITTER_PX,
                                       injected_errors=errors),
                            seed=int(rng.integers(2**31)))
        cand = _write_candidate(base, f"long{k}_{template}", seq, ann,
                                {"kind": kind, "magnitude": magnitude,
                                 "template": template})
        calls.append(dict(ref_entry, candidates=[cand]))
    return {"workload": "assess-long", "calls": calls}


def write_assess_batch(base: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    calls = []
    for template in ("squat", "press"):
        ref_entry, ref, ref_ann = _write_reference(base, template,
                                                   BATCH_REF_FRAMES)
        order = rng.permutation(len(BATCH_SLOTS))
        for half in (order[:8], order[8:]):
            lengths = list(rng.permutation(BATCH_LENGTHS))
            slots = [BATCH_SLOTS[i] for i in half]
            if ("identity", None) in slots:
                # The identity candidate is the reference itself.
                lengths.remove(BATCH_REF_FRAMES)
                lengths.insert(slots.index(("identity", None)), BATCH_REF_FRAMES)
            others = [i for i, s in enumerate(slots) if s[0] != "identity"]
            gaps = set(rng.choice(others, BATCH_GAPS_PER_CALL, replace=False).tolist())
            hidden = set(rng.choice(others, BATCH_OCCLUDED_PER_CALL,
                                    replace=False).tolist())
            candidates = []
            for i, (kind, magnitude) in enumerate(slots):
                stem = f"batch{len(calls)}_{i}_{template}_{kind}"
                entry = {"kind": kind, "magnitude": magnitude,
                         "template": template}
                if kind == "identity":
                    candidates.append(_write_candidate(base, stem, ref, ref_ann,
                                                       entry))
                    continue
                errors = () if kind == "clean" else (
                    _error_for(kind, magnitude, template, rng),)
                extra = 2 if i in gaps else 0
                seq, ann = generate(MotionSpec(template=template,
                                               n_frames=int(lengths[i]) + extra,
                                               noise_std=JITTER_PX,
                                               injected_errors=errors),
                                    seed=int(rng.integers(2**31)))
                if extra:
                    seq = _drop_frames(seq, extra, rng)
                if i in hidden:
                    distal = DISTAL_JOINTS[template]
                    seq = _occlude(seq, distal[rng.integers(2)], rng)
                candidates.append(_write_candidate(base, stem, seq, ann, entry))
            calls.append(dict(ref_entry, candidates=candidates))
    return {"workload": "assess-batch", "calls": calls}


def write_train_score(base: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    dataset = base / "dataset"
    held_out = base / "held_out"
    dataset.mkdir()
    held_out.mkdir()
    templates = ("squat", "press", "pull")
    sweep = (("offset", 45.0), ("speed", 2.0), ("offset", 60.0), ("speed", 0.5))

    def make(k: int, dest: Path, stem: str) -> dict:
        template = templates[k % 3]
        errors = ()
        kind, magnitude = "clean", None
        if k % 2:
            kind, magnitude = sweep[(k // 2) % len(sweep)]
            errors = (_error_for(kind, magnitude, template, rng),)
        n = TRAIN_FRAMES + int(rng.integers(-4, 5))
        seq, ann = generate(MotionSpec(template=template, n_frames=n,
                                       noise_std=JITTER_PX,
                                       injected_errors=errors),
                            seed=int(rng.integers(2**31)))
        return _write_candidate(base, f"{dest.name}/{stem}", seq, ann,
                                {"kind": kind, "magnitude": magnitude,
                                 "template": template})

    train_entries = [make(k, dataset, f"train{k:02d}") for k in range(TRAIN_PAIRS)]
    score_entries = [make(k, held_out, f"held{k:02d}") for k in range(HELD_OUT)]
    train_config = base / "train_config.json"
    train_config.write_text(json.dumps({"epochs": TRAIN_EPOCHS, "lr": TRAIN_LR}))
    return {"workload": "train-score", "dataset": _rel(dataset, base),
            "train_config": _rel(train_config, base), "epochs": TRAIN_EPOCHS,
            "training": train_entries, "held_out": score_entries}


WRITERS = {
    "assess-long": write_assess_long,
    "assess-batch": write_assess_batch,
    "train-score": write_train_score,
}


def write_inputs(workload: str, base: Path, seed: int) -> dict:
    """Write the workload's input files under ``base``; return the manifest."""
    base.mkdir(parents=True)
    manifest = WRITERS[workload](base, seed)
    manifest["seed"] = seed
    (base / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def digest(base: Path) -> str:
    """SHA-256 over every input file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in base.rglob("*") if p.is_file()):
        h.update(_rel(path, base).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
