"""Rule-based scoring: joint alignment, pace, range of motion, mistake flags
and textual corrections, assembled into a serializable report.

Score definitions (identity scores 100; each column depends on one criterion):

* joint: ``100 * mean over aligned frame pairs and vector pairs of
  (cos_sim + 1) / 2`` over the targeted-joint direction descriptors.
* pace: ``100 * (w * max(0, 1 - |log2(duration_ratio)|) + (1 - w) *
  (1 - warp_deviation))`` with ``w = 0.5`` by default.
* range: ``100 * mean over targeted joints of clamp(achieved / reference, 0, 1)``
  where a joint's achieved range is the max-min span of its interior angle
  over the repetition. Not applicable (serialized "/") when the exercise
  config provides no reference ranges.

Mistake localization uses per-joint deviations in [0, 1]: for angle-bearing
joints the normalized interior-angle difference ``|a_cand - a_ref| / 180``
against the aligned reference frame, otherwise the mean direction-vector
dissimilarity ``(1 - cos) / 2`` of the joint's outgoing descriptor vectors.

:func:`prepare` does the work on one sequence, once: one
:func:`normalize_sequence` call, key-joint selection for a reference whose
config names none, the ``(T, P, 2)`` descriptors and the interior angles.
The CLI prepares the reference once for all its candidates; the pairwise
stages of :func:`assess_pair` only read prepared arrays, with masked
reductions over the warp path's index arrays.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence as Seq, Tuple

import numpy as np

from .alignment import PaceProfile, WarpPath, dtw_align, pace_profile
from .config import CorrectionRule, ExerciseConfig
from .kinematics import (JointVectorSequence, interior_angles, masked_sum,
                         pair_dots, select_key_joints, sequence_descriptors)
from .normalize import Pose, normalize_sequence
from .skeleton import (JointId, Sequence, ValidationError, _key, _list, _number,
                       joint_from_name, read_json, write_json_atomic)

RANGE_NOT_APPLICABLE = "/"

_CLASS_TAGS = {"groundtruth": "GT", "correct": "C", "wrong": "W"}


@dataclass(frozen=True)
class FrameDeviation:
    """Per-joint deviation of one aligned candidate frame."""

    frame_index: int
    frame_id: str
    deviations: Dict[JointId, float]
    transform: Optional[Tuple[float, float, float, float, float, float]] = None


@dataclass(frozen=True)
class MistakeFlag:
    """A localized mistake: a deviation peak for one joint in one phase."""

    frame_index: int
    frame_id: str
    joint: JointId
    deviation: float
    phase: str = "full"


@dataclass(frozen=True)
class Correction:
    text: str
    joint: JointId
    frame_ids: Tuple[str, ...]

    def __post_init__(self):
        if not self.frame_ids:
            raise ValidationError("a correction must cite at least one key frame")
        object.__setattr__(self, "frame_ids", tuple(self.frame_ids))
        object.__setattr__(self, "joint", JointId(self.joint))


@dataclass
class AssessmentReport:
    """One report row (plus per-frame detail): the serialized output."""

    name: str
    body_class: str
    joint_score: float
    pace_score: float
    range_score: Optional[float]        # None = not applicable
    corrections: Tuple[Correction, ...] = ()
    frame_detail: Tuple[FrameDeviation, ...] = ()
    aux_scores: Optional[Dict[str, float]] = None

    def __post_init__(self):
        for label, value in (("joint", self.joint_score), ("pace", self.pace_score)):
            if not 0.0 <= value <= 100.0:
                raise ValidationError(f"{label} score {value} outside [0, 100]")
        if self.range_score is not None and not 0.0 <= self.range_score <= 100.0:
            raise ValidationError(f"range score {self.range_score} outside [0, 100]")
        self.corrections = tuple(self.corrections)
        self.frame_detail = tuple(self.frame_detail)


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prepared:
    """A sequence with everything the pairwise stages read of it."""

    seq: Sequence
    pose: Pose
    canonical: np.ndarray           # (T, 17, 2) normalize_sequence's points
    # (T, 6) per-frame columns theta, dx, dy, scale, cx, cy of the report's
    # canonical = scale * R(theta) @ (pixel - (cx, cy)) + (dx, dy); dx = dy = 0
    transforms: np.ndarray
    targeted: Tuple[JointId, ...]   # sorted
    desc: JointVectorSequence
    angles: np.ndarray              # (T, N) canonical interior angles at targeted
    raw_angles: np.ndarray          # (T, N) the same on the raw keypoints; range
    primary_angles: np.ndarray      # (T,) raw angle at the primary joint; pace


def prepare(seq: Sequence, config: ExerciseConfig,
            targeted: Optional[Seq[JointId]] = None) -> Prepared:
    """Normalize and describe one sequence over ``targeted``, by default the
    config's targeted joints or, if it names none, the key joints selected
    from the sequence's own first and last frames. Angles are NaN where
    undefined, occluded or for joints without one."""
    pixels = seq.points_array()
    occluded = seq.occlusion_mask(config.occlusion_threshold)
    frame_ids = [f.frame_id for f in seq.frames]
    points, theta, scale, center = normalize_sequence(pixels, occluded, frame_ids)
    if targeted is None:
        targeted = config.targeted_joints or select_key_joints(
            points, occluded, config.key_joint_threshold_deg)
    targeted = tuple(sorted(targeted))
    desc = sequence_descriptors(points, occluded, targeted, frame_ids)
    raw = interior_angles(pixels, targeted + (config.phase.primary_joint,), occluded)
    zero = np.zeros_like(theta)    # the transforms' translation
    return Prepared(
        seq=seq, pose=Pose(pixels, occluded, theta, scale), canonical=points,
        transforms=np.column_stack((theta, zero, zero, scale, center)),
        targeted=targeted, desc=desc,
        angles=interior_angles(points, desc.targeted, occluded),
        raw_angles=raw[:, :-1], primary_angles=raw[:, -1])


def _score_from_fields(cand: JointVectorSequence, ref: JointVectorSequence,
                       path: WarpPath) -> float:
    ci, ri = np.array(path.pairs).T
    dots, both = pair_dots(cand.vectors[ci], cand.valid[ci],
                           ref.vectors[ri], ref.valid[ri])
    sums, counts = masked_sum((dots + 1.0) * 0.5, both)
    count = int(counts.sum())
    if count == 0:
        raise ValidationError("no usable targeted joint pairs to score")
    return 100.0 * float(sums.sum()) / count


def pace_score(profile: PaceProfile, ratio_weight: float = 0.5) -> float:
    """Pace score in [0, 100] from duration ratio and warp deviation."""
    ratio_term = max(0.0, 1.0 - abs(math.log2(profile.duration_ratio)))
    shape_term = 1.0 - profile.warp_deviation
    return 100.0 * (ratio_weight * ratio_term + (1.0 - ratio_weight) * shape_term)


def range_score(angles: np.ndarray, targeted: Seq[JointId],
                reference_angles: Mapping[JointId, Tuple[float, float]]
                ) -> Optional[float]:
    """Range-of-motion score from the (T, len(targeted)) interior angles of
    the candidate's raw keypoints, over the ``targeted`` joints that have a
    reference range and an angle in at least two frames, or None when there
    are none."""
    ratios = []
    for j, series in zip(targeted, angles.T):
        series = series[~np.isnan(series)]
        if j not in reference_angles or len(series) < 2:
            continue
        lo, hi = reference_angles[j]
        ref_span = hi - lo
        achieved = float(series.max() - series.min())
        ratios.append(1.0 if ref_span <= 0 else min(1.0, max(0.0, achieved / ref_span)))
    if not ratios:
        return None
    return 100.0 * float(np.mean(ratios))


# ---------------------------------------------------------------------------
# Frame detail and mistake flags
# ---------------------------------------------------------------------------

def frame_deviations(cand_prep: Prepared, ref_prep: Prepared,
                     path: WarpPath) -> Tuple[FrameDeviation, ...]:
    """Per-candidate-frame, per-targeted-joint deviations in [0, 1], with
    each frame's transform. When several path pairs touch one candidate
    frame, deviations are averaged.
    """
    cand, ref = cand_prep.desc, ref_prep.desc
    ci, ri = np.array(path.pairs).T
    n_joints = len(cand.targeted)
    angle_dev = np.abs(cand_prep.angles[ci] - ref_prep.angles[ri]) / 180.0
    # Without an angle on both sides, fall back on the joint's outgoing pairs
    # (the pairs are grouped by first joint). Directions of short segments
    # are ill-conditioned, so each pair is weighted by its reference length.
    dots, both = pair_dots(cand.vectors[ci], cand.valid[ci],
                           ref.vectors[ri], ref.valid[ri])
    weights = ref.lengths[ri]
    by_joint = (len(ci), n_joints, n_joints - 1)
    both = both.reshape(by_joint)
    num, count = masked_sum((((1.0 - dots) * 0.5) * weights).reshape(by_joint), both)
    den, _ = masked_sum(weights.reshape(by_joint), both)
    has_angle = ~np.isnan(angle_dev)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.where(has_angle, angle_dev, num / den)
    ok = has_angle | (count > 0)

    # A warp path visits candidate frames 0, 1, ... in order, each in one run
    # of pairs, so run i belongs to candidate frame i.
    starts = np.flatnonzero(np.r_[True, ci[1:] != ci[:-1]])
    sums = np.add.reduceat(np.where(ok, dev, 0.0), starts)
    counts = np.add.reduceat(ok, starts, dtype=np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):
        means = (sums / counts).tolist()
    return tuple(
        FrameDeviation(
            frame_index=i,
            frame_id=cand.frame_ids[i],
            deviations={j: row[k] for k, j in enumerate(cand.targeted) if n[k]},
            transform=tuple(cand_prep.transforms[i].tolist()),
        )
        for i, (row, n) in enumerate(zip(means, counts.tolist())))


def flag_mistakes(frame_detail: Seq[FrameDeviation],
                  threshold: float = 0.25,
                  phases: Optional[Seq[Tuple[str, Tuple[int, int]]]] = None
                  ) -> List[MistakeFlag]:
    """Local deviation maxima above threshold, at most one per joint per phase.

    ``phases`` is a list of (name, (start_index, end_index)) candidate frame
    ranges; defaults to a single phase spanning everything.
    """
    if not frame_detail:
        return []
    detail = sorted(frame_detail, key=lambda d: d.frame_index)
    if phases is None:
        phases = [("full", (detail[0].frame_index, detail[-1].frame_index))]
    joints = sorted({j for d in detail for j in d.deviations})
    flags: List[MistakeFlag] = []
    for joint in joints:
        series = [(d.frame_index, d.frame_id, d.deviations.get(joint))
                  for d in detail if d.deviations.get(joint) is not None]
        values = [v for _, _, v in series]
        for name, (lo, hi) in phases:
            best = None
            for k, (idx, fid, v) in enumerate(series):
                if not (lo <= idx <= hi) or v <= threshold:
                    continue
                left_ok = k == 0 or values[k - 1] <= v
                right_ok = k == len(values) - 1 or values[k + 1] <= v
                if left_ok and right_ok and (best is None or v > best.deviation):
                    best = MistakeFlag(frame_index=idx, frame_id=fid, joint=joint,
                                       deviation=v, phase=name)
            if best is not None:
                flags.append(best)
    flags.sort(key=lambda f: (f.frame_index, f.joint))
    return flags


def textual_feedback(flags: Seq[MistakeFlag],
                     rules: Seq[CorrectionRule],
                     angles: Optional[Mapping[Tuple[int, JointId], float]] = None
                     ) -> List[Correction]:
    """Deterministic correction texts for a set of flags.

    The first matching rule wins; an angle predicate matches no flag whose
    angle is missing or NaN; a flag with no rule yields a generic message
    naming the joint. Flags sharing (joint, message) are merged into
    one correction citing all their key frames.
    """
    angles = angles or {}
    grouped: Dict[Tuple[JointId, str], List[str]] = {}
    for flag in flags:
        angle = angles.get((flag.frame_index, flag.joint))
        message = None
        for rule in rules:
            if rule.matches(flag.joint, flag.deviation, angle, flag.phase):
                message = rule.message
                break
        if message is None:
            message = f"adjust {flag.joint.name.lower()} toward reference"
        grouped.setdefault((flag.joint, message), []).append(flag.frame_id)
    return [Correction(text=message, joint=joint, frame_ids=tuple(fids))
            for (joint, message), fids in grouped.items()]


# ---------------------------------------------------------------------------
# Pipeline orchestration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssessmentResult:
    """Report plus the intermediates later stages (aids, CLI) need."""

    report: AssessmentReport
    path: WarpPath
    flags: Tuple[MistakeFlag, ...]
    cand: Prepared
    ref: Prepared


def assess_pair(cand: Sequence, ref: Prepared,
                config: ExerciseConfig) -> AssessmentResult:
    """Run the pairwise pipeline for one candidate against a reference
    prepared with the same ``config``."""
    cand = prepare(cand, config, ref.targeted)
    path = dtw_align(cand.desc, ref.desc)
    profile = pace_profile(cand.seq, ref.seq, path, ref.primary_angles,
                           config.phase.eccentric_direction)

    jscore = _score_from_fields(cand.desc, ref.desc, path)
    pscore = pace_score(profile, config.pace_ratio_weight)
    rscore = range_score(cand.raw_angles, cand.targeted, config.reference_angles)

    detail = frame_deviations(cand, ref, path)
    phase_ranges = [(p.name, p.cand_range) for p in profile.phases]
    flags = flag_mistakes(detail, config.mistake_threshold, phase_ranges)

    column = {j: k for k, j in enumerate(cand.desc.targeted)}
    corrections = textual_feedback(flags, config.rules, {
        (f.frame_index, f.joint): float(cand.angles[f.frame_index, column[f.joint]])
        for f in flags})

    seq = cand.seq
    tag = _CLASS_TAGS.get(seq.class_label, seq.class_label)
    report = AssessmentReport(
        name=f"{seq.exercise_id}({tag})",
        body_class=config.body_class,
        joint_score=jscore,
        pace_score=pscore,
        range_score=rscore,
        corrections=tuple(corrections),
        frame_detail=detail,
    )
    return AssessmentResult(report=report, path=path, flags=tuple(flags),
                            cand=cand, ref=ref)


# ---------------------------------------------------------------------------
# Report I/O (Table columns: name, class, joint, pace, range, correction)
# ---------------------------------------------------------------------------

def report_to_dict(report: AssessmentReport) -> dict:
    return {
        "name": report.name,
        "class": report.body_class,
        "joint": report.joint_score,
        "pace": report.pace_score,
        "range": RANGE_NOT_APPLICABLE if report.range_score is None
                 else report.range_score,
        "correction": "; ".join(c.text for c in report.corrections),
        "corrections": [
            {"text": c.text, "joint": c.joint.name.lower(), "frames": list(c.frame_ids)}
            for c in report.corrections
        ],
        "frame_detail": [
            {
                "frame_index": d.frame_index,
                "frame_id": d.frame_id,
                "deviations": {j.name.lower(): v for j, v in d.deviations.items()},
                "transform": None if d.transform is None else list(d.transform),
            }
            for d in report.frame_detail
        ],
        "aux_scores": report.aux_scores,
    }


def save_report(report: AssessmentReport, path: os.PathLike | str) -> None:
    """Serialize a report; ``load_report(save_report(r)) == r``."""
    write_json_atomic(path, report_to_dict(report))


def load_report(path: os.PathLike | str) -> AssessmentReport:
    """Load a :func:`save_report` file; messages name the key, not the file."""
    doc = read_json(path)
    for key in ("name", "class", "joint", "pace", "range", "correction"):
        _key(doc, key, "report")
    corrections = []
    for i, c in enumerate(_list(doc.get("corrections", []), "corrections")):
        where = f"corrections[{i}]"
        corrections.append(Correction(
            text=str(_key(c, "text", where)),
            joint=joint_from_name(_key(c, "joint", where)),
            frame_ids=tuple(_list(_key(c, "frames", where), f"{where}.frames"))))
    detail = []
    for i, d in enumerate(_list(doc.get("frame_detail", []), "frame_detail")):
        where = f"frame_detail[{i}]"
        index = _number(_key(d, "frame_index", where), f"{where}.frame_index")
        if not index.is_integer():
            raise ValidationError(f"{where}.frame_index: {index!r} is not an integer")
        deviations = _key(d, "deviations", where)
        if not isinstance(deviations, Mapping):
            raise ValidationError(f"{where}.deviations: must map joint names to numbers")
        transform = d.get("transform")
        detail.append(FrameDeviation(
            frame_index=int(index),
            frame_id=_key(d, "frame_id", where),
            deviations={joint_from_name(n): _number(v, f"{where}.deviations.{n}")
                        for n, v in deviations.items()},
            transform=None if transform is None else tuple(
                _number(x, f"{where}.transform")
                for x in _list(transform, f"{where}.transform"))))
    rng = doc["range"]
    return AssessmentReport(
        name=doc["name"],
        body_class=doc["class"],
        joint_score=_number(doc["joint"], "joint"),
        pace_score=_number(doc["pace"], "pace"),
        range_score=None if rng == RANGE_NOT_APPLICABLE else _number(rng, "range"),
        corrections=tuple(corrections),
        frame_detail=tuple(detail),
        aux_scores=doc.get("aux_scores"),
    )
