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
One :func:`pair_dots` call along the warp path gives both the joint score and
the ``(T, N)`` deviation array, NaN where a frame has no value for a joint
(:func:`frame_deviations`); :func:`flag_mistakes` reads that array's columns.

:func:`prepare` does the work on one sequence, once: one
:func:`normalize_sequence` call, then the ``(T, P, 2)`` descriptors and the
interior angles over the joints the exercise config names.
The CLI prepares the reference once for all its candidates; the pairwise
stages of :func:`assess_pair` only read prepared arrays, with masked
reductions over the warp path's index arrays.

A report is one JSON object, ``"version": 2``: the table columns, the
``corrections``, ``aux_scores`` and ``"frame_detail": {"frame_ids": [T ids],
"joints": [N names], "deviations": [T rows of N, as frame_deviations gives],
"transforms": [T rows of theta, scale, cx, cy]}``, null for NaN. A frame's
pixels map to ``scale * R(theta) @ (pixel - (cx, cy))``; version 1 is not read.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence as Seq, Tuple

import numpy as np

from .alignment import PaceProfile, WarpPath, dtw_align, pace_profile
from .config import BODY_CLASSES, CorrectionRule, ExerciseConfig
from .kinematics import (JointVectorSequence, interior_angles, masked_sum,
                         pair_dots, sequence_descriptors)
from .normalize import Pose, normalize_sequence
from .skeleton import (JOINT_NAMES, REQUIRED, SCORE_NAMES, JointId, Sequence,
                       ValidationError, _as_is, _as_str, _finite, _joints,
                       _json_number, _list_of, _object_of, _strings, joint_from_name,
                       read_json, read_object, write_json_atomic)

RANGE_NOT_APPLICABLE = "/"
REPORT_VERSION = 2

_CLASS_TAGS = {"groundtruth": "GT", "correct": "C", "wrong": "W"}


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


@dataclass(eq=False)
class AssessmentReport:
    """One report row plus its frame detail (layout: the module docstring)."""

    name: str
    body_class: str
    joint_score: float
    pace_score: float
    range_score: Optional[float]        # None = not applicable
    corrections: Tuple[Correction, ...] = ()
    frame_ids: Tuple[str, ...] = ()
    joints: Tuple[JointId, ...] = ()
    deviations: np.ndarray = ()         # (T, N), NaN where a frame has no value
    transforms: np.ndarray = ()         # (T, 4) theta, scale, cx, cy
    aux_scores: Optional[Dict[str, float]] = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValidationError(f"name must be a string, got {self.name!r}")
        if self.body_class not in BODY_CLASSES:
            raise ValidationError(
                f"class must be one of {BODY_CLASSES}, got {self.body_class!r}")
        for label, value in (("joint", self.joint_score), ("pace", self.pace_score)):
            if not 0.0 <= value <= 100.0:
                raise ValidationError(f"{label} score {value} outside [0, 100]")
        if self.range_score is not None and not 0.0 <= self.range_score <= 100.0:
            raise ValidationError(f"range score {self.range_score} outside [0, 100]")
        self.corrections = tuple(self.corrections)
        self.frame_ids = tuple(self.frame_ids)
        self.joints = tuple(map(JointId, self.joints))
        n_frames = len(self.frame_ids)
        for key, width in (("deviations", len(self.joints)), ("transforms", 4)):
            try:    # None becomes NaN; JSON writes no frames as []
                rows = np.asarray(getattr(self, key), np.float64)
                rows = rows.reshape(0, width) if rows.shape == (0,) else rows
            except (TypeError, ValueError):
                rows = None
            if rows is None or rows.shape != (n_frames, width) or np.isinf(rows).any():
                raise ValidationError(f"frame_detail.{key}: must be {n_frames} rows "
                                      f"of {width} finite numbers or null")
            setattr(self, key, rows)

    def __eq__(self, other):    # as serialized, so NaN equals NaN
        return (report_to_dict(self) == report_to_dict(other)
                if isinstance(other, AssessmentReport) else NotImplemented)


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prepared:
    """A sequence with everything the pairwise stages read of it."""

    seq: Sequence
    pose: Pose
    canonical: np.ndarray           # (T, 17, 2) normalize_sequence's points
    center: np.ndarray              # (T, 2) normalize_sequence's body centers
    desc: JointVectorSequence       # desc.targeted: the N sorted targeted joints
    angles: np.ndarray              # (T, N) canonical interior angles at targeted
    raw_angles: np.ndarray          # (T, N) the same on the raw keypoints; range
    primary_angles: np.ndarray      # (T,) raw angle at the primary joint; pace


def prepare(seq: Sequence, config: ExerciseConfig) -> Prepared:
    """Normalize and describe one sequence over the config's targeted
    joints. Angles are NaN where undefined, occluded or for joints without
    one. A sequence of another exercise than the config's is refused."""
    if seq.exercise_id != config.exercise_id:
        raise ValidationError(f"exercise_id {seq.exercise_id!r} differs from the "
                              f"config's {config.exercise_id!r}")
    pixels = seq.points
    occluded = seq.occlusion_mask(config.occlusion_threshold)
    points, theta, scale, center = normalize_sequence(pixels, occluded, seq.frame_ids)
    desc = sequence_descriptors(points, occluded, config.targeted_joints, seq.frame_ids)
    raw = interior_angles(pixels, desc.targeted + (config.phase.primary_joint,), occluded)
    return Prepared(
        seq=seq, pose=Pose(pixels, occluded, theta, scale), canonical=points,
        center=center, desc=desc, angles=interior_angles(points, desc.targeted, occluded),
        raw_angles=raw[:, :-1], primary_angles=raw[:, -1])


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
                     path: WarpPath) -> Tuple[float, np.ndarray]:
    """The one pass along the warp path: the joint score and the (T, N)
    per-candidate-frame, per-targeted-joint deviations in [0, 1], NaN where
    a frame has none for a joint. When several path pairs touch one
    candidate frame, deviations are averaged.
    """
    cand, ref = cand_prep.desc, ref_prep.desc
    ci, ri = np.array(path.pairs).T
    dots, both = pair_dots(cand.vectors[ci], cand.valid[ci],
                           ref.vectors[ri], ref.valid[ri])
    pair_sums, pair_counts = masked_sum((dots + 1.0) * 0.5, both)
    n_pairs = int(pair_counts.sum())
    if n_pairs == 0:    # dtw_align refuses a path cell with no common pair
        raise ValueError("no usable targeted joint pairs to score")
    score = 100.0 * float(pair_sums.sum()) / n_pairs

    n_joints = len(cand.targeted)
    angle_dev = np.abs(cand_prep.angles[ci] - ref_prep.angles[ri]) / 180.0
    # Without an angle on both sides, fall back on the joint's outgoing pairs
    # (the pairs are grouped by first joint). Directions of short segments
    # are ill-conditioned, so each pair is weighted by its reference length.
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
    return score, np.divide(sums, counts, out=np.full(sums.shape, np.nan),
                            where=counts > 0)


def flag_mistakes(deviations: np.ndarray, frame_ids: Seq[str],
                  joints: Seq[JointId], threshold: float,
                  phases: Seq[Tuple[str, Tuple[int, int]]]) -> List[MistakeFlag]:
    """Local deviation maxima above threshold, at most one per joint per phase.

    ``deviations`` is :func:`frame_deviations`'s (T, N) array, with a
    column per joint of ``joints`` and NaN where a frame has no value; a
    frame's neighbours in its column are the nearest frames with a value.
    ``phases`` is a list of (name, (start_index, end_index)) candidate frame
    ranges. Of tied maxima in one phase, the first frame is flagged.
    """
    flags: List[MistakeFlag] = []
    for joint, column in zip(joints, deviations.T):
        index = np.flatnonzero(~np.isnan(column))
        values = column[index]
        peak = values > threshold
        peak[1:] &= values[:-1] <= values[1:]
        peak[:-1] &= values[1:] <= values[:-1]
        for name, (lo, hi) in phases:
            hits = np.flatnonzero(peak & (index >= lo) & (index <= hi))
            if hits.size:
                best = hits[values[hits].argmax()]
                i = int(index[best])
                flags.append(MistakeFlag(frame_index=i, frame_id=frame_ids[i], joint=joint,
                                         deviation=float(values[best]), phase=name))
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
    joints = ref.desc.targeted
    cand = prepare(cand, config)
    path = dtw_align(cand.desc, ref.desc)
    profile = pace_profile(cand.seq, ref.seq, path, ref.primary_angles,
                           config.phase.eccentric_direction)

    jscore, deviations = frame_deviations(cand, ref, path)
    pscore = pace_score(profile, config.pace_ratio_weight)
    rscore = range_score(cand.raw_angles, joints, config.reference_angles)

    frame_ids = cand.desc.frame_ids
    phase_ranges = [(p.name, p.cand_range) for p in profile.phases]
    flags = flag_mistakes(deviations, frame_ids, joints,
                          config.mistake_threshold, phase_ranges)

    column = {j: k for k, j in enumerate(joints)}
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
        frame_ids=frame_ids,
        joints=joints,
        deviations=deviations,
        transforms=np.column_stack((cand.pose.theta, cand.pose.scale, cand.center)),
    )
    return AssessmentResult(report=report, path=path, flags=tuple(flags),
                            cand=cand, ref=ref)


# ---------------------------------------------------------------------------
# Report I/O (Table columns: name, class, joint, pace, range, correction)
# ---------------------------------------------------------------------------

def report_to_dict(report: AssessmentReport) -> dict:
    return {
        "version": REPORT_VERSION,
        "name": report.name,
        "class": report.body_class,
        "joint": report.joint_score,
        "pace": report.pace_score,
        "range": RANGE_NOT_APPLICABLE if report.range_score is None
                 else report.range_score,
        "correction": "; ".join(c.text for c in report.corrections),
        "corrections": [
            {"text": c.text, "joint": JOINT_NAMES[c.joint], "frames": list(c.frame_ids)}
            for c in report.corrections
        ],
        "frame_detail": {
            "frame_ids": list(report.frame_ids),
            "joints": [JOINT_NAMES[j] for j in report.joints],
            **{key: np.where(np.isnan(rows), None, rows).tolist()    # NaN as null
               for key, rows in (("deviations", report.deviations),
                                 ("transforms", report.transforms))},
        },
        "aux_scores": report.aux_scores,
    }


def save_report(report: AssessmentReport, path: os.PathLike | str) -> None:
    """Serialize a report; ``load_report(save_report(r)) == r``."""
    write_json_atomic(path, report_to_dict(report))


def _cell(value, where: str) -> Optional[float]:
    """A JSON number, or null for NaN."""
    return None if value is None else _json_number(value, where)


# The keys of a report and of its objects; its numbers must be JSON numbers.
_CORRECTION = {"text": (_as_str, REQUIRED), "joint": (joint_from_name, REQUIRED),
               "frames": (_strings, REQUIRED)}
_FRAME_DETAIL = {"frame_ids": (_strings, REQUIRED), "joints": (_joints, REQUIRED),
                 "deviations": (_list_of(_list_of(_cell)), REQUIRED),
                 "transforms": (_list_of(_list_of(_cell)), REQUIRED)}
_AUX_SCORES = {key: (lambda value, where: _json_number(value, where, _finite), REQUIRED)
               for key in SCORE_NAMES}
_REPORT = {
    "version": (_as_is, 1),
    "name": (_as_is, REQUIRED),
    "class": (_as_is, REQUIRED),
    "joint": (_json_number, REQUIRED),
    "pace": (_json_number, REQUIRED),
    "range": (lambda value, where: None if value == RANGE_NOT_APPLICABLE
              else _json_number(value, where), REQUIRED),
    "correction": (None, REQUIRED),    # the corrections' texts, joined
    "corrections": (_list_of(_object_of(
        _CORRECTION, "correction",
        lambda text, joint, frames: Correction(text, joint, frames))), ()),
    "frame_detail": (_object_of(_FRAME_DETAIL, "frame detail"), REQUIRED),
    "aux_scores": (_object_of(_AUX_SCORES, "aux scores"), None),
}


def load_report(path: os.PathLike | str) -> AssessmentReport:
    """Load a :func:`save_report` file; messages name the key, not the file."""
    fields = read_object(read_json(path), "", _REPORT, "report")
    if fields["version"] != REPORT_VERSION:
        raise ValidationError(f"report version {fields['version']!r} is not supported; "
                              "`formcoach assess` writes a current report")
    return AssessmentReport(
        name=fields["name"], body_class=fields["class"], joint_score=fields["joint"],
        pace_score=fields["pace"], range_score=fields["range"],
        corrections=fields["corrections"], aux_scores=fields["aux_scores"],
        **fields["frame_detail"])
