"""Core skeleton data types and file I/O.

A recorded performance is a :class:`Sequence` of :class:`Frame` objects, each
holding the 17 COCO keypoints in pixel coordinates with per-joint confidence.
Keypoint files are JSON produced upstream by a pose estimator; this module
validates them on load and writes them back losslessly (floats keep full
decimal precision, so ``load(save(x)) == x`` exactly). :func:`load_sequence`
reads every file by one path: a structural pass over all frames (objects,
keypoint containers and joint names, timestamps present), one conversion of
all values (one ``np.array`` when all are numbers, else ``float()`` on each
in frame order) and one value check shared with :class:`Frame`. Each error
names its frame, and its joint where there is one; a file with several faults
reports its first structural fault before any value fault.

Low-confidence joints are treated as occluded and skipped by downstream
geometry instead of being interpolated.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

N_JOINTS = 17

# Below this confidence a joint is considered occluded and excluded from
# geometric computations.
DEFAULT_OCCLUSION_THRESHOLD = 0.05

CLASS_LABELS = ("groundtruth", "correct", "wrong")


class JointId(IntEnum):
    """The 17 COCO keypoints, integer codes 0-16 in standard COCO order."""

    NOSE = 0
    LEFT_EYE = 1
    RIGHT_EYE = 2
    LEFT_EAR = 3
    RIGHT_EAR = 4
    LEFT_SHOULDER = 5
    RIGHT_SHOULDER = 6
    LEFT_ELBOW = 7
    RIGHT_ELBOW = 8
    LEFT_WRIST = 9
    RIGHT_WRIST = 10
    LEFT_HIP = 11
    RIGHT_HIP = 12
    LEFT_KNEE = 13
    RIGHT_KNEE = 14
    LEFT_ANKLE = 15
    RIGHT_ANKLE = 16


JOINT_NAMES = tuple(j.name.lower() for j in JointId)
_NAME_TO_JOINT = {name: JointId(i) for i, name in enumerate(JOINT_NAMES)}


def joint_from_name(name: str) -> JointId:
    try:
        return _NAME_TO_JOINT[name.lower()]
    except (AttributeError, KeyError):
        raise ValidationError(f"unknown joint name {name!r}") from None


class ValidationError(ValueError):
    """Malformed or inconsistent keypoint / annotation / report data."""


def _check_fps(fps: float) -> None:
    """Raise a :class:`ValidationError` unless ``fps`` is positive and finite."""
    if not (math.isfinite(fps) and fps > 0):
        raise ValidationError(f"fps must be positive and finite, got {fps!r}")


def _check_values(frame_ids, points: np.ndarray, confidence: np.ndarray,
                  timestamps: np.ndarray) -> None:
    """Raise a :class:`ValidationError` for the first frame with non-finite
    coordinates, a confidence outside [0, 1] or a negative or non-finite
    timestamp, naming the first of these it has. The arrays are (T, 17, 2),
    (T, 17) and (T,)."""
    # NaN fails every comparison, so the range checks also reject it.
    bad = ~np.stack((np.isfinite(points).all(axis=(1, 2)),
                     ((confidence >= 0.0) & (confidence <= 1.0)).all(axis=1),
                     np.isfinite(timestamps) & (timestamps >= 0.0)), axis=1)
    if bad.any():
        i, k = divmod(int(bad.argmax()), 3)
        problem = ("non-finite coordinates", "confidence outside [0, 1]",
                   "invalid timestamp")[k]
        raise ValidationError(f"frame {frame_ids[i]!r}: {problem}")


@dataclass(frozen=True)
class Frame:
    """One video frame: 17 keypoints (pixels), confidences and a timestamp."""

    frame_id: str
    timestamp: float
    points: np.ndarray      # (17, 2) float64, read-only
    confidence: np.ndarray  # (17,) float64 in [0, 1], read-only

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        conf = np.array(self.confidence, dtype=np.float64)
        if pts.shape != (N_JOINTS, 2):
            raise ValidationError(
                f"frame {self.frame_id!r}: points must be (17, 2), got {pts.shape}"
            )
        if conf.shape != (N_JOINTS,):
            raise ValidationError(
                f"frame {self.frame_id!r}: confidence must be (17,), got {conf.shape}"
            )
        _check_values((self.frame_id,), pts[None], conf[None],
                      np.array([self.timestamp], dtype=np.float64))
        pts.flags.writeable = conf.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "confidence", conf)

    @classmethod
    def _from_checked(cls, frame_id: str, timestamp: float, points: np.ndarray,
                 confidence: np.ndarray) -> "Frame":
        """A frame from values that already pass ``__post_init__``'s checks:
        read-only float64 arrays of the right shapes and ranges."""
        frame = object.__new__(cls)
        frame.__dict__.update(frame_id=frame_id, timestamp=timestamp,
                              points=points, confidence=confidence)
        return frame

    def occlusion_mask(self, threshold: float = DEFAULT_OCCLUSION_THRESHOLD) -> np.ndarray:
        """Boolean (17,) mask, True where the joint is considered occluded."""
        return self.confidence < threshold

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return (
            self.frame_id == other.frame_id
            and self.timestamp == other.timestamp
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.confidence, other.confidence)
        )

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Sequence:
    """An ordered, timestamped keypoint sequence for one performance."""

    exercise_id: str
    class_label: str
    frames: Tuple[Frame, ...]
    fps_hint: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if self.class_label not in CLASS_LABELS:
            raise ValidationError(
                f"class must be one of {CLASS_LABELS}, got {self.class_label!r}"
            )
        if len(self.frames) < 2:
            raise ValidationError("a sequence needs at least 2 frames")
        ts = [f.timestamp for f in self.frames]
        for i in range(1, len(ts)):
            if ts[i] <= ts[i - 1]:
                raise ValidationError(
                    f"timestamps must be strictly increasing: frame {i} "
                    f"({self.frames[i].frame_id!r}) has t={ts[i]} after t={ts[i-1]}"
                )
        if self.fps_hint is not None:
            _check_fps(self.fps_hint)

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def timestamps(self) -> np.ndarray:
        return np.array([f.timestamp for f in self.frames])

    @property
    def duration(self) -> float:
        return self.frames[-1].timestamp - self.frames[0].timestamp

    def points_array(self) -> np.ndarray:
        """Stack all frame points into a (T, 17, 2) array."""
        return np.stack([f.points for f in self.frames])

    def occlusion_mask(self, threshold: float = DEFAULT_OCCLUSION_THRESHOLD) -> np.ndarray:
        """Boolean (T, 17) mask, True where the joint is considered occluded."""
        return np.stack([f.confidence for f in self.frames]) < threshold


def _angle_ranges(table: Mapping) -> Dict[JointId, Tuple[float, float]]:
    """``{joint: (min_deg, max_deg)}`` with float bounds; a
    :class:`ValidationError` naming the joint if a bound is not finite or
    the minimum exceeds the maximum."""
    ranges = {JointId(j): (float(lo), float(hi)) for j, (lo, hi) in table.items()}
    for j, (lo, hi) in ranges.items():
        where = f"reference_angles[{j.name.lower()}]"
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError(f"{where}: bounds must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise ValidationError(f"{where}: min {lo} > max {hi}")
    return ranges


@dataclass
class Annotation:
    """Per-exercise ground truth: targeted joints, angle ranges, mistakes."""

    exercise_id: str
    targeted_joints: Tuple[JointId, ...] = ()
    reference_angles: dict = field(default_factory=dict)   # JointId -> (min_deg, max_deg)
    per_frame_mistakes: Tuple[Tuple[str, JointId, str], ...] = ()
    scores: Optional[Tuple[float, float, float]] = None    # (joint, pace, range) 0-100

    def __post_init__(self):
        self.targeted_joints = tuple(JointId(j) for j in self.targeted_joints)
        self.reference_angles = _angle_ranges(self.reference_angles)
        self.per_frame_mistakes = tuple(
            (str(fid), JointId(j), str(note)) for fid, j, note in self.per_frame_mistakes
        )
        if self.scores is not None:
            self.scores = tuple(float(s) for s in self.scores)  # type: ignore[assignment]
            if len(self.scores) != 3 or any(not (0.0 <= s <= 100.0) for s in self.scores):
                raise ValidationError("scores must be three values in [0, 100]")


# ---------------------------------------------------------------------------
# Atomic writing (no partial files on failure)
# ---------------------------------------------------------------------------

def write_text_atomic(path: os.PathLike | str, text: str) -> None:
    """Write text via a temp file + rename so readers never see partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json_atomic(path: os.PathLike | str, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=False) + "\n")


# ---------------------------------------------------------------------------
# Keypoint file I/O
#
# Schema (JSON, one object per sequence):
#   {"exercise_id": str, "class": str, "fps": float|null,
#    "frames": [{"id": str, "t": float, "keypoints": <kp>}, ...]}
# where <kp> is either a list of 17 [x, y, conf] rows in COCO order, or a
# mapping {joint_name: [x, y, conf]} in any order (reordered on load).
# "t" may be omitted when "fps" is given; it is synthesized as index / fps.
# ---------------------------------------------------------------------------

def read_json(path: os.PathLike | str):
    """Parse a JSON file, raising :class:`ValidationError` if it is not JSON
    text (a decode error, bytes that are not text, or an integer longer than
    Python's integer-string digit limit); the message does not name the file."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as e:
        raise ValidationError(f"not valid JSON ({e})") from e


def _number(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{where}: {value!r} is not a number") from None


def _key(obj, key: str, where: str):
    """``obj[key]`` of a JSON object; a :class:`ValidationError` naming
    ``where`` if ``obj`` is not an object or lacks the key."""
    if not isinstance(obj, Mapping) or key not in obj:
        raise ValidationError(f"{where}: must be an object with key {key!r}")
    return obj[key]


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: must be a list, got {value!r}")
    return value


def _angle_table(obj, where: str) -> Dict[JointId, Tuple[float, float]]:
    """A ``{joint_name: [min_deg, max_deg]}`` JSON object."""
    if not (isinstance(obj, Mapping) and all(
            isinstance(v, list) and len(v) == 2 for v in obj.values())):
        raise ValidationError(f"{where}: must map joint names to [min, max]")
    return {joint_from_name(n): tuple(_number(x, f"{where}.{n}") for x in v)
            for n, v in obj.items()}


def _parse_row(row, frame_idx: int, name: str) -> Tuple[float, float, float]:
    """One ``[x, y, conf]`` keypoint row as floats."""
    if not isinstance(row, (list, tuple)) or len(row) != 3:
        raise ValidationError(f"frame {frame_idx}: keypoint {name!r} must be [x, y, conf]")
    try:
        return float(row[0]), float(row[1]), float(row[2])
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"frame {frame_idx}: keypoint {name!r} must be "
                              f"[x, y, conf] numbers, got {row!r}") from None


def _coco_rows(kp: Mapping, frame_idx: int) -> Tuple[list, list]:
    """Mapping-form keypoints as their rows and the names they were given,
    both in COCO order."""
    names = [None] * N_JOINTS
    for name in kp:
        j = joint_from_name(name)
        if names[j] is not None:
            raise ValidationError(f"frame {frame_idx}: duplicate joint {name!r}")
        names[j] = name
    missing = [n for n, given in zip(JOINT_NAMES, names) if given is None]
    if missing:
        raise ValidationError(f"frame {frame_idx}: missing joint(s) {', '.join(missing)}")
    return [kp[name] for name in names], names


def _numeric(values: list, shape: Tuple[int, ...]) -> Optional[np.ndarray]:
    """``values`` as a float64 array of ``shape``, or None unless they are
    numbers (booleans included, as ``float`` takes them) nested to it."""
    try:
        arr = np.array(values)
    except ValueError:    # ragged nesting
        return None
    if arr.shape != shape or arr.dtype.kind not in "biuf":
        return None
    return arr.astype(np.float64, copy=False)


def load_sequence(path: os.PathLike | str) -> Sequence:
    """Load and validate a keypoint file.

    Raises :class:`ValidationError` with the offending frame on malformed
    input, values that are not numbers, missing joints, non-monotone
    timestamps or an fps that is not positive and finite, never with the
    file; see the module docstring for which fault is reported first.
    """
    doc = read_json(path)
    if not isinstance(doc, Mapping):
        raise ValidationError("top level must be an object")
    for key in ("exercise_id", "class", "frames"):
        if key not in doc:
            raise ValidationError(f"missing required key {key!r}")
    fps = doc.get("fps")
    if fps is not None:
        fps = _number(fps, "fps")
        _check_fps(fps)
    raw_frames = doc["frames"]
    if not isinstance(raw_frames, list):
        raise ValidationError("'frames' must be a list")

    keypoints, names, times, frame_ids = [], [], [], []
    for i, rf in enumerate(raw_frames):
        if not isinstance(rf, Mapping) or "keypoints" not in rf:
            raise ValidationError(f"frame {i}: must be an object with 'keypoints'")
        kp = rf["keypoints"]
        if isinstance(kp, list):
            if len(kp) != N_JOINTS:
                raise ValidationError(f"frame {i}: expected 17 keypoints, got {len(kp)}")
            given = JOINT_NAMES
        elif isinstance(kp, Mapping):
            kp, given = _coco_rows(kp, i)
        else:
            raise ValidationError(f"frame {i}: keypoints must be a list or mapping")
        t = rf.get("t")
        if t is None:
            if not fps:
                raise ValidationError(
                    f"frame {i}: no timestamp and no fps to synthesize one from"
                )
            t = i / fps
        keypoints.append(kp)
        names.append(given)
        times.append(t)
        frame_ids.append(str(rf["id"]) if "id" in rf else f"f{i:04d}")

    rows = _numeric(keypoints, (len(keypoints), N_JOINTS, 3))
    t = _numeric(times, (len(times),))
    if rows is None or t is None:
        for i, (kp, given) in enumerate(zip(keypoints, names)):
            keypoints[i] = [_parse_row(row, i, name) for row, name in zip(kp, given)]
            times[i] = _number(times[i], f"frame {i}: t")
        rows = np.array(keypoints, dtype=np.float64).reshape(-1, N_JOINTS, 3)
        t = np.array(times, dtype=np.float64)
    points = np.ascontiguousarray(rows[..., :2])
    conf = np.ascontiguousarray(rows[..., 2])
    _check_values(frame_ids, points, conf, t)
    points.flags.writeable = conf.flags.writeable = False
    return Sequence(
        exercise_id=str(doc["exercise_id"]),
        class_label=str(doc["class"]),
        frames=tuple(map(Frame._from_checked, frame_ids, t.tolist(), points, conf)),
        fps_hint=fps,
    )


def sequence_to_dict(seq: Sequence) -> dict:
    return {
        "exercise_id": seq.exercise_id,
        "class": seq.class_label,
        "fps": seq.fps_hint,
        "frames": [
            {
                "id": f.frame_id,
                "t": f.timestamp,
                "keypoints": [
                    [float(f.points[j, 0]), float(f.points[j, 1]), float(f.confidence[j])]
                    for j in range(N_JOINTS)
                ],
            }
            for f in seq.frames
        ],
    }


def save_sequence(seq: Sequence, path: os.PathLike | str) -> None:
    """Write a keypoint file; ``load_sequence(save_sequence(s)) == s`` exactly."""
    write_json_atomic(path, sequence_to_dict(seq))


# ---------------------------------------------------------------------------
# Annotation file I/O (JSON mirroring the Annotation type)
# ---------------------------------------------------------------------------

def annotation_to_dict(ann: Annotation) -> dict:
    return {
        "exercise_id": ann.exercise_id,
        "targeted_joints": [j.name.lower() for j in ann.targeted_joints],
        "reference_angles": {j.name.lower(): [lo, hi]
                             for j, (lo, hi) in ann.reference_angles.items()},
        "per_frame_mistakes": [
            {"frame_id": fid, "joint": j.name.lower(), "note": note}
            for fid, j, note in ann.per_frame_mistakes
        ],
        "scores": None if ann.scores is None else
                  {"joint": ann.scores[0], "pace": ann.scores[1], "range": ann.scores[2]},
    }


def save_annotation(ann: Annotation, path: os.PathLike | str) -> None:
    write_json_atomic(path, annotation_to_dict(ann))


def load_annotation(path: os.PathLike | str) -> Annotation:
    """Load and validate an annotation file; messages name the key, not the file."""
    doc = read_json(path)
    if not isinstance(doc, Mapping) or "exercise_id" not in doc:
        raise ValidationError("not an annotation file")
    scores = doc.get("scores")
    if scores is not None:
        scores = tuple(_number(_key(scores, k, "scores"), f"scores.{k}")
                       for k in ("joint", "pace", "range"))
    mistakes = []
    for i, m in enumerate(_list(doc.get("per_frame_mistakes", []), "per_frame_mistakes")):
        where = f"per_frame_mistakes[{i}]"
        mistakes.append((_key(m, "frame_id", where),
                         joint_from_name(_key(m, "joint", where)), m.get("note", "")))
    return Annotation(
        exercise_id=str(doc["exercise_id"]),
        targeted_joints=tuple(joint_from_name(n) for n in _list(
            doc.get("targeted_joints", []), "targeted_joints")),
        reference_angles=_angle_table(doc.get("reference_angles", {}),
                                      "reference_angles"),
        per_frame_mistakes=tuple(mistakes),
        scores=scores,
    )
