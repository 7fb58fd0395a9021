"""Core skeleton data types and file I/O.

A recorded performance is a :class:`Sequence`, and its arrays are its one
representation: read-only float64 arrays of the 17 COCO keypoints in pixels
(T, 17, 2), their confidences (T, 17) and timestamps (T,), plus the frame
ids. Its ``frames`` are :class:`Frame` views of those arrays, each made only
when it is read. :func:`load_sequence` and the synthesizer hand their arrays
to :class:`Sequence` directly; callers that work frame by frame may still
pass :class:`Frame` records, which are stacked once. Either way the arrays
are checked once. Keypoint files are JSON produced upstream by a pose
estimator; this module validates them on load and writes them back
losslessly (floats keep full decimal precision, so ``load(save(x)) == x``
exactly). :func:`load_sequence` reads every file by one path: a structural
pass over all frames (objects, keypoint containers and joint names,
timestamps present) and one conversion of all values (one ``np.array`` when
all are numbers, else ``float()`` on each in frame order) before the
:class:`Sequence` checks the values. Each error names its frame, and its
joint where there is one; a file with several faults reports its first
structural fault before any value fault.

Low-confidence joints are treated as occluded and skipped by downstream
geometry instead of being interpolated.
"""

from __future__ import annotations

import collections.abc
import contextlib
import gc
import json
import math
import os
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

N_JOINTS = 17

# Below this confidence a joint is considered occluded and excluded from
# geometric computations.
DEFAULT_OCCLUSION_THRESHOLD = 0.05

CLASS_LABELS = ("groundtruth", "correct", "wrong")

# The three scores, in the one order that an annotation's scores, the STTF's
# score outputs and training targets, and a report's aux scores all use.
SCORE_NAMES = ("joint", "pace", "range")

# Largest keypoint coordinate magnitude, in pixels. Far below 1e145, it keeps
# the square of every coordinate difference finite, even at canonical scale
# (divided by a torso length as small as normalize.TORSO_EPS = 1e-6).
MAX_COORDINATE = 1e100


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


# Joint -> (neighbor_a, neighbor_b); the interior angle at the joint is the
# angle between the two bones joint->neighbor.
ANGLE_NEIGHBORS: Dict[JointId, Tuple[JointId, JointId]] = {
    JointId.LEFT_ELBOW: (JointId.LEFT_SHOULDER, JointId.LEFT_WRIST),
    JointId.RIGHT_ELBOW: (JointId.RIGHT_SHOULDER, JointId.RIGHT_WRIST),
    JointId.LEFT_KNEE: (JointId.LEFT_HIP, JointId.LEFT_ANKLE),
    JointId.RIGHT_KNEE: (JointId.RIGHT_HIP, JointId.RIGHT_ANKLE),
    JointId.LEFT_SHOULDER: (JointId.LEFT_ELBOW, JointId.LEFT_HIP),
    JointId.RIGHT_SHOULDER: (JointId.RIGHT_ELBOW, JointId.RIGHT_HIP),
    JointId.LEFT_HIP: (JointId.LEFT_SHOULDER, JointId.LEFT_KNEE),
    JointId.RIGHT_HIP: (JointId.RIGHT_SHOULDER, JointId.RIGHT_KNEE),
}

JOINT_NAMES = tuple(j.name.lower() for j in JointId)
_NAME_TO_JOINT = {name: JointId(i) for i, name in enumerate(JOINT_NAMES)}


def joint_from_name(name: str, where: Optional[str] = None) -> JointId:
    """The joint called ``name``, in any case; a :class:`ValidationError`
    whose message starts with ``where:``, when given, if there is none."""
    try:
        return _NAME_TO_JOINT[name.lower()]
    except (AttributeError, KeyError):
        at = f"{where}: " if where else ""
        raise ValidationError(f"{at}unknown joint name {name!r}") from None


class ValidationError(ValueError):
    """Malformed or inconsistent keypoint / annotation / report data."""


def _check_fps(fps: float) -> None:
    """Raise a :class:`ValidationError` unless ``fps`` is positive and finite."""
    if not (math.isfinite(fps) and fps > 0):
        raise ValidationError(f"fps must be positive and finite, got {fps!r}")


@dataclass(frozen=True, eq=False)
class Frame:
    """One video frame: 17 keypoints (pixels), confidences and a timestamp.

    A plain record: it is checked, and its arrays made read-only, only as
    part of a :class:`Sequence`."""

    frame_id: str
    timestamp: float
    points: np.ndarray      # (17, 2) float64
    confidence: np.ndarray  # (17,) float64 in [0, 1]

    def occlusion_mask(self, threshold: float = DEFAULT_OCCLUSION_THRESHOLD) -> np.ndarray:
        """Boolean (17,) mask, True where the joint is considered occluded."""
        return self.confidence < threshold


class FrameViews(collections.abc.Sequence):
    """The frames of ``(frame_ids, timestamps, points, confidence)`` arrays,
    each a :class:`Frame` of views made when it is read; a slice is a tuple
    of them."""

    __slots__ = ("frame_ids", "timestamps", "points", "confidence")

    def __init__(self, frame_ids, timestamps, points, confidence):
        self.frame_ids, self.timestamps = frame_ids, timestamps
        self.points, self.confidence = points, confidence

    def __len__(self) -> int:
        return len(self.frame_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        return Frame(self.frame_ids[i], self.timestamps[i].item(), self.points[i],
                     self.confidence[i])


@dataclass(frozen=True, eq=False)
class Sequence:
    """An ordered, timestamped keypoint sequence for one performance.

    Its arrays are the representation; construction copies them as
    read-only float64 and checks them once. ``frames`` is either a
    :class:`FrameViews` over the arrays to copy, as the loader and the
    synthesizer pass, or any sequence of :class:`Frame` records, which is
    stacked. Afterwards ``frames`` is a :class:`FrameViews` of the
    sequence's own arrays."""

    exercise_id: str
    class_label: str
    frames: collections.abc.Sequence   # of Frame
    fps_hint: Optional[float] = None
    points: np.ndarray = field(init=False, repr=False)      # (T, 17, 2)
    confidence: np.ndarray = field(init=False, repr=False)  # (T, 17)
    timestamps: np.ndarray = field(init=False, repr=False)  # (T,)
    frame_ids: Tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        views = self.frames
        if isinstance(views, FrameViews):
            ids = tuple(views.frame_ids)
            n = len(ids)
            points, conf, ts = (np.array(a, np.float64) for a in
                                (views.points, views.confidence, views.timestamps))
            for name, arr, shape in (("points", points, (n, N_JOINTS, 2)),
                                     ("confidence", conf, (n, N_JOINTS)),
                                     ("timestamps", ts, (n,))):
                if arr.shape != shape:
                    raise ValidationError(f"{name} must be {shape}, got {arr.shape}")
        else:
            frames = tuple(views)
            ids = tuple(f.frame_id for f in frames)
            for f in frames:
                for name, shape in (("points", (N_JOINTS, 2)),
                                    ("confidence", (N_JOINTS,))):
                    got = np.shape(getattr(f, name))
                    if got != shape:
                        raise ValidationError(
                            f"frame {f.frame_id!r}: {name} must be {shape}, got {got}")
            # The reshapes also give a sequence without frames the right shapes.
            points = np.array([f.points for f in frames],
                              np.float64).reshape(-1, N_JOINTS, 2)
            conf = np.array([f.confidence for f in frames],
                            np.float64).reshape(-1, N_JOINTS)
            ts = np.array([f.timestamp for f in frames], dtype=np.float64)
        # NaN fails every comparison, so the range checks also reject it.
        bad = ~np.stack((np.isfinite(points).all(axis=(1, 2)),
                         (np.abs(points) <= MAX_COORDINATE).all(axis=(1, 2)),
                         ((conf >= 0.0) & (conf <= 1.0)).all(axis=1),
                         np.isfinite(ts) & (ts >= 0.0)), axis=1)
        if bad.any():
            i, k = divmod(int(bad.argmax()), 4)
            problem = ("non-finite coordinates",
                       f"coordinate magnitude above {MAX_COORDINATE:g}",
                       "confidence outside [0, 1]", "invalid timestamp")[k]
            raise ValidationError(f"frame {ids[i]!r}: {problem}")
        if self.class_label not in CLASS_LABELS:
            raise ValidationError(
                f"class must be one of {CLASS_LABELS}, got {self.class_label!r}"
            )
        if len(ids) < 2:
            raise ValidationError("a sequence needs at least 2 frames")
        back = np.flatnonzero(np.diff(ts) <= 0.0)
        if back.size:
            i = int(back[0]) + 1
            raise ValidationError(
                f"timestamps must be strictly increasing: frame {i} "
                f"({ids[i]!r}) has t={ts[i].item()} after t={ts[i - 1].item()}"
            )
        seen = set()
        for fid in ids:
            if fid in seen:
                raise ValidationError(f"frame {fid!r}: repeated frame id")
            seen.add(fid)
        if self.fps_hint is not None:
            _check_fps(self.fps_hint)
        points.flags.writeable = conf.flags.writeable = ts.flags.writeable = False
        # Frozen: set the fields past __setattr__.
        self.__dict__.update(points=points, confidence=conf, timestamps=ts, frame_ids=ids,
                             frames=FrameViews(ids, ts, points, conf))

    def __len__(self) -> int:
        return len(self.frame_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return ((self.exercise_id, self.class_label, self.fps_hint, self.frame_ids)
                == (other.exercise_id, other.class_label, other.fps_hint, other.frame_ids)
                and all(np.array_equal(getattr(self, k), getattr(other, k))
                        for k in ("timestamps", "points", "confidence")))

    __hash__ = None  # type: ignore[assignment]

    @property
    def duration(self) -> float:
        return float(self.timestamps[-1] - self.timestamps[0])

    def occlusion_mask(self, threshold: float = DEFAULT_OCCLUSION_THRESHOLD) -> np.ndarray:
        """Boolean (T, 17) mask, True where the joint is considered occluded."""
        return self.confidence < threshold


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
    scores: Optional[Tuple[float, float, float]] = None    # SCORE_NAMES order, 0-100

    def __post_init__(self):
        self.targeted_joints = tuple(JointId(j) for j in self.targeted_joints)
        self.reference_angles = _angle_ranges(self.reference_angles)
        self.per_frame_mistakes = tuple(
            (str(fid), JointId(j), str(note)) for fid, j, note in self.per_frame_mistakes
        )
        if self.scores is not None:
            self.scores = tuple(float(s) for s in self.scores)  # type: ignore[assignment]
            if (len(self.scores) != len(SCORE_NAMES)
                    or any(not (0.0 <= s <= 100.0) for s in self.scores)):
                raise ValidationError("scores must be three values in [0, 100]")


# ---------------------------------------------------------------------------
# Atomic writing (no partial files on failure)
# ---------------------------------------------------------------------------

def write_text_atomic(path: os.PathLike | str, data: str | bytes) -> None:
    """Write text as UTF-8, or bytes as they are, via a temp file + rename so
    readers never see partial output.

    A new file gets the mode ``open(path, "w")`` would give it (0o666 less
    the umask); the temp file is created with it, so the rename publishes a
    file that already has its final mode. The temp file's name does not
    grow with ``path``'s, so only the final name meets the file system's
    name length limit."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # O_EXCL: a name collision raises instead of sharing another writer's file.
    tmp = path.with_name(f".{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    mode, encoding = ("wb", None) if isinstance(data, bytes) else ("w", "utf-8")
    try:
        with os.fdopen(fd, mode, encoding=encoding) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json_atomic(path: os.PathLike | str, obj) -> None:
    """Write ``obj`` as one line of compact JSON (no whitespace between
    tokens, keys in insertion order, non-ASCII as ``\\uXXXX`` escapes) and a
    newline. Reports, aids indexes, keypoint files, annotations and
    exercise configs are all written so; ``python -m json.tool FILE``
    prints one indented. A NaN or infinite float, which JSON cannot hold,
    raises ``ValueError`` before any file is touched."""
    write_text_atomic(path, json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# Keypoint file I/O
#
# Schema (JSON, one object per sequence; written as compact JSON on one
# line, see write_json_atomic, and read whatever its whitespace):
#   {"exercise_id": str, "class": str, "fps": float|null,
#    "frames": [{"id": str, "t": float, "keypoints": <kp>}, ...]}
# where <kp> is either a list of 17 [x, y, conf] rows in COCO order, or a
# mapping {joint_name: [x, y, conf]} in any order (reordered on load). x and
# y are at most MAX_COORDINATE in magnitude, so no square of them overflows.
# "t" may be omitted when "fps" is given; it is synthesized as index / fps.
# Other keys are ignored, at the top and in frames (see "JSON objects read
# by a table" below).
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def input_errors():
    """Raise :class:`ValidationError` for what reading an input file or
    parsing JSON text raises inside the block: an ``OSError`` (a directory,
    no permission), or text that is not JSON (a decode error, bytes that are
    not UTF-8, an integer longer than Python's integer-string digit limit, or
    arrays and objects nested deeper than the decoder's recursion limit). The
    message does not name the file. A missing file raises
    :class:`FileNotFoundError`, whose message does."""
    try:
        yield
    except FileNotFoundError:
        raise
    except OSError as e:
        raise ValidationError(e.strerror) from e
    except ValueError as e:
        raise ValidationError(f"not valid JSON ({e})") from e
    except RecursionError as e:
        raise ValidationError("not valid JSON (nested too deep)") from e


def read_json(path: os.PathLike | str):
    """Parse a UTF-8 JSON file; its faults are :func:`input_errors`'."""
    with input_errors():
        return json.loads(Path(path).read_text(encoding="utf-8"))


def _number(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{where}: {value!r} is not a number") from None


def _finite(value, where: str) -> float:
    """:func:`_number` that also refuses NaN and the infinities."""
    number = _number(value, where)
    if not math.isfinite(number):
        raise ValidationError(f"{where}: must be a finite number, got {value!r}")
    return number


def _json_number(value, where: str, convert=_number) -> float:
    """``convert(value, where)`` of a JSON number. ``float`` would also take
    ``"0.5"`` or ``true``; a file that holds either is refused, not read as a
    number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: {value!r} is not a number")
    return convert(value, where)


def _angle_table(obj, where: str) -> Dict[JointId, Tuple[float, float]]:
    """A ``{joint_name: [min_deg, max_deg]}`` JSON object."""
    if not (isinstance(obj, Mapping) and all(
            isinstance(v, list) and len(v) == 2 for v in obj.values())):
        raise ValidationError(f"{where}: must map joint names to [min, max]")
    return {joint_from_name(n, where): tuple(_number(x, f"{where}.{n}") for x in v)
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
        j = joint_from_name(name, f"frame {frame_idx}")
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
    timestamps, a repeated frame id or an fps that is not positive and
    finite, never with the file; see the module docstring for which fault is
    reported first.
    """
    # The cycle collector is paused while a file is read. A 300-frame file
    # decodes to about 5,700 lists; they outlive the young collections that
    # their own allocation triggers, get promoted and then drive full
    # collections over the whole heap. In a loop of in-process ``assess``
    # calls at T~300 that was about 15 young collections and 2.8 ms of
    # collection per call, and the pause cut full collections from 43 to 2-3
    # per ~330 calls. It is safe: the decoded tree holds no cycles and is
    # freed before this returns, so no garbage outlives the pause. A caller
    # that had the collector off finds it off.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_sequence(path)
    finally:
        if enabled:
            gc.enable()


def _read_sequence(path: os.PathLike | str) -> Sequence:
    doc = read_json(path)
    if not isinstance(doc, dict):
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
        if not isinstance(rf, dict) or "keypoints" not in rf:
            raise ValidationError(f"frame {i}: must be an object with 'keypoints'")
        kp = rf["keypoints"]
        if isinstance(kp, list):
            if len(kp) != N_JOINTS:
                raise ValidationError(f"frame {i}: expected 17 keypoints, got {len(kp)}")
            given = JOINT_NAMES
        elif isinstance(kp, dict):
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
    return Sequence(
        exercise_id=str(doc["exercise_id"]),
        class_label=str(doc["class"]),
        frames=FrameViews(frame_ids, t, rows[..., :2], rows[..., 2]),
        fps_hint=fps,
    )


def sequence_to_dict(seq: Sequence) -> dict:
    rows = np.concatenate((seq.points, seq.confidence[..., None]), axis=2).tolist()
    return {
        "exercise_id": seq.exercise_id,
        "class": seq.class_label,
        "fps": seq.fps_hint,
        "frames": [{"id": fid, "t": t, "keypoints": kp}
                   for fid, t, kp in zip(seq.frame_ids, seq.timestamps.tolist(), rows)],
    }


def save_sequence(seq: Sequence, path: os.PathLike | str) -> None:
    """Write a keypoint file; ``load_sequence(save_sequence(s)) == s`` exactly."""
    write_json_atomic(path, sequence_to_dict(seq))


# ---------------------------------------------------------------------------
# JSON objects read by a table
#
# Exercise configs (config.py), annotations (below), reports (assessment.py),
# motion specs and training configs (cli.py) are read by one table per JSON
# object, ``{key: (convert, default)}``: the one place that says which keys
# exist, which are REQUIRED, what the others default to and how each value is
# converted. Any other key is refused, naming its path: in a file someone
# wrote, a misspelt key would otherwise leave its default in force without a
# word. Retired keys that older files still carry are read and ignored:
# ``rom_limits`` in exercise configs and annotations, ``phase.min_ratio`` and
# ``key_joint_threshold_deg`` in exercise configs. Keypoint files have their
# own reader and ignore unknown keys, since pose estimators add their own,
# such as ``bbox`` or ``score``; a checkpoint's tensor table must match its
# config exactly.
# ---------------------------------------------------------------------------

REQUIRED = object()    # the default of a key that must be given
RETIRED = (None, None)    # the entry of a key that is read and ignored


def read_object(doc, where: str, table: Mapping, kind: str) -> dict:
    """``doc``, a JSON object at the key path ``where`` ("" at a file's top),
    read by ``table`` into ``{key: value}`` in the table's order: a given
    value becomes ``convert(value, its key path)``; an absent one, or a null
    whose default is None, the default. Not an object, a key outside the
    table or a missing ``REQUIRED`` one is a :class:`ValidationError` naming
    ``where`` and the ``kind`` of object. A key whose ``convert`` is None is
    read and left out."""
    at = f"{where}: " if where else ""
    if not isinstance(doc, dict):
        raise ValidationError(f"{at}{kind} must be an object")
    for key in doc:
        if key not in table:
            raise ValidationError(f"{at}unknown {kind} key {key!r}")
    fields = {}
    for key, (convert, default) in table.items():
        if key not in doc and default is REQUIRED:
            raise ValidationError(f"{at}missing {kind} key {key!r}")
        if convert is None:
            continue
        value = doc.get(key, default)
        if key in doc and (value is not None or default is not None):
            value = convert(value, f"{where}.{key}" if where else key)
        fields[key] = value
    return fields


def _as_is(value, where: str):
    return value


def _as_str(value, where: str) -> str:
    return str(value)


def _string(value, where: str) -> str:
    """A JSON string, such as a frame id."""
    if not isinstance(value, str):
        raise ValidationError(f"{where}: must be a string, got {value!r}")
    return value


def _list_of(convert: Callable) -> Callable:
    """The converter of a JSON list: the tuple of each item's ``convert``."""
    def read(value, where: str) -> tuple:
        if not isinstance(value, list):
            raise ValidationError(f"{where}: must be a list, got {value!r}")
        return tuple(convert(item, f"{where}[{i}]") for i, item in enumerate(value))
    return read


def _object_of(table: Mapping, kind: str, build: Callable = dict) -> Callable:
    """The converter of a JSON object read by ``table``: ``build(**fields)``."""
    return lambda value, where: build(**read_object(value, where, table, kind))


def _row(**fields) -> tuple:
    """The fields as a tuple, in their table's order."""
    return tuple(fields.values())


_joints = _list_of(joint_from_name)    # a JSON list of joint names
_strings = _list_of(_string)


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
        "scores": None if ann.scores is None else dict(zip(SCORE_NAMES, ann.scores)),
    }


def save_annotation(ann: Annotation, path: os.PathLike | str) -> None:
    write_json_atomic(path, annotation_to_dict(ann))


_MISTAKE = {"frame_id": (_as_is, REQUIRED), "joint": (joint_from_name, REQUIRED),
            "note": (_as_is, "")}
_SCORES = {key: (_number, REQUIRED) for key in SCORE_NAMES}
_ANNOTATION = {
    "exercise_id": (_as_str, REQUIRED),
    "targeted_joints": (_joints, ()),
    "reference_angles": (_angle_table, {}),
    "per_frame_mistakes": (_list_of(_object_of(_MISTAKE, "annotation mistake", _row)), ()),
    "scores": (_object_of(_SCORES, "annotation scores", _row), None),
    "rom_limits": RETIRED,
}


def load_annotation(path: os.PathLike | str) -> Annotation:
    """Load and validate an annotation file; messages name the key, not the file."""
    return Annotation(**read_object(read_json(path), "", _ANNOTATION, "annotation"))
