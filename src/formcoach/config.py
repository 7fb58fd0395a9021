"""Per-exercise configuration: targeted joints, angle tables, phase and
scoring parameters, and the correction rule table.

Everything the assessment pipeline treats as exercise knowledge lives here so
tests (and users) can pin every constant.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .skeleton import (ANGLE_NEIGHBORS, DEFAULT_OCCLUSION_THRESHOLD, REQUIRED,
                       RETIRED, JointId, ValidationError, _angle_ranges, _angle_table,
                       _as_is, _as_str, _finite, _joints, _list_of, _number, _object_of,
                       joint_from_name, read_json, read_object, write_json_atomic)

BODY_CLASSES = ("Upper", "Lower", "Both")

# Threshold on per-joint deviation above which a local maximum becomes a
# mistake flag.
DEFAULT_MISTAKE_THRESHOLD = 0.25


def require_threshold(value: float, name: str, most: float = math.inf) -> None:
    """Raise a :class:`ValidationError` unless ``value`` is finite, >= 0 and
    at most ``most``."""
    if not (math.isfinite(value) and 0 <= value <= most):
        bound = "" if most == math.inf else f", at most {most:g}"
        raise ValidationError(
            f"{name} must be finite and non-negative{bound}, got {value!r}")


@dataclass(frozen=True)
class PhaseConfig:
    """How to segment the repetition and judge its tempo."""

    primary_joint: JointId
    eccentric_direction: str = "decreasing"   # "decreasing" | "increasing"

    def __post_init__(self):
        object.__setattr__(self, "primary_joint", JointId(self.primary_joint))
        if self.primary_joint not in ANGLE_NEIGHBORS:
            raise ValidationError(f"primary_joint {self.primary_joint.name.lower()!r} "
                                  "has no interior angle")
        if self.eccentric_direction not in ("decreasing", "increasing"):
            raise ValidationError(
                f"eccentric_direction must be decreasing/increasing, "
                f"got {self.eccentric_direction!r}"
            )


@dataclass(frozen=True)
class CorrectionRule:
    """Maps a (joint, deviation pattern) to a coaching message.

    Predicate fields are optional; all provided ones must hold. ``phase``
    restricts the rule to flags raised inside that phase.
    """

    joint: JointId
    message: str
    angle_above: Optional[float] = None
    angle_below: Optional[float] = None
    deviation_above: Optional[float] = None
    phase: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "joint", JointId(self.joint))

    def matches(self, joint: JointId, deviation: float,
                angle: Optional[float], phase: str) -> bool:
        if joint != self.joint:
            return False
        if self.phase is not None and phase != self.phase:
            return False
        if self.deviation_above is not None and not deviation > self.deviation_above:
            return False
        if self.angle_above is not None:
            if angle is None or not angle > self.angle_above:
                return False
        if self.angle_below is not None:
            if angle is None or not angle < self.angle_below:
                return False
        return True


@dataclass
class ExerciseConfig:
    """All per-exercise knowledge the pipeline consumes."""

    exercise_id: str
    body_class: str                                         # Upper | Lower | Both
    phase: PhaseConfig
    targeted_joints: Tuple[JointId, ...]                    # 2+ distinct; no default
    reference_angles: Dict[JointId, Tuple[float, float]] = field(default_factory=dict)
    mistake_threshold: float = DEFAULT_MISTAKE_THRESHOLD
    occlusion_threshold: float = DEFAULT_OCCLUSION_THRESHOLD
    pace_ratio_weight: float = 0.5
    rules: Tuple[CorrectionRule, ...] = ()

    def __post_init__(self):
        if self.body_class not in BODY_CLASSES:
            raise ValidationError(
                f"class must be one of {BODY_CLASSES}, got {self.body_class!r}"
            )
        self.targeted_joints = tuple(JointId(j) for j in self.targeted_joints)
        if len(set(self.targeted_joints)) < 2:
            names = [j.name.lower() for j in self.targeted_joints]
            raise ValidationError(
                f"targeted_joints: need at least 2 distinct joints, got {names}")
        self.reference_angles = _angle_ranges(self.reference_angles)
        require_threshold(self.mistake_threshold, "mistake_threshold")
        # Above 1, the largest confidence, an occlusion threshold hides every joint.
        require_threshold(self.occlusion_threshold, "occlusion_threshold", 1.0)
        if not 0.0 <= self.pace_ratio_weight <= 1.0:
            raise ValidationError("pace_ratio_weight must be in [0, 1]")
        self.rules = tuple(self.rules)


def _angles_to_json(table: Dict[JointId, Tuple[float, float]]) -> dict:
    return {j.name.lower(): [lo, hi] for j, (lo, hi) in table.items()}


def config_to_dict(cfg: ExerciseConfig) -> dict:
    return {
        "exercise_id": cfg.exercise_id,
        "class": cfg.body_class,
        "targeted_joints": [j.name.lower() for j in cfg.targeted_joints],
        "reference_angles": _angles_to_json(cfg.reference_angles),
        "mistake_threshold": cfg.mistake_threshold,
        "occlusion_threshold": cfg.occlusion_threshold,
        "pace_ratio_weight": cfg.pace_ratio_weight,
        "phase": {
            "primary_joint": cfg.phase.primary_joint.name.lower(),
            "eccentric_direction": cfg.phase.eccentric_direction,
        },
        "rules": [
            {
                "joint": r.joint.name.lower(),
                "message": r.message,
                "angle_above": r.angle_above,
                "angle_below": r.angle_below,
                "deviation_above": r.deviation_above,
                "phase": r.phase,
            }
            for r in cfg.rules
        ],
    }


def save_exercise_config(cfg: ExerciseConfig, path: os.PathLike | str) -> None:
    write_json_atomic(path, config_to_dict(cfg))


# The keys of an exercise config, its phase and its rules; numbers may be
# given as text, as float() reads them.
_PHASE = {
    "primary_joint": (joint_from_name, REQUIRED),
    "eccentric_direction": (_as_is, "decreasing"),
    "min_ratio": RETIRED,
}
_RULE = {
    "joint": (joint_from_name, REQUIRED),
    "message": (_as_str, REQUIRED),
    "angle_above": (_finite, None),
    "angle_below": (_finite, None),
    "deviation_above": (_finite, None),
    "phase": (_as_is, None),
}
_EXERCISE_CONFIG = {
    "exercise_id": (_as_str, REQUIRED),
    "class": (_as_str, "Both"),
    "targeted_joints": (_joints, REQUIRED),
    "reference_angles": (_angle_table, {}),
    "mistake_threshold": (_number, DEFAULT_MISTAKE_THRESHOLD),
    "occlusion_threshold": (_number, DEFAULT_OCCLUSION_THRESHOLD),
    "pace_ratio_weight": (_number, 0.5),
    "phase": (_object_of(_PHASE, "phase", PhaseConfig), REQUIRED),
    "rules": (_list_of(_object_of(_RULE, "correction rule", CorrectionRule)), ()),
    "rom_limits": RETIRED,
    "key_joint_threshold_deg": RETIRED,
}


def load_exercise_config(path: os.PathLike | str) -> ExerciseConfig:
    """Load and validate an exercise config; messages name the key, not the file."""
    fields = read_object(read_json(path), "", _EXERCISE_CONFIG, "exercise config")
    return ExerciseConfig(body_class=fields.pop("class"), **fields)
