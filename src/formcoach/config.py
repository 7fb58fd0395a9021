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

from .kinematics import DEFAULT_KEY_JOINT_THRESHOLD_DEG
from .skeleton import (DEFAULT_OCCLUSION_THRESHOLD, JointId, ValidationError,
                       _angle_ranges, _angle_table, _key, _list, _number,
                       joint_from_name, read_json, write_json_atomic)

BODY_CLASSES = ("Upper", "Lower", "Both")

# Threshold on per-joint deviation above which a local maximum becomes a
# mistake flag.
DEFAULT_MISTAKE_THRESHOLD = 0.25


def require_threshold(value: float, name: str) -> None:
    """Raise a :class:`ValidationError` unless ``value`` is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class PhaseConfig:
    """How to segment the repetition and judge its tempo."""

    primary_joint: JointId
    eccentric_direction: str = "decreasing"   # "decreasing" | "increasing"

    def __post_init__(self):
        object.__setattr__(self, "primary_joint", JointId(self.primary_joint))
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
    targeted_joints: Optional[Tuple[JointId, ...]] = None   # None -> auto-select
    reference_angles: Dict[JointId, Tuple[float, float]] = field(default_factory=dict)
    key_joint_threshold_deg: float = DEFAULT_KEY_JOINT_THRESHOLD_DEG
    mistake_threshold: float = DEFAULT_MISTAKE_THRESHOLD
    occlusion_threshold: float = DEFAULT_OCCLUSION_THRESHOLD
    pace_ratio_weight: float = 0.5
    rules: Tuple[CorrectionRule, ...] = ()

    def __post_init__(self):
        if self.body_class not in BODY_CLASSES:
            raise ValidationError(
                f"class must be one of {BODY_CLASSES}, got {self.body_class!r}"
            )
        if self.targeted_joints is not None:
            self.targeted_joints = tuple(JointId(j) for j in self.targeted_joints)
        self.reference_angles = _angle_ranges(self.reference_angles)
        for thr_name in ("key_joint_threshold_deg", "mistake_threshold",
                         "occlusion_threshold"):
            require_threshold(getattr(self, thr_name), thr_name)
        if not 0.0 <= self.pace_ratio_weight <= 1.0:
            raise ValidationError("pace_ratio_weight must be in [0, 1]")
        self.rules = tuple(self.rules)


def _angles_to_json(table: Dict[JointId, Tuple[float, float]]) -> dict:
    return {j.name.lower(): [lo, hi] for j, (lo, hi) in table.items()}


def config_to_dict(cfg: ExerciseConfig) -> dict:
    return {
        "exercise_id": cfg.exercise_id,
        "class": cfg.body_class,
        "targeted_joints": None if cfg.targeted_joints is None else
                           [j.name.lower() for j in cfg.targeted_joints],
        "reference_angles": _angles_to_json(cfg.reference_angles),
        "key_joint_threshold_deg": cfg.key_joint_threshold_deg,
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


def load_exercise_config(path: os.PathLike | str) -> ExerciseConfig:
    """Load and validate an exercise config; messages name the key, not the file."""
    doc = read_json(path)
    if not isinstance(doc, dict) or "exercise_id" not in doc or "phase" not in doc:
        raise ValidationError("not an exercise config file")
    ph = doc["phase"]
    targeted = doc.get("targeted_joints")

    def number(key: str, default: float) -> float:
        return _number(doc.get(key, default), key)

    rules = []
    for i, r in enumerate(_list(doc.get("rules", []), "rules")):
        where = f"rules[{i}]"
        rules.append(CorrectionRule(
            joint=joint_from_name(_key(r, "joint", where)),
            message=str(_key(r, "message", where)),
            phase=r.get("phase"),
            **{k: _number(r[k], f"{where}.{k}")
               for k in ("angle_above", "angle_below", "deviation_above")
               if r.get(k) is not None}))
    return ExerciseConfig(
        exercise_id=str(doc["exercise_id"]),
        body_class=str(doc.get("class", "Both")),
        phase=PhaseConfig(
            primary_joint=joint_from_name(_key(ph, "primary_joint", "phase")),
            eccentric_direction=ph.get("eccentric_direction", "decreasing"),
        ),
        targeted_joints=None if targeted is None else tuple(
            joint_from_name(n) for n in _list(targeted, "targeted_joints")),
        reference_angles=_angle_table(doc.get("reference_angles", {}),
                                      "reference_angles"),
        key_joint_threshold_deg=number("key_joint_threshold_deg",
                                       DEFAULT_KEY_JOINT_THRESHOLD_DEG),
        mistake_threshold=number("mistake_threshold", DEFAULT_MISTAKE_THRESHOLD),
        occlusion_threshold=number("occlusion_threshold", DEFAULT_OCCLUSION_THRESHOLD),
        pace_ratio_weight=number("pace_ratio_weight", 0.5),
        rules=tuple(rules),
    )
