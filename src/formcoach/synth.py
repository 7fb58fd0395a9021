"""Parametric synthetic skeleton-motion generator with controlled error
injection.

Each template drives a subset of interior joint angles with sinusoidal
repetition trajectories ``angle(u) = base + amplitude * sin(pi*u)^2`` over
``u in [0, 1]`` and builds 2D keypoints by forward kinematics over fixed
anthropometric limb ratios (torso 1.0, upper arm 0.55, forearm 0.5, thigh
0.8, shank 0.75, in torso units). Coordinates are emitted in image pixels
(y down) at 100 px per torso unit.

Error injection:

* ``angle_offset_deg`` on an elbow/knee: the joint is rotated about its
  parent (shoulder/hip) so its interior angle changes by exactly the given
  magnitude while everything distal keeps its world direction. The joint
  itself moves; its parent's angle shifts by the same amount without moving.
* ``speed_factor``: frame intervals inside the chosen phase are divided by
  the factor (2.0 halves the phase duration).
* ``rom_truncation_fraction``: the driven amplitude of the joint is scaled
  by ``1 - magnitude`` (0.5 removes half the range of motion).

``generate`` also emits the matching ground-truth annotation: targeted
joints, reference angle ranges measured on the clean sampled trajectory and
the frames where injections were active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence as Seq, Tuple

import numpy as np

from .config import ExerciseConfig, PhaseConfig
from .kinematics import ANGLE_NEIGHBORS, interior_angles
from .skeleton import (Annotation, Frame, JointId, Sequence, ValidationError,
                       _check_fps)

PX_PER_UNIT = 100.0
PX_ORIGIN = (320.0, 300.0)

MIN_FRAMES = 8

ERROR_KINDS = ("angle_offset_deg", "speed_factor", "rom_truncation_fraction")
PHASES = ("all", "eccentric", "concentric")

# Limb lengths in torso units.
_L_UPPER_ARM = 0.55
_L_FOREARM = 0.5
_L_THIGH = 0.8
_L_SHANK = 0.75

# Joints that may carry an angle_offset injection: rotated about this parent,
# dragging these descendants along.
_OFFSET_PARENT = {
    JointId.LEFT_ELBOW: JointId.LEFT_SHOULDER,
    JointId.RIGHT_ELBOW: JointId.RIGHT_SHOULDER,
    JointId.LEFT_KNEE: JointId.LEFT_HIP,
    JointId.RIGHT_KNEE: JointId.RIGHT_HIP,
}
_OFFSET_DESCENDANTS = {
    JointId.LEFT_ELBOW: (JointId.LEFT_WRIST,),
    JointId.RIGHT_ELBOW: (JointId.RIGHT_WRIST,),
    JointId.LEFT_KNEE: (JointId.LEFT_ANKLE,),
    JointId.RIGHT_KNEE: (JointId.RIGHT_ANKLE,),
}


@dataclass(frozen=True)
class InjectedError:
    """One controlled mistake to bake into the generated sequence."""

    kind: str
    magnitude: float
    joint: Optional[JointId] = None
    phase: str = "all"

    def __post_init__(self):
        if self.kind not in ERROR_KINDS:
            raise ValidationError(f"unknown error kind {self.kind!r}")
        if self.phase not in PHASES:
            raise ValidationError(f"unknown phase {self.phase!r}")
        if not math.isfinite(self.magnitude):
            raise ValidationError("error magnitude must be finite")
        if self.joint is not None:
            object.__setattr__(self, "joint", JointId(self.joint))
        if self.kind == "angle_offset_deg" and self.joint not in _OFFSET_PARENT:
            allowed = ", ".join(j.name.lower() for j in _OFFSET_PARENT)
            raise ValidationError(f"angle_offset_deg supports: {allowed}")
        if self.kind == "rom_truncation_fraction" and not 0.0 <= self.magnitude < 1.0:
            raise ValidationError("rom_truncation_fraction must be in [0, 1)")
        if self.kind == "speed_factor" and self.magnitude <= 0.0:
            raise ValidationError("speed_factor must be positive")


@dataclass(frozen=True)
class MotionSpec:
    """What to generate: template, length, amplitudes, noise and injections."""

    template: str
    n_frames: int = 48
    fps: float = 30.0
    amplitude_deg: Optional[Mapping] = None    # joint -> amplitude magnitude override
    noise_std: float = 0.0                     # pixel-space Gaussian noise
    injected_errors: Tuple[InjectedError, ...] = ()
    class_label: Optional[str] = None          # default: wrong if injected else groundtruth

    def __post_init__(self):
        if self.n_frames < MIN_FRAMES:
            raise ValidationError(f"n_frames must be >= {MIN_FRAMES}")
        _check_fps(self.fps)
        if not (0 <= self.noise_std < math.inf):
            raise ValidationError("noise_std must be finite and >= 0")
        object.__setattr__(self, "injected_errors", tuple(self.injected_errors))
        if self.amplitude_deg is not None:
            amp = {JointId(k) if not isinstance(k, str) else _joint_key(k): float(v)
                   for k, v in dict(self.amplitude_deg).items()}
            object.__setattr__(self, "amplitude_deg", amp)


def _joint_key(name: str) -> JointId:
    from .skeleton import joint_from_name
    return joint_from_name(name)


@dataclass(frozen=True)
class _Template:
    name: str
    body_class: str
    driven: Dict[JointId, Tuple[float, float]]     # joint -> (base_deg, signed amp_deg)
    static_angles: Dict[JointId, float]
    targeted: Tuple[JointId, ...]
    primary: JointId
    eccentric_direction: str


TEMPLATES: Dict[str, _Template] = {
    # Left/right parameters differ slightly so no pair of targeted joints
    # ever crosses through coincidence mid-trajectory (which would make the
    # pair's direction vector ill-conditioned).
    "squat": _Template(
        name="squat",
        body_class="Lower",
        driven={
            JointId.LEFT_KNEE: (175.0, -85.0),
            JointId.RIGHT_KNEE: (171.0, -80.0),
            JointId.LEFT_HIP: (175.0, -75.0),
            JointId.RIGHT_HIP: (172.0, -71.0),
        },
        static_angles={
            JointId.LEFT_SHOULDER: 25.0,
            JointId.RIGHT_SHOULDER: 29.0,
            JointId.LEFT_ELBOW: 165.0,
            JointId.RIGHT_ELBOW: 160.0,
        },
        targeted=(JointId.LEFT_HIP, JointId.RIGHT_HIP, JointId.LEFT_KNEE,
                  JointId.RIGHT_KNEE, JointId.LEFT_ANKLE, JointId.RIGHT_ANKLE),
        primary=JointId.LEFT_KNEE,
        eccentric_direction="decreasing",
    ),
    "press": _Template(
        name="press",
        body_class="Upper",
        driven={
            JointId.LEFT_ELBOW: (75.0, 95.0),
            JointId.RIGHT_ELBOW: (90.0, 72.0),
            JointId.LEFT_SHOULDER: (30.0, 120.0),
            JointId.RIGHT_SHOULDER: (48.0, 84.0),
        },
        static_angles={
            JointId.LEFT_HIP: 175.0, JointId.RIGHT_HIP: 172.0,
            JointId.LEFT_KNEE: 175.0, JointId.RIGHT_KNEE: 171.0,
        },
        targeted=(JointId.LEFT_SHOULDER, JointId.RIGHT_SHOULDER,
                  JointId.LEFT_ELBOW, JointId.RIGHT_ELBOW,
                  JointId.LEFT_WRIST, JointId.RIGHT_WRIST),
        primary=JointId.LEFT_ELBOW,
        eccentric_direction="decreasing",
    ),
    "pull": _Template(
        name="pull",
        body_class="Upper",
        driven={
            JointId.LEFT_ELBOW: (170.0, -110.0),
            JointId.RIGHT_ELBOW: (165.0, -95.0),
            JointId.LEFT_SHOULDER: (160.0, -120.0),
            JointId.RIGHT_SHOULDER: (154.0, -100.0),
        },
        static_angles={
            JointId.LEFT_HIP: 175.0, JointId.RIGHT_HIP: 172.0,
            JointId.LEFT_KNEE: 170.0, JointId.RIGHT_KNEE: 167.0,
        },
        targeted=(JointId.LEFT_SHOULDER, JointId.RIGHT_SHOULDER,
                  JointId.LEFT_ELBOW, JointId.RIGHT_ELBOW,
                  JointId.LEFT_WRIST, JointId.RIGHT_WRIST),
        primary=JointId.LEFT_ELBOW,
        eccentric_direction="increasing",
    ),
}


# ---------------------------------------------------------------------------
# Forward kinematics (torso units, image coordinates: y grows downward)
# ---------------------------------------------------------------------------

def _rot2(v: np.ndarray, deg: float) -> np.ndarray:
    rad = math.radians(deg)
    c, s = math.cos(rad), math.sin(rad)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _fk_points(angles: Mapping[JointId, float]) -> np.ndarray:
    """Build all 17 joints (torso units) from interior-angle parameters.

    The rotation sign per side only sets which way limbs fold; interior
    angles equal the parameters exactly either way.
    """
    pts = np.zeros((17, 2))
    hip_mid = np.array([0.0, 0.0])
    shoulder_mid = np.array([0.0, -1.0])
    pts[JointId.LEFT_HIP] = hip_mid + (0.15, 0.0)
    pts[JointId.RIGHT_HIP] = hip_mid + (-0.15, 0.0)
    pts[JointId.LEFT_SHOULDER] = shoulder_mid + (0.2, 0.0)
    pts[JointId.RIGHT_SHOULDER] = shoulder_mid + (-0.2, 0.0)
    pts[JointId.NOSE] = shoulder_mid + (0.0, -0.25)
    pts[JointId.LEFT_EYE] = shoulder_mid + (0.04, -0.3)
    pts[JointId.RIGHT_EYE] = shoulder_mid + (-0.04, -0.3)
    pts[JointId.LEFT_EAR] = shoulder_mid + (0.08, -0.27)
    pts[JointId.RIGHT_EAR] = shoulder_mid + (-0.08, -0.27)

    for side, sign in (("LEFT", -1.0), ("RIGHT", 1.0)):
        sh = JointId[f"{side}_SHOULDER"]
        el = JointId[f"{side}_ELBOW"]
        wr = JointId[f"{side}_WRIST"]
        hp = JointId[f"{side}_HIP"]
        kn = JointId[f"{side}_KNEE"]
        an = JointId[f"{side}_ANKLE"]

        down = _unit(pts[hp] - pts[sh])
        ua_dir = _rot2(down, sign * angles[sh])
        pts[el] = pts[sh] + _L_UPPER_ARM * ua_dir
        fa_dir = _rot2(-ua_dir, sign * angles[el])
        pts[wr] = pts[el] + _L_FOREARM * fa_dir

        # legs fold the opposite way so knees point outward, never crossing
        up = _unit(pts[sh] - pts[hp])
        thigh_dir = _rot2(up, -sign * angles[hp])
        pts[kn] = pts[hp] + _L_THIGH * thigh_dir
        shank_dir = _rot2(-thigh_dir, -sign * angles[kn])
        pts[an] = pts[kn] + _L_SHANK * shank_dir
    return pts


def _trajectory_angles(template: _Template, spec: MotionSpec,
                       u: np.ndarray, apply_rom: bool) -> List[Dict[JointId, float]]:
    amps: Dict[JointId, Tuple[float, float]] = dict(template.driven)
    if spec.amplitude_deg:
        for j, mag in spec.amplitude_deg.items():
            if j not in amps:
                raise ValidationError(
                    f"{j.name.lower()} is not a driven joint of {template.name!r}"
                )
            base, amp = amps[j]
            amps[j] = (base, math.copysign(abs(mag), amp))
    if apply_rom:
        for err in spec.injected_errors:
            if err.kind != "rom_truncation_fraction":
                continue
            if err.joint not in amps:
                raise ValidationError(
                    f"rom_truncation joint {err.joint} is not driven by "
                    f"{template.name!r}"
                )
            base, amp = amps[err.joint]
            amps[err.joint] = (base, amp * (1.0 - err.magnitude))

    sin2 = np.sin(np.pi * u) ** 2
    out = []
    for k in range(len(u)):
        frame_angles = dict(template.static_angles)
        for j, (base, amp) in amps.items():
            frame_angles[j] = base + amp * sin2[k]
        out.append(frame_angles)
    return out


def _frame_phases(template: _Template, u: np.ndarray) -> List[str]:
    """Phase label per frame from the primary-angle derivative sign at the
    frame's leading interval midpoint."""
    base, amp = template.driven[template.primary]
    n = len(u)
    labels = []
    for i in range(n):
        if i < n - 1:
            mid = 0.5 * (u[i] + u[i + 1])
        else:
            mid = 0.5 * (u[i - 1] + u[i])
        deriv = amp * math.sin(2.0 * math.pi * mid)
        decreasing = deriv < 0
        if template.eccentric_direction == "decreasing":
            labels.append("eccentric" if decreasing else "concentric")
        else:
            labels.append("eccentric" if not decreasing else "concentric")
    return labels


def _apply_angle_offset(points: np.ndarray, joint: JointId, magnitude: float,
                        active: np.ndarray) -> np.ndarray:
    """``points`` (T, 17, 2) with ``joint`` rotated about its parent so its
    interior angle changes by exactly ``magnitude`` degrees on the
    ``active`` frames; distal joints translate with it.
    """
    parent = _OFFSET_PARENT[joint]
    clean = interior_angles(points, (joint,))[:, 0]
    bone = points[active, joint] - points[active, parent]
    for sign in (-1.0, 1.0):
        out = points.copy()
        out[active, joint] = points[active, parent] + _rot2(bone.T, sign * magnitude).T
        shift = out[active, joint] - points[active, joint]
        for d in _OFFSET_DESCENDANTS[joint]:
            out[active, d] += shift
        delta = np.abs(interior_angles(out, (joint,))[:, 0] - clean)
        if np.all(np.abs(delta - abs(magnitude))[active] <= 1e-6):
            return out
    raise ValidationError(
        f"angle offset {magnitude} deg on {joint.name.lower()} is not "
        f"realizable over this trajectory"
    )


def _timestamps(spec: MotionSpec, phases: Seq[str]) -> np.ndarray:
    n = spec.n_frames
    dt = np.full(n - 1, 1.0 / spec.fps)
    for err in spec.injected_errors:
        if err.kind != "speed_factor":
            continue
        for k in range(n - 1):
            # interval k runs from frame k to k+1; it belongs to frame k's phase
            if err.phase == "all" or phases[k] == err.phase:
                dt[k] = dt[k] / err.magnitude
    return np.concatenate([[0.0], np.cumsum(dt)])


def generate(spec: MotionSpec, seed: int = 0) -> Tuple[Sequence, Annotation]:
    """Generate a keypoint sequence and its ground-truth annotation."""
    if spec.template not in TEMPLATES:
        raise ValidationError(
            f"unknown template {spec.template!r}; have {sorted(TEMPLATES)}"
        )
    template = TEMPLATES[spec.template]
    n = spec.n_frames
    u = np.linspace(0.0, 1.0, n)
    phases = _frame_phases(template, u)

    clean_angle_sets = _trajectory_angles(template, spec, u, apply_rom=False)
    clean_points = np.stack([_fk_points(a) for a in clean_angle_sets])

    injected_angle_sets = _trajectory_angles(template, spec, u, apply_rom=True)
    points = np.stack([_fk_points(a) for a in injected_angle_sets])

    mistakes: List[Tuple[str, JointId, str]] = []
    frame_ids = [f"f{i:04d}" for i in range(n)]

    for err in spec.injected_errors:
        if err.kind == "angle_offset_deg":
            active = np.array([err.phase in ("all", p) for p in phases])
            points = _apply_angle_offset(points, err.joint, err.magnitude, active)
            for i in range(n):
                if active[i]:
                    mistakes.append((frame_ids[i], err.joint,
                                     f"angle_offset_deg={err.magnitude:g}"))
        elif err.kind == "rom_truncation_fraction":
            for i in range(n):
                mistakes.append((frame_ids[i], err.joint,
                                 f"rom_truncation_fraction={err.magnitude:g}"))
        elif err.kind == "speed_factor":
            joint = err.joint if err.joint is not None else template.primary
            for i in range(n):
                if err.phase == "all" or phases[i] == err.phase:
                    mistakes.append((frame_ids[i], joint,
                                     f"speed_factor={err.magnitude:g}"))

    rng = np.random.default_rng(seed)
    px = points * PX_PER_UNIT + np.array(PX_ORIGIN)
    if spec.noise_std > 0:
        px = px + rng.normal(0.0, spec.noise_std, px.shape)

    ts = _timestamps(spec, phases)
    frames = tuple(
        Frame(frame_id=frame_ids[i], timestamp=float(ts[i]), points=px[i],
              confidence=np.ones(17))
        for i in range(n)
    )
    class_label = spec.class_label or ("wrong" if spec.injected_errors else "groundtruth")
    seq = Sequence(exercise_id=template.name, class_label=class_label,
                   frames=frames, fps_hint=spec.fps)

    angle_joints = [j for j in template.targeted if j in ANGLE_NEIGHBORS]
    clean_angles = interior_angles(clean_points, angle_joints)
    reference_angles = {j: (float(series.min()), float(series.max()))
                        for j, series in zip(angle_joints, clean_angles.T)}
    annotation = Annotation(
        exercise_id=template.name,
        targeted_joints=template.targeted,
        reference_angles=reference_angles,
        per_frame_mistakes=tuple(mistakes),
    )
    return seq, annotation


def exercise_config(template_name: str,
                    annotation: Optional[Annotation] = None,
                    **overrides) -> ExerciseConfig:
    """Build an :class:`ExerciseConfig` matching a template; reference angle
    ranges are taken from ``annotation`` when given."""
    template = TEMPLATES[template_name]
    kwargs = dict(
        exercise_id=template.name,
        body_class=template.body_class,
        phase=PhaseConfig(primary_joint=template.primary,
                          eccentric_direction=template.eccentric_direction),
        targeted_joints=template.targeted,
        reference_angles=dict(annotation.reference_angles) if annotation else {},
    )
    kwargs.update(overrides)
    return ExerciseConfig(**kwargs)
