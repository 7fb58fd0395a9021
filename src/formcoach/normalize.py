"""Skeleton normalization into a canonical comparison space.

Global normalization rotates the torso upright (+y), scales to unit torso
length and moves the body center to the origin; local normalization keeps the
same rotation and scale but anchors a chosen root joint at the origin so limb
positions are comparable across recordings.

The per-frame transform is an invertible similarity map

    canonical = s * R(theta) @ (pixel - center)

Image y points down, canonical y points up; the rotation maps the
hip-midpoint -> shoulder-midpoint vector onto +y directly, which absorbs the
axis flip. The body center is the intersection of the diagonals of the
bounding box computed in the torso-aligned (rotated) frame over non-occluded
joints: computing the box after rotation is what makes the result exactly
invariant under similarity transforms of the input.

:func:`normalize_sequence` normalizes a whole ``(T, 17, 2)`` sequence with its
``(T, 17)`` occlusion mask at once; :func:`normalize_global`,
:func:`normalize_local` and :func:`torso_length` are one-frame cases of the
same torso and rotation helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence as Seq, Tuple

import numpy as np

from .skeleton import DEFAULT_OCCLUSION_THRESHOLD, Frame, JointId, N_JOINTS

# Minimum usable torso length in pixels.
TORSO_EPS = 1e-6


class DegenerateSkeletonError(ValueError):
    """Frame unusable for normalization (collapsed torso)."""


class OccludedJointError(ValueError):
    """A joint required by the operation is occluded."""


def _rot(theta) -> np.ndarray:
    """Rotation matrices of shape (..., 2, 2) for angles of any shape."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack((np.stack((c, -s), -1), np.stack((s, c), -1)), -2)


def _wrap_angle(theta):
    """Wrap angles of any shape to (-pi, pi]."""
    theta = np.fmod(theta, 2.0 * math.pi)
    theta = np.where(theta <= -math.pi, theta + 2.0 * math.pi, theta)
    return np.where(theta > math.pi, theta - 2.0 * math.pi, theta)


@dataclass(frozen=True)
class NormalizationTransform:
    """Similarity map from pixel space to canonical space.

    ``apply(p) = scale * R(theta) @ (p - center)``.
    """

    theta: float                        # radians in (-pi, pi]
    scale: float                        # 1 / torso length in pixels
    center: Tuple[float, float]         # pixels

    def __post_init__(self):
        if not (self.scale > 0.0) or not math.isfinite(self.scale):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        object.__setattr__(self, "theta", float(_wrap_angle(self.theta)))
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map pixel points (.., 2) into canonical space."""
        pts = np.asarray(points, dtype=np.float64)
        return (pts - np.array(self.center)) @ _rot(self.theta).T * self.scale

    def invert(self, points: np.ndarray) -> np.ndarray:
        """Map canonical points (.., 2) back to pixels."""
        pts = np.asarray(points, dtype=np.float64)
        return pts / self.scale @ _rot(-self.theta).T + np.array(self.center)

    def as_tuple(self) -> Tuple[float, float, float, float, float, float]:
        """(theta, dx, dy, s, cx, cy) — the report serialization order, with
        the translation dx, dy always zero."""
        return (self.theta, 0.0, 0.0, self.scale, self.center[0], self.center[1])


@dataclass(frozen=True)
class CanonicalSkeleton:
    """A frame's joints expressed in canonical space, with occlusion flags."""

    points: np.ndarray        # (17, 2) canonical units
    occluded: np.ndarray      # (17,) bool
    transform: NormalizationTransform

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        occ = np.array(self.occluded, dtype=bool)
        if pts.shape != (N_JOINTS, 2) or occ.shape != (N_JOINTS,):
            raise ValueError("canonical skeleton must hold 17 joints")
        pts.flags.writeable = False
        occ.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "occluded", occ)


_TORSO_JOINTS = (JointId.LEFT_SHOULDER, JointId.RIGHT_SHOULDER,
                 JointId.LEFT_HIP, JointId.RIGHT_HIP)


def _torso(points: np.ndarray, occluded: np.ndarray,
           frame_ids: Seq[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Torso lengths (T,) and upright rotations (T,) of (T, 17, 2) points.

    The torso runs from the hip midpoint to the shoulder midpoint, and the
    rotation maps it onto canonical +y. Raises for the first frame whose
    torso joints are occluded or whose torso is degenerate.
    """
    hidden = occluded[:, _TORSO_JOINTS]
    ls, rs, lh, rh = (points[:, j] for j in _TORSO_JOINTS)
    torso = 0.5 * (ls + rs) - 0.5 * (lh + rh)
    length = np.linalg.norm(torso, axis=-1)
    bad = hidden.any(axis=1) | (length < TORSO_EPS)
    if bad.any():
        t = int(bad.argmax())
        if hidden[t].any():
            names = ", ".join(j.name.lower() for j, h in zip(_TORSO_JOINTS, hidden[t]) if h)
            raise OccludedJointError(
                f"frame {frame_ids[t]!r}: torso joints occluded: {names}")
        raise DegenerateSkeletonError(
            f"frame {frame_ids[t]!r}: torso length {length[t]:.3g} px is degenerate")
    return length, _wrap_angle(0.5 * math.pi - np.arctan2(torso[:, 1], torso[:, 0]))


def normalize_sequence(points: np.ndarray, occluded: np.ndarray,
                       frame_ids: Seq[str]
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Center, upright and unit-torso-scale every frame of a sequence.

    ``points`` is (T, 17, 2) pixels and ``occluded`` (T, 17). Returns the
    canonical points (T, 17, 2) and each frame's transform as arrays: theta
    (T,), scale (T,) and center (T, 2), with zero translation. The body
    center is the diagonal intersection of the bounding box over
    non-occluded joints, taken in the torso-aligned frame. The first frame
    that cannot be normalized raises, naming its id.
    """
    length, theta = _torso(points, occluded, frame_ids)
    rot = _rot(theta)
    rotated = points @ rot.mT
    hidden = occluded[..., None]
    box = 0.5 * (np.where(hidden, np.inf, rotated).min(axis=1)
                 + np.where(hidden, -np.inf, rotated).max(axis=1))
    center = (box[:, None] @ rot)[:, 0]
    scale = 1.0 / length
    canonical = (points - center[:, None]) @ rot.mT * scale[:, None, None]
    return canonical, theta, scale, center


class Pose(NamedTuple):
    """A sequence in pixels with the occlusion mask and the per-frame torso
    rotation and scale that :func:`normalize_sequence` found for it."""

    points: np.ndarray      # (T, 17, 2) pixels
    occluded: np.ndarray    # (T, 17) bool
    theta: np.ndarray       # (T,) radians
    scale: np.ndarray       # (T,) 1 / torso length in pixels


def torso_length(frame: Frame,
                 occlusion_threshold: float = DEFAULT_OCCLUSION_THRESHOLD) -> float:
    """Pixel distance between the shoulder midpoint and the hip midpoint."""
    occ = frame.occlusion_mask(occlusion_threshold)
    return float(_torso(frame.points[None], occ[None], (frame.frame_id,))[0][0])


def normalize_global(frame: Frame,
                     occlusion_threshold: float = DEFAULT_OCCLUSION_THRESHOLD
                     ) -> CanonicalSkeleton:
    """The one-frame case of :func:`normalize_sequence`."""
    occ = frame.occlusion_mask(occlusion_threshold)
    points, theta, scale, center = normalize_sequence(frame.points[None], occ[None],
                                                      (frame.frame_id,))
    transform = NormalizationTransform(theta=theta[0], scale=float(scale[0]),
                                       center=(center[0, 0], center[0, 1]))
    return CanonicalSkeleton(points=points[0], occluded=occ, transform=transform)


def normalize_local(frame: Frame, root: JointId,
                    occlusion_threshold: float = DEFAULT_OCCLUSION_THRESHOLD
                    ) -> CanonicalSkeleton:
    """As :func:`normalize_global` but anchor ``root`` at the origin."""
    occ = frame.occlusion_mask(occlusion_threshold)
    length, theta = _torso(frame.points[None], occ[None], (frame.frame_id,))
    root = JointId(root)
    if occ[root]:
        raise OccludedJointError(
            f"frame {frame.frame_id!r}: root joint {root.name.lower()} is occluded"
        )
    center = frame.points[root]
    transform = NormalizationTransform(theta=theta[0], scale=1.0 / float(length[0]),
                                       center=(center[0], center[1]))
    return CanonicalSkeleton(points=transform.apply(frame.points),
                             occluded=occ, transform=transform)
