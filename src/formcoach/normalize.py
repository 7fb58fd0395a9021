"""Skeleton normalization into a canonical comparison space.

:func:`normalize_sequence` normalizes a whole sequence at once: ``(T, 17, 2)``
pixel points with their ``(T, 17)`` occlusion mask. Each frame is rotated so
its torso points up (+y), scaled to unit torso length and moved so its body
center sits at the origin. Its transform is the similarity map

    canonical = s * R(theta) @ (pixel - center)

with ``R(theta) = [[cos, -sin], [sin, cos]]`` and ``s = 1 / torso length``.
The torso runs from the hip midpoint to the shoulder midpoint. Image y points
down, canonical y points up; the rotation maps the torso onto +y directly,
which absorbs the axis flip. The body center is the intersection of the
diagonals of the bounding box of the non-occluded joints, taken in the
rotated frame: computing the box after rotation is what makes the result
exactly invariant under similarity transforms of the input.

Local normalization keeps a frame's rotation and scale but puts a root joint
at the origin instead of the body center; :func:`~formcoach.correction.build_aid`
applies it from the :class:`Pose` to place correction arrows.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence as Seq, Tuple

import numpy as np

from .skeleton import JointId

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
