"""Skeleton normalization into a canonical comparison space.

:func:`normalize_sequence` normalizes a whole sequence at once: ``(T, 17, 2)``
pixel points with their ``(T, 17)`` occlusion mask. Each frame is rotated so
its torso points up (+y), scaled to unit torso length and moved so its body
center sits at the origin. Its transform is the similarity map

    canonical = scale * rotate(pixel - center, cos(theta), sin(theta))

with ``scale = 1 / torso length``. Like all 2-vector arithmetic here, it is
elementwise ``+ - * / sqrt`` and ``math``: the same bits under any BLAS or CPU.
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

from .skeleton import JointId, ValidationError

# Minimum usable torso length in pixels.
TORSO_EPS = 1e-6


class DegenerateSkeletonError(ValidationError):
    """Frame unusable for normalization (collapsed torso); the CLI exits 3."""


def norms(v: np.ndarray) -> np.ndarray:
    """Lengths ``sqrt(x*x + y*y)`` of 2-vectors (..., 2)."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1])


def rotate(v: np.ndarray, c, s) -> np.ndarray:
    """2-vectors (..., 2) rotated by the angles whose cosines ``c`` and sines
    ``s`` broadcast against (...): ``(c*x - s*y, s*x + c*y)``."""
    x, y = v[..., 0], v[..., 1]
    return np.stack((c * x - s * y, s * x + c * y), axis=-1)


def cos_sin(theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``math.cos`` and ``math.sin`` of each angle, as two arrays of its shape."""
    flat = theta.ravel().tolist()
    return tuple(np.reshape(list(map(f, flat)), theta.shape) for f in (math.cos, math.sin))


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
    length = norms(torso)
    bad = hidden.any(axis=1) | (length < TORSO_EPS)
    if bad.any():
        t = int(bad.argmax())
        if hidden[t].any():
            names = ", ".join(j.name.lower() for j, h in zip(_TORSO_JOINTS, hidden[t]) if h)
            raise ValidationError(
                f"frame {frame_ids[t]!r}: torso joints occluded: {names}")
        raise DegenerateSkeletonError(
            f"frame {frame_ids[t]!r}: torso length {length[t]:.3g} px is degenerate")
    return length, np.array([math.atan2(x, y) for x, y in torso.tolist()])


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
    c, s = cos_sin(theta[:, None])
    rotated = rotate(points, c, s)
    hidden = occluded[..., None]
    box = 0.5 * (np.where(hidden, np.inf, rotated).min(axis=1)
                 + np.where(hidden, -np.inf, rotated).max(axis=1))
    center = rotate(box, c[:, 0], -s[:, 0])
    scale = 1.0 / length
    canonical = rotate(points - center[:, None], c, s) * scale[:, None, None]
    return canonical, theta, scale, center


class Pose(NamedTuple):
    """A sequence in pixels with the occlusion mask and the per-frame torso
    rotation and scale that :func:`normalize_sequence` found for it."""

    points: np.ndarray      # (T, 17, 2) pixels
    occluded: np.ndarray    # (T, 17) bool
    theta: np.ndarray       # (T,) radians
    scale: np.ndarray       # (T,) 1 / torso length in pixels
