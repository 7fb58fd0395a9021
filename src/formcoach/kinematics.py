"""Joint angles, direction-vector descriptors and key-joint selection.

A sequence's descriptor (:class:`JointVectorSequence`) holds, for each of its
T frames, the unit direction vectors between every ordered pair of targeted
joints: a ``(T, P, 2)`` array over P = N*(N-1) pairs for N joints, in a fixed
pair order, and a ``(T, P)`` validity mask. A pair whose joints are occluded
or coincide is masked, not dropped, so every frame has the same layout.
Comparing two frames reduces to the mean cosine similarity over the pairs
valid in both; :func:`pair_dots` (one ``x*x' + y*y'`` product) and
:func:`masked_sum` (a zero-filled sum and a count) are the one kernel that
does this along a warp path. The DTW cost matrix compares every frame pair
at once, as GEMMs over the same zero-filled vectors (see ``alignment``).

Interior angles use a fixed bone topology: each angle-bearing joint has two
neighbors (elbow: shoulder/wrist, knee: hip/ankle, shoulder: elbow/same-side
hip, hip: same-side shoulder/knee). Angles are degrees in [0, 180] and are
invariant under similarity transforms of the input. :func:`interior_angles`
computes them for any stack of frames, one frame included.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence as Seq, Tuple

import numpy as np

from .skeleton import JointId

logger = logging.getLogger(__name__)

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

ANGLE_JOINTS = tuple(ANGLE_NEIGHBORS)

# Default key-joint selection threshold: below typical estimator noise
# accumulated over a repetition.
DEFAULT_KEY_JOINT_THRESHOLD_DEG = 15.0

# Two joints closer than this (in the coordinate units of the skeleton) do
# not define a direction.
COINCIDENT_EPS = 1e-9


class DescriptorError(ValueError):
    """Joint-vector descriptor could not be built or compared."""


def _norms(v: np.ndarray) -> np.ndarray:
    # vecdot is a BLAS dot; a plain sum of squares may round the last bit
    # differently and so move report and synthesized angle floats.
    return np.sqrt(np.vecdot(v, v))


def interior_angles(points: np.ndarray, joints: Seq[JointId],
                    occluded: np.ndarray | None = None) -> np.ndarray:
    """Interior angles (degrees) at ``joints`` for points of shape (..., 17, 2).

    Returns shape (..., len(joints)), NaN for a joint without an interior
    angle, at a zero-length bone and, given an occlusion mask (..., 17),
    where the joint or one of its neighbors is occluded.
    """
    joints = [JointId(j) for j in joints]
    # A joint without an angle gets itself as both neighbors: its bones have
    # zero length, so it comes out NaN like any other undefined angle.
    a, b = (np.array(n, dtype=np.intp) for n in zip(
        *(ANGLE_NEIGHBORS.get(j, (j, j)) for j in joints)))
    j = np.array(joints, dtype=np.intp)
    va = points[..., a, :] - points[..., j, :]
    vb = points[..., b, :] - points[..., j, :]
    na, nb = _norms(va), _norms(vb)
    ok = (na >= COINCIDENT_EPS) & (nb >= COINCIDENT_EPS)
    if occluded is not None:
        ok &= ~(occluded[..., j] | occluded[..., a] | occluded[..., b])
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.clip(np.vecdot(va, vb) / (na * nb), -1.0, 1.0)
    # math.acos per element: np.arccos's SIMD form can differ from it in the
    # last bit, which would move report floats and synth's reference ranges.
    out = [math.degrees(math.acos(c)) if k else math.nan
           for c, k in zip(cos.ravel().tolist(), ok.ravel().tolist())]
    return np.array(out).reshape(ok.shape)


def ordered_pairs(targeted: Seq[JointId]) -> Tuple[Tuple[JointId, JointId], ...]:
    """Every ordered pair of distinct targeted joints, grouped by first joint."""
    return tuple((a, b) for a in targeted for b in targeted if a != b)


@dataclass(frozen=True)
class JointVectorSequence:
    """Direction descriptors of a whole sequence; ``len()`` is its frame count.

    Invalid pairs have zero vectors and lengths.
    """

    frame_ids: Tuple[str, ...]
    targeted: Tuple[JointId, ...]                    # sorted
    pairs: Tuple[Tuple[JointId, JointId], ...]       # ordered_pairs(targeted)
    vectors: np.ndarray                              # (T, P, 2), unit
    valid: np.ndarray                                # (T, P) bool
    lengths: np.ndarray                              # (T, P)

    def __len__(self) -> int:
        return len(self.frame_ids)


def sequence_descriptors(points: np.ndarray, occluded: np.ndarray,
                         targeted: Iterable[JointId],
                         frame_ids: Seq[str]) -> JointVectorSequence:
    """Build the N*(N-1) ordered-pair direction descriptor of every frame.

    ``points`` is (T, 17, 2) canonical, ``occluded`` (T, 17). Pairs with an
    occluded joint or coincident joints are masked; occluded targeted joints
    are reported by one log warning per sequence, naming each joint with the
    frames it was dropped from. A frame with fewer than two
    usable joints or no valid pair raises :class:`DescriptorError`.
    """
    requested = tuple(sorted({JointId(j) for j in targeted}))
    if len(requested) < 2:
        raise DescriptorError("need at least 2 targeted joints")
    pairs = ordered_pairs(requested)
    first, second = (np.array(p, dtype=np.intp) for p in zip(*pairs))
    diff = points[:, second] - points[:, first]
    norms = _norms(diff)
    visible = ~occluded
    valid = visible[:, first] & visible[:, second] & (norms >= COINCIDENT_EPS)
    usable = visible[:, list(requested)]
    if not usable.all():
        dropped = "; ".join(
            f"{j.name.lower()} in frames "
            + ", ".join(frame_ids[t] for t in np.flatnonzero(~ok).tolist())
            for j, ok in zip(requested, usable.T) if not ok.all())
        logger.warning("dropping occluded targeted joints: %s", dropped)
    few = usable.sum(axis=1) < 2
    bad = few | ~valid.any(axis=1)
    if bad.any():
        t = int(bad.argmax())
        raise DescriptorError(f"frame {frame_ids[t]!r}: " + (
            "fewer than 2 usable targeted joints" if few[t]
            else "all targeted joint pairs are degenerate"))
    vectors = np.divide(diff, norms[..., None], out=np.zeros_like(diff),
                        where=valid[..., None])
    return JointVectorSequence(tuple(frame_ids), requested, pairs, vectors,
                               valid, np.where(valid, norms, 0.0))


def pair_dots(av: np.ndarray, ak: np.ndarray, bv: np.ndarray,
              bk: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Cosines ``x*x' + y*y'`` of corresponding pair vectors, clipped to
    [-1, 1], and the mask of pairs valid in both frames.

    Vectors are (..., P, 2) and masks (..., P); leading axes broadcast.
    """
    dots = av[..., 0] * bv[..., 0] + av[..., 1] * bv[..., 1]
    return np.clip(dots, -1.0, 1.0, out=dots), ak & bk


def masked_sum(values: np.ndarray, valid: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sum over the last axis of the entries where ``valid``, and their count."""
    return np.where(valid, values, 0.0).sum(axis=-1), valid.sum(axis=-1)


def select_key_joints(points: np.ndarray, occluded: np.ndarray,
                      threshold_deg: float = DEFAULT_KEY_JOINT_THRESHOLD_DEG
                      ) -> List[JointId]:
    """Joints whose interior angle deviates >= threshold between the first
    and last frame of canonical points (T, 17, 2) with their occlusion mask
    (T, 17), sorted by descending deviation."""
    first, last = interior_angles(points[[0, -1]], ANGLE_JOINTS,
                                  occluded[[0, -1]]).tolist()
    deviations = [(abs(b - a), j) for a, b, j in zip(first, last, ANGLE_JOINTS)
                  if not math.isnan(a - b)]
    if not deviations:
        raise DescriptorError("no joint angle computable in first/last frame")
    deviations.sort(key=lambda t: (-t[0], t[1]))
    return [j for d, j in deviations if d >= threshold_deg]
