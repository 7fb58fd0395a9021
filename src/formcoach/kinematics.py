"""Joint angles, direction-vector descriptors and key-joint selection.

A sequence's descriptor (:class:`JointVectorSequence`) holds, for each of its
T frames, the unit direction vectors between every ordered pair of targeted
joints: a ``(T, P, 2)`` array over P = N*(N-1) pairs for N joints, in a fixed
pair order, and a ``(T, P)`` validity mask. A pair whose joints are occluded
or coincide is masked, not dropped, so every frame has the same layout.
Comparing two frames reduces to the mean cosine similarity over the pairs
valid in both; :func:`pair_dots` (one ``x*x' + y*y'`` product) and
:func:`masked_sum` (a zero-filled sum and a count) are the one kernel that
does this for a single frame pair, a DTW cost-matrix block or a warp path.
:class:`JointVectorField` is the one-frame view, holding the valid pairs only.

Interior angles use a fixed bone topology: each angle-bearing joint has two
neighbors (elbow: shoulder/wrist, knee: hip/ankle, shoulder: elbow/same-side
hip, hip: same-side shoulder/knee). Angles are degrees in [0, 180] and are
invariant under similarity transforms of the input. :func:`interior_angles`
computes them for a whole sequence at once, with the arithmetic of the
one-frame :func:`angle_at`, so the two agree bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence as Seq, Tuple

import numpy as np

from .normalize import CanonicalSkeleton, OccludedJointError
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


class UndefinedAngleError(ValueError):
    """The joint has no interior angle in the bone topology."""


class DescriptorError(ValueError):
    """Joint-vector descriptor could not be built or compared."""


def _norms(v: np.ndarray) -> np.ndarray:
    # vecdot is the BLAS dot behind np.dot, which angle_at takes for its
    # norms, so interior_angles agrees with it bit for bit.
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
    # math.acos, as in angle_at: np.arccos's SIMD form can differ from it in
    # the last bit.
    out = [math.degrees(math.acos(c)) if k else math.nan
           for c, k in zip(cos.ravel().tolist(), ok.ravel().tolist())]
    return np.array(out).reshape(ok.shape)


def angle_at(points: np.ndarray, joint: JointId,
             occluded: np.ndarray | None = None) -> float:
    """Interior angle (degrees) at ``joint`` for a (17, 2) point array.

    The scalar form of :func:`interior_angles`, with the same arithmetic
    (BLAS dot norms and product, ``math.acos``), so both agree bit for bit;
    it is several times faster on one frame, as in per-frame synthesis.
    """
    joint = JointId(joint)
    if joint not in ANGLE_NEIGHBORS:
        raise UndefinedAngleError(f"{joint.name.lower()} has no interior angle")
    a, b = ANGLE_NEIGHBORS[joint]
    if occluded is not None and (occluded[joint] or occluded[a] or occluded[b]):
        raise OccludedJointError(
            f"angle at {joint.name.lower()} needs {a.name.lower()} and "
            f"{b.name.lower()} visible"
        )
    va = points[a] - points[joint]
    vb = points[b] - points[joint]
    na, nb = math.sqrt(np.dot(va, va)), math.sqrt(np.dot(vb, vb))
    if na < COINCIDENT_EPS or nb < COINCIDENT_EPS:
        raise UndefinedAngleError(
            f"degenerate bone at {joint.name.lower()} (zero length)"
        )
    cos = float(np.dot(va, vb) / (na * nb))
    return math.degrees(math.acos(max(-1.0, min(1.0, cos))))


def joint_angle(skel: CanonicalSkeleton, joint: JointId) -> float:
    """Interior angle (degrees in [0, 180]) at a joint of a canonical skeleton."""
    return angle_at(skel.points, joint, skel.occluded)


def ordered_pairs(targeted: Seq[JointId]) -> Tuple[Tuple[JointId, JointId], ...]:
    """Every ordered pair of distinct targeted joints, grouped by first joint."""
    return tuple((a, b) for a in targeted for b in targeted if a != b)


@dataclass(frozen=True)
class JointVectorField:
    """Unit direction vectors between ordered pairs of targeted joints.

    ``lengths`` keeps the pre-normalization segment lengths; short segments
    have ill-conditioned directions and downstream consumers may weight by
    them.
    """

    frame_id: str
    targeted: Tuple[JointId, ...]                    # as requested (sorted)
    pairs: Tuple[Tuple[JointId, JointId], ...]       # pairs actually present
    vectors: np.ndarray                              # (len(pairs), 2), unit
    lengths: np.ndarray = None                       # (len(pairs),)
    skipped: Tuple[Tuple[JointId, JointId], ...] = ()  # degenerate pairs

    def __post_init__(self):
        vec = np.array(self.vectors, dtype=np.float64)
        vec = vec.reshape(len(self.pairs), 2)
        vec.flags.writeable = False
        object.__setattr__(self, "vectors", vec)
        if self.lengths is None:
            lengths = np.ones(len(self.pairs))
        else:
            lengths = np.array(self.lengths, dtype=np.float64).reshape(len(self.pairs))
        lengths.flags.writeable = False
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "targeted", tuple(sorted(JointId(j) for j in self.targeted)))
        object.__setattr__(self, "pairs",
                           tuple((JointId(a), JointId(b)) for a, b in self.pairs))

    def vector_map(self) -> Dict[Tuple[JointId, JointId], np.ndarray]:
        return {p: self.vectors[i] for i, p in enumerate(self.pairs)}


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

    @classmethod
    def of(cls, frames) -> "JointVectorSequence":
        """``frames`` itself, or the stack of a list of :class:`JointVectorField`."""
        if isinstance(frames, cls):
            return frames
        targeted = frames[0].targeted
        if any(f.targeted != targeted for f in frames):
            raise DescriptorError("mismatched targeted joints")
        pairs = ordered_pairs(targeted)
        column = {p: k for k, p in enumerate(pairs)}
        shape = (len(frames), len(pairs))
        vectors, valid, lengths = np.zeros(shape + (2,)), np.zeros(shape, bool), np.zeros(shape)
        for t, f in enumerate(frames):
            try:
                cols = [column[p] for p in f.pairs]
            except KeyError as e:
                raise DescriptorError(f"pair {e} joins untargeted joints") from None
            vectors[t, cols], valid[t, cols], lengths[t, cols] = f.vectors, True, f.lengths
        return cls(tuple(f.frame_id for f in frames), targeted, pairs,
                   vectors, valid, lengths)


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


def joint_vectors(skel: CanonicalSkeleton, targeted: Iterable[JointId],
                  frame_id: str = "") -> JointVectorField:
    """The one-frame case of :func:`sequence_descriptors`.

    Occluded targeted joints are dropped (reducing N) and coincident pairs
    are skipped; both are reported, the former via a log warning.
    """
    seq = sequence_descriptors(skel.points[None], skel.occluded[None],
                               targeted, (frame_id,))
    valid = seq.valid[0]
    return JointVectorField(
        frame_id=frame_id,
        targeted=seq.targeted,
        pairs=tuple(p for p, ok in zip(seq.pairs, valid) if ok),
        vectors=seq.vectors[0][valid],
        lengths=seq.lengths[0][valid],
        skipped=tuple(p for p, ok in zip(seq.pairs, valid)
                      if not ok and not skel.occluded[list(p)].any()),
    )


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


def mean_cosines(av: np.ndarray, ak: np.ndarray, bv: np.ndarray,
                 bk: np.ndarray) -> np.ndarray:
    """Mean cosine over the pairs valid in both frames; arguments as for
    :func:`pair_dots`."""
    dots, both = pair_dots(av, ak, bv, bk)
    sums, counts = masked_sum(dots, both)
    if not counts.all():
        raise DescriptorError("no common usable joint pairs")
    return sums / counts


def frame_cosine(a: JointVectorField, b: JointVectorField) -> float:
    """Mean cosine similarity over corresponding direction vectors, in [-1, 1].

    Both fields must target the same joint set; pairs skipped as degenerate
    on either side are excluded from the mean.
    """
    ab = JointVectorSequence.of([a, b])
    return float(mean_cosines(ab.vectors[:1], ab.valid[:1],
                              ab.vectors[1:], ab.valid[1:])[0])


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
