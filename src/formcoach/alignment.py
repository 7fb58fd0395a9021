"""Temporal alignment and pace analysis.

Candidate and reference sequences are aligned with dynamic time warping over
their direction-vector descriptors (:class:`JointVectorSequence`). The step
cost between candidate frame i and reference frame j is

    cost(i, j) = max(0, 1 - (1 / |P_ij|) * sum over p in P_ij of u_ip . v_jp)

where u_ip and v_jp are the unit vectors of pair p and P_ij is the set of
pairs valid in both frames. The path minimizes the accumulated cost

    acc(i, j) = cost(i, j) + min(acc(i-1, j-1), acc(i-1, j), acc(i, j-1))

from (0, 0) to (m-1, n-1). Invalid pairs have zero vectors, so the m x n cost
matrix is two GEMMs over the ``(T, 2P)`` flattened descriptors and the
``(T, P)`` masks: one for the pair sums and one for the common-pair counts,
a block of candidate rows at a time. The clamp at 0 keeps the rounding of a
sum of unit cosines from making a cost negative. The accumulated-cost
recurrence runs one anti-diagonal at a time, since every cell of an
anti-diagonal depends only on the two before it.

Pace is summarized by the raw duration ratio, the mean deviation of the warp
path from the diagonal, and the phases: the reference is segmented at the
extrema of the exercise's primary joint angle, each segment is named by
:func:`phase_name`, and its bounds are mapped onto the candidate through the
path, so each phase is a frame range on both timelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .kinematics import JointVectorSequence
from .skeleton import Sequence, ValidationError

# Moving-average window (frames) used to suppress jitter before locating
# phase extrema.
PHASE_SMOOTH_WINDOW = 5

# Cost-matrix rows are computed this many candidate frames at a time, which
# keeps the GEMM temporaries a small multiple of one row of the accumulator.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class WarpPath:
    """Monotone frame alignment between candidate and reference."""

    pairs: Tuple[Tuple[int, int], ...]
    cost: float

    def __post_init__(self):
        pairs = tuple((int(i), int(j)) for i, j in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise ValueError("warp path must not be empty")
        if pairs[0] != (0, 0):
            raise ValueError(f"warp path must start at (0, 0), got {pairs[0]}")
        for k in range(1, len(pairs)):
            di = pairs[k][0] - pairs[k - 1][0]
            dj = pairs[k][1] - pairs[k - 1][1]
            if (di, dj) not in ((1, 0), (0, 1), (1, 1)):
                raise ValueError(
                    f"invalid warp step {pairs[k - 1]} -> {pairs[k]}"
                )
        if self.cost < 0:
            raise ValueError("warp cost must be non-negative")

    def __len__(self) -> int:
        return len(self.pairs)


def dtw_align(cand: JointVectorSequence, ref: JointVectorSequence) -> WarpPath:
    """Minimal-cost monotone alignment of two descriptor sequences.

    Ties are broken deterministically: diagonal step first, then candidate
    advance, then reference advance. A candidate frame and a reference frame
    with no usable pair in common raise :class:`ValidationError`; empty or
    mismatched descriptors are a caller's bug and raise ``ValueError``.
    """
    if not cand or not ref:
        raise ValueError("cannot align empty sequences")
    if cand.targeted != ref.targeted:
        raise ValueError(
            f"mismatched targeted joints: {cand.targeted} vs {ref.targeted}")
    m, n = len(cand), len(ref)
    # acc is padded with an infinite row 0 and column 0, so cell (i, j) sits
    # at acc[i + 1, j + 1] and every cell has three predecessors in range.
    acc = np.full((m + 1, n + 1), np.inf)
    a, b = cand.vectors.reshape(m, -1), ref.vectors.reshape(n, -1).T
    a_valid = cand.valid.astype(np.float64)
    b_valid = ref.valid.astype(np.float64).T
    for r in range(0, m, _BLOCK_ROWS):
        rows = slice(r, r + _BLOCK_ROWS)
        counts = a_valid[rows] @ b_valid
        if not counts.all():
            raise ValidationError("no common usable joint pairs")
        cost = a[rows] @ b
        cost /= counts
        np.subtract(1.0, cost, out=cost)
        acc[1 + r:1 + r + _BLOCK_ROWS, 1:] = np.maximum(cost, 0.0, out=cost)

    flat, w = acc.ravel(), n + 1
    low = np.empty(min(m, n))
    for d in range(1, m + n - 1):
        lo, hi = max(0, d - n + 1), min(m - 1, d)
        # Cells (i, d - i) of this anti-diagonal lie n apart in the flat array.
        start = (lo + 1) * w + d - lo + 1
        stop = start + (hi - lo) * n + 1
        best = low[:hi - lo + 1]
        np.minimum(flat[start - w - 1:stop - w - 1:n], flat[start - w:stop - w:n],
                   out=best)
        np.minimum(best, flat[start - 1:stop - 1:n], out=best)
        flat[start:stop:n] += best

    # Walk back from (m-1, n-1), i and j indexing the padded acc, each time
    # to the cheapest predecessor. A later one wins only when strictly
    # cheaper, so ties keep the order diagonal, candidate advance, reference
    # advance.
    pairs = [(m - 1, n - 1)]
    i, j = m, n
    while (i, j) != (1, 1):
        diagonal, from_cand, from_ref = acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]
        if diagonal <= from_cand and diagonal <= from_ref:
            i, j = i - 1, j - 1
        elif from_cand <= from_ref:
            i -= 1
        else:
            j -= 1
        pairs.append((i - 1, j - 1))
    pairs.reverse()
    return WarpPath(pairs=tuple(pairs), cost=float(acc[m, n]))


@dataclass(frozen=True)
class Phase:
    """One contiguous segment of the repetition on both timelines: its name
    and its first and last frame index on each. Neighbouring phases share
    their bounding frame."""

    name: str
    cand_range: Tuple[int, int]   # candidate frame indices [start, end]
    ref_range: Tuple[int, int]


@dataclass(frozen=True)
class PaceProfile:
    """Tempo summary of a candidate relative to its reference."""

    duration_ratio: float     # candidate duration / reference duration
    warp_deviation: float     # in [0, 1]; 0 = perfectly diagonal path
    phases: Tuple[Phase, ...]


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with edge windows shrunk to the valid range."""
    x = np.asarray(values, dtype=np.float64)
    if window <= 1 or x.size <= 2:
        return x.copy()
    half = window // 2
    csum = np.concatenate([[0.0], np.cumsum(x)])
    i = np.arange(x.size)
    lo = np.maximum(0, i - half)
    hi = np.minimum(x.size, i + half + 1)
    return (csum[hi] - csum[lo]) / (hi - lo)


def _segment_boundaries(smoothed: np.ndarray) -> List[int]:
    """Interior extrema indices of a smoothed angle series.

    Plateaus are tolerated: an extremum whose neighborhood ties exactly (e.g.
    a symmetric trajectory sampled on an even grid) is placed at the plateau
    midpoint.
    """
    diffs = np.diff(smoothed)
    nonzero = np.nonzero(np.sign(diffs))[0]
    boundaries = []
    for a, b in zip(nonzero[:-1], nonzero[1:]):
        if np.sign(diffs[a]) != np.sign(diffs[b]):
            # the extremum lies in frames [a+1, b]
            boundaries.append(int((a + 1 + b) // 2))
    return boundaries


def phase_name(direction: float, eccentric_direction: str) -> str:
    """The phase in which the primary joint angle moves with the sign of
    ``direction``: "eccentric" where that is ``eccentric_direction``
    ("decreasing" or "increasing"), "concentric" where it is the other, and
    "hold" where it is 0. :func:`pace_profile` names its phases with it, and
    the synthesizer its per-frame labels, so a correction rule's phase and an
    injected error's phase name the same frames."""
    if direction == 0.0:
        return "hold"
    eccentric = (direction < 0) == (eccentric_direction == "decreasing")
    return "eccentric" if eccentric else "concentric"


def pace_profile(cand: Sequence, ref: Sequence, path: WarpPath,
                 primary_angles: np.ndarray,
                 eccentric_direction: str = "decreasing") -> PaceProfile:
    """Pace summary of ``cand`` against ``ref`` under a given warp path.

    Phases are segmented on the extrema of ``primary_angles``, the (T,)
    series of the reference's primary joint angle, and mapped onto the
    candidate through the path; if the angle is monotone (or not computable
    in some frame) the whole repetition is a single "full" phase.
    """
    tc, tr = len(cand), len(ref)
    if path.pairs[-1] != (tc - 1, tr - 1):
        raise ValueError("warp path does not span both sequences")
    ci, ri = np.array(path.pairs).T
    dev = np.mean(np.abs(ci / (tc - 1) - ri / (tr - 1)))
    duration_ratio = float(cand.duration / ref.duration)
    warp_deviation = float(min(1.0, 2.0 * dev))

    smoothed = moving_average(primary_angles, PHASE_SMOOTH_WINDOW)
    interior = [] if np.isnan(primary_angles).any() else _segment_boundaries(smoothed)
    if not interior:
        phases = (Phase(name="full", cand_range=(0, tc - 1), ref_range=(0, tr - 1)),)
        return PaceProfile(duration_ratio=duration_ratio,
                           warp_deviation=warp_deviation, phases=phases)

    bounds = [0] + interior + [tr - 1]
    # the first candidate frame aligned with each reference frame
    first_cand = {j: i for i, j in reversed(path.pairs)}
    phases = []
    name_counts: dict = {}
    for k in range(len(bounds) - 1):
        r0, r1 = bounds[k], bounds[k + 1]
        direction = float(np.sign(smoothed[r1] - smoothed[r0]))
        name = phase_name(direction, eccentric_direction)
        name_counts[name] = name_counts.get(name, 0) + 1
        if name_counts[name] > 1:
            name = f"{name}_{name_counts[name]}"
        phases.append(Phase(name=name, cand_range=(first_cand[r0], first_cand[r1]),
                            ref_range=(r0, r1)))
    return PaceProfile(duration_ratio=duration_ratio,
                       warp_deviation=warp_deviation, phases=tuple(phases))
