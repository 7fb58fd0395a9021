"""Corrective visual aids: arrows from a mispositioned joint to where the
reference puts it, rendered as SVG overlays on the candidate skeleton.

Reference joint positions are taken in canonical space (local normalization
rooted at the same-side shoulder for upper-limb joints, same-side hip for
lower-limb joints) and mapped back into candidate pixels through the inverse
of the candidate frame's transform, so an arrow expresses a limb-relative
correction, not whole-body translation. Both use the torso rotation and scale
that :func:`~formcoach.normalize.normalize_sequence` found for each frame.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .normalize import Pose, _rot
from .skeleton import JointId

logger = logging.getLogger(__name__)

# Arrows shorter than this many pixels carry no information and are dropped.
MIN_ARROW_PX = 2.0

# Standard COCO limb set for drawing the skeleton.
LIMBS: Tuple[Tuple[JointId, JointId], ...] = (
    (JointId.NOSE, JointId.LEFT_EYE), (JointId.NOSE, JointId.RIGHT_EYE),
    (JointId.LEFT_EYE, JointId.LEFT_EAR), (JointId.RIGHT_EYE, JointId.RIGHT_EAR),
    (JointId.LEFT_SHOULDER, JointId.RIGHT_SHOULDER),
    (JointId.LEFT_SHOULDER, JointId.LEFT_ELBOW),
    (JointId.LEFT_ELBOW, JointId.LEFT_WRIST),
    (JointId.RIGHT_SHOULDER, JointId.RIGHT_ELBOW),
    (JointId.RIGHT_ELBOW, JointId.RIGHT_WRIST),
    (JointId.LEFT_SHOULDER, JointId.LEFT_HIP),
    (JointId.RIGHT_SHOULDER, JointId.RIGHT_HIP),
    (JointId.LEFT_HIP, JointId.RIGHT_HIP),
    (JointId.LEFT_HIP, JointId.LEFT_KNEE),
    (JointId.LEFT_KNEE, JointId.LEFT_ANKLE),
    (JointId.RIGHT_HIP, JointId.RIGHT_KNEE),
    (JointId.RIGHT_KNEE, JointId.RIGHT_ANKLE),
)

_UPPER = {JointId.LEFT_SHOULDER, JointId.LEFT_ELBOW, JointId.LEFT_WRIST,
          JointId.RIGHT_SHOULDER, JointId.RIGHT_ELBOW, JointId.RIGHT_WRIST}
_LEFT = {JointId.LEFT_EYE, JointId.LEFT_EAR, JointId.LEFT_SHOULDER,
         JointId.LEFT_ELBOW, JointId.LEFT_WRIST, JointId.LEFT_HIP,
         JointId.LEFT_KNEE, JointId.LEFT_ANKLE}


def local_root_for(joint: JointId, body_class: str = "Both") -> JointId:
    """Root joint for the local normalization feeding a joint's arrow.

    Upper-body exercises anchor at the same-side shoulder, lower-body at the
    same-side hip; for "Both" the choice follows the joint itself.
    """
    joint = JointId(joint)
    left = joint in _LEFT or joint == JointId.NOSE
    if body_class == "Upper":
        upper = True
    elif body_class == "Lower":
        upper = False
    else:
        upper = joint in _UPPER or joint <= JointId.RIGHT_EAR
    if upper:
        return JointId.LEFT_SHOULDER if left else JointId.RIGHT_SHOULDER
    return JointId.LEFT_HIP if left else JointId.RIGHT_HIP


@dataclass(frozen=True)
class Arrow:
    joint: JointId
    tail: Tuple[float, float]   # candidate joint position, pixels
    head: Tuple[float, float]   # reference joint position mapped to pixels

    def __post_init__(self):
        object.__setattr__(self, "joint", JointId(self.joint))
        tail = (float(self.tail[0]), float(self.tail[1]))
        head = (float(self.head[0]), float(self.head[1]))
        if not all(math.isfinite(v) for v in (*tail, *head)):
            raise ValueError("arrow endpoints must be finite")
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "head", head)

    @property
    def length(self) -> float:
        return math.hypot(self.head[0] - self.tail[0], self.head[1] - self.tail[1])


@dataclass(frozen=True)
class VisualAid:
    frame_id: str
    arrows: Tuple[Arrow, ...]
    caption: str = ""

    def __post_init__(self):
        object.__setattr__(self, "arrows", tuple(self.arrows))


def build_aid(cand: Pose, ref: Pose, frame_ids: Sequence[str],
              flagged: Sequence[Tuple[int, JointId, int]],
              body_class: str = "Both",
              captions: Optional[Mapping[JointId, str]] = None,
              min_arrow_px: float = MIN_ARROW_PX) -> Dict[int, VisualAid]:
    """One aid per flagged candidate frame, keyed by the frame's index.

    ``flagged`` holds (candidate frame, joint, reference frame) triples. An
    arrow runs from the candidate joint to the reference joint's position
    relative to the :func:`local_root_for` root, anchored at the candidate's
    root. Each root is a torso joint, which a :class:`Pose` has visible in
    every frame. Occluded flagged joints are skipped with one warning;
    arrows under ``min_arrow_px`` are dropped. Captions follow root, then
    joint order.
    """
    captions = captions or {}
    rows = sorted({(i, local_root_for(j, body_class), JointId(j), k)
                   for i, j, k in flagged})
    i, r, j, k = np.array(rows, dtype=np.intp).reshape(-1, 4).T
    hidden = cand.occluded[i, j] | ref.occluded[k, j]
    if hidden.any():
        logger.warning("skipping arrows for occluded flagged joints: %s", "; ".join(
            f"{JointId(joint).name.lower()} in frames "
            + ", ".join(frame_ids[t] for t in i[hidden & (j == joint)].tolist())
            for joint in np.unique(j[hidden]).tolist()))
    i, r, j, k = (a[~hidden] for a in (i, r, j, k))
    # One (17, 2) @ (2, 2) product per arrow: a one-row product takes another
    # BLAS kernel and may round differently, which would move arrow heads.
    local = ((ref.points[k] - ref.points[k, r, None]) @ _rot(ref.theta[k]).mT
             * ref.scale[k, None, None])[np.arange(len(k)), j]
    heads = ((local / cand.scale[i, None])[:, None] @ _rot(-cand.theta[i]).mT)[:, 0]
    heads += cand.points[i, r]

    arrows: Dict[int, List[Arrow]] = {f: [] for f, _, _ in flagged}
    texts: Dict[int, List[str]] = {f: [] for f, _, _ in flagged}
    for f, joint, tail, head in zip(i.tolist(), j.tolist(), cand.points[i, j], heads):
        arrow = Arrow(joint=joint, tail=tail, head=head)
        if arrow.length >= min_arrow_px:
            arrows[f].append(arrow)
            if joint in captions:
                texts[f].append(captions[joint])
    return {f: VisualAid(frame_id=frame_ids[f],
                         arrows=sorted(arrows[f], key=lambda a: a.joint),
                         caption="; ".join(texts[f]))
            for f in sorted(arrows)}


# ---------------------------------------------------------------------------
# SVG rendering (string assembly; byte-stable for identical input)
# ---------------------------------------------------------------------------

_SVG_STYLE = {
    "limb": 'stroke="#4a7db5" stroke-width="3" stroke-linecap="round"',
    "joint": 'fill="#1f3b57"',
    "arrow": 'stroke="#d9413d" stroke-width="2.5" fill="none"',
    "caption": 'font-family="sans-serif" font-size="16" fill="#222222"',
}


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(aid: VisualAid, points: np.ndarray, occluded: np.ndarray,
               canvas: Tuple[int, int] = (640, 480)) -> str:
    """Render the candidate skeleton plus correction arrows as an SVG document.

    ``points`` is the frame's (17, 2) pixels and ``occluded`` its (17,)
    occlusion row; occluded joints and their limbs are not drawn. Output is
    deterministic: the same input produces byte-identical text. Content
    outside the canvas is clipped by the SVG viewport.
    """
    w, h = int(canvas[0]), int(canvas[1])
    lines: List[str] = []
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
    )
    lines.append("  <defs>")
    lines.append(
        '    <marker id="arrowhead" markerWidth="8" markerHeight="6" '
        'refX="7" refY="3" orient="auto">'
    )
    lines.append('      <path d="M0,0 L8,3 L0,6 z" fill="#d9413d"/>')
    lines.append("    </marker>")
    lines.append("  </defs>")

    lines.append(f'  <g {_SVG_STYLE["limb"]}>')
    for a, b in LIMBS:
        if occluded[a] or occluded[b]:
            continue
        pa, pb = points[a], points[b]
        lines.append(
            f'    <line x1="{_fmt(pa[0])}" y1="{_fmt(pa[1])}" '
            f'x2="{_fmt(pb[0])}" y2="{_fmt(pb[1])}"/>'
        )
    lines.append("  </g>")

    lines.append(f'  <g {_SVG_STYLE["joint"]}>')
    for j in JointId:
        if occluded[j]:
            continue
        p = points[j]
        lines.append(f'    <circle cx="{_fmt(p[0])}" cy="{_fmt(p[1])}" r="4"/>')
    lines.append("  </g>")

    if aid.arrows:
        lines.append(f'  <g {_SVG_STYLE["arrow"]}>')
        for arrow in aid.arrows:
            lines.append(
                f'    <line x1="{_fmt(arrow.tail[0])}" y1="{_fmt(arrow.tail[1])}" '
                f'x2="{_fmt(arrow.head[0])}" y2="{_fmt(arrow.head[1])}" '
                f'marker-end="url(#arrowhead)">'
                f"<title>{arrow.joint.name.lower()}</title></line>"
            )
        lines.append("  </g>")

    if aid.caption:
        caption = (aid.caption.replace("&", "&amp;").replace("<", "&lt;")
                   .replace(">", "&gt;"))
        lines.append(f'  <text x="10" y="{h - 12}" {_SVG_STYLE["caption"]}>'
                     f"{caption}</text>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
