"""Test oracles: the geometry formulas of the ``formcoach`` module
docstrings, written out as plain Python loops over one frame at a time, and
a keypoint-file reader that checks one frame at a time.

Nothing here is imported from ``formcoach`` and no array code is shared with
it, so a test that compares the program with these functions checks the
program against the stated formulas, not against itself. Points are indexed
by COCO joint number (a ``JointId`` works as the index) and may be any
sequence of ``(x, y)`` pairs, a NumPy array included; occlusion masks are
sequences of booleans. Keep this module free of ``formcoach`` imports:
``test_reference_is_independent`` fails otherwise.

Formulas (image y points down, canonical y points up):

* torso: from the hip midpoint to the shoulder midpoint; its length is the
  scale's reciprocal.
* rotation: ``theta`` maps the torso onto canonical +y, wrapped to
  (-pi, pi]; ``R(theta) = [[cos, -sin], [sin, cos]]``.
* centre: the middle of the bounding box of the visible joints, taken after
  rotating them by ``R(theta)``, mapped back by ``R(-theta)``.
* canonical point: ``scale * R(theta) @ (pixel - centre)``.
* descriptor: for each ordered pair (a, b) of distinct targeted joints, in
  sorted order, the unit vector from a to b, or None if either joint is
  occluded or the two are closer than ``COINCIDENT_EPS``.
* frame similarity: the mean over pairs valid in both frames of the cosine
  ``x*x' + y*y'`` clipped to [-1, 1]; the DTW step cost is one minus it.
* interior angle: ``acos`` of the clipped cosine between the bones from the
  joint to its two neighbours, in degrees.
* arrow head: the reference joint in the reference frame's local
  normalization (root at the origin), mapped to candidate pixels by the
  inverse of the candidate frame's local normalization.
* GELU, tanh form (Hendrycks & Gimpel 2016):
  ``gelu(x) = x / 2 * (1 + tanh(u))`` with
  ``u = sqrt(2 / pi) * (x + 0.044715 * x^3)``; its derivative is
  ``(1 + tanh(u)) / 2 + x / 2 * (1 - tanh(u)^2) * du/dx``.
* keypoint file: the schema of the ``skeleton`` module, read frame by frame;
  a given fps must be a positive, finite number; then each frame's
  structure, numbers and values (finite coordinates at most 1e100 in
  magnitude, confidences in [0, 1], a finite non-negative timestamp) are
  checked before the next frame is read, then the sequence's class, length
  and timestamp order. Messages do not name the file.
"""

import json
import math

LEFT_SHOULDER, RIGHT_SHOULDER, LEFT_HIP, RIGHT_HIP = 5, 6, 11, 12

# elbow: shoulder/wrist, knee: hip/ankle, shoulder: elbow/same-side hip,
# hip: same-side shoulder/knee
ANGLE_NEIGHBORS = {
    7: (5, 9), 8: (6, 10), 13: (11, 15), 14: (12, 16),
    5: (7, 11), 6: (8, 12), 11: (5, 13), 12: (6, 14),
}

COINCIDENT_EPS = 1e-9
MAX_COORDINATE = 1e100


def _xy(p):
    return float(p[0]), float(p[1])


def _rotate(x, y, theta):
    c, s = math.cos(theta), math.sin(theta)
    return c * x - s * y, s * x + c * y


def torso(points):
    """(shoulder midpoint, hip midpoint, torso length) of one frame."""
    (lsx, lsy), (rsx, rsy) = _xy(points[LEFT_SHOULDER]), _xy(points[RIGHT_SHOULDER])
    (lhx, lhy), (rhx, rhy) = _xy(points[LEFT_HIP]), _xy(points[RIGHT_HIP])
    shoulder = ((lsx + rsx) / 2, (lsy + rsy) / 2)
    hip = ((lhx + rhx) / 2, (lhy + rhy) / 2)
    return shoulder, hip, math.hypot(shoulder[0] - hip[0], shoulder[1] - hip[1])


def upright_angle(points):
    """The rotation angle in (-pi, pi] that turns the torso onto +y."""
    shoulder, hip, _ = torso(points)
    theta = math.pi / 2 - math.atan2(shoulder[1] - hip[1], shoulder[0] - hip[0])
    while theta <= -math.pi:
        theta += 2 * math.pi
    while theta > math.pi:
        theta -= 2 * math.pi
    return theta


def normalize(points, occluded):
    """Global normalization of one frame: (canonical points, theta, scale,
    centre) with the canonical points as a list of (x, y) tuples."""
    theta = upright_angle(points)
    scale = 1.0 / torso(points)[2]
    rotated = [_rotate(*_xy(p), theta) for p, hidden in zip(points, occluded)
               if not hidden]
    xs, ys = [x for x, _ in rotated], [y for _, y in rotated]
    box = ((min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2)
    centre = _rotate(*box, -theta)
    return to_canonical(points, theta, scale, centre), theta, scale, centre


def to_canonical(points, theta, scale, centre):
    """``scale * R(theta) @ (p - centre)`` for every point."""
    out = []
    for p in points:
        x, y = _rotate(float(p[0]) - centre[0], float(p[1]) - centre[1], theta)
        out.append((scale * x, scale * y))
    return out


def to_pixels(point, theta, scale, centre):
    """The inverse of :func:`to_canonical` for one point."""
    x, y = _rotate(point[0] / scale, point[1] / scale, -theta)
    return x + centre[0], y + centre[1]


def local_frame(points, root):
    """(theta, scale, centre) of the local normalization rooted at ``root``:
    the global rotation and scale with the root as the centre."""
    return upright_angle(points), 1.0 / torso(points)[2], _xy(points[root])


def arrow_head(cand_points, ref_points, joint, root):
    """Where the arrow for ``joint`` points in candidate pixels: the
    reference joint relative to the reference root, placed at the
    candidate root."""
    ref_local = to_canonical([ref_points[joint]], *local_frame(ref_points, root))[0]
    return to_pixels(ref_local, *local_frame(cand_points, root))


def ordered_pairs(targeted):
    joints = sorted(set(int(j) for j in targeted))
    return [(a, b) for a in joints for b in joints if a != b]


def descriptor(points, occluded, targeted):
    """``{(a, b): unit vector or None}`` over the ordered targeted pairs of
    one frame's (canonical) points."""
    out = {}
    for a, b in ordered_pairs(targeted):
        (ax, ay), (bx, by) = _xy(points[a]), _xy(points[b])
        length = math.hypot(bx - ax, by - ay)
        if occluded[a] or occluded[b] or length < COINCIDENT_EPS:
            out[(a, b)] = None
        else:
            out[(a, b)] = ((bx - ax) / length, (by - ay) / length)
    return out


def cosines(desc_a, desc_b):
    """The clipped cosines of the pairs valid in both descriptors."""
    out = []
    for pair, u in desc_a.items():
        v = desc_b[pair]
        if u is not None and v is not None:
            out.append(max(-1.0, min(1.0, u[0] * v[0] + u[1] * v[1])))
    return out


def mean_cosine(desc_a, desc_b):
    values = cosines(desc_a, desc_b)
    return sum(values) / len(values)


def frame_descriptors(frames, targeted):
    """Descriptors of globally normalized frames, each frame a (points,
    occluded) pair."""
    return [descriptor(normalize(p, o)[0], o, targeted) for p, o in frames]


def cost_matrix(cand, ref):
    """DTW step costs ``1 - mean_cosine`` between two descriptor lists."""
    return [[1.0 - mean_cosine(c, r) for r in ref] for c in cand]


def dtw(cost):
    """(total cost, path) of the cheapest monotone path through ``cost``;
    on equal accumulated cost the step from the diagonal predecessor wins,
    then the one from the previous candidate frame, then the one from the
    previous reference frame."""
    m, n = len(cost), len(cost[0])
    acc = [[math.inf] * n for _ in range(m)]
    step = [[None] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if i == 0 and j == 0:
                acc[i][j] = cost[i][j]
                continue
            best = None
            for di, dj in ((1, 1), (1, 0), (0, 1)):
                if i - di >= 0 and j - dj >= 0:
                    value = acc[i - di][j - dj]
                    if best is None or value < best[0]:
                        best = (value, (di, dj))
            acc[i][j] = cost[i][j] + best[0]
            step[i][j] = best[1]
    path = [(m - 1, n - 1)]
    i, j = m - 1, n - 1
    while (i, j) != (0, 0):
        di, dj = step[i][j]
        i, j = i - di, j - dj
        path.append((i, j))
    return acc[m - 1][n - 1], tuple(reversed(path))


def interior_angle(points, joint, occluded=None):
    """Interior angle in degrees at ``joint``, or None where it is
    undefined: no neighbours in the topology, a bone shorter than
    ``COINCIDENT_EPS`` or, given a mask, an occluded joint or neighbour."""
    joint = int(joint)
    if joint not in ANGLE_NEIGHBORS:
        return None
    a, b = ANGLE_NEIGHBORS[joint]
    if occluded is not None and (occluded[joint] or occluded[a] or occluded[b]):
        return None
    jx, jy = _xy(points[joint])
    ux, uy = float(points[a][0]) - jx, float(points[a][1]) - jy
    vx, vy = float(points[b][0]) - jx, float(points[b][1]) - jy
    nu, nv = math.hypot(ux, uy), math.hypot(vx, vy)
    if nu < COINCIDENT_EPS or nv < COINCIDENT_EPS:
        return None
    cos = max(-1.0, min(1.0, (ux * vx + uy * vy) / (nu * nv)))
    return math.degrees(math.acos(cos))


def _gelu_u(x):
    return math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)


def gelu(x):
    """The tanh-form GELU of one float."""
    return 0.5 * x * (1.0 + math.tanh(_gelu_u(x)))


def gelu_derivative(x):
    """d gelu / dx at one float."""
    t = math.tanh(_gelu_u(x))
    du = math.sqrt(2.0 / math.pi) * (1.0 + 3.0 * 0.044715 * x ** 2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * du


JOINT_NAMES = ("nose", "left_eye", "right_eye", "left_ear", "right_ear",
               "left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
               "left_wrist", "right_wrist", "left_hip", "right_hip",
               "left_knee", "right_knee", "left_ankle", "right_ankle")
CLASS_LABELS = ("groundtruth", "correct", "wrong")


class Invalid(Exception):
    """A fault in a keypoint file, with the message the program gives it."""


def _to_float(value, message):
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise Invalid(message) from None


def _keypoint_file_frame(i, raw, fps):
    """(id, t, 17 [x, y, conf] float rows) of frame ``i``."""
    if not isinstance(raw, dict) or "keypoints" not in raw:
        raise Invalid(f"frame {i}: must be an object with 'keypoints'")
    keypoints = raw["keypoints"]
    if isinstance(keypoints, dict):
        named = {}
        for name, row in keypoints.items():
            if name.lower() not in JOINT_NAMES:
                raise Invalid(f"frame {i}: unknown joint name {name!r}")
            if name.lower() in named:
                raise Invalid(f"frame {i}: duplicate joint {name!r}")
            named[name.lower()] = (name, row)
        missing = [name for name in JOINT_NAMES if name not in named]
        if missing:
            raise Invalid(f"frame {i}: missing joint(s) {', '.join(missing)}")
        given = [named[name] for name in JOINT_NAMES]
    elif isinstance(keypoints, list):
        if len(keypoints) != 17:
            raise Invalid(f"frame {i}: expected 17 keypoints, got {len(keypoints)}")
        given = list(zip(JOINT_NAMES, keypoints))
    else:
        raise Invalid(f"frame {i}: keypoints must be a list or mapping")
    rows = []
    for name, row in given:
        if not isinstance(row, list) or len(row) != 3:
            raise Invalid(f"frame {i}: keypoint {name!r} must be [x, y, conf]")
        try:
            rows.append([float(v) for v in row])
        except (TypeError, ValueError, OverflowError):
            raise Invalid(f"frame {i}: keypoint {name!r} must be "
                          f"[x, y, conf] numbers, got {row!r}") from None
    t = raw.get("t")
    if t is not None:
        t = _to_float(t, f"frame {i}: t: {t!r} is not a number")
    elif fps:
        t = i / fps
    else:
        raise Invalid(f"frame {i}: no timestamp and no fps to synthesize one from")
    frame_id = str(raw["id"]) if "id" in raw else "f%04d" % i
    for x, y, conf in rows:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise Invalid(f"frame {frame_id!r}: non-finite coordinates")
    for x, y, conf in rows:
        if abs(x) > MAX_COORDINATE or abs(y) > MAX_COORDINATE:
            raise Invalid(f"frame {frame_id!r}: coordinate magnitude above 1e+100")
    for x, y, conf in rows:
        if not 0.0 <= conf <= 1.0:
            raise Invalid(f"frame {frame_id!r}: confidence outside [0, 1]")
    if not (math.isfinite(t) and t >= 0.0):
        raise Invalid(f"frame {frame_id!r}: invalid timestamp")
    return frame_id, t, rows


def read_keypoint_file(path):
    """The keypoint file at ``path`` as ``{"exercise_id", "class", "fps",
    "frames"}`` with ``frames`` a list of ``(id, t, rows)``, or the message
    of its first fault."""
    try:
        try:
            with open(path) as fh:
                doc = json.loads(fh.read())
        except ValueError as e:    # not text, not JSON, or too many digits
            raise Invalid(f"not valid JSON ({e})") from None
        if not isinstance(doc, dict):
            raise Invalid("top level must be an object")
        for key in ("exercise_id", "class", "frames"):
            if key not in doc:
                raise Invalid(f"missing required key {key!r}")
        fps = doc.get("fps")
        if fps is not None:
            fps = _to_float(fps, f"fps: {fps!r} is not a number")
            if not (math.isfinite(fps) and fps > 0):
                raise Invalid(f"fps must be positive and finite, got {fps!r}")
        if not isinstance(doc["frames"], list):
            raise Invalid("'frames' must be a list")
        frames = [_keypoint_file_frame(i, raw, fps)
                  for i, raw in enumerate(doc["frames"])]
        label = str(doc["class"])
        if label not in CLASS_LABELS:
            raise Invalid(f"class must be one of {CLASS_LABELS}, got {label!r}")
        if len(frames) < 2:
            raise Invalid("a sequence needs at least 2 frames")
        for i in range(1, len(frames)):
            (_, before, _), (frame_id, t, _) = frames[i - 1], frames[i]
            if not t > before:
                raise Invalid(f"timestamps must be strictly increasing: frame {i} "
                              f"({frame_id!r}) has t={t} after t={before}")
    except Invalid as e:
        return str(e)
    return {"exercise_id": str(doc["exercise_id"]), "class": label, "fps": fps,
            "frames": frames}
