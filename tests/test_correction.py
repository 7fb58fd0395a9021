import logging

import numpy as np

from formcoach.correction import (Arrow, LIMBS, VisualAid, build_aid,
                                  local_root_for, render_svg)
from formcoach.skeleton import JointId

import reference
from test_normalize import frame_from_points, pose_of, random_frame, similarity

J = JointId


def aid_for(cand, ref, joints, **kwargs):
    """The aid of one candidate frame flagged at ``joints`` against one
    reference frame."""
    aids = build_aid(pose_of(cand), pose_of(ref), [cand.frame_id],
                     [(0, j, 0) for j in joints], **kwargs)
    return aids[0]


class TestLocalRoot:
    def test_upper_exercise_uses_same_side_shoulder(self):
        assert local_root_for(J.LEFT_ELBOW, "Upper") == J.LEFT_SHOULDER
        assert local_root_for(J.RIGHT_WRIST, "Upper") == J.RIGHT_SHOULDER
        assert local_root_for(J.RIGHT_KNEE, "Upper") == J.RIGHT_SHOULDER

    def test_lower_exercise_uses_same_side_hip(self):
        assert local_root_for(J.LEFT_KNEE, "Lower") == J.LEFT_HIP
        assert local_root_for(J.RIGHT_ANKLE, "Lower") == J.RIGHT_HIP

    def test_both_follows_joint(self):
        assert local_root_for(J.LEFT_WRIST, "Both") == J.LEFT_SHOULDER
        assert local_root_for(J.RIGHT_KNEE, "Both") == J.RIGHT_HIP


class TestBuildAid:
    def test_identity_pair_no_arrows(self):
        f = random_frame(np.random.default_rng(0))
        aid = aid_for(f, f, [J.LEFT_ELBOW, J.LEFT_WRIST])
        assert aid.arrows == ()

    def test_identity_transform_arrow_endpoints(self):
        # an upright torso of unit length: rotation and scale are the identity
        pts = np.zeros((17, 2))
        pts[J.LEFT_SHOULDER] = (0.0, 1.0)
        pts[J.RIGHT_SHOULDER] = (1.0, 1.0)
        pts[J.LEFT_HIP] = (0.0, 0.0)
        pts[J.RIGHT_HIP] = (1.0, 0.0)
        pts[J.LEFT_ELBOW] = (4.0, 4.0)
        cand = frame_from_points(pts)
        ref_pts = pts.copy()
        ref_pts[J.LEFT_ELBOW] = (10.0, 10.0)
        aid = aid_for(cand, frame_from_points(ref_pts), [J.LEFT_ELBOW])
        assert len(aid.arrows) == 1
        assert aid.arrows[0].tail == (4.0, 4.0)
        assert aid.arrows[0].head == (10.0, 10.0)

    def test_known_canonical_offset_maps_through_inverse(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = random_frame(rng)
            local = reference.local_frame(f.points, J.LEFT_SHOULDER)
            elbow = reference.to_canonical([f.points[J.LEFT_ELBOW]], *local)[0]
            v = rng.uniform(-0.5, 0.5, 2)
            ref_pts = f.points.copy()
            ref_pts[J.LEFT_ELBOW] = reference.to_pixels(elbow + v, *local)
            # the reference is the offset candidate seen at another size,
            # angle and place
            ref = frame_from_points(similarity(ref_pts, 1.7, 0.6, (40.0, -25.0)))
            aid = aid_for(f, ref, [J.LEFT_ELBOW], min_arrow_px=0.0)
            arrow = aid.arrows[0]
            got = np.array(arrow.head) - np.array(arrow.tail)
            expected = (np.array(reference.to_pixels(elbow + v, *local))
                        - reference.to_pixels(elbow, *local))
            assert np.abs(got - expected).max() < 1e-6

    def test_matches_reference_arrow_heads(self):
        rng = np.random.default_rng(12)
        for body_class in ("Upper", "Lower", "Both"):
            cand, ref = random_frame(rng), random_frame(rng)
            joints = [J.NOSE, J.RIGHT_EYE, J.LEFT_ELBOW, J.RIGHT_WRIST,
                      J.LEFT_KNEE, J.RIGHT_ANKLE]
            aid = aid_for(cand, ref, joints, body_class=body_class,
                          min_arrow_px=0.0)
            assert [a.joint for a in aid.arrows] == joints
            for arrow in aid.arrows:
                root = local_root_for(arrow.joint, body_class)
                head = reference.arrow_head(cand.points, ref.points, arrow.joint, root)
                assert np.abs(np.subtract(arrow.head, head)).max() <= 1e-9
                assert arrow.tail == tuple(cand.points[arrow.joint])

    def test_short_arrows_suppressed(self):
        f = random_frame(np.random.default_rng(2))
        ref_pts = f.points.copy()
        ref_pts[J.LEFT_ELBOW] += np.array([1.0, 0.0])   # one pixel
        aid = aid_for(f, frame_from_points(ref_pts), [J.LEFT_ELBOW],
                      min_arrow_px=2.0)
        assert aid.arrows == ()

    def test_occluded_flagged_joint_skipped(self, caplog):
        f = random_frame(np.random.default_rng(3))
        conf = np.ones(17)
        conf[J.LEFT_ELBOW] = 0.0
        cand = frame_from_points(f.points, conf)
        ref_pts = f.points.copy()
        ref_pts[J.LEFT_ELBOW] += 80.0
        with caplog.at_level(logging.WARNING, logger="formcoach.correction"):
            aid = aid_for(cand, frame_from_points(ref_pts), [J.LEFT_ELBOW])
        assert aid.arrows == ()
        assert "occluded flagged joints: left_elbow in frames t" in caplog.text

    def test_one_warning_per_candidate(self, caplog):
        rng = np.random.default_rng(13)
        frames = [random_frame(rng) for _ in range(3)]
        hidden = {0: [J.LEFT_WRIST], 2: [J.LEFT_ELBOW, J.LEFT_WRIST]}
        cand = []
        for t, f in enumerate(frames):
            conf = np.ones(17)
            conf[hidden.get(t, [])] = 0.0
            cand.append(frame_from_points(f.points, conf, frame_id=f"c{t}"))
        ref = random_frame(rng)
        flagged = [(t, j, 0) for t in range(3) for j in (J.LEFT_ELBOW, J.LEFT_WRIST)]
        with caplog.at_level(logging.WARNING, logger="formcoach.correction"):
            aids = build_aid(pose_of(*cand), pose_of(ref), ["c0", "c1", "c2"],
                             flagged)
        assert [r.getMessage() for r in caplog.records] == [
            "skipping arrows for occluded flagged joints: "
            "left_elbow in frames c2; left_wrist in frames c0, c2"]
        assert [[a.joint for a in aids[t].arrows] for t in range(3)] == [
            [J.LEFT_ELBOW], [J.LEFT_ELBOW, J.LEFT_WRIST], []]

    def test_captions_joined(self):
        f = random_frame(np.random.default_rng(4))
        ref_pts = f.points.copy()
        ref_pts[J.LEFT_ELBOW] += 40.0
        ref_pts[J.LEFT_WRIST] -= 40.0
        aid = aid_for(f, frame_from_points(ref_pts), [J.LEFT_WRIST, J.LEFT_ELBOW],
                      captions={J.LEFT_ELBOW: "raise elbow",
                                J.LEFT_WRIST: "drop wrist"})
        assert aid.caption == "raise elbow; drop wrist"  # sorted by joint

    def test_captions_follow_roots_and_arrows_follow_joints(self):
        # right_eye hangs off the right shoulder, left_ear off the left one
        f = random_frame(np.random.default_rng(15))
        ref_pts = f.points.copy()
        ref_pts[[J.RIGHT_EYE, J.LEFT_EAR]] += 40.0
        aid = aid_for(f, frame_from_points(ref_pts), [J.RIGHT_EYE, J.LEFT_EAR],
                      captions={J.RIGHT_EYE: "eye", J.LEFT_EAR: "ear"})
        assert [a.joint for a in aid.arrows] == [J.RIGHT_EYE, J.LEFT_EAR]
        assert aid.caption == "ear; eye"


class TestRenderSvg:
    def aid_with_arrows(self, n):
        arrows = tuple(
            Arrow(joint=JointId(5 + k), tail=(10.0 * k, 5.0), head=(10.0 * k, 50.0))
            for k in range(n))
        return VisualAid(frame_id="f0001", arrows=arrows, caption="fix it")

    def test_well_formed_and_parsable(self):
        import xml.etree.ElementTree as ET
        f = random_frame(np.random.default_rng(5))
        svg = render_svg(self.aid_with_arrows(2), f.points, f.occlusion_mask())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_empty_aid_has_skeleton_only(self):
        f = random_frame(np.random.default_rng(6))
        svg = render_svg(VisualAid(frame_id="x", arrows=()), f.points,
                         f.occlusion_mask())
        assert svg.count("marker-end") == 0
        assert svg.count("<line") == len(LIMBS)
        assert svg.count("<circle") == 17

    def test_arrow_count(self):
        f = random_frame(np.random.default_rng(7))
        svg = render_svg(self.aid_with_arrows(2), f.points, f.occlusion_mask())
        assert svg.count("marker-end") == 2

    def test_byte_stable(self):
        f = random_frame(np.random.default_rng(8))
        aid = self.aid_with_arrows(3)
        occluded = f.occlusion_mask()
        assert (render_svg(aid, f.points, occluded)
                == render_svg(aid, f.points, occluded))

    def test_caption_escaped(self):
        f = random_frame(np.random.default_rng(9))
        aid = VisualAid(frame_id="x", arrows=(), caption="a < b & c")
        svg = render_svg(aid, f.points, f.occlusion_mask())
        assert "a &lt; b &amp; c" in svg

    def test_occluded_joints_not_drawn(self):
        f = random_frame(np.random.default_rng(10))
        occluded = np.zeros(17, bool)
        occluded[J.NOSE] = True
        svg = render_svg(VisualAid(frame_id="x", arrows=()), f.points, occluded)
        assert svg.count("<circle") == 16
