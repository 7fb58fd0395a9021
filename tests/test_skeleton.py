import json

import numpy as np
import pytest

import reference
from formcoach.skeleton import (Annotation, Frame, JointId, Sequence,
                                ValidationError, JOINT_NAMES, load_annotation,
                                load_sequence, save_annotation, save_sequence)
from formcoach.synth import InjectedError, MotionSpec, generate


def make_frame(i, jitter=0.0):
    rng = np.random.default_rng(i)
    pts = rng.uniform(0, 640, (17, 2)) + jitter
    conf = rng.uniform(0.1, 1.0, 17)
    return Frame(frame_id=f"f{i:04d}", timestamp=i / 30.0, points=pts, confidence=conf)


def make_sequence(n=4):
    return Sequence(exercise_id="demo", class_label="correct",
                    frames=tuple(make_frame(i) for i in range(n)), fps_hint=30.0)


def write_minimal_file(path, frames):
    doc = {"exercise_id": "mini", "class": "correct", "fps": 30.0, "frames": frames}
    path.write_text(json.dumps(doc))


def keypoint_rows():
    return [[float(j), float(j) * 2.0, 1.0] for j in range(17)]


class TestJointId:
    def test_seventeen_members_in_coco_order(self):
        assert len(JointId) == 17
        assert [j.value for j in JointId] == list(range(17))
        assert JointId.NOSE == 0
        assert JointId.LEFT_SHOULDER == 5
        assert JointId.RIGHT_ANKLE == 16

    def test_names_roundtrip(self):
        from formcoach.skeleton import joint_from_name
        for name in JOINT_NAMES:
            assert joint_from_name(name).name.lower() == name


class TestFrameValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            Frame(frame_id="x", timestamp=0.0, points=np.zeros((16, 2)),
                  confidence=np.ones(17))

    def test_rejects_nan(self):
        pts = np.zeros((17, 2))
        pts[3, 0] = np.nan
        with pytest.raises(ValidationError):
            Frame(frame_id="x", timestamp=0.0, points=pts, confidence=np.ones(17))

    def test_rejects_confidence_out_of_range(self):
        with pytest.raises(ValidationError):
            Frame(frame_id="x", timestamp=0.0, points=np.zeros((17, 2)),
                  confidence=np.full(17, 1.5))

    def test_points_are_immutable(self):
        f = make_frame(0)
        with pytest.raises(ValueError):
            f.points[0, 0] = 99.0

    def test_occlusion_mask(self):
        conf = np.ones(17)
        conf[4] = 0.01
        f = Frame(frame_id="x", timestamp=0.0, points=np.zeros((17, 2)),
                  confidence=conf)
        mask = f.occlusion_mask(0.05)
        assert mask[4] and mask.sum() == 1


class TestSequenceValidation:
    def test_needs_two_frames(self):
        with pytest.raises(ValidationError):
            Sequence(exercise_id="x", class_label="correct",
                     frames=(make_frame(0),))

    def test_rejects_equal_timestamps(self):
        f0 = make_frame(0)
        f1 = Frame(frame_id="f1", timestamp=f0.timestamp, points=f0.points,
                   confidence=f0.confidence)
        with pytest.raises(ValidationError, match="strictly increasing"):
            Sequence(exercise_id="x", class_label="correct", frames=(f0, f1))

    def test_rejects_unknown_class(self):
        with pytest.raises(ValidationError):
            Sequence(exercise_id="x", class_label="great",
                     frames=(make_frame(0), make_frame(1)))


class TestSequenceFileIO:
    def test_minimal_two_frame_file(self, tmp_path):
        path = tmp_path / "s.json"
        write_minimal_file(path, [
            {"id": "a", "t": 0.0, "keypoints": keypoint_rows()},
            {"id": "b", "t": 0.1, "keypoints": keypoint_rows()},
        ])
        seq = load_sequence(path)
        assert len(seq) == 2
        assert seq.frames[0].frame_id == "a"
        assert seq.frames[1].timestamp == 0.1

    def test_sixteen_joints_named_error(self, tmp_path):
        path = tmp_path / "s.json"
        kp = {name: [1.0, 2.0, 1.0] for name in JOINT_NAMES if name != "left_knee"}
        write_minimal_file(path, [
            {"id": "a", "t": 0.0, "keypoints": kp},
            {"id": "b", "t": 0.1, "keypoints": kp},
        ])
        with pytest.raises(ValidationError, match="left_knee"):
            load_sequence(path)

    def test_sixteen_rows_reports_count_and_frame(self, tmp_path):
        path = tmp_path / "s.json"
        write_minimal_file(path, [
            {"id": "a", "t": 0.0, "keypoints": keypoint_rows()[:16]},
        ])
        with pytest.raises(ValidationError, match="frame 0"):
            load_sequence(path)

    def test_non_monotone_timestamps_error_at_frame(self, tmp_path):
        path = tmp_path / "s.json"
        write_minimal_file(path, [
            {"id": "a", "t": 0.0, "keypoints": keypoint_rows()},
            {"id": "b", "t": 0.0, "keypoints": keypoint_rows()},
        ])
        with pytest.raises(ValidationError, match="frame 1"):
            load_sequence(path)

    @pytest.mark.parametrize("bad", [None, "abc", [1.0]],
                             ids=["null", "string", "list"])
    @pytest.mark.parametrize("mapping", [False, True], ids=["rows", "mapping"])
    def test_non_number_keypoint_names_frame_and_joint(self, tmp_path, bad,
                                                         mapping):
        rows = keypoint_rows()
        rows[JointId.LEFT_KNEE][2 if mapping else 0] = bad
        path = tmp_path / "s.json"
        write_minimal_file(path, [
            {"id": "a", "t": 0.0, "keypoints": keypoint_rows()},
            {"id": "b", "t": 0.1,
             "keypoints": dict(zip(JOINT_NAMES, rows)) if mapping else rows},
        ])
        with pytest.raises(ValidationError, match="frame 1: keypoint 'left_knee'"):
            load_sequence(path)

    @pytest.mark.parametrize("bad", ["abc", [1.0]], ids=["string", "list"])
    def test_non_number_timestamp_and_fps(self, tmp_path, bad):
        path = tmp_path / "s.json"
        write_minimal_file(path, [
            {"id": "a", "t": 0.0, "keypoints": keypoint_rows()},
            {"id": "b", "t": bad, "keypoints": keypoint_rows()},
        ])
        with pytest.raises(ValidationError, match="frame 1: t"):
            load_sequence(path)
        doc = json.loads(path.read_text())
        doc["fps"], doc["frames"][1]["t"] = bad, 0.1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="fps"):
            load_sequence(path)

    def test_mapping_keypoints_reordered(self, tmp_path):
        path = tmp_path / "s.json"
        kp = {name: [float(i), float(i * 2), 1.0]
              for i, name in enumerate(JOINT_NAMES)}
        shuffled = dict(reversed(list(kp.items())))
        write_minimal_file(path, [
            {"id": "a", "t": 0.0, "keypoints": shuffled},
            {"id": "b", "t": 0.1, "keypoints": shuffled},
        ])
        seq = load_sequence(path)
        assert np.allclose(seq.frames[0].points[:, 0], np.arange(17))

    def test_timestamps_synthesized_from_fps(self, tmp_path):
        path = tmp_path / "s.json"
        write_minimal_file(path, [
            {"id": "a", "keypoints": keypoint_rows()},
            {"id": "b", "keypoints": keypoint_rows()},
        ])
        seq = load_sequence(path)
        assert seq.frames[1].timestamp == pytest.approx(1 / 30.0)

    def test_missing_timestamp_without_fps(self, tmp_path):
        path = tmp_path / "s.json"
        doc = {"exercise_id": "x", "class": "correct",
               "frames": [{"id": "a", "keypoints": keypoint_rows()}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="fps"):
            load_sequence(path)

    @pytest.mark.parametrize("timed", [True, False], ids=["t", "no-t"])
    @pytest.mark.parametrize("fps", [float("nan"), float("inf"), -30.0, 0.0],
                             ids=["nan", "inf", "negative", "zero"])
    def test_fps_must_be_positive_and_finite(self, tmp_path, fps, timed):
        path = tmp_path / "s.json"
        write_minimal_file(path, [{"id": f, "keypoints": keypoint_rows()}
                                  for f in "ab"])
        doc = json.loads(path.read_text())
        doc["fps"] = fps
        for i, frame in enumerate(doc["frames"]):
            if timed:
                frame["t"] = i / 30.0
        path.write_text(json.dumps(doc))
        message = f"^fps must be positive and finite, got {fps!r}$"
        with pytest.raises(ValidationError, match=message):
            load_sequence(path)
        with pytest.raises(ValidationError, match=message):
            Sequence(exercise_id="x", class_label="correct",
                     frames=make_sequence(2).frames, fps_hint=fps)

    def test_roundtrip_exact(self, tmp_path):
        for trial in range(20):
            seq = Sequence(
                exercise_id=f"ex{trial}",
                class_label=("groundtruth", "correct", "wrong")[trial % 3],
                frames=tuple(make_frame(i + trial * 100) for i in range(3)),
                fps_hint=None if trial % 2 else 25.0,
            )
            path = tmp_path / f"rt{trial}.json"
            save_sequence(seq, path)
            assert load_sequence(path) == seq

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(ValidationError):
            load_sequence(path)


def loaded_or_message(path):
    """What ``load_sequence`` makes of ``path``, in the form of
    ``reference.read_keypoint_file``: the sequence as plain values, or the
    message of its ``ValidationError``."""
    try:
        seq = load_sequence(path)
    except ValidationError as e:
        return str(e)
    return {"exercise_id": seq.exercise_id, "class": seq.class_label,
            "fps": seq.fps_hint,
            "frames": [(f.frame_id, f.timestamp,
                        np.column_stack((f.points, f.confidence)).tolist())
                       for f in seq.frames]}


def assert_reads_as_reference(path):
    """``load_sequence`` gives the reference reader's sequence or message;
    ``repr`` tells floats from ints and compares NaN fps too."""
    expected = reference.read_keypoint_file(path)
    assert repr(loaded_or_message(path)) == repr(expected)
    return expected


# Values put in one keypoint column of a file: numbers that load, numbers
# out of range, numeric strings, non-numbers and an integer beyond float.
CORPUS_VALUES = (None, "abc", "4.5", "nan", "-inf", [1.0], {"x": 1.0}, True,
                 False, float("nan"), float("inf"), -1.5, 1.5, 10 ** 400, 2 ** 70)
CORPUS_ROWS = (None, 5, "abc", [1.0, 2.0], [1.0, 2.0, 1.0, 0.0], {"x": 1.0})
CORPUS_TIMES = (None, "abc", "0.01", [0.1], -0.1, float("nan"), float("inf"),
                True, 10 ** 400, 2 ** 70)


def keypoint_corpus(seed=3):
    """Seeded three-frame keypoint documents, each with at most one fault."""
    rng = np.random.default_rng(seed)

    def base(mapping=False, fps=30.0):
        frames = []
        for i in range(3):
            rows = np.column_stack((rng.uniform(0, 640, (17, 2)),
                                    rng.uniform(0.1, 1.0, 17))).tolist()
            frames.append({"id": f"k{i}", "t": i / 30.0,
                           "keypoints": dict(zip(JOINT_NAMES, rows)) if mapping
                           else rows})
        return {"exercise_id": "squat", "class": "correct", "fps": fps,
                "frames": frames}

    def row(doc, frame, joint):
        """The keypoints of ``frame`` and the key of ``joint`` in them; a
        mapping names the left knee in upper case, as messages echo it."""
        kp = doc["frames"][frame]["keypoints"]
        if not isinstance(kp, dict):
            return kp, joint
        if joint == JointId.LEFT_KNEE:
            kp["LEFT_KNEE"] = kp.pop("left_knee")
            return kp, "LEFT_KNEE"
        return kp, JOINT_NAMES[joint]

    for mapping in (False, True):
        for frame in range(3):
            for joint in (0, JointId.LEFT_KNEE):
                for column in range(3):
                    for value in CORPUS_VALUES:
                        doc = base(mapping)
                        kp, key = row(doc, frame, joint)
                        kp[key][column] = value
                        yield doc
                for value in CORPUS_ROWS:
                    doc = base(mapping)
                    kp, key = row(doc, frame, joint)
                    kp[key] = value
                    yield doc
            for fps in (30.0, None, 0):
                for value in CORPUS_TIMES:
                    doc = base(mapping, fps)
                    doc["frames"][frame]["t"] = value
                    yield doc
                doc = base(mapping, fps)
                del doc["frames"][frame]["t"]
                yield doc
    for frame in range(3):
        for keypoints in (None, 5, "abc", [], keypoint_rows()[:16],
                          keypoint_rows() + [[1.0, 1.0, 1.0]]):
            doc = base()
            doc["frames"][frame]["keypoints"] = keypoints
            yield doc
        for change in ("missing", "unknown", "duplicate"):
            doc = base(mapping=True)
            kp = doc["frames"][frame]["keypoints"]
            knee = kp.pop("left_knee")
            if change == "unknown":
                kp["left_knees"] = knee
            elif change == "duplicate":
                kp["left_knee"] = kp["LEFT_KNEE"] = knee
            yield doc
        for raw in (5, [], {"t": 0.1}):
            doc = base()
            doc["frames"][frame] = raw
            yield doc
        for frame_id in (None, 7, "same"):
            doc = base()
            if frame_id is None:
                del doc["frames"][frame]["id"]
            else:
                doc["frames"][frame]["id"] = frame_id
            yield doc
    for fps in ("abc", [30.0], "30", -30.0, float("nan"), 10 ** 400, True):
        yield base(fps=fps)
    for n in (0, 1):
        doc = base()
        doc["frames"] = doc["frames"][:n]
        yield doc
    for edit in ("equal", "decreasing"):
        doc = base()
        doc["frames"][2]["t"] = doc["frames"][1]["t"] if edit == "equal" else 0.01
        yield doc
    for key in ("exercise_id", "class", "frames"):
        doc = base()
        del doc[key]
        yield doc
    for key, value in (("class", "great"), ("class", 3), ("exercise_id", 7),
                       ("frames", "abc"), ("frames", {})):
        doc = base()
        doc[key] = value
        yield doc
    yield []


class TestBulkLoad:
    """Every file takes one path: a structural pass, one conversion and one
    value check. ``reference.read_keypoint_file`` reads frame by frame, so
    on a file with one fault the two must agree on the sequence or the
    message."""

    def frames_of(self, tmp_path, frames):
        """Write ``frames`` as a 30 fps file; its path."""
        path = tmp_path / "s.json"
        doc = {"exercise_id": "mini", "class": "correct", "fps": 30.0,
               "frames": frames}
        path.write_text(json.dumps(doc))
        return path

    def test_single_fault_corpus_reads_as_the_reference(self, tmp_path):
        path = tmp_path / "s.json"
        outcomes = {"loaded": 0, "refused": 0}
        mismatches = []
        for k, doc in enumerate(keypoint_corpus()):
            path.write_text(json.dumps(doc))
            expected = reference.read_keypoint_file(path)
            got = loaded_or_message(path)
            if repr(got) != repr(expected):
                mismatches.append((k, got, expected))
            outcomes["refused" if isinstance(expected, str) else "loaded"] += 1
        assert mismatches == []
        assert outcomes["loaded"] > 100 and outcomes["refused"] > 400

    def test_synthetic_files_load_as_read_only_arrays(self, tmp_path):
        for seed, template in enumerate(("squat", "press", "pull")):
            seq, _ = generate(MotionSpec(
                template=template, n_frames=40 + seed, noise_std=1.0,
                injected_errors=(InjectedError(kind="angle_offset_deg",
                                               magnitude=30.0,
                                               joint=JointId.LEFT_ELBOW),)),
                seed=seed)
            path = tmp_path / f"{template}.json"
            save_sequence(seq, path)
            assert_reads_as_reference(path)
            loaded = load_sequence(path)
            assert loaded == seq
            for f in loaded.frames:
                for arr in (f.points, f.confidence):
                    assert arr.dtype == np.float64 and arr.flags.c_contiguous
                    assert not arr.flags.writeable

    def test_integers_and_booleans_load_as_floats(self, tmp_path):
        rows = [[j, 2 * j, j % 2 == 0] for j in range(17)]
        rows[3][2] = 1
        path = self.frames_of(tmp_path, [
            {"id": "a", "t": 0, "keypoints": rows},
            {"id": "b", "t": 1, "keypoints": rows},
        ])
        assert not isinstance(assert_reads_as_reference(path), str)
        seq = load_sequence(path)
        assert [type(f.timestamp) for f in seq.frames] == [float, float]
        assert seq.frames[1].points.dtype == seq.frames[1].confidence.dtype == np.float64
        assert seq.frames[1].confidence[:4].tolist() == [1.0, 0.0, 1.0, 1.0]

    @pytest.mark.parametrize("change", [
        lambda f: f[1]["keypoints"][4].__setitem__(0, "4.5"),
        lambda f: f[1].__setitem__("keypoints", dict(zip(JOINT_NAMES,
                                                         f[1]["keypoints"]))),
        lambda f: [rf.pop("t") for rf in f],
        lambda f: f[0].__setitem__("t", None),
        lambda f: f[1]["keypoints"][4].__setitem__(1, 2 ** 70),
    ], ids=["string-number", "mapping", "fps-timestamps", "null-t", "big-int"])
    def test_other_forms_load_as_the_reference_reads_them(self, tmp_path, change):
        frames = [{"id": "a", "t": 0.0, "keypoints": keypoint_rows()},
                  {"id": "b", "t": 0.1, "keypoints": keypoint_rows()}]
        change(frames)
        path = self.frames_of(tmp_path, frames)
        assert not isinstance(assert_reads_as_reference(path), str)

    @pytest.mark.parametrize("row, t, message", [
        ([1.0, 2.0, 1.5], 0.1, "frame 'b': confidence outside [0, 1]"),
        ([float("nan"), 2.0, 1.0], 0.1, "frame 'b': non-finite coordinates"),
        ([1.0, 2.0, 1.0], -0.1, "frame 'b': invalid timestamp"),
    ], ids=["confidence", "nan", "negative-t"])
    def test_invalid_values_keep_the_per_frame_message(self, tmp_path, row, t,
                                                       message):
        rows = keypoint_rows()
        rows[5] = row
        path = self.frames_of(tmp_path, [
            {"id": "a", "t": 0.0, "keypoints": keypoint_rows()},
            {"id": "b", "t": t, "keypoints": rows},
        ])
        with pytest.raises(ValidationError) as err:
            load_sequence(path)
        assert str(err.value) == message

    def test_structure_is_checked_before_values(self, tmp_path):
        # Frame 0 holds a value fault and a bad number, frame 2 a structural
        # fault; reading frame by frame would report frame 0 first.
        nan_rows, text_rows = keypoint_rows(), keypoint_rows()
        nan_rows[5][0] = float("nan")
        text_rows[5][0] = "abc"
        for rows in (nan_rows, text_rows):
            path = self.frames_of(tmp_path, [
                {"id": "a", "t": 0.0, "keypoints": rows},
                {"id": "b", "t": 0.1, "keypoints": keypoint_rows()},
                {"id": "c", "t": 0.2, "keypoints": keypoint_rows()[:16]},
            ])
            with pytest.raises(ValidationError) as err:
                load_sequence(path)
            assert str(err.value) == "frame 2: expected 17 keypoints, got 16"
            assert reference.read_keypoint_file(path).startswith("frame ")
            assert reference.read_keypoint_file(path) != str(err.value)
        # Among values, bad numbers come before out-of-range values.
        path = self.frames_of(tmp_path, [
            {"id": "a", "t": 0.0, "keypoints": nan_rows},
            {"id": "b", "t": 0.1, "keypoints": text_rows},
        ])
        with pytest.raises(ValidationError) as err:
            load_sequence(path)
        assert str(err.value) == ("frame 1: keypoint 'left_shoulder' must be "
                                  "[x, y, conf] numbers, got ['abc', 10.0, 1.0]")
        assert reference.read_keypoint_file(path) == "frame 'a': non-finite coordinates"


class TestAnnotationIO:
    def test_roundtrip(self, tmp_path):
        ann = Annotation(
            exercise_id="squat",
            targeted_joints=(JointId.LEFT_KNEE, JointId.LEFT_HIP),
            reference_angles={JointId.LEFT_KNEE: (90.0, 175.0)},
            per_frame_mistakes=(("f0001", JointId.LEFT_KNEE, "test"),),
            scores=(80.0, 90.0, 70.0),
        )
        path = tmp_path / "a.json"
        save_annotation(ann, path)
        assert load_annotation(path) == ann

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValidationError):
            Annotation(exercise_id="x",
                       reference_angles={JointId.LEFT_KNEE: (175.0, 90.0)})
