import gc
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import reference
from formcoach.skeleton import (Annotation, Frame, FrameViews, JointId, Sequence,
                                ValidationError, JOINT_NAMES, annotation_to_dict,
                                load_annotation,
                                load_sequence, read_json, save_annotation, save_sequence,
                                write_json_atomic, write_text_atomic)
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
    def test_occlusion_mask(self):
        conf = np.ones(17)
        conf[4] = 0.01
        f = Frame(frame_id="x", timestamp=0.0, points=np.zeros((17, 2)),
                  confidence=conf)
        mask = f.occlusion_mask(0.05)
        assert mask[4] and mask.sum() == 1


def sequence_starting_with(frame):
    """A two-frame sequence whose first frame is ``frame``."""
    return Sequence(exercise_id="x", class_label="correct",
                    frames=(frame, make_frame(1)))


class TestSequenceValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            sequence_starting_with(
                Frame(frame_id="x", timestamp=0.0, points=np.zeros((16, 2)),
                      confidence=np.ones(17)))

    def test_rejects_nan(self):
        pts = np.zeros((17, 2))
        pts[3, 0] = np.nan
        with pytest.raises(ValidationError):
            sequence_starting_with(
                Frame(frame_id="x", timestamp=0.0, points=pts, confidence=np.ones(17)))

    def test_rejects_confidence_out_of_range(self):
        with pytest.raises(ValidationError):
            sequence_starting_with(
                Frame(frame_id="x", timestamp=0.0, points=np.zeros((17, 2)),
                      confidence=np.full(17, 1.5)))

    def test_points_are_immutable(self):
        f = sequence_starting_with(make_frame(0)).frames[0]
        with pytest.raises(ValueError):
            f.points[0, 0] = 99.0

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

    @pytest.mark.parametrize("fault", [
        lambda frames: frames[1].points.__setitem__((3, 0), np.nan),
        lambda frames: frames[2].confidence.__setitem__(5, 1.5),
        lambda frames: frames.__setitem__(2, replace(frames[2], timestamp=0.01)),
        lambda frames: frames.__setitem__(2, replace(frames[2], frame_id="f0000")),
    ], ids=["nan", "confidence", "timestamp-order", "repeated-id"])
    def test_fault_message_is_the_same_in_code_and_in_a_file(self, tmp_path, fault):
        frames = [make_frame(i) for i in range(4)]
        fault(frames)
        with pytest.raises(ValidationError) as built:
            Sequence(exercise_id="x", class_label="correct", frames=frames)
        path = tmp_path / "s.json"
        write_minimal_file(path, [
            {"id": f.frame_id, "t": f.timestamp,
             "keypoints": np.column_stack((f.points, f.confidence)).tolist()}
            for f in frames])
        with pytest.raises(ValidationError) as loaded:
            load_sequence(path)
        assert str(loaded.value) == str(built.value)

    def test_frames_are_read_only_views_of_a_copy(self):
        frames = [make_frame(i) for i in range(3)]
        seq = Sequence(exercise_id="x", class_label="correct", frames=frames)
        before = seq.points.copy()
        for i, f in enumerate(seq.frames):
            assert np.shares_memory(f.points, seq.points)
            assert np.array_equal(f.points, seq.points[i])
            assert not f.points.flags.writeable
        assert not seq.points.flags.writeable
        for f in frames:
            f.points[:] = -1.0
            f.confidence[:] = 0.0
        assert np.array_equal(seq.points, before)
        assert not seq.occlusion_mask().any()


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

    @pytest.mark.parametrize("text", ["[" * 5000, '{"a": ' * 5000])
    def test_nested_too_deep_is_not_valid_json(self, tmp_path, text):
        """The decoder's RecursionError is a validation error too."""
        path = tmp_path / "deep.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match=r"^not valid JSON \(nested too deep\)$"):
            read_json(path)


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
        for change in ("missing", "unknown", "extra", "duplicate"):
            doc = base(mapping=True)
            kp = doc["frames"][frame]["keypoints"]
            knee = kp.pop("left_knee")
            if change == "unknown":
                kp["left_knees"] = knee
            elif change == "extra":
                kp["left_knee"] = kp["elbowz"] = knee
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
        ([1.0, -1.5e100, 1.0], 0.1, "frame 'b': coordinate magnitude above 1e+100"),
    ], ids=["confidence", "nan", "negative-t", "huge"])
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
        assert reference.read_keypoint_file(path) == message

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

    def test_dropped_keys_of_older_files_are_ignored(self, tmp_path):
        """Files that still carry ``rom_limits`` load to the same annotation
        as files without it."""
        ann = Annotation(exercise_id="squat", targeted_joints=(JointId.LEFT_KNEE,),
                         reference_angles={JointId.LEFT_KNEE: (90.0, 175.0)})
        doc = annotation_to_dict(ann)
        doc["rom_limits"] = {"left_knee": [30.0, 180.0]}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        assert load_annotation(path) == ann

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValidationError):
            Annotation(exercise_id="x",
                       reference_angles={JointId.LEFT_KNEE: (175.0, 90.0)})


def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.json"
    write_text_atomic(path, "old\n")
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(path, "\ud800")    # a lone surrogate is not UTF-8
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_writer_refuses_non_finite_floats(tmp_path, value):
    """JSON (RFC 8259) has no token for NaN or the infinities, so the writer
    raises instead of writing one, and leaves no file and no temp file."""
    with pytest.raises(ValueError):
        write_json_atomic(tmp_path / "out.json", {"deviations": [[0.5, value]]})
    assert list(tmp_path.iterdir()) == []


def synthetic_file(tmp_path, n_frames=20):
    """A saved noisy squat; returns its path."""
    seq, _ = generate(MotionSpec(template="squat", n_frames=n_frames, noise_std=1.0),
                      seed=4)
    path = tmp_path / "squat.json"
    save_sequence(seq, path)
    return path


class TestFrameViews:
    """``Sequence.frames`` are made on read from the sequence's arrays."""

    def test_index_slice_iteration_and_length(self, tmp_path):
        seq = load_sequence(synthetic_file(tmp_path))
        for i in (0, 7, -1):
            f = seq.frames[i]
            assert isinstance(f, Frame) and f.frame_id == seq.frame_ids[i]
            assert type(f.timestamp) is float and f.timestamp == seq.timestamps[i]
            assert np.array_equal(f.points, seq.points[i])
            assert np.array_equal(f.confidence, seq.confidence[i])
        part = seq.frames[2:8:3]
        assert type(part) is tuple and all(isinstance(f, Frame) for f in part)
        assert [f.frame_id for f in part] == [seq.frame_ids[2], seq.frame_ids[5]]
        assert len(seq.frames) == len(seq) == 20
        assert [f.frame_id for f in seq.frames] == list(seq.frame_ids)
        with pytest.raises(IndexError):
            seq.frames[20]

    def test_replace_with_a_prefix_equals_the_loaded_prefix(self, tmp_path):
        path = synthetic_file(tmp_path)
        seq = load_sequence(path)
        doc = json.loads(path.read_text())
        doc["frames"] = doc["frames"][:7]
        prefix = tmp_path / "prefix.json"
        prefix.write_text(json.dumps(doc))
        assert replace(seq, frames=seq.frames[:7]) == load_sequence(prefix)
        assert replace(seq) == seq

    def test_a_frame_edited_from_a_view_replaces_only_its_row(self, tmp_path):
        """A confidence edit made frame by frame, as the benchmark's inputs
        occlude a joint: build a ``Frame`` from a view, then ``replace``."""
        seq = load_sequence(synthetic_file(tmp_path))
        hide, joint = {3, 11}, JointId.LEFT_KNEE
        frames = []
        for i, f in enumerate(seq.frames):
            if i in hide:
                conf = f.confidence.copy()
                conf[joint] = 0.0
                f = Frame(frame_id=f.frame_id, timestamp=f.timestamp,
                          points=f.points, confidence=conf)
            frames.append(f)
        edited = replace(seq, frames=tuple(frames))
        expected = seq.confidence.copy()
        expected[sorted(hide), joint] = 0.0
        assert np.array_equal(edited.confidence, expected)
        assert np.array_equal(edited.points, seq.points)
        assert np.array_equal(edited.timestamps, seq.timestamps)
        assert edited.frame_ids == seq.frame_ids
        assert not edited.confidence.flags.writeable

    def test_views_with_wrong_shapes_are_refused(self):
        ids = ("a", "b")
        with pytest.raises(ValidationError, match=r"points must be \(2, 17, 2\)"):
            Sequence("x", "correct", FrameViews(ids, np.arange(2.0), np.zeros((2, 17, 3)),
                                                np.ones((2, 17))))
        with pytest.raises(ValidationError, match=r"timestamps must be \(2,\)"):
            Sequence("x", "correct", FrameViews(ids, np.arange(3.0), np.zeros((2, 17, 2)),
                                                np.ones((2, 17))))

    def test_no_frame_is_made_until_frames_is_read(self, tmp_path, monkeypatch):
        path = synthetic_file(tmp_path)
        made = []
        init = Frame.__init__

        def counting_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Frame, "__init__", counting_init)
        seq = load_sequence(path)
        generate(MotionSpec(template="press", n_frames=12), seed=1)
        assert made == []
        seq.frames[3]
        assert made == [1]


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_the_cycle_collector_as_it_found_it(tmp_path, enabled):
    good = synthetic_file(tmp_path)
    bad = tmp_path / "bad.json"
    write_minimal_file(bad, [{"t": 0.0, "keypoints": keypoint_rows()[:16]}])
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        load_sequence(good)
        assert gc.isenabled() is enabled
        with pytest.raises(ValidationError, match="expected 17 keypoints"):
            load_sequence(bad)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_a_load_leaves_no_cyclic_garbage(tmp_path):
    """The collector is paused during a load, so a load must not make
    cycles: with the collector off, a collection right after finds none."""
    path = synthetic_file(tmp_path, n_frames=300)
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        seq = load_sequence(path)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
    assert len(seq) == 300
