"""Unit tests of the benchmark's own helpers.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metrics  # noqa: E402
import tracer as tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _nested(fold: bool):
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def child(seconds):
        clock.now += seconds

    def parent():
        clock.now += 1.0
        traced_child(2.0)
        clock.now += 1.0
        traced_child(3.0)
        clock.now += 1.0

    traced_child = tracer.wrap("m.child", child, fold=fold)
    traced_parent = tracer.wrap("m.parent", parent)
    traced_parent()
    return tracer


@pytest.mark.parametrize("fold", [False, True])
def test_self_time_subtracts_children(fold):
    tracer = _nested(fold)
    assert tracer.value("m.parent.total_s") == 8.0
    assert tracer.value("m.parent.self_s") == 3.0
    assert tracer.value("m.child.calls") == 2
    assert tracer.value("m.child.total_s") == 5.0
    assert tracer.value("m.child.self_s") == 5.0
    parent_id = next(s["id"] for s in tracer.spans if s["name"] == "m.parent")
    if fold:
        (group,) = tracer.folded.values()
        assert (group["parent"], group["calls"], group["total_s"]) == (parent_id, 2, 5.0)
    else:
        children = [s for s in tracer.spans if s["name"] == "m.child"]
        assert [s["parent"] for s in children] == [parent_id, parent_id]
        assert [(s["start"], s["end"]) for s in children] == [(1.0, 3.0), (4.0, 7.0)]


def test_spans_written_as_json_lines(tmp_path):
    tracer = _nested(fold=True)
    tracer.write_spans(tmp_path / "spans.jsonl")
    lines = [json.loads(l) for l in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert sorted(l["name"] for l in lines) == ["m.child", "m.parent"]


def test_failed_call_is_recorded_and_reraised():
    tracer = tracing.Tracer(FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("m.boom", boom)()
    assert tracer.value("m.boom.calls") == 1
    assert tracer.spans[0]["error"] == "KeyError"


def test_unknown_function_value_is_none():
    assert tracing.Tracer().value("m.never.calls") is None


@pytest.mark.parametrize("n", [1, 2, 10, 19, 20])
def test_tail_is_median_below_twenty_samples(n):
    values = [float(v) for v in range(n)]
    assert metrics.tail(values) == (metrics.statistics.median(values), 50.0)


@pytest.mark.parametrize("n", [21, 22, 57, 100, 1000])
def test_tail_has_ten_samples_beyond(n):
    values = [float(v) for v in reversed(range(n))]
    value, percentile = metrics.tail(values)
    assert sum(v > value for v in values) == metrics.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (n - metrics.TAIL_BEYOND) / n)


def test_tail_of_hundred_samples_is_p90():
    assert metrics.tail(range(1, 101)) == (90, 90.0)


def test_p90_interpolates():
    assert metrics.p90([float(v) for v in range(11)]) == 9.0
    assert metrics.p90([1.0, 2.0]) == pytest.approx(1.9)
    assert metrics.p90([3.0]) == 3.0


def test_summary_quartiles():
    s = metrics.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["n"], s["median"], s["q1"], s["q3"]) == (5, 3.0, 1.5, 4.5)
    assert metrics.summary([2.0]) == {"n": 1, "median": 2.0}


REPORT = {"pace": 80.0, "corrections": [
    {"text": "a", "joint": "left_knee", "frames": ["f0003", "f0007"]},
    {"text": "b", "joint": "left_hip", "frames": ["f0003"]},
]}
ANNOTATION = {"per_frame_mistakes": [
    {"frame_id": f"f{i:04d}", "joint": "left_knee", "note": "angle_offset_deg=45"}
    for i in range(2, 6)] + [
    {"frame_id": "f0003", "joint": "left_hip", "note": "speed_factor=2"},
]}


def test_flag_matching_is_exact_frame_and_joint():
    cited = metrics.cited_pairs(REPORT)
    assert cited == {("f0003", "left_knee"), ("f0007", "left_knee"),
                     ("f0003", "left_hip")}
    offsets = metrics.injected_pairs(ANNOTATION, "angle_offset_deg")
    assert len(offsets) == 4
    assert metrics.flag_hits(cited, offsets) == 1
    assert metrics.flag_hits(cited, metrics.injected_pairs(ANNOTATION)) == 2
    assert metrics.flag_hits({("f0003", "right_knee")}, offsets) == 0


def test_quality_recall_precision_and_pace_gap():
    quality = metrics.Quality()
    quality.add({"kind": "offset", "magnitude": 45.0}, REPORT, ANNOTATION)
    quality.add({"kind": "clean", "magnitude": None},
                {"pace": 90.0, "corrections": []}, {"per_frame_mistakes": []})
    quality.add({"kind": "speed", "magnitude": 2.0},
                {"pace": 60.0, "corrections": []}, {"per_frame_mistakes": []})
    result = quality.result()
    assert result["flag_recall"] == 1 / 4
    assert result["flag_precision"] == 2 / 3
    assert result["pace_gap"] == 30.0
    assert result["recall_by_offset_deg"] == {"45": 1 / 4}


def _bindings():
    return {(name, key): value for name, m in sorted(sys.modules.items())
            if name == "formcoach" or name.startswith("formcoach.")
            for key, value in vars(m).items() if callable(value)}


def test_wrappers_patch_every_binding_and_restore_originals():
    import formcoach
    import formcoach.cli  # noqa: F401  (the package does not import it)
    from formcoach import alignment, assessment, kinematics, sttf

    before = _bindings()
    forward = vars(sttf.STTFModel)["forward"]
    original = alignment.dtw_align
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()) as absent:
            assert absent == []
            assert alignment.dtw_align is not original
            assert assessment.dtw_align is alignment.dtw_align
            assert formcoach.dtw_align is alignment.dtw_align
            assert alignment.frame_cosine is kinematics.frame_cosine
            assert vars(sttf.STTFModel)["forward"] is not forward
            raise RuntimeError("leave the block with an error")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert vars(sttf.STTFModel)["forward"] is forward


def test_missing_function_is_absent_not_an_error():
    targets = (tracing.Target("alignment", "no_such_function"),
               tracing.Target("sttf", "NoSuchClass.forward"),
               tracing.Target("no_such_module", "f"))
    with tracing.installed(tracing.Tracer(), targets) as absent:
        assert absent == [t.name for t in targets]


def test_traced_assess_counts_every_dtw_cell():
    from formcoach import assessment
    from formcoach.synth import MotionSpec, exercise_config, generate

    cand, _ = generate(MotionSpec(template="press", n_frames=12, noise_std=1.0), seed=1)
    ref, ann = generate(MotionSpec(template="press", n_frames=10), seed=0)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assessment.assess_pair(cand, ref, exercise_config("press", ann))
    assert tracer.value("alignment.dtw_align.cells") == 120
    assert tracer.value("kinematics.frame_cosine.calls") == 120
    assert tracer.value("assessment.assess_pair.self_s") < tracer.value(
        "assessment.assess_pair.total_s")


def test_warning_records_counted_and_factory_restored():
    import logging

    factory = logging.getLogRecordFactory()
    with tracing.counting_warnings() as counts:
        logging.getLogger("formcoach.kinematics").warning("counted")
        logging.getLogger("formcoach").info("below warning")
        logging.getLogger("other").warning("not formcoach")
    assert counts["warning_records"] == 1
    assert logging.getLogRecordFactory() is factory


def test_declared_per_layer_metrics_resolve():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    functions = {t.name: t for t in tracing.TARGETS}
    for metric in spec["per_layer"]:
        group, _, key = metric["name"].partition(".")
        if group == "log":
            assert key == "warning_records"
        elif group == "quality":
            assert key in metrics.Quality().result()
        else:
            function, _, stat = metric["name"].rpartition(".")
            target = functions[function]
            assert stat in ("calls", "total_s", "self_s") or stat in dict(target.counters)
