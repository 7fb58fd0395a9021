#!/usr/bin/env python3
"""Benchmark of the formcoach command-line interface.

    python3 bench/run.py --workload assess-batch --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports formcoach from
``src/`` there. It writes the workload's inputs (made from ``--seed``) under
``.bench_work/``, then drives ``formcoach.cli.main`` in this process as one
closed-loop client for at most ``--seconds`` seconds, in whole passes over
the inputs and at least one; a traced run sends exactly one pass. It checks every output, measures set-up time in fresh
interpreters and prints, as its last line, one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``). The full record of the run, with its context, sample
counts, quartiles and flag quality, goes to ``record.json`` in the run's
directory, and a traced run also writes ``spans.jsonl`` there.

See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import metrics
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("assess-long", "assess-batch", "train-score")
SETUP_REPEATS = 7
MAX_PROBLEMS = 20
SCORE_TOLERANCE = 1e-6

# Run in a fresh interpreter: import formcoach, then load each
# ``kind=path`` argument through the public loader for that kind.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import formcoach
loaders = {"config": formcoach.load_exercise_config,
           "sequence": formcoach.load_sequence,
           "checkpoint": formcoach.load_checkpoint}
for item in sys.argv[2:]:
    kind, path = item.split("=", 1)
    loaders[kind](path)
"""


def import_program():
    """Import formcoach from this checkout's sources, or exit non-zero."""
    package = SRC / "formcoach" / "__init__.py"
    if not package.is_file():
        sys.exit(f"bench: {package} not found; run from a formcoach checkout")
    sys.path.insert(0, str(SRC))
    import formcoach.cli
    if Path(formcoach.__file__).resolve() != package.resolve():
        sys.exit(f"bench: imported formcoach from {formcoach.__file__}, "
                 f"not from {package}")
    return formcoach


def call_cli(cli, argv) -> dict:
    """One closed-loop request: run ``formcoach`` with ``argv`` and time it."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:       # a crash is a failed operation, reported below
        rc, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    return {"argv": argv, "rc": rc, "seconds": seconds,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}


# ---------------------------------------------------------------------------
# Measured phases
# ---------------------------------------------------------------------------

def run_passes(cli, argv_for, n_requests: int, deadline: float,
               after_pass) -> list:
    """Send the pass's requests in order, pass after pass, while the next
    pass is expected to end by ``deadline``; always send one whole pass.
    ``after_pass`` runs between passes.

    Whole passes keep the mix of requests, and so the percentiles, the same
    in every run, however many passes fit.
    """
    records = []
    while True:
        pass_start = time.perf_counter()
        for index in range(n_requests):
            argv = argv_for(len(records), index)
            records.append(dict(call_cli(cli, argv), index=index))
        after_pass()
        now = time.perf_counter()
        if now + (now - pass_start) > deadline:
            return records


def run_assess(cli, manifest: dict, base: Path, out_root: Path,
               seconds: float, after_pass) -> dict:
    calls = manifest["calls"]

    def argv_for(k: int, index: int) -> list:
        call = calls[index]
        return ["assess", "--candidate",
                *[str(base / c["file"]) for c in call["candidates"]],
                "--reference", str(base / call["reference"]),
                "--config", str(base / call["config"]),
                "--out", str(out_root / f"call{k:04d}")]

    start = time.perf_counter()
    records = run_passes(cli, argv_for, len(calls), start + seconds, after_pass)
    return {"records": records, "phase_s": time.perf_counter() - start}


def run_train_score(cli, manifest: dict, base: Path, out_root: Path,
                    seconds: float, after_pass) -> dict:
    held_out = manifest["held_out"]
    ckpt = checkpoint_path(out_root)
    out_root.mkdir(parents=True)

    def argv_for(k: int, index: int) -> list:
        return ["score-model", "--checkpoint", str(ckpt),
                "--sequence", str(base / held_out[index]["file"])]

    start = time.perf_counter()
    train = call_cli(cli, ["train", "--dataset", str(base / manifest["dataset"]),
                           "--config", str(base / manifest["train_config"]),
                           "--checkpoint-out", str(ckpt)])
    records = run_passes(cli, argv_for, len(held_out), start + seconds, after_pass)
    return {"records": records, "train": train, "checkpoint": ckpt,
            "phase_s": time.perf_counter() - start}


# ---------------------------------------------------------------------------
# Output checks (a failed check fails its operation; nothing is skipped)
# ---------------------------------------------------------------------------

def _exit_problems(rec: dict) -> list:
    if rec["error"]:
        return [f"{rec['argv'][0]} raised:\n{rec['error']}"]
    if rec["rc"] != 0:
        return [f"{rec['argv'][0]} exited {rec['rc']}: {rec['stderr'][-500:]}"]
    return []


def _in_range(label: str, value) -> list:
    if not 0.0 <= float(value) <= 100.0:
        return [f"{label} score {value} outside [0, 100]"]
    return []


def check_assess_call(rec: dict, call: dict, base: Path, quality) -> list:
    """Problems with one assess call's outputs; feeds ``quality`` if given."""
    from formcoach.assessment import load_report, report_to_dict

    problems = _exit_problems(rec)
    out = Path(rec["argv"][rec["argv"].index("--out") + 1])
    for entry in call["candidates"]:
        stem = Path(entry["file"]).name.removesuffix(".sequence.json")
        report_path = out / f"{stem}_report.json"
        index_path = out / f"{stem}_aids_index.json"
        try:
            doc = json.loads(report_path.read_text())
            report = load_report(report_path)
            index = json.loads(index_path.read_text())
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems.append(f"{stem}: unreadable output: {e!r}")
            continue
        if report_to_dict(report) != doc:
            problems.append(f"{stem}: report does not round-trip through load_report")
        for key in ("joint", "pace", "range"):
            if doc[key] != "/":     # "/" is a range that does not apply
                problems.extend(f"{stem}: {p}" for p in _in_range(key, doc[key]))
        if not isinstance(index, list) or not all(
                (out / item["file"]).is_file() for item in index):
            problems.append(f"{stem}: aids index names missing files")
        if entry["kind"] == "identity":
            if (abs(doc["joint"] - 100.0) > SCORE_TOLERANCE
                    or abs(doc["pace"] - 100.0) > SCORE_TOLERANCE):
                problems.append(f"{stem}: identity scored joint={doc['joint']} "
                                f"pace={doc['pace']}, not 100")
            if doc["corrections"] or index:
                problems.append(f"{stem}: identity raised flags")
        if quality is not None:
            annotation = json.loads((base / entry["annotation"]).read_text())
            quality.add(entry, doc, annotation)
    return problems


def check_train(phase: dict, epochs: int) -> list:
    from formcoach.sttf import load_checkpoint

    problems = _exit_problems(phase["train"])
    if problems:
        return problems
    ckpt = phase["checkpoint"]
    try:
        load_checkpoint(ckpt)
        rows = Path(str(ckpt) + ".loss.csv").read_text().splitlines()[1:]
        losses = [float(r.split(",")[1]) for r in rows]
    except (OSError, ValueError, IndexError) as e:
        return [f"train outputs unreadable: {e!r}"]
    if len(losses) != epochs or not all(map(math.isfinite, losses)):
        problems.append(f"loss curve has {len(losses)} rows, expected {epochs} finite")
    return problems


def check_score(rec: dict) -> list:
    problems = _exit_problems(rec)
    if problems:
        return problems
    try:
        scores = json.loads(rec["stdout"])
        return [p for key in ("joint", "pace", "range")
                for p in _in_range(key, scores[key])]
    except (ValueError, KeyError, TypeError) as e:
        return [f"score-model output unreadable: {e!r}"]


# ---------------------------------------------------------------------------
# Set-up time and context
# ---------------------------------------------------------------------------

def checkpoint_path(out_root: Path) -> Path:
    return out_root / "model.ckpt.json"


def setup_items(workload: str, manifest: dict, base: Path, out_root: Path) -> list:
    """``kind=path`` arguments naming the files the workload sets up from."""
    if workload == "train-score":
        return [f"checkpoint={checkpoint_path(out_root)}"]
    return sorted({f"{kind}={base / call[key]}" for call in manifest["calls"]
                   for kind, key in (("config", "config"), ("sequence", "reference"))})


class SetupSampler:
    """Wall time of a fresh interpreter that imports formcoach and loads the
    workload's files.

    The machine's speed drifts, so the samples are spread over the run: at
    most one after each pass, ``spacing`` seconds apart. ``finish`` tops them
    up to ``SETUP_REPEATS``.
    """

    def __init__(self, items: list, spacing: float):
        self.items = items
        self.spacing = spacing
        self.times: list = []
        self.problems: list = []
        self.next_due = time.perf_counter()

    def sample(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *self.items],
                              capture_output=True, text=True)
        self.times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            self.problems.append(f"set-up exited {proc.returncode}: {proc.stderr[-500:]}")

    def after_pass(self) -> None:
        if len(self.times) < SETUP_REPEATS and time.perf_counter() >= self.next_due:
            self.sample()
            self.next_due = time.perf_counter() + self.spacing

    def finish(self) -> tuple:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return self.times, self.problems


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(seed: int, digest: str) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "seed": seed, "input_digest": digest}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def run_phase(fc, workload: str, manifest: dict, base: Path, out_root: Path,
              seconds: float, after_pass) -> dict:
    run = run_train_score if workload == "train-score" else run_assess
    return run(fc.cli, manifest, base, out_root, seconds, after_pass)


def check_phase(workload: str, manifest: dict, base: Path, phase: dict) -> dict:
    """Check every operation's outputs; flag quality comes from the first pass."""
    quality = metrics.Quality()
    items = 0
    if workload == "train-score":
        ops = [phase["train"]] + phase["records"]
        checks = [check_train(phase, manifest["epochs"])]
        checks += [check_score(rec) for rec in phase["records"]]
        items = sum(not p for p in checks[1:])
    else:
        ops = phase["records"]
        calls = manifest["calls"]
        checks = []
        for k, rec in enumerate(ops):
            call = calls[rec["index"]]
            checks.append(check_assess_call(rec, call, base,
                                            quality if k < len(calls) else None))
            items += 0 if checks[-1] else len(call["candidates"])
    return {"phase": phase, "ops": ops, "failed": [bool(p) for p in checks],
            "items": items, "problems": [p for ps in checks for p in ps],
            "quality": quality.result()}


def end_to_end(result: dict, setup_times: list) -> tuple:
    samples = [rec["seconds"] for rec in result["phase"]["records"]]
    tail_value, tail_pct = metrics.tail(samples)
    values = {
        "setup_s": statistics.median(setup_times),
        "call_s_p90": metrics.p90(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"call_s": metrics.summary(samples), "call_s_tail": tail_value,
              "call_s_tail_percentile": tail_pct, "call_seconds": samples,
              "setup_s": metrics.summary(setup_times), "items": result["items"],
              "items_per_s": result["items"] / sum(op["seconds"] for op in result["ops"]),
              "phase_s": result["phase"]["phase_s"]}
    return values, detail


def workload_metrics(workload: str, values: dict, detail: dict, result: dict) -> dict:
    """The end-to-end numbers under the names the workload's own docs use."""
    attempted = len(result["ops"])
    named = {"setup_s": values["setup_s"], "peak_rss_mb": values["peak_rss_mb"],
             "failed_frac": sum(result["failed"]) / attempted}
    if workload == "train-score":
        named.update(train_s=result["phase"]["train"]["seconds"],
                     score_s_p50=detail["call_s"]["median"],
                     score_s_p90=values["call_s_p90"],
                     score_s_tail=detail["call_s_tail"],
                     score_s_tail_percentile=detail["call_s_tail_percentile"],
                     scored_per_s=detail["items_per_s"])
    else:
        quality = result["quality"]
        named.update(assess_s_p50=detail["call_s"]["median"],
                     assess_s_p90=values["call_s_p90"],
                     assess_s_tail=detail["call_s_tail"],
                     assess_s_tail_percentile=detail["call_s_tail_percentile"],
                     candidates_per_s=detail["items_per_s"],
                     flag_recall=quality["flag_recall"],
                     flag_precision=quality["flag_precision"],
                     pace_gap=quality["pace_gap"])
    return named


def per_layer(names: list, tracer, warnings: dict, quality: dict) -> tuple:
    values, absent = {}, []
    for name in names:
        group, _, key = name.partition(".")
        if group == "log":
            value = warnings.get(key)
        elif group == "quality":
            value = quality.get(key)
        else:
            value = tracer.value(name)
        if value is None:
            absent.append(name)
            value = 0
        values[name] = value
    return values, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    fc = import_program()
    import inputs   # imports formcoach, so only once it is on the path

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_dir = WORK / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    base, out_root = run_dir / "inputs", run_dir / "out"
    manifest = inputs.write_inputs(args.workload, base, args.seed)
    digest = inputs.digest(base)

    sampler = SetupSampler(setup_items(args.workload, manifest, base, out_root),
                           args.seconds / SETUP_REPEATS)
    tracer = tracing.Tracer()
    with contextlib.ExitStack() as stack:
        warnings = stack.enter_context(tracing.counting_warnings())
        absent_functions = (stack.enter_context(tracing.installed(tracer))
                            if args.trace else [])
        # A traced run sends exactly one pass, so its counts repeat exactly.
        phase = run_phase(fc, args.workload, manifest, base, out_root,
                          0 if args.trace else args.seconds, sampler.after_pass)
    result = check_phase(args.workload, manifest, base, phase)
    setup_times, setup_problems = sampler.finish()
    result["problems"] += setup_problems
    values, detail = end_to_end(result, setup_times)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "context": context(args.seed, digest),
              "end_to_end": values, "samples": detail,
              "workload_metrics": workload_metrics(args.workload, values, detail, result),
              "quality": result["quality"], "log": dict(warnings),
              "attempted": len(result["ops"]), "failed": sum(result["failed"]),
              "problems": result["problems"][:MAX_PROBLEMS]}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        layer_values, absent = per_layer(names, tracer, warnings, result["quality"])
        record.update(per_layer=layer_values, absent=absent,
                      absent_functions=absent_functions)
        untraced = run_dir.with_name(f"seed{args.seed}-trace0") / "record.json"
        if untraced.is_file():
            base_values = json.loads(untraced.read_text())["end_to_end"]
            record["trace_overhead"] = {
                k: {"traced": v, "untraced": base_values[k], "diff": v - base_values[k]}
                for k, v in values.items() if k in base_values}
        tracer.write_spans(run_dir / "spans.jsonl")
        declared = spec["per_layer"]
        reported = layer_values
    else:
        declared = spec["end_to_end"]
        reported = values

    with open(run_dir / "cli.log", "w") as log:
        for rec in result["ops"]:
            log.write(f"$ formcoach {' '.join(rec['argv'])}\n{rec['stdout']}{rec['stderr']}")
    ok = not result["problems"]
    if ok:
        shutil.rmtree(base)
        shutil.rmtree(out_root, ignore_errors=True)
    (run_dir / "record.json").write_text(json.dumps(record, indent=1, default=str))

    for problem in result["problems"][:MAX_PROBLEMS]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['attempted']} operations, {record['failed']} failed; "
          f"record in {run_dir.relative_to(ROOT)}/record.json")
    print(json.dumps({
        "correct": ok,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": reported[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
