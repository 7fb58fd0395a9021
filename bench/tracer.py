"""Span tracer that instruments formcoach from outside the program.

The benchmark does not change formcoach to trace it. Instead, for each
public function in ``TARGETS`` it installs a wrapper under every name that
binds the function in a ``formcoach.*`` module namespace (or, for a method,
on its class), and restores the originals afterwards. Each wrapped call
records a span (name, start, end, parent) plus counters, and adds to the
function's totals: calls, total seconds and self seconds.

Self time is a span's duration minus the time covered by its child spans.
Calls nest in one thread, so the covered time is the sum of the children's
durations.

Functions called once per frame or per DTW cell (``fold=True``) would make
hundreds of thousands of spans per run; their calls still count in the
totals, but their spans are folded into one record per (parent span,
function).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import logging
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

Counter = Callable[[object, tuple, dict], float]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _file_size(index: int, name: str) -> Counter:
    return lambda result, args, kwargs: os.path.getsize(_arg(args, kwargs, index, name))


def _result_len(result, args, kwargs) -> float:
    return len(result)


def _dtw_cells(result, args, kwargs) -> float:
    return len(_arg(args, kwargs, 0, "cand")) * len(_arg(args, kwargs, 1, "ref"))


def _utf8_len(result, args, kwargs) -> float:
    return len(result.encode("utf-8"))


def _frames(result, args, kwargs) -> float:
    return len(result.frames)


@dataclass(frozen=True)
class Target:
    """One formcoach function to wrap, named ``<module>.<qualname>``."""

    module: str                 # module under formcoach, e.g. "alignment"
    qualname: str               # "dtw_align" or "STTFModel.forward"
    fold: bool = False
    counters: Tuple[Tuple[str, Counter], ...] = ()

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


T = Target
TARGETS: Tuple[Target, ...] = (
    T("cli", "main"),
    T("cli", "build_frame_aids"),
    T("config", "load_exercise_config"),
    T("skeleton", "load_sequence", counters=(("frames", _frames),)),
    T("skeleton", "load_annotation"),
    T("skeleton", "write_json_atomic", counters=(("bytes", _file_size(0, "path")),)),
    T("skeleton", "write_text_atomic", counters=(("bytes", _file_size(0, "path")),)),
    T("normalize", "normalize_global", fold=True),
    T("normalize", "normalize_local", fold=True),
    T("kinematics", "joint_vectors", fold=True),
    T("kinematics", "frame_cosine", fold=True),
    T("kinematics", "joint_angle", fold=True),
    T("alignment", "dtw_align", counters=(("cells", _dtw_cells),
                                          ("path_len", _result_len))),
    T("alignment", "pace_profile"),
    T("assessment", "assess_pair"),
    T("assessment", "range_score"),
    T("assessment", "frame_deviations"),
    T("assessment", "flag_mistakes", counters=(("flags", _result_len),)),
    T("assessment", "textual_feedback"),
    T("assessment", "save_report"),
    T("correction", "build_aid"),
    T("correction", "render_svg", counters=(("bytes", _utf8_len),)),
    T("sttf", "sequence_to_model_input"),
    T("sttf", "STTFModel.forward"),
    T("sttf", "STTFModel.backward"),
    T("sttf", "train"),
    T("sttf", "save_checkpoint", counters=(("bytes", _file_size(1, "path")),)),
    T("sttf", "load_checkpoint", counters=(("bytes", _file_size(0, "path")),)),
)
del T


class Stat:
    """Totals for one wrapped function."""

    __slots__ = ("calls", "total_s", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters: Dict[str, float] = {}


class Tracer:
    """Collects spans and per-function totals in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.t0 = clock()
        self.stats: Dict[str, Stat] = {}
        self.spans: List[dict] = []
        self.folded: Dict[Tuple[int, str], dict] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, fold: bool = False,
             counters: Tuple[Tuple[str, Counter], ...] = ()) -> Callable:
        """Return ``fn`` wrapped so that each call is traced under ``name``."""
        stat = self.stats.setdefault(name, Stat())
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            parent_id = parent[0] if parent else 0
            # A frame is [span id, start, seconds covered by children].
            frame = [parent_id if fold else next(self._ids), 0.0, 0.0]
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                self._finish(name, stat, frame, parent, end, fold,
                             {}, type(exc).__name__)
                raise
            end = clock()
            stack.pop()
            counts = {}
            for key, count in counters:
                try:
                    counts[key] = count(result, args, kwargs)
                except (LookupError, TypeError, AttributeError, OSError):
                    pass    # the signature or result changed: counter absent
            self._finish(name, stat, frame, parent, end, fold, counts, None)
            return result

        return traced

    def _finish(self, name, stat, frame, parent, end, fold, counts, error):
        span_id, start, covered = frame
        duration = end - start
        if parent is not None:
            parent[2] += duration
        parent_id = parent[0] if parent else 0
        with self._lock:
            stat.calls += 1
            stat.total_s += duration
            stat.self_s += duration - covered
            for key, value in counts.items():
                stat.counters[key] = stat.counters.get(key, 0) + value
            if fold:
                group = self.folded.get((parent_id, name))
                if group is None:
                    group = self.folded[(parent_id, name)] = {
                        "name": name, "parent": parent_id, "folded": True,
                        "calls": 0, "total_s": 0.0, "self_s": 0.0,
                        "start": start - self.t0}
                group["calls"] += 1
                group["total_s"] += duration
                group["self_s"] += duration - covered
                group["end"] = end - self.t0
            else:
                span = {"id": span_id, "parent": parent_id, "name": name,
                        "start": start - self.t0, "end": end - self.t0,
                        "self_s": duration - covered}
                if counts:
                    span["counters"] = counts
                if error:
                    span["error"] = error
                self.spans.append(span)

    def write_spans(self, path: Path) -> None:
        """Write every span, then every folded group, as JSON lines."""
        with open(path, "w") as fh:
            for record in itertools.chain(self.spans, self.folded.values()):
                fh.write(json.dumps(record) + "\n")

    def value(self, metric: str):
        """Value of ``<module>.<function>.<stat>``, or None if never wrapped."""
        function, _, key = metric.rpartition(".")
        stat = self.stats.get(function)
        if stat is None:
            return None
        if key in ("calls", "total_s", "self_s"):
            return getattr(stat, key)
        return stat.counters.get(key, 0)


def _formcoach_modules() -> List[object]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "formcoach" or name.startswith("formcoach."))]


@contextmanager
def installed(tracer: Tracer, targets=TARGETS) -> Iterator[List[str]]:
    """Wrap every target while the block runs; yield the names of absent ones.

    A target whose module, class or function no longer exists is absent,
    not an error. The originals are restored on exit, also on error.
    """
    patches = []
    absent: List[str] = []
    try:
        for target in targets:
            try:
                owner = importlib.import_module(f"formcoach.{target.module}")
            except ImportError:
                absent.append(target.name)
                continue
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                absent.append(target.name)
                continue
            wrapper = tracer.wrap(target.name, original, target.fold, target.counters)
            if path:
                holders = [(owner, attr)]
            else:
                holders = [(m, key) for m in _formcoach_modules()
                           for key, value in list(vars(m).items()) if value is original]
            for holder, key in holders:
                patches.append((holder, key, original))
                setattr(holder, key, wrapper)
        yield absent
    finally:
        for holder, key, original in reversed(patches):
            setattr(holder, key, original)


@contextmanager
def counting_warnings(prefix: str = "formcoach") -> Iterator[Dict[str, int]]:
    """Count WARNING-or-worse records created by the ``prefix`` loggers.

    Counting happens in the log-record factory, so the program's handlers
    and its output on stderr stay exactly as they are without the benchmark.
    """
    counts = {"warning_records": 0}
    previous = logging.getLogRecordFactory()

    def factory(*args, **kwargs):
        record = previous(*args, **kwargs)
        if record.levelno >= logging.WARNING and (
                record.name == prefix or record.name.startswith(prefix + ".")):
            counts["warning_records"] += 1
        return record

    logging.setLogRecordFactory(factory)
    try:
        yield counts
    finally:
        logging.setLogRecordFactory(previous)
