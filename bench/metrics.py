"""Statistics and flag-quality helpers for the benchmark.

Timings are reported as a median and a tail: the value at the highest
percentile that still has at least ``TAIL_BEYOND`` samples beyond it. With
fewer than ``2 * TAIL_BEYOND`` samples that percentile would fall below the
median, so the tail is then the median itself (percentile 50).

Flag quality compares the (frame_id, joint) pairs a report cites in its
corrections with the (frame_id, joint) mistakes synth injected.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

TAIL_BEYOND = 10

Pair = Tuple[str, str]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(value, percentile) of the tail sample; see the module docstring."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND
    if index < (n - 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[index], 100.0 * (index + 1) / n


def p90(values: Sequence[float]) -> float:
    """90th percentile, interpolated between the samples around it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def summary(values: Sequence[float]) -> dict:
    """Sample count, median and quartiles (when there are two samples or more)."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def cited_pairs(report_doc: dict) -> Set[Pair]:
    """(frame_id, joint) pairs cited by a written report's corrections."""
    return {(fid, c["joint"]) for c in report_doc.get("corrections", [])
            for fid in c["frames"]}


def injected_pairs(annotation_doc: dict,
                   kind: Optional[str] = None) -> Set[Pair]:
    """(frame_id, joint) pairs of the annotated mistakes, optionally of one
    injection kind (the part of the note before ``=``)."""
    return {(m["frame_id"], m["joint"])
            for m in annotation_doc.get("per_frame_mistakes", [])
            if kind is None or m["note"].split("=")[0] == kind}


def flag_hits(cited: Set[Pair], injected: Set[Pair]) -> int:
    """Number of pairs on both sides: a hit is an exact (frame_id, joint)
    match. Divided by the injected count it gives recall, by the cited count
    precision."""
    return len(cited & injected)


def ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def mean(values: Iterable[float]) -> Optional[float]:
    values = list(values)
    return statistics.fmean(values) if values else None


class Quality:
    """Accumulates flag recall, flag precision and the pace gap."""

    def __init__(self):
        self.offset_injected = 0
        self.offset_hit = 0
        self.cited = 0
        self.cited_true = 0
        self.by_magnitude: Dict[str, List[int]] = {}
        self.pace: Dict[str, List[float]] = {"clean": [], "speed": []}

    def add(self, entry: dict, report_doc: dict, annotation_doc: dict) -> None:
        cited = cited_pairs(report_doc)
        offsets = injected_pairs(annotation_doc, "angle_offset_deg")
        hit = flag_hits(cited, offsets)
        self.offset_injected += len(offsets)
        self.offset_hit += hit
        self.cited += len(cited)
        self.cited_true += flag_hits(cited, injected_pairs(annotation_doc))
        if entry["kind"] == "offset":
            curve = self.by_magnitude.setdefault(f"{entry['magnitude']:g}", [0, 0])
            curve[0] += hit
            curve[1] += len(offsets)
        if entry["kind"] in self.pace:
            self.pace[entry["kind"]].append(float(report_doc["pace"]))

    def result(self) -> dict:
        clean, speed = mean(self.pace["clean"]), mean(self.pace["speed"])
        return {
            "flag_recall": ratio(self.offset_hit, self.offset_injected),
            "flag_precision": ratio(self.cited_true, self.cited),
            "pace_gap": None if clean is None or speed is None else clean - speed,
            "recall_by_offset_deg": {
                k: ratio(hit, total)
                for k, (hit, total) in sorted(self.by_magnitude.items(),
                                               key=lambda kv: float(kv[0]))},
            "counts": {"offset_injected": self.offset_injected,
                       "offset_hit": self.offset_hit, "cited": self.cited,
                       "cited_injected": self.cited_true,
                       "clean": len(self.pace["clean"]),
                       "speed": len(self.pace["speed"])},
        }
