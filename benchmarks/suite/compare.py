"""``compare A.json B.json``: did B get worse than A, beyond the bounds?

A and B are reports written by ``python -m benchmarks.suite run`` with the
same seed.  One row per (end-to-end metric x workload it is gated on): both
medians, the change B/A with its base (B-A where the bound is absolute), the
bound and a verdict.  ``unresolved`` means the runs inside A or B spread
(interquartile range over median) wider than the bound, so the data cannot
tell ``same`` from ``worse``; repeat with ``run --repeat N``.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

from benchmarks.suite.metrics import SPEC

EVERY = tuple(w["name"] for w in SPEC["workloads"])
SERVICE = ("service-mixed",)


@dataclass(frozen=True)
class Gate:
    metric: str
    #: How much worse B's median may be: a share of A's median, or with
    #: ``absolute`` a difference in the metric's own unit.
    bound: float
    workloads: Tuple[str, ...] = EVERY
    absolute: bool = False


#: The suite's own gate, for two reports of one seed, each the median of
#: ``run``'s three repeats.  A metric is gated on the workloads where it
#: means something, a percentile where enough samples lie beyond it.  The
#: bounds are the issue's, widened where five back-to-back runs of seed 7
#: spread (interquartile range over median) wider than half of it:
#: ``baseline.json`` has those spreads under ``same_seed``.  They are tighter
#: than ``BENCHMARK.json``'s, which have to hold across ten different seeds.
GATES = (
    Gate("setup_s", 0.20),  # issue 0.15; batched-disk spread 0.13
    Gate("updates_per_s", 0.15),  # issue 0.10; spread up to 0.07
    Gate("update_ms_p50", 0.15),  # issue 0.10; spread up to 0.07
    Gate("update_ms_p90", 0.20, ("online-serial", "service-mixed")),  # issue 0.15
    Gate("read_ms_p50", 0.15, ("shard-2", "service-mixed")),
    Gate("read_ms_p90", 0.15, SERVICE),
    Gate("online_ms_p50", 0.15, SERVICE),
    Gate("online_missed_ratio", 0.04, SERVICE, absolute=True),
    Gate("failed_ratio", 0.0, absolute=True),  # any increase is worse
    # Repeats to 2 % here.  The service's moved 143-172 MB between runs of
    # one seed; shard-2's is steady within a ``run`` but was 181, 185 and
    # 207 MB in three of them (shared and file-backed pages count).
    Gate("peak_rss_mb", 0.05, ("online-serial", "batched-disk")),
)
#: Everything outside ``BENCHMARK.json`` is better when lower.
HIGHER = {m["name"] for m in SPEC["end_to_end"] if m["better"] == "higher"}

Row = Tuple[str, str, float, float, float, Gate, str]


def _values(report: Dict[str, Any], workload: str, metric: str) -> List[float]:
    runs = report["workloads"].get(workload, {}).get("runs", [])
    return [run["metrics"][metric]["value"] for run in runs if metric in run["metrics"]]


def _spread(values: List[float], absolute: bool) -> float:
    """Interquartile range, as a share of the median unless ``absolute``
    (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return high - low if absolute else (high - low) / statistics.median(values)


def compare(base: Dict[str, Any], other: Dict[str, Any]) -> List[Row]:
    """Rows ``(metric, workload, a, b, change, gate, verdict)``; a pair a
    report has no runs for gets the verdict ``missing``."""
    rows = []
    for gate in GATES:
        sign = -1.0 if gate.metric in HIGHER else 1.0
        for workload in gate.workloads:
            a_values = _values(base, workload, gate.metric)
            b_values = _values(other, workload, gate.metric)
            if not a_values or not b_values:
                rows.append((gate.metric, workload, 0.0, 0.0, 0.0, gate, "missing"))
                continue
            a, b = statistics.median(a_values), statistics.median(b_values)
            change = b - a if gate.absolute else b / a
            worse_by = sign * (change if gate.absolute else change - 1.0)
            spread = max(
                _spread(a_values, gate.absolute), _spread(b_values, gate.absolute)
            )
            if spread > gate.bound:
                verdict = "unresolved"
            elif worse_by > gate.bound:
                verdict = "worse"
            elif worse_by < -gate.bound:
                verdict = "better"
            else:
                verdict = "same"
            rows.append((gate.metric, workload, a, b, change, gate, verdict))
    return rows


def main(path_a: Path, path_b: Path) -> int:
    rows = compare(json.loads(path_a.read_text()), json.loads(path_b.read_text()))
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'metric':20s} {'workload':14s} {'A':>12s} {'B':>12s}  change        bound  verdict")
    for metric, workload, a, b, change, gate, verdict in rows:
        how = "B-A" if gate.absolute else "B/A"
        print(
            f"{metric:20s} {workload:14s} {a:12.4f} {b:12.4f}  {how} {change:7.3f}  "
            f"{gate.bound:5.2f}  {verdict}  (base A = {a:.4g})"
        )
    bad = [row for row in rows if row[-1] in ("worse", "missing")]
    print(f"{len(rows)} rows, {len(bad)} worse or missing")
    return 1 if bad else 0
