"""Metric arithmetic: from the samples of one run to named values.

``BENCHMARK.json`` is the one list of metric names, units and directions;
this module computes a value for every name it lists.  Every workload
reports every metric, with 0 for a per-layer metric of a layer the workload
leaves idle.  The prefix of a per-layer name is its layer: a ``src/repro``
module, or ``harness`` for the benchmark itself.
"""

from __future__ import annotations

import json
import math
import statistics
from bisect import bisect_right
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

Metric = Tuple[float, str]  # (value, unit)

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _named(kind: str, values: Dict[str, float]) -> Dict[str, Metric]:
    """``values`` with the units of ``SPEC[kind]``, in its order; a name on
    one side only is an error."""
    listed = {m["name"]: m["unit"] for m in SPEC[kind]}
    if values.keys() != listed.keys():
        raise KeyError(f"{kind}: BENCHMARK.json and metrics.py differ on "
                       f"{sorted(values.keys() ^ listed.keys())}")
    return {name: (values[name], unit) for name, unit in listed.items()}


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ranked = sorted(values)
    return ranked[max(0, math.ceil(fraction * len(ranked)) - 1)]


def median_ms(values: Sequence[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def end_to_end(measured) -> Dict[str, Metric]:
    """The end-to-end metrics of one untraced run (see the README table)."""
    values = {
        "setup_s": statistics.median(measured.setup_seconds),
        "updates_per_s": measured.timed_updates / measured.timed_seconds,
        "update_ms_p50": statistics.median(measured.update_seconds) * 1e3,
        "read_ms_p50": statistics.median(measured.read_seconds) * 1e3,
    }
    return _named("end_to_end", values)


def suite_only(measured) -> Dict[str, Metric]:
    """End-to-end metrics ``BENCHMARK.json`` cannot list, because it wants
    every metric on every workload, never 0, and steady across seeds: tails
    with too few samples beyond them on some workload, the service's
    open-loop phase, failures, memory.  The suite's own ``run`` reports them
    and ``compare.GATES`` gates each on the workloads where it means
    something."""
    return {
        "update_ms_p90": (percentile(measured.update_seconds, 0.90) * 1e3, "ms"),
        "read_ms_p90": (percentile(measured.read_seconds, 0.90) * 1e3, "ms"),
        **measured.extras,  # service-mixed: online_ms_p50, online_missed_ratio
        "failed_ratio": (measured.failed / measured.attempted, "ratio"),
        "peak_rss_mb": (measured.peak_rss_mb, "MB"),
    }


def _batch_results(result: Any) -> List[Any]:
    """The ``BatchResult`` objects behind one ``apply_batch`` return value
    (one per shard worker under the shard executor)."""
    return list(getattr(result, "worker_results", None) or [result])


def lock_waits(spans) -> Dict[int, float]:
    """``id(span)`` -> seconds, for every ``api.top_k`` span: how long it
    overlapped an ``apply_batch`` or ``checkpoint`` span.  Those hold the
    session lock from start to end, so the overlap is the read waiting for
    the writer (always 0 when reads and writes share one thread)."""
    held = sorted(
        (s.start, s.end) for s in spans
        if s.name in ("api.apply_batch", "api.checkpoint")
    )
    starts = [start for start, _ in held]
    waits = {}
    for span in spans:
        if span.name != "api.top_k":
            continue
        wait = 0.0
        at = max(0, bisect_right(starts, span.start) - 1)
        while at < len(held) and held[at][0] < span.end:
            wait += max(
                0.0, min(span.end, held[at][1]) - max(span.start, held[at][0])
            )
            at += 1
        waits[id(span)] = wait
    return waits


def per_layer(recorder, measured) -> Dict[str, Metric]:
    """The per-layer metrics of one traced run.

    ``measured.notes`` is what the workload wrote down at its own
    boundaries: the set-up and timed windows, counters read before and
    after, and the numbers only the load generator sees.
    """
    notes = measured.notes
    setup = recorder.between(*notes["setup_window"])
    timed = recorder.between(*notes["timed_window"])

    def total(spans, name: str, self_time: bool = True) -> float:
        return sum(
            s.self_seconds if self_time else s.seconds
            for s in spans if s.name == name
        )

    def named(spans, name: str):
        return [s for s in spans if s.name == name]

    out = dict.fromkeys((m["name"] for m in SPEC["per_layer"]), 0.0)
    out["graph.build_s"] = total(setup, "graph.build")
    out["graph.csr_compile_s"] = total(setup, "graph.csr_compile")
    out["core.bootstrap_s"] = total(setup, "core.bootstrap")
    out["storage.create_s"] = total(setup, "storage.create")
    out["storage.sweep_s"] = total(timed, "storage.sweep")
    out["storage.flush_s"] = total(timed, "storage.flush")
    out["core.checkpoint_s"] = total(timed, "core.checkpoint", self_time=False)
    out["core.checkpoint_bytes"] = sum(
        size for at, size in recorder.checkpoint_bytes
        if notes["timed_window"][0] <= at <= notes["timed_window"][1]
    )

    applies = named(timed, "core.apply")
    out["core.apply_s"] = sum(s.seconds for s in applies)
    kinds = notes.get("kinds")  # op id -> "add" | "remove", batch size 1 only
    if kinds:
        for kind in ("add", "remove"):
            out[f"core.{kind}_ms_p50"] = median_ms(
                [s.seconds for s in applies if kinds.get(s.op) == kind]
            )

    first = notes["warmup_batches"]
    returned = recorder.results[first:first + notes["timed_batches"]]
    results = [batch for result in returned for batch in _batch_results(result)]
    examined = sum(r.sources_processed for r in results)
    if examined:
        out["core.skip_ratio"] = sum(r.sources_skipped for r in results) / examined
    out["core.sources_loaded"] = sum(r.sources_loaded for r in results)
    out["core.sources_peek_skipped"] = sum(r.sources_peek_skipped for r in results)
    for field in ("affected_vertices", "touched_vertices"):
        out[f"core.{field}"] = sum(
            getattr(update, field) for r in results for update in r.results
        )

    reports = [r for r in returned if hasattr(r, "worker_seconds")]
    if reports:  # the shard executor: kernels run in the worker processes
        slowest = [max(r.worker_seconds) for r in reports]
        out["core.apply_s"] = sum(slowest)
        out["core.bootstrap_s"] = max(notes["shard_init_seconds"])
        init = named(setup, "parallel.init")
        out["parallel.spawn_s"] = (
            sum(s.seconds for s in init) - out["core.bootstrap_s"]
        )
        out["parallel.worker_busy_s"] = sum(sum(r.worker_seconds) for r in reports)
        out["parallel.worker_cpu_s"] = sum(sum(r.worker_cpu_seconds) for r in reports)
        out["parallel.slowest_worker_s"] = sum(slowest)
        out["parallel.dispatch_s"] = sum(
            r.elapsed_seconds - slow for r, slow in zip(reports, slowest)
        )
        out["parallel.skew"] = statistics.mean(
            slow / statistics.mean(r.worker_seconds)
            for r, slow in zip(reports, slowest)
        )
        out["parallel.collect_ms_p50"] = median_ms(
            [s.seconds for s in named(timed, "parallel.collect")]
        )
        spans = named(timed, "parallel.apply")
        rounds = set(notes["checkpoint_ops"])
        plain = [s.seconds for s in spans if s.op not in rounds]
        if plain:
            typical = statistics.median(plain)
            out["parallel.checkpoint_round_s"] = sum(
                s.seconds - typical for s in spans if s.op in rounds
            )
        out["parallel.serial_baseline_s"] = notes["serial_baseline_s"]
        out["parallel.speedup"] = notes["serial_baseline_s"] / notes["sharded_s"]
    else:
        phases = notes.get("phases") or {}
        for phase in ("classify", "repair", "accumulate"):
            out[f"core.{phase}_s"] = phases.get(phase, 0.0)
        out["core.other_s"] = max(
            0.0, out["core.apply_s"] - sum(phases.values())
        )

    out["api.apply_overhead_ms_p50"] = median_ms(
        [s.self_seconds for s in named(timed, "api.apply_batch")]
    )
    waits = lock_waits(timed)
    out["api.top_k_ms_p50"] = median_ms(
        [s.self_seconds - waits[id(s)] for s in named(timed, "api.top_k")]
    )
    out["api.events_emitted"] = notes["events_emitted"]
    for name in ("bytes_read", "bytes_written", "store_bytes"):
        out[f"storage.{name}"] = notes.get(name, 0)

    posts = named(timed, "client.post")
    if posts:  # the service workload
        handled = named(timed, "service.apply_updates")
        out["service.post_ms_p50"] = median_ms([s.seconds for s in posts])
        # One writer connection, so the k-th POST encloses the k-th
        # ManagedSession.apply_updates span.
        out["service.http_overhead_ms_p50"] = median_ms(
            [post.seconds - span.seconds for post, span in zip(posts, handled)]
        )
        out["service.queue_wait_ms_p50"] = median_ms(
            [s.self_seconds for s in handled]
        )
        out["service.checkpoint_stall_ms_p50"] = median_ms(
            [s.seconds for s in named(timed, "api.checkpoint")]
        )
        # Over the reads that met the writer's lock at all; the writer's own
        # polls never do, and would halve a median over every read.
        out["service.read_lock_wait_ms_p50"] = median_ms(
            [wait for wait in waits.values() if wait]
        )
        for name, value in notes["service"].items():
            out[f"service.{name}"] = value

    out["harness.generate_s"] = notes["generate_s"]
    out["harness.oracle_s"] = notes["oracle_s"]
    start, end = notes["timed_window"]
    out["harness.timed_s"] = end - start
    out["harness.updates_per_s"] = measured.timed_updates / measured.timed_seconds
    out["harness.unattributed_ratio"] = max(
        0.0, 1.0 - notes["covered_s"] / (end - start)
    )
    return _named("per_layer", out)


def layer_table(recorder, notes: Dict[str, Any]) -> List[Tuple[str, float, int]]:
    """(layer, self seconds, spans) inside the timed window, largest first.

    Reads waiting for the session lock are their own row, not ``api`` time.
    The ``client`` row is the load generator's round trips: it *contains*
    the server-side rows and, with a concurrent reader, exceeds the wall.
    """
    timed = recorder.between(*notes["timed_window"])
    waits = lock_waits(timed)
    waited = sum(waits.values())
    seconds: Dict[str, float] = {"api": -waited}
    calls: Dict[str, int] = {"api": 0}
    if waited:
        seconds["lock-wait"] = waited
        calls["lock-wait"] = sum(1 for wait in waits.values() if wait)
    for span in timed:
        seconds[span.layer] = seconds.get(span.layer, 0.0) + span.self_seconds
        calls[span.layer] = calls.get(span.layer, 0) + 1
    return sorted(
        ((layer, seconds[layer], calls[layer]) for layer in seconds),
        key=lambda row: -row[1],
    )
