"""Zero-copy data plane: bootstrap and dispatch cost, heap vs shared memory.

Measures :class:`repro.parallel.ShardCoordinator` (no shard root: nothing
but the data plane differs between the legs) on the same snapshot-seeded
workload twice — once with the classic heap data plane
(every worker receives its pickled snapshot partition and the pickled
update list of every batch) and once with ``shared_memory=True`` (workers
attach the driver's columnar segments and read batches from the shared
update ring; the per-batch pipe message is a tiny descriptor):

* **bootstrap-to-first-update** — executor construction through the first
  applied update: seed-snapshot transfer plus worker store build, the
  latency before the stream goes live;
* **dispatch payload** — exact pickled bytes written to the worker pipes
  per steady-state batch (``ParallelBatchReport.payload_bytes``), the
  driver-side cost the update ring removes;
* **per-batch overhead** — driver wall-clock minus the slowest worker's
  in-worker repair time, per batch.

The acceptance bars: final vertex and edge scores of the two legs must be
**bit-identical**, the mean dispatch payload must shrink by the configured
ratio (10x at the full batch size), and the shared-memory bootstrap must
beat the heap bootstrap by the configured ratio.  Results are printed and
written to ``BENCH_shm.json`` at the repository root.

Run directly (``PYTHONPATH=src python benchmarks/bench_shm.py``) for the
full configuration, or with ``--smoke`` (CI) for a small one.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.algorithms import brandes_betweenness
from repro.core.updates import batches
from repro.parallel import ShardCoordinator
from repro.storage.buffers import active_segments, shm_available

from bench_shard import build_graph, build_stream

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_shm.json"

FULL = {
    "vertices": 500,
    "extra_edges_per_vertex": 3,
    "updates": 128,
    "batch_size": 32,
    "workers": 4,
    "min_payload_ratio": 10.0,
    "min_bootstrap_ratio": 2.0,
}
SMOKE = {
    "vertices": 120,
    "extra_edges_per_vertex": 2,
    "updates": 24,
    "batch_size": 8,
    "workers": 2,
    "min_payload_ratio": 2.0,
    "min_bootstrap_ratio": None,  # too noisy at toy sizes for a hard bar
}


def bench_leg(graph, seed_data, stream, config, shared_memory) -> dict:
    """One full run; returns metrics and the final score dictionaries."""
    # The first update goes alone — it marks the moment the stream is
    # live.  The rest flows in full batches, the steady-state regime the
    # payload and overhead metrics describe.
    chunks = list(batches(iter(stream[1:]), config["batch_size"]))
    start = time.perf_counter()
    executor = ShardCoordinator(
        graph,
        num_workers=config["workers"],
        source_data=seed_data,
        backend="arrays",
        shared_memory=shared_memory,
    )
    try:
        first_report = executor.apply_batch([stream[0]])
        bootstrap_seconds = time.perf_counter() - start
        reports = [first_report]
        for chunk in chunks:
            reports.append(executor.apply_batch(chunk))
        overheads = [
            max(0.0, (r.elapsed_seconds or 0.0) - max(r.worker_seconds))
            for r in reports[1:]
        ]
        payload_bytes = [r.payload_bytes for r in reports[1:]]
        vertex_scores, edge_scores = executor.betweenness()
        init_wall_clock = executor.init_wall_clock_seconds
    finally:
        executor.close()
    leg = {
        "shared_memory": shared_memory,
        "bootstrap_to_first_update_seconds": bootstrap_seconds,
        "worker_init_wall_clock_seconds": init_wall_clock,
        "batches": len(reports),
        "mean_batch_payload_bytes": sum(payload_bytes) / len(payload_bytes),
        "total_batch_payload_bytes": sum(payload_bytes),
        "mean_dispatch_overhead_seconds": sum(overheads) / len(overheads),
    }
    print(
        f"{'shm ' if shared_memory else 'heap'}: "
        f"bootstrap {bootstrap_seconds:6.3f}s  "
        f"payload {leg['mean_batch_payload_bytes']:8.0f} B/batch  "
        f"overhead {leg['mean_dispatch_overhead_seconds'] * 1e3:6.1f}ms/batch"
    )
    return leg, vertex_scores, edge_scores


def run(config: dict) -> dict:
    graph = build_graph(
        config["vertices"], config["extra_edges_per_vertex"], seed=17
    )
    stream = build_stream(graph, config["updates"], seed=19)
    print(
        f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges; "
        f"stream: {len(stream)} updates in batches of {config['batch_size']} "
        f"on {config['workers']} workers"
    )
    seed_data = brandes_betweenness(graph, collect_source_data=True).source_data

    heap, heap_vertex, heap_edge = bench_leg(
        graph, seed_data, stream, config, shared_memory=False
    )
    shm, shm_vertex, shm_edge = bench_leg(
        graph, seed_data, stream, config, shared_memory=True
    )

    payload_ratio = (
        heap["mean_batch_payload_bytes"] / shm["mean_batch_payload_bytes"]
    )
    bootstrap_ratio = (
        heap["bootstrap_to_first_update_seconds"]
        / shm["bootstrap_to_first_update_seconds"]
    )
    return {
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "config": config,
        "heap": heap,
        "shm": shm,
        "payload_ratio": payload_ratio,
        "bootstrap_ratio": bootstrap_ratio,
        "bit_identical": heap_vertex == shm_vertex and heap_edge == shm_edge,
        "leaked_segments": active_segments(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI configuration",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=OUTPUT_PATH,
        help=f"where to write the JSON report (default: {OUTPUT_PATH})",
    )
    args = parser.parse_args(argv)

    if not shm_available():  # pragma: no cover - linux CI
        print("multiprocessing.shared_memory unavailable; nothing to compare")
        return 0

    config = SMOKE if args.smoke else FULL
    report = run(config)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")

    assert report["bit_identical"], (
        "shared-memory scores differ from the heap run — the zero-copy "
        "data plane is not exact"
    )
    assert not report["leaked_segments"], (
        f"leaked shared-memory segments: {report['leaked_segments']}"
    )
    assert report["payload_ratio"] >= config["min_payload_ratio"], (
        f"dispatch payload shrank only {report['payload_ratio']:.1f}x "
        f"(bar: {config['min_payload_ratio']}x)"
    )
    if config["min_bootstrap_ratio"] is not None:
        assert report["bootstrap_ratio"] >= config["min_bootstrap_ratio"], (
            f"bootstrap improved only {report['bootstrap_ratio']:.2f}x "
            f"(bar: {config['min_bootstrap_ratio']}x)"
        )
    print(
        f"OK: payload {report['payload_ratio']:.1f}x smaller, "
        f"bootstrap {report['bootstrap_ratio']:.2f}x faster, "
        f"scores bit-identical, no leaked segments"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
