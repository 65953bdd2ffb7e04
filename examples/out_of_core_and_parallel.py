#!/usr/bin/env python3
"""Out-of-core storage and partitioned (MapReduce-style) execution.

Demonstrates the two scalability mechanisms of Section 5 — both driven
through the unified session API, where they are just different
:class:`~repro.api.BetweennessConfig` values:

* ``store="disk:///..."`` puts the per-source betweenness data ``BD[.]`` in
  a columnar binary file on disk (the "DO" configuration); updates read
  each source's record sequentially, peek at just two distances to skip
  unaffected sources (Proposition 3.1), and write repaired records back in
  place;
* ``executor="process"`` partitions the source set across several worker
  processes ("mappers"), each maintaining partial scores over its own
  slice; the reducer sums the partials.

Run with:  python examples/out_of_core_and_parallel.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import BetweennessConfig, BetweennessSession
from repro.algorithms import brandes_betweenness
from repro.generators import addition_stream, removal_stream, synthetic_social_graph
from repro.storage.codec import record_size

NUM_VERTICES = 120
NUM_MAPPERS = 4


def out_of_core_demo(graph) -> None:
    print("=== out-of-core (DO) configuration ===")
    with tempfile.TemporaryDirectory() as tmp:
        config = BetweennessConfig.for_graph(
            graph, store=f"disk:{Path(tmp) / 'bd.bin'}"
        )
        with BetweennessSession(graph, config) as session:
            store = session.framework.store
            print(
                f"BD[.] file: {store.path.name}, capacity {store.capacity} "
                f"vertices, {record_size(store.capacity)} bytes per source record"
            )
            read_before, written_before = store.bytes_read, store.bytes_written

            updates = addition_stream(graph, 3, rng=1) + removal_stream(
                graph, 3, rng=2
            )
            skipped = processed = 0
            for update in updates:
                result = session.apply(update)
                skipped += result.sources_skipped
                processed += result.sources_processed
            print(
                f"applied {len(updates)} updates: skipped {skipped}/{processed} "
                f"source visits via the dd == 0 peek"
            )
            print(
                f"disk traffic: {(store.bytes_read - read_before) / 1e6:.2f} MB "
                f"read, {(store.bytes_written - written_before) / 1e6:.2f} MB "
                "written"
            )

            reference = brandes_betweenness(session.graph)
            scores = session.vertex_betweenness()
            worst = max(
                abs(scores[v] - reference.vertex_scores[v])
                for v in session.graph.vertices()
            )
            print(f"max difference vs. from-scratch Brandes: {worst:.2e}")


def mapreduce_demo(graph) -> None:
    print("\n=== partitioned (MapReduce) execution on worker processes ===")
    config = BetweennessConfig.for_graph(
        graph, executor="process", workers=NUM_MAPPERS
    )
    with BetweennessSession(graph, config) as session:
        sizes = [len(p) for p in session.engine.partitions]
        print(f"{NUM_MAPPERS} mappers, partition sizes: {sizes}")

        updates = addition_stream(graph, 4, rng=3)
        for update in updates:
            report = session.apply(update)
            print(
                f"update {update.endpoints}: cluster wall-clock "
                f"{1000 * report.wall_clock_seconds:.1f} ms "
                f"(cumulative {1000 * sum(report.worker_cpu_seconds):.1f} ms "
                f"CPU across mappers, {1000 * report.elapsed_seconds:.1f} ms "
                "round trip)"
            )

        reference = brandes_betweenness(session.graph)
        reduced = session.vertex_betweenness()
        worst = max(abs(reduced[v] - reference.vertex_scores[v]) for v in reduced)
        print(f"reduced scores match from-scratch Brandes within {worst:.2e}")


def main() -> None:
    graph = synthetic_social_graph(NUM_VERTICES, rng=11)
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges\n")
    out_of_core_demo(graph)
    mapreduce_demo(graph)


if __name__ == "__main__":
    main()
