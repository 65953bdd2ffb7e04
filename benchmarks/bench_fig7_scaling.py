"""Figure 7 — strong scaling (a-b) and weak scaling (c-d).

The per-source repair cost ``tS`` and merge cost ``tM`` are measured on one
machine; the cluster wall-clock for ``p`` mappers is then given by the
paper's model ``tU = tS * n/p + tM`` (Section 5.3).  Expected shapes:

* strong scaling: per-update wall-clock time drops almost linearly as the
  number of mappers grows, independently of the number of streamed edges;
* weak scaling: the total time for a workload proportional to the number of
  mappers stays flat.

A second benchmark replaces the model with measurement: the same stream is
replayed on the real worker runtime
(:class:`repro.parallel.ShardCoordinator`, no shard root) for 1/2/4 worker
processes.  The per-worker *CPU* time per update — the measured counterpart
of ``tS * n/p`` — must shrink as workers are added even when this host has
fewer physical cores than workers (wall-clock speedup additionally requires
real cores; the report shows both).
"""

from repro.analysis import build_framework, Variant, format_table
from repro.generators import addition_stream
from repro.parallel import (
    OnlineCapacityModel,
    ShardCoordinator,
    strong_scaling,
    weak_scaling,
)

from .conftest import stream_length

MAPPER_COUNTS = [1, 2, 4, 8, 16, 32]
EXECUTOR_WORKER_COUNTS = [1, 2, 4]


def _fit_capacity_model(graph, sample_updates):
    """Measure tS and tM on one machine and return the capacity model."""
    framework = build_framework(graph, Variant.MO)
    per_source_times = []
    for update in sample_updates:
        result = framework.apply(update)
        per_source_times.append(
            (result.elapsed_seconds or 0.0) / max(1, result.sources_processed)
        )
    time_per_source = sum(per_source_times) / len(per_source_times)
    # Merge cost: proportional to the number of score entries to aggregate.
    merge_time = 1e-7 * (graph.num_vertices + graph.num_edges)
    return OnlineCapacityModel(
        time_per_source=time_per_source,
        num_sources=graph.num_vertices,
        merge_time=merge_time,
    )


def bench_fig7_strong_and_weak_scaling(benchmark, datasets, report):
    def run():
        output = {}
        for name in ("synthetic-10k", "synthetic-100k"):
            graph = datasets.graph(name)
            updates = addition_stream(graph, stream_length(), rng=61)
            model = _fit_capacity_model(graph, updates)
            strong = {
                edges: strong_scaling(model, MAPPER_COUNTS, num_updates=edges)
                for edges in (100, 200, 300)
            }
            weak = {
                ratio: weak_scaling(model, MAPPER_COUNTS, updates_per_worker_ratio=ratio)
                for ratio in (1, 2, 3)
            }
            output[name] = (model, strong, weak)
        return output

    output = benchmark.pedantic(run, rounds=1, iterations=1)

    sections = []
    for name, (model, strong, weak) in output.items():
        rows = []
        for edges, curve in strong.items():
            for point in curve:
                rows.append(
                    ["strong", edges, point.num_workers,
                     f"{point.seconds_per_update:.4f}", f"{point.total_seconds:.2f}"]
                )
        for ratio, curve in weak.items():
            for point in curve.values():
                rows.append(
                    ["weak", f"r={ratio}", point.num_workers,
                     f"{point.seconds_per_update:.4f}", f"{point.total_seconds:.2f}"]
                )
        table = format_table(
            ["mode", "edges / ratio", "mappers", "s per update", "total s"], rows
        )
        sections.append(
            f"{name}: tS={model.time_per_source:.6f}s, n={model.num_sources}, "
            f"tM={model.merge_time:.6f}s\n{table}"
        )
    report("fig7_scaling", "\n\n".join(sections))

    # Shape checks: strong scaling decreases wall-clock per update nearly
    # linearly; weak scaling keeps the total roughly flat.
    for name, (model, strong, weak) in output.items():
        curve = strong[100]
        assert curve[0].seconds_per_update > curve[-1].seconds_per_update
        ideal = curve[0].seconds_per_update / MAPPER_COUNTS[-1]
        assert curve[-1].seconds_per_update <= 3 * ideal + model.merge_time
        totals = [point.total_seconds for point in weak[2].values()]
        assert max(totals) / min(totals) < 1.5


def bench_fig7_executor_measured(benchmark, datasets, report):
    """Strong scaling measured on real worker processes (no capacity model)."""

    def run():
        graph = datasets.graph("synthetic-10k")
        updates = addition_stream(graph, min(stream_length(), 10), rng=61)
        measurements = {}
        for workers in EXECUTOR_WORKER_COUNTS:
            with ShardCoordinator(graph, num_workers=workers) as cluster:
                reports = [cluster.apply(update) for update in updates]
                payload = [r.payload_bytes for r in reports]
                measurements[workers] = {
                    "init_wall": cluster.init_wall_clock_seconds,
                    "cpu_per_update": sum(
                        r.max_cpu_seconds for r in reports
                    ) / len(reports),
                    "wall_per_update": sum(
                        r.wall_clock_seconds for r in reports
                    ) / len(reports),
                    "driver_per_update": sum(
                        r.elapsed_seconds for r in reports
                    ) / len(reports),
                    "payload_per_update": sum(payload) / len(payload),
                }
        return measurements

    measurements = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [
            workers,
            f"{m['init_wall']:.3f}",
            f"{m['cpu_per_update'] * 1000:.2f}",
            f"{m['wall_per_update'] * 1000:.2f}",
            f"{m['driver_per_update'] * 1000:.2f}",
            f"{m['payload_per_update']:.0f}",
        ]
        for workers, m in measurements.items()
    ]
    table = format_table(
        ["workers", "init wall s", "max CPU ms / update",
         "max wall ms / update", "driver ms / update", "payload B / update"],
        rows,
    )
    report("fig7_executor_measured", table)

    # The slowest worker's CPU time per update must shrink with the source
    # partition — this is measured tS * n/p, independent of host core count.
    cpu_1 = measurements[1]["cpu_per_update"]
    cpu_4 = measurements[4]["cpu_per_update"]
    assert cpu_4 < cpu_1, (cpu_1, cpu_4)
