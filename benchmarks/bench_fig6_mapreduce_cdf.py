"""Figure 6 — CDF of speedup of the DO/partitioned execution on the worker
runtime (one mapper per source partition), for additions and removals,
synthetic and real graphs.

As in the paper, the comparison is between Brandes' single-machine run time
and the *cumulative* execution time across all mappers, so the curves show
algorithmic savings rather than parallel wall-clock savings (those are
Figure 7's subject).  Each update is one ``apply_batch`` on a
:class:`~repro.parallel.shards.ShardCoordinator`, and its cost is the sum of
the workers' CPU seconds for that batch: CPU rather than wall seconds,
because with more workers than cores the workers timeshare and their
wall-clocks stretch.  The workers run the ``dicts`` backend, the same
kernel ``datasets.brandes_seconds`` times.
"""

from repro.core.updates import additions, removals
from repro.analysis import format_table
from repro.generators import addition_stream, removal_stream
from repro.parallel import ShardCoordinator
from repro.utils.stats import empirical_cdf, median

from .conftest import stream_length

SYNTHETIC = ["synthetic-1k", "synthetic-10k"]
REAL = ["wikielections", "facebook"]

#: Sources per mapper (the paper assigns 1k sources per mapper).
SOURCES_PER_MAPPER = 100


def _run_stream(graph, updates, baseline_seconds):
    num_mappers = max(1, graph.num_vertices // SOURCES_PER_MAPPER)
    speedups = []
    with ShardCoordinator(graph, num_workers=num_mappers, backend="dicts") as cluster:
        for update in updates:
            report = cluster.apply_batch([update])
            cumulative = sum(report.worker_cpu_seconds)
            speedups.append(baseline_seconds / max(cumulative, 1e-9))
    return num_mappers, speedups


def bench_fig6_mapreduce_speedup_cdfs(benchmark, datasets, report):
    def run():
        results = {}
        for name in SYNTHETIC + REAL:
            graph = datasets.graph(name)
            baseline = datasets.brandes_seconds(name)
            add_updates = addition_stream(graph, stream_length(), rng=51)
            rem_updates = removal_stream(graph, stream_length(), rng=52)
            mappers, add_speedups = _run_stream(graph, add_updates, baseline)
            _, rem_speedups = _run_stream(graph, rem_updates, baseline)
            results[name] = (mappers, add_speedups, rem_speedups)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    lines = []
    for name, (mappers, add_speedups, rem_speedups) in results.items():
        rows.append(
            [name, mappers, round(median(add_speedups), 1), round(median(rem_speedups), 1)]
        )
        add_cdf = ", ".join(f"({v:.1f}, {f:.2f})" for v, f in empirical_cdf(add_speedups))
        rem_cdf = ", ".join(f"({v:.1f}, {f:.2f})" for v, f in empirical_cdf(rem_speedups))
        lines.append(f"{name} additions CDF: {add_cdf}")
        lines.append(f"{name} removals  CDF: {rem_cdf}")
    table = format_table(
        ["dataset", "mappers", "median speedup (add)", "median speedup (remove)"], rows
    )
    report("fig6_mapreduce_cdf", table + "\n\n" + "\n".join(lines))

    by_name = {row[0]: row for row in rows}
    # Shape: larger synthetic graphs enjoy larger median speedups, and every
    # dataset beats from-scratch recomputation for both update kinds.
    assert by_name["synthetic-10k"][2] > by_name["synthetic-1k"][2]
    assert all(row[2] > 1 and row[3] > 1 for row in rows)
