"""Figure 5 — CDF of speedup for the MP / MO / DO variants (additions).

The paper's findings to reproduce in shape:

* MO (in memory, no predecessor lists) is the fastest variant — removing the
  predecessor lists does not slow the repair down, it speeds it up;
* DO (out of core) is slower than MO because every non-skipped source pays
  file I/O, but it still beats from-scratch recomputation comfortably;
* speedups grow with the graph size.
"""

from repro.analysis import Variant, format_table, measure_stream_speedups
from repro.generators import addition_stream
from repro.utils.stats import median

from .conftest import stream_length

DATASETS = ["synthetic-1k", "synthetic-10k", "wikielections", "facebook"]


def bench_fig5_variant_cdfs(benchmark, datasets, report):
    def run():
        series = {}
        for name in DATASETS:
            graph = datasets.graph(name)
            baseline = datasets.brandes_seconds(name)
            updates = addition_stream(graph, stream_length(), rng=41)
            for variant in (Variant.MP, Variant.MO, Variant.DO):
                series[(name, variant)] = measure_stream_speedups(
                    graph, updates, variant, label=name, baseline_seconds=baseline
                )
        return series

    series = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = []
    rows = []
    for (name, variant), data in series.items():
        rows.append(
            [name, variant.value, round(median(data.speedups), 1),
             round(min(data.speedups), 1), round(max(data.speedups), 1)]
        )
        cdf_points = ", ".join(f"({value:.1f}, {frac:.2f})" for value, frac in data.cdf())
        lines.append(f"{name} [{variant.value}] CDF: {cdf_points}")
    table = format_table(["dataset", "variant", "median", "min", "max"], rows)
    report("fig5_variants_cdf", table + "\n\n" + "\n".join(lines))

    for name in DATASETS:
        mo = median(series[(name, Variant.MO)].speedups)
        mp = median(series[(name, Variant.MP)].speedups)
        do = median(series[(name, Variant.DO)].speedups)
        # MO beats MP (predecessor-list maintenance is pure overhead) and DO
        # pays an I/O penalty relative to MO.  Both still beat recomputation.
        # At the scaled-down sizes used here the MP/MO gap is only ~10-15 %,
        # which is within run-to-run wall-clock noise for 10-edge streams, so
        # the assertion only flags gross inversions; "Interpreting the
        # speedup tables" in docs/reproduction.md says what to read instead.
        assert mo >= mp * 0.7, f"{name}: MO ({mo}) unexpectedly slower than MP ({mp})"
        assert do <= mo * 1.1, f"{name}: DO ({do}) unexpectedly faster than MO ({mo})"
        assert do > 1.0
