"""Figure 8 — inter-arrival time of new edges vs. betweenness update time.

Replays the tail of an evolving graph's edge history (synthetic exponential
timestamps stand in for the real KONECT arrival times, see the introduction
of docs/reproduction.md) and
compares, edge by edge, the arrival gap against the time the framework needs
to refresh the scores with 1 and with many mappers.  Expected shape: with a
single mapper many updates finish after the next arrival; adding mappers
pushes the update time below the inter-arrival time for almost all edges.
"""

from repro.analysis import format_table
from repro.generators import load_dataset
from repro.parallel import simulate_online_updates

from .conftest import scaled_size, stream_length

DATASETS = ["slashdot", "facebook"]
MAPPER_COUNTS = [1, 10, 50]

#: Arrival times are compressed so that a single worker cannot keep up (the
#: real graphs arrive orders of magnitude faster than a scaled-down Python
#: run; compressing the synthetic timestamps recreates that pressure).
TIME_SCALE = 0.002


def bench_fig8_online_updates(benchmark, report):
    def run():
        output = {}
        for name in DATASETS:
            evolving = load_dataset(
                name, num_vertices=scaled_size(name), rng=7, as_evolving=True
            )
            replay_length = max(stream_length(), 10)
            prefix = evolving.num_edges - replay_length
            base = evolving.base_graph(prefix)
            future = evolving.future_updates(prefix)
            interarrivals = evolving.interarrival_times(prefix)
            per_mappers = {
                mappers: simulate_online_updates(
                    base, future, num_mappers=mappers, time_scale=TIME_SCALE
                )
                for mappers in MAPPER_COUNTS
            }
            output[name] = (interarrivals, per_mappers)
        return output

    output = benchmark.pedantic(run, rounds=1, iterations=1)

    sections = []
    for name, (interarrivals, per_mappers) in output.items():
        rows = []
        for mappers, result in per_mappers.items():
            rows.append(
                [
                    name,
                    mappers,
                    result.num_updates,
                    f"{100 * result.missed_fraction:.1f}%",
                    f"{result.average_delay:.3f}",
                ]
            )
        table = format_table(
            ["dataset", "mappers", "edges", "missed", "avg delay (s)"], rows
        )
        series = ", ".join(f"{dt * TIME_SCALE:.4f}" for dt in interarrivals[:20])
        sections.append(f"{table}\ninter-arrival times (first 20, scaled): {series}")
    report("fig8_online_arrival", "\n\n".join(sections))

    for name, (_, per_mappers) in output.items():
        missed = [per_mappers[m].missed_fraction for m in MAPPER_COUNTS]
        # More mappers never miss more updates, and the largest configuration
        # keeps up with (nearly) the whole stream.
        assert missed[0] >= missed[-1]
        assert missed[-1] <= 0.5
