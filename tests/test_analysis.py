"""Tests for the speedup-measurement harness and table formatting."""

import pytest

from repro.analysis import (
    SpeedupSeries,
    Variant,
    build_framework,
    format_table,
    measure_brandes_seconds,
    measure_stream_speedups,
    related_work_table,
    speedup_summary_rows,
    table2_rows,
)
from repro.core import IncrementalBetweenness
from repro.exceptions import ConfigurationError
from repro.generators import addition_stream, removal_stream, synthetic_social_graph
from repro.graph import profile

from tests.helpers import assert_framework_matches_recompute


@pytest.fixture(scope="module")
def small_social_graph():
    return synthetic_social_graph(60, rng=13)


class TestBuildFramework:
    def test_mo_variant_default(self, small_social_graph):
        framework = build_framework(small_social_graph, Variant.MO)
        assert isinstance(framework, IncrementalBetweenness)

    def test_do_variant_uses_disk(self, small_social_graph, tmp_path):
        framework = build_framework(
            small_social_graph, Variant.DO, disk_path=tmp_path / "bd.bin"
        )
        assert framework.store.path.exists()
        framework.store.close()

    def test_mp_variant_tracks_predecessors(self, small_social_graph):
        framework = build_framework(small_social_graph, Variant.MP)
        assert framework._maintain_predecessors is True


class TestMeasureBrandes:
    def test_positive_time(self, small_social_graph):
        assert measure_brandes_seconds(small_social_graph) > 0.0

    def test_invalid_repeats(self, small_social_graph):
        with pytest.raises(ConfigurationError):
            measure_brandes_seconds(small_social_graph, repeats=0)


class TestMeasureStreamSpeedups:
    def test_series_has_one_entry_per_update(self, small_social_graph):
        updates = addition_stream(small_social_graph, 4, rng=3)
        series = measure_stream_speedups(
            small_social_graph, updates, Variant.MO, label="social"
        )
        assert len(series.speedups) == 4
        assert len(series.update_seconds) == 4
        assert all(s > 0 for s in series.speedups)
        assert 0.0 <= series.average_skip_fraction <= 1.0

    def test_cdf_and_summary(self, small_social_graph):
        updates = removal_stream(small_social_graph, 4, rng=4)
        series = measure_stream_speedups(
            small_social_graph, updates, Variant.MO, label="social"
        )
        cdf = series.cdf()
        assert cdf[-1][1] == pytest.approx(1.0)
        stats = series.summary()
        assert stats.minimum <= stats.median <= stats.maximum

    def test_framework_correct_after_measurement(self, small_social_graph):
        updates = addition_stream(small_social_graph, 2, rng=5)
        framework = build_framework(small_social_graph, Variant.MO)
        for update in updates:
            framework.apply(update)
        assert_framework_matches_recompute(framework)

    def test_measured_baseline_times_the_measured_backend(
        self, small_social_graph, monkeypatch
    ):
        """The denominator is the same engine's from-scratch Brandes: an
        arrays run times the arrays Brandes, not the dicts one."""
        from repro.analysis import speedup

        timed_backends = []
        real = speedup.brandes_betweenness

        def spy(graph, **kwargs):
            timed_backends.append(kwargs.get("backend", "dicts"))
            return real(graph, **kwargs)

        monkeypatch.setattr(speedup, "brandes_betweenness", spy)
        updates = addition_stream(small_social_graph, 2, rng=6)
        measure_stream_speedups(
            small_social_graph, updates, Variant.MO, backend="arrays"
        )
        measure_stream_speedups(small_social_graph, updates, Variant.MO)
        assert timed_backends == ["arrays", "dicts"]

    def test_explicit_baseline_used(self, small_social_graph):
        updates = addition_stream(small_social_graph, 2, rng=6)
        series = measure_stream_speedups(
            small_social_graph, updates, baseline_seconds=1.0
        )
        assert series.baseline_seconds == 1.0
        assert series.speedups[0] == pytest.approx(1.0 / series.update_seconds[0])


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "long_header"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_related_work_table_mentions_this_work(self):
        table = related_work_table()
        assert "This work" in table
        assert "O(n^2)" in table

    def test_table2_rows(self, small_social_graph):
        rows = table2_rows([profile(small_social_graph, name="social-60")])
        assert rows[0][0] == "social-60"
        assert rows[0][1] == small_social_graph.num_vertices

    def test_speedup_summary_rows_with_missing_side(self):
        series = SpeedupSeries(
            label="x", variant=Variant.MO, baseline_seconds=1.0, speedups=[2.0, 4.0, 8.0]
        )
        rows = speedup_summary_rows({"x": series}, {})
        assert rows[0][0] == "x"
        assert rows[0][1:4] == [2, 4, 8]
        assert rows[0][4:] == ["-", "-", "-"]
