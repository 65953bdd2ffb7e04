"""Tests for the reduce step, scaling models and online replay."""

import pytest

from repro.core import EdgeUpdate
from repro.exceptions import ConfigurationError
from repro.generators import synthetic_social_graph
from repro.generators.streams import EvolvingGraph
from repro.parallel import (
    OnlineCapacityModel,
    ShardCoordinator,
    replay_online_updates_parallel,
    required_workers,
    simulate_online_updates,
    strong_scaling,
    weak_scaling,
)
from repro.parallel.shards import merge_partial_scores


class TestMergePartialScores:
    def test_sums_by_key(self):
        merged = merge_partial_scores([{"a": 1.0, "b": 2.0}, {"a": 0.5}])
        assert merged == {"a": 1.5, "b": 2.0}

    def test_empty(self):
        assert merge_partial_scores([]) == {}

    def test_folds_left_in_the_order_given(self):
        # Float addition is not associative; the reduce is a left fold in
        # partition order, which is what makes two merges bit-identical.
        big, small = {"a": 1e16}, {"a": 1.0}
        assert merge_partial_scores([big, {"a": -1e16}, small]) == {"a": 1.0}
        assert merge_partial_scores([small, big, {"a": -1e16}]) == {"a": 0.0}


class TestCapacityModel:
    def test_update_time_decreases_with_workers(self):
        model = OnlineCapacityModel(time_per_source=0.01, num_sources=1000, merge_time=0.1)
        assert model.update_time(1) == pytest.approx(10.1)
        assert model.update_time(10) == pytest.approx(1.1)
        assert model.update_time(10) < model.update_time(1)

    def test_is_online(self):
        model = OnlineCapacityModel(time_per_source=0.01, num_sources=100, merge_time=0.0)
        assert not model.is_online(1, interarrival_time=0.5)
        assert model.is_online(10, interarrival_time=0.5)

    def test_required_workers_formula(self):
        # tS*n / (tI - tM) = 0.01*1000 / (2 - 0.5) = 6.67 -> 7 workers.
        assert required_workers(0.01, 1000, interarrival_time=2.0, merge_time=0.5) == 7

    def test_required_workers_impossible_rate(self):
        model = OnlineCapacityModel(time_per_source=1.0, num_sources=10, merge_time=1.0)
        with pytest.raises(ConfigurationError):
            model.required_workers(1.5)

    def test_invalid_worker_count(self):
        model = OnlineCapacityModel(0.01, 10)
        with pytest.raises(ConfigurationError):
            model.update_time(0)


class TestScalingCurves:
    def test_strong_scaling_monotone(self):
        model = OnlineCapacityModel(time_per_source=0.02, num_sources=500, merge_time=0.05)
        curve = strong_scaling(model, [1, 2, 4, 8], num_updates=100)
        times = [point.seconds_per_update for point in curve]
        assert times == sorted(times, reverse=True)
        assert curve[0].total_seconds == pytest.approx(100 * times[0])

    def test_weak_scaling_total_roughly_flat(self):
        model = OnlineCapacityModel(time_per_source=0.02, num_sources=500, merge_time=0.0)
        curve = weak_scaling(model, [1, 2, 4], updates_per_worker_ratio=10)
        totals = [point.total_seconds for point in curve.values()]
        assert max(totals) / min(totals) < 1.2

    def test_weak_scaling_invalid_ratio(self):
        model = OnlineCapacityModel(0.01, 100)
        with pytest.raises(ConfigurationError):
            weak_scaling(model, [1, 2], updates_per_worker_ratio=0)


class TestOnlineReplay:
    def _evolving(self, seed=3):
        graph = synthetic_social_graph(60, rng=seed)
        return EvolvingGraph.from_graph(graph, rng=seed, mean_interarrival=0.5)

    def test_replay_produces_one_record_per_update(self):
        evolving = self._evolving()
        prefix = evolving.num_edges - 12
        result = simulate_online_updates(
            evolving.base_graph(prefix), evolving.future_updates(prefix), num_mappers=2
        )
        assert result.num_updates == 12
        assert 0.0 <= result.missed_fraction <= 1.0
        assert result.as_table_row()[0] == 2

    def test_more_mappers_do_not_increase_misses(self):
        evolving = self._evolving(seed=9)
        prefix = evolving.num_edges - 10
        base = evolving.base_graph(prefix)
        updates = evolving.future_updates(prefix)
        # Speed arrivals up so that a single worker struggles.
        few = simulate_online_updates(base, updates, num_mappers=1, time_scale=0.001)
        many = simulate_online_updates(base, updates, num_mappers=50, time_scale=0.001)
        assert many.missed_fraction <= few.missed_fraction

    def test_requires_timestamps(self, cycle6):
        with pytest.raises(ConfigurationError):
            simulate_online_updates(cycle6, [EdgeUpdate.addition(0, 3)])

    def test_requires_updates(self, cycle6):
        with pytest.raises(ConfigurationError):
            simulate_online_updates(cycle6, [])

    def test_average_delay_zero_when_nothing_missed(self):
        evolving = self._evolving(seed=11)
        prefix = evolving.num_edges - 5
        result = simulate_online_updates(
            evolving.base_graph(prefix),
            evolving.future_updates(prefix),
            num_mappers=4,
            time_scale=1000.0,  # arrivals far apart: nothing can be missed
        )
        assert result.num_missed == 0
        assert result.average_delay == 0.0

    @pytest.mark.parametrize("kind", ["memory", "disk"])
    def test_a_bare_store_kind_is_refused_before_any_worker(self, monkeypatch, kind):
        """Stores are named by URI only: a bare kind gets the store-URI
        parser's typed refusal before a worker process exists."""

        def spawn(*_args, **_kwargs):
            raise AssertionError("a worker was spawned")

        monkeypatch.setattr(ShardCoordinator, "_spawn", spawn)
        evolving = self._evolving()
        prefix = evolving.num_edges - 3
        with pytest.raises(ConfigurationError, match="has no scheme"):
            replay_online_updates_parallel(
                evolving.base_graph(prefix),
                evolving.future_updates(prefix),
                num_workers=2,
                store=kind,
            )
