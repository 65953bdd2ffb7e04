"""Tests for the utility helpers (stats, timing, RNG, validation, types)."""

import random
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.types import UNREACHABLE, canonical_edge
from repro.utils import (
    Timer,
    empirical_cdf,
    ensure_rng,
    geometric_mean,
    median,
    percentile,
    summarize,
    timed,
)
from repro.utils.rng import spawn
from repro.utils.stats import top_k_ranked
from repro.utils.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
    require_probability,
)


class TestStats:
    def test_median_odd_and_even(self):
        assert median([3, 1, 2]) == 2
        assert median([1, 2, 3, 4]) == 2.5

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median([])

    def test_percentile_bounds(self):
        data = [1, 2, 3, 4, 5]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 5
        assert percentile(data, 50) == 3

    def test_percentile_interpolates(self):
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_percentile_invalid_q(self):
        with pytest.raises(ValueError):
            percentile([1], 150)

    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([1, 0])

    def test_empirical_cdf_properties(self):
        cdf = empirical_cdf([3.0, 1.0, 2.0])
        values = [v for v, _ in cdf]
        fractions = [f for _, f in cdf]
        assert values == sorted(values)
        assert fractions[-1] == pytest.approx(1.0)
        assert empirical_cdf([]) == []

    def test_summarize(self):
        stats = summarize([4, 1, 3, 2])
        assert stats.minimum == 1 and stats.maximum == 4
        assert stats.median == 2.5
        assert stats.count == 4
        assert stats.as_row() == (1, 2.5, 4)

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])


def _full_sort(items, k):
    return sorted(items, key=lambda item: (-item[1], repr(item[0])))[:k]


_LABELS = st.one_of(
    st.lists(st.integers(-50, 50), unique=True, min_size=1, max_size=30),
    st.lists(st.text(max_size=3), unique=True, min_size=1, max_size=30),
    st.lists(
        st.one_of(st.integers(0, 9), st.text(max_size=2)),
        unique=True,
        min_size=1,
        max_size=30,
    ),
    # Directed edges: (u, v) and (v, u) are distinct items.
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
            lambda edge: edge[0] != edge[1]
        ),
        unique=True,
        min_size=1,
        max_size=30,
    ),
)


class TestTopKRanked:
    @given(labels=_LABELS, data=st.data())
    def test_equals_the_full_sort(self, labels, data):
        # Few distinct scores, so ties at the k-th score are the rule.
        scores = data.draw(
            st.lists(
                st.sampled_from([0.0, 0.25, 1.0, 3.5])
                | st.floats(0.0, 100.0, allow_nan=False),
                min_size=len(labels),
                max_size=len(labels),
            )
        )
        items = list(zip(labels, scores))
        values = np.array(scores, dtype=np.float64)
        n = len(items)
        for k in {1, n - 1, n, n + 5} - {0}:
            assert top_k_ranked(values, k, labels.__getitem__) == _full_sort(
                items, k
            )

    def test_all_zero_ties_break_by_repr(self):
        labels = [10, 2, "b", (1, 0), "a", 1]
        values = np.zeros(len(labels))
        items = [(label, 0.0) for label in labels]
        for k in (1, 3, 5, 6, 11):
            assert top_k_ranked(values, k, labels.__getitem__) == _full_sort(
                items, k
            )

    def test_only_candidates_are_labelled(self):
        values = np.arange(1000, dtype=np.float64)
        labelled = []

        def label(i):
            labelled.append(i)
            return i

        top = top_k_ranked(values, 3, label)
        assert top == [(999, 999.0), (998, 998.0), (997, 997.0)]
        assert sorted(labelled) == [997, 998, 999]


class TestTimer:
    def test_laps_accumulate(self):
        timer = Timer()
        with timer.measure():
            time.sleep(0.002)
        with timer.measure():
            pass
        assert timer.count == 2
        assert timer.total >= 0.002
        assert timer.mean > 0

    def test_double_start_raises(self):
        timer = Timer()
        timer.start()
        with pytest.raises(RuntimeError):
            timer.start()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_reset(self):
        timer = Timer()
        with timer.measure():
            pass
        timer.reset()
        assert timer.count == 0 and timer.mean == 0.0

    def test_timed_returns_result_and_elapsed(self):
        result, elapsed = timed(sum, [1, 2, 3])
        assert result == 6
        assert elapsed >= 0.0


class TestRng:
    def test_ensure_rng_with_seed_is_deterministic(self):
        assert ensure_rng(7).random() == ensure_rng(7).random()

    def test_ensure_rng_passthrough(self):
        rng = random.Random(3)
        assert ensure_rng(rng) is rng

    def test_spawn_produces_independent_streams(self):
        parent = ensure_rng(1)
        child_a = spawn(parent)
        parent2 = ensure_rng(1)
        child_b = spawn(parent2)
        assert child_a.random() == child_b.random()


class TestValidation:
    def test_require_positive(self):
        assert require_positive("x", 2) == 2
        with pytest.raises(ConfigurationError):
            require_positive("x", 0)

    def test_require_non_negative(self):
        assert require_non_negative("x", 0) == 0
        with pytest.raises(ConfigurationError):
            require_non_negative("x", -1)

    def test_require_probability(self):
        assert require_probability("p", 0.5) == 0.5
        with pytest.raises(ConfigurationError):
            require_probability("p", 1.5)

    def test_require_in_range(self):
        assert require_in_range("x", 5, 1, 10) == 5
        with pytest.raises(ConfigurationError):
            require_in_range("x", 0, 1, 10)
        with pytest.raises(ConfigurationError):
            require_in_range("x", 11, 1, 10)


class TestTypes:
    def test_canonical_edge_orders_comparable_vertices(self):
        assert canonical_edge(2, 1) == (1, 2)
        assert canonical_edge(1, 2) == (1, 2)

    def test_canonical_edge_mixed_types_is_deterministic(self):
        assert canonical_edge("a", 1) == canonical_edge(1, "a")

    def test_unreachable_sentinel(self):
        assert UNREACHABLE == -1
