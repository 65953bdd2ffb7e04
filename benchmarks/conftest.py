"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures on the
scaled-down dataset stand-ins (see the introduction of ``docs/reproduction.md``
for the substitution rationale) and writes its output — the same rows /
series the paper reports — both to stdout and to
``benchmarks/results/<name>.txt``, to read against the shapes that
``docs/reproduction.md`` lists per figure and table.

Scaling knobs (environment variables):

* ``REPRO_BENCH_EDGES``   — updates per stream (default 10; the paper uses 100);
* ``REPRO_BENCH_SCALE``   — multiplier on the stand-in vertex counts (default 1.0).

Raising either makes the shapes crisper at the cost of wall-clock time.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

import pytest

from repro.analysis import measure_brandes_seconds
from repro.generators import load_dataset
from repro.graph import Graph

RESULTS_DIR = Path(__file__).parent / "results"

#: Vertex counts used for each dataset stand-in during benchmarking.  These
#: are intentionally small (pure-Python constant factors); the relative
#: ordering mirrors Table 2.
BENCH_SIZES: Dict[str, int] = {
    "synthetic-1k": 150,
    "synthetic-10k": 250,
    "synthetic-100k": 350,
    "synthetic-1000k": 450,
    "wikielections": 250,
    "slashdot": 300,
    "facebook": 330,
    "epinions": 350,
    "dblp": 400,
    "amazon": 420,
}


def stream_length() -> int:
    """Number of edge updates per stream (paper: 100)."""
    return int(os.environ.get("REPRO_BENCH_EDGES", "10"))


def scaled_size(name: str) -> int:
    """Vertex count for ``name`` after applying the scale factor."""
    factor = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    return max(30, int(BENCH_SIZES[name] * factor))


class DatasetCache:
    """Session-wide cache of generated graphs and Brandes baselines."""

    def __init__(self) -> None:
        self._graphs: Dict[str, Graph] = {}
        self._baselines: Dict[str, float] = {}

    def graph(self, name: str) -> Graph:
        if name not in self._graphs:
            self._graphs[name] = load_dataset(
                name, num_vertices=scaled_size(name), rng=7
            )
        return self._graphs[name]

    def brandes_seconds(self, name: str) -> float:
        if name not in self._baselines:
            self._baselines[name] = measure_brandes_seconds(self.graph(name))
        return self._baselines[name]


@pytest.fixture(scope="session")
def datasets() -> DatasetCache:
    return DatasetCache()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def report(results_dir):
    """Write a named report file and echo it to stdout."""

    def _write(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n===== {name} =====\n{text}\n")

    return _write
