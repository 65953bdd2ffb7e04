"""The repo's one benchmark: update-to-readable latency on four workloads.

``python -m benchmarks.suite run|trace|compare`` (developer front end) and
``python3 benchmarks/suite/run.py --workload ...`` (the one-workload entry
point ``BENCHMARK.json`` names).  See ``README.md`` in this directory.
"""
