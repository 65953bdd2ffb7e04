"""``python -m benchmarks.suite run|trace|compare`` — the developer front end.

``run`` and ``trace`` execute ``run.py`` once per workload, each in a fresh
child process, and write one JSON report (``out/run.json``,
``out/trace.json``); ``compare`` judges one ``run`` report against another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

from benchmarks.suite import compare

SUITE = Path(__file__).resolve().parent
#: A child gets run.py's own watchdog plus a margin before its whole
#: process group is killed.
CHILD_SECONDS = 200


def _run_child(arguments: List[str]) -> Dict[str, Any]:
    """One ``run.py`` child; returns its last-line JSON, with the metrics
    of the ``suite_only`` line before it merged in, or ``{}`` when it
    failed.  The child leads its own process group so that nothing it
    started can survive it."""
    child = subprocess.Popen(
        [sys.executable, str(SUITE / "run.py"), *arguments],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        output, _ = child.communicate(timeout=CHILD_SECONDS)
    except subprocess.TimeoutExpired:
        output = ""
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    sys.stdout.write(output)
    if child.returncode != 0 or not output.strip():
        return {}
    lines = output.strip().splitlines()
    result = json.loads(lines[-1])
    if len(lines) > 1 and lines[-2].startswith('{"suite_only"'):
        result["metrics"].update(json.loads(lines[-2])["suite_only"])
    return result


def _host() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def measure(args, trace: bool) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    report: Dict[str, Any] = {
        "kind": "trace" if trace else "run",
        "seed": args.seed,
        "host": _host(),
        "workloads": {},
    }
    failed = []
    for workload in compare.EVERY:
        runs = []
        for _ in range(args.repeat):
            arguments = [
                "--workload", workload, "--seed", str(args.seed),
                "--trace", str(int(trace)),
                "--workdir", str(args.out),
            ]
            if trace:
                arguments += ["--trace-out", str(args.out / f"{workload}.trace.json")]
            result = _run_child(arguments)
            if not result or not result["correct"] or result["failed"]:
                failed.append(workload)
            else:
                runs.append(result)
        report["workloads"][workload] = {"runs": runs}

    untraced = args.out / "run.json"
    if trace and untraced.exists():
        # Tracing overhead: the untraced closed-loop rate over the traced one.
        before = json.loads(untraced.read_text())["workloads"]
        for workload, entry in report["workloads"].items():
            rates = [
                run["metrics"]["updates_per_s"]["value"]
                for run in before.get(workload, {}).get("runs", [])
            ]
            if rates and entry["runs"]:
                traced = entry["runs"][-1]["metrics"]["harness.updates_per_s"]["value"]
                ratio = (sum(rates) / len(rates)) / traced
                entry["harness.trace_overhead_ratio"] = ratio
                print(f"{workload}: harness.trace_overhead_ratio {ratio:.3f} ratio")

    for workload, entry in report["workloads"].items():
        if entry["runs"]:
            print(f"{workload}: median of {len(entry['runs'])}")
            for name, first in entry["runs"][0]["metrics"].items():
                values = [run["metrics"][name]["value"] for run in entry["runs"]]
                print(f"  {name:34s} {statistics.median(values):16.4f} {first['unit']}")

    path = args.out / ("trace.json" if trace else "run.json")
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    commands = parser.add_subparsers(dest="command", required=True)
    # ``compare`` judges medians: one run of one seed differs from the next
    # by up to half a bound on this machine, the median of three does not.
    for name, repeat in (("run", 3), ("trace", 1)):
        sub = commands.add_parser(name)
        sub.add_argument("--seed", type=int, default=7)
        sub.add_argument("--repeat", type=int, default=repeat)
        sub.add_argument("--out", type=Path, default=SUITE / "out")
    sub = commands.add_parser("compare")
    sub.add_argument("a", type=Path)
    sub.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare.main(args.a, args.b)
    return measure(args, trace=args.command == "trace")


if __name__ == "__main__":
    sys.exit(main())
