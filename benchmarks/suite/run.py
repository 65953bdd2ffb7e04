"""One run of one workload — the command ``BENCHMARK.json`` names.

    python3 benchmarks/suite/run.py --workload online-serial --seed 7 \\
        --seconds 20 --trace 0

Prints a table of what it measured and, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  With ``--trace 0`` the line before it is a JSON object of the
end-to-end metrics ``BENCHMARK.json`` cannot list (``metrics.suite_only``).
Exits non-zero, without those lines, when the correctness gate fails, the run
times out, or it leaves a process or shared-memory segment behind.  Reads and
writes only under ``--workdir`` (default: ``out/`` beside this file), in a
temporary directory it removes on the way out.

Each workload runs a fixed number of batches, sized for the 20 s that
``BENCHMARK.json`` gives as ``run_seconds``; ``--seconds`` is accepted and
changes nothing, so that the work is the same on every run and commit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
CHECKOUT = SUITE.parents[1]
#: The whole run, set-up and gate included, must end well inside the
#: driver's 180 s limit; past this it is abandoned and cleaned up.
WATCHDOG_SECONDS = 170
#: How long ``reap`` waits for one process to end.
REAP_SECONDS = 5.0


class Abandoned(BaseException):
    """SIGALRM (the watchdog) or SIGTERM arrived.  Not an ``Exception``, so
    that no ``except Exception`` in the program under test swallows it."""


def _abandon(signum, frame):
    raise Abandoned(
        f"{signal.Signals(signum).name} (the watchdog allows {WATCHDOG_SECONDS} s)"
    )


def _descendants(root: int) -> dict:
    """pid -> parent pid of every live process below ``root``, from /proc."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # it ended meanwhile
            state, parent = stat.rpartition(")")[2].split()[:2]
            if state != "Z":
                parents[int(entry)] = int(parent)
    below, frontier = {}, {root}
    while frontier:
        frontier = {pid for pid, parent in parents.items() if parent in frontier}
        below.update((pid, parents[pid]) for pid in frontier)
    return below


def _await_end(pid: int, ours: bool, seconds: float) -> bool:
    """Wait until ``pid`` is gone (reaping it when it is our child)."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            if ours:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    return True
            elif not Path("/proc", str(pid)).exists():
                return True
        except ChildProcessError:
            return True
        time.sleep(0.005)
    return False


def reap() -> list:
    """The last thing a run does, on every path out: leave no process.

    Shared memory makes ``multiprocessing`` start a resource tracker, which
    ends only once this process has closed its pipe — left alone, a moment
    *after* this process has gone.  So close the pipe here and wait for the
    tracker; then kill and wait for anything else still below this process.
    Returns the pids, other than the tracker's, that had to be killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    pid, fd = tracker._pid, tracker._fd
    if pid is not None:
        tracker._fd = tracker._pid = None
        os.close(fd)
        if not _await_end(pid, True, REAP_SECONDS):
            os.kill(pid, signal.SIGKILL)  # it ignores SIGTERM
            _await_end(pid, True, REAP_SECONDS)
    me = os.getpid()
    killed = _descendants(me)
    for child in killed:
        try:
            os.kill(child, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for child, parent in killed.items():
        _await_end(child, parent == me, REAP_SECONDS)
    return sorted(killed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0, help="ignored")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, default=SUITE / "out")
    parser.add_argument(
        "--trace-out", type=Path, default=None, metavar="FILE",
        help="with --trace 1, also write the spans as Chrome-trace JSON",
    )
    args = parser.parse_args(argv)

    if not (CHECKOUT / "src" / "repro").is_dir():
        print(f"no program to measure: {CHECKOUT}/src/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(CHECKOUT), str(CHECKOUT / "src")]
    from repro.storage.buffers import reclaim_process_segments

    from benchmarks.suite import metrics, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}")

    recorder = None
    if args.trace:
        from benchmarks.suite import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    signal.signal(signal.SIGALRM, _abandon)
    signal.signal(signal.SIGTERM, _abandon)
    signal.alarm(WATCHDOG_SECONDS)
    args.workdir.mkdir(parents=True, exist_ok=True)
    workdir = Path(  # absolute: it goes into store URIs
        tempfile.mkdtemp(prefix=f"{workload.name}-", dir=args.workdir.resolve())
    )
    problem = None
    children = {}  # pid -> handle of every process the run starts
    try:
        measured = workloads.run_workload(
            workload, args.seed, workdir, children, recorder
        )
    except (workloads.GateFailure, Abandoned) as exc:
        problem = f"{type(exc).__name__}: {exc}"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # finish the cleanup
        # Nothing the run started may outlive it, whatever happened: no
        # process, and no /dev/shm segment one of them created (a segment's
        # name carries its creator's pid, so other runs' segments are safe).
        survivors = workloads.stop_children(children)
        leaked = [
            name
            for pid in (os.getpid(), *children)
            for name in reclaim_process_segments(pid)
        ]
        survivors += reap()
        shutil.rmtree(workdir, ignore_errors=True)
    if problem is None and (survivors or leaked):
        problem = f"left behind processes {survivors} and segments {leaked}"
    if problem is not None:
        print(f"{workload.name}: FAILED — {problem}", file=sys.stderr)
        return 1

    print(f"{workload.name}  seed {args.seed}")
    also = {}
    if recorder is None:
        reported = metrics.end_to_end(measured)
        also = metrics.suite_only(measured)
    else:
        reported = metrics.per_layer(recorder, measured)
        print("  self time by layer inside the timed section:")
        for layer, seconds, spans in metrics.layer_table(recorder, measured.notes):
            print(f"    {layer:10s} {seconds:9.3f} s  {spans:7d} spans")
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            args.trace_out.write_text(json.dumps(recorder.chrome_trace()))
    for name, (value, unit) in {**reported, **also}.items():
        print(f"  {name:34s} {value:16.4f} {unit}")

    def as_json(values):
        return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}

    if recorder is None:
        print(json.dumps({"suite_only": as_json(also)}))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": measured.attempted,
                "failed": measured.failed,
                "metrics": as_json(reported),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
