"""The kill-and-restart acceptance test: SIGKILL the server process,
restart it on the same root, and every session must restore with scores
exactly equal to a serial oracle replay.

This drives the real deployment artifact — ``repro serve`` in a child
process over TCP — not an in-process server, so it exercises process
boot, registry restore and the CLI wiring end to end.  Two named
sessions, one serial on a ``disk://`` store and one backed by a
``shard://`` ensemble, take update batches over HTTP before the KILL.
"""

import asyncio
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.api import open_session
from repro.core import EdgeUpdate
from repro.graph import Graph
from repro.service import ServiceClient

from tests.helpers import live_processes_matching, wait_until

API_KEY = "restart-secret"

ALPHA_EDGES = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]]
GAMMA_EDGES = [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]]

ALPHA_BATCHES = [
    [("add", 0, 3)],
    [("add", 1, 6), ("add", 6, 4)],
    [("remove", 0, 3), ("add", 2, 5)],
]
GAMMA_BATCHES = [
    [("add", 1, 3)],
    [("add", 0, 4), ("add", 4, 2)],
]


def _spawn_server(root: Path, port: int) -> subprocess.Popen:
    env = dict(os.environ)
    repo_root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = str(repo_root / "src")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--root",
            str(root),
            "--host",
            "127.0.0.1",
            "--port",
            str(port),
            "--api-key",
            API_KEY,
            "--impl",
            "asyncio",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def _wait_healthy(port: int, process: subprocess.Popen, timeout=30.0):
    deadline = time.monotonic() + timeout
    last_error = None
    while time.monotonic() < deadline:
        if process.poll() is not None:
            out = process.stdout.read().decode(errors="replace")
            raise AssertionError(
                f"server died during startup (exit {process.returncode}):\n{out}"
            )
        try:
            async with ServiceClient("127.0.0.1", port) as probe:
                status, payload = await probe.get("/healthz")
                if status == 200:
                    return payload
        except OSError as exc:
            last_error = exc
        await asyncio.sleep(0.1)
    raise AssertionError(f"server never became healthy: {last_error}")


def _kill(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
    process.wait(timeout=10)
    if process.stdout:
        process.stdout.close()


def _oracle(edges, batches):
    graph = Graph()
    for u, v in edges:
        graph.add_edge(u, v)
    session = open_session(graph)
    for batch in batches:
        session.apply_batch(
            [
                EdgeUpdate.addition(u, v)
                if kind == "add"
                else EdgeUpdate.removal(u, v)
                for kind, u, v in batch
            ]
        )
    scores = session.vertex_betweenness()
    session.close()
    return scores


def test_sigkill_and_restart_restores_every_session(tmp_path):
    root = tmp_path / "service-root"
    port = _free_port()
    server = _spawn_server(root, port)

    async def first_life():
        await _wait_healthy(port, server)
        async with ServiceClient("127.0.0.1", port, api_key=API_KEY) as client:
            await client.create_session(
                "alpha",
                edges=ALPHA_EDGES,
                config={"backend": "arrays", "store": "disk://"},
            )
            await client.create_session(
                "gamma",
                edges=GAMMA_EDGES,
                config={"executor": "shard", "store": "shard://?shards=2"},
            )
            for batch in ALPHA_BATCHES:
                summary = await client.post_updates("alpha", batch)
                assert summary["durable"] is True
            for batch in GAMMA_BATCHES:
                summary = await client.post_updates("gamma", batch)
                assert summary["durable"] is True
            alpha = await client.scores("alpha")
            gamma = await client.scores("gamma")
            return dict(map(tuple, alpha["scores"])), dict(
                map(tuple, gamma["scores"])
            )

    try:
        alpha_before, gamma_before = asyncio.run(first_life())
    finally:
        _kill(server)  # SIGKILL — no shutdown hooks, no final checkpoint

    # The on-disk root alone must bring both sessions back.
    port2 = _free_port()
    server2 = _spawn_server(root, port2)

    async def second_life():
        health = await _wait_healthy(port2, server2)
        assert health["restore_failures"] == {}
        assert health["sessions"] == 2
        async with ServiceClient(
            "127.0.0.1", port2, api_key=API_KEY
        ) as client:
            listing = await client.expect("GET", "/sessions")
            assert [s["name"] for s in listing["sessions"]] == [
                "alpha",
                "gamma",
            ]
            alpha = await client.scores("alpha")
            gamma = await client.scores("gamma")
            # Restored sessions keep serving updates.
            summary = await client.post_updates("alpha", [("add", 3, 6)])
            assert summary["applied"] == 1
            return dict(map(tuple, alpha["scores"])), dict(
                map(tuple, gamma["scores"])
            )

    try:
        alpha_after, gamma_after = asyncio.run(second_life())
    finally:
        _kill(server2)

    # Exact equality — not approximate — against the serial oracle replay.
    assert alpha_after == alpha_before == _oracle(ALPHA_EDGES, ALPHA_BATCHES)
    assert gamma_after == gamma_before == _oracle(GAMMA_EDGES, GAMMA_BATCHES)

    # A SIGKILLed server must take its shard workers along: they were forked
    # from it, so they carry its command line — root included.
    assert wait_until(lambda: not live_processes_matching(str(root)), timeout=5.0), (
        f"orphaned processes: {live_processes_matching(str(root))}"
    )
