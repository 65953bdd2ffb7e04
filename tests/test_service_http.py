"""End-to-end HTTP/SSE tests over the service's asyncio transport.

Each test boots a real :class:`ServiceServer` on an ephemeral port and
drives it with the stdlib :class:`ServiceClient`, or with raw bytes where
the test is about the wire framing itself.
"""

import asyncio
import json
import logging
import os
import signal
import threading

import pytest

from repro.algorithms import brandes_betweenness
from repro.api import BetweennessConfig, BetweennessSession
from repro.core import EdgeUpdate
from repro.graph import Graph
from repro.service import (
    ServiceClient,
    ServiceClientError,
    ServiceServer,
    ServiceSettings,
)

from tests.helpers import random_connected_graph

PATH_EDGES = [[0, 1], [1, 2], [2, 3], [3, 4]]


def run(coro):
    return asyncio.run(coro)


async def _boot(tmp_path, **overrides):
    overrides.setdefault("api_key", "secret")
    server = ServiceServer(ServiceSettings(root=tmp_path / "svc", **overrides))
    port = await server.start(port=0)
    client = ServiceClient("127.0.0.1", port, api_key=overrides["api_key"])
    return server, client, port


async def _raw_exchange(port, wire):
    """Send ``wire`` on a fresh connection; return one parsed response."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(wire)
        await writer.drain()
        status_line = await reader.readline()
        assert status_line, "the server dropped the connection"
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b""):
                break
            key, _, value = line.decode().partition(":")
            headers[key.strip().lower()] = value.strip()
        raw = await reader.readexactly(int(headers["content-length"]))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return int(status_line.split()[1]), headers, json.loads(raw)


def _post(body):
    return (
        b"POST /sessions HTTP/1.1\r\nhost: t\r\nx-api-key: secret\r\n"
        + f"content-length: {len(body)}\r\n\r\n".encode()
        + body
    )


def oracle_scores(extra_edges=()):
    graph = Graph()
    for u, v in PATH_EDGES:
        graph.add_edge(u, v)
    for u, v in extra_edges:
        graph.add_edge(u, v)
    return brandes_betweenness(graph).vertex_scores


class TestAuth:
    def test_healthz_is_open_everything_else_is_not(self, tmp_path):
        async def scenario():
            server, client, port = await _boot(tmp_path)
            try:
                async with ServiceClient("127.0.0.1", port) as anon:
                    status, payload = await anon.get("/healthz")
                    assert status == 200 and payload["status"] == "ok"
                    status, payload = await anon.get("/sessions")
                    assert status == 401
                    assert payload["error"]["code"] == "authentication_failed"
                async with ServiceClient(
                    "127.0.0.1", port, api_key="wrong"
                ) as bad:
                    status, _ = await bad.get("/sessions")
                    assert status == 401
                status, _ = await client.get("/sessions")
                assert status == 200
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_bearer_token_accepted(self, tmp_path):
        async def scenario():
            server, client, port = await _boot(tmp_path)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    b"GET /sessions HTTP/1.1\r\n"
                    b"host: t\r\n"
                    b"authorization: Bearer secret\r\n"
                    b"content-length: 0\r\n\r\n"
                )
                await writer.drain()
                status_line = await reader.readline()
                writer.close()
                await writer.wait_closed()
                assert b" 200 " in status_line
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_no_key_configured_serves_openly(self, tmp_path):
        async def scenario():
            server = ServiceServer(
                ServiceSettings(root=tmp_path / "svc", api_key=None)
            )
            port = await server.start(port=0)
            try:
                async with ServiceClient("127.0.0.1", port) as anon:
                    status, _ = await anon.get("/sessions")
                    assert status == 200
            finally:
                await server.stop()

        run(scenario())


class TestErrorSurface:
    def test_structured_4xx_never_a_stack_trace(self, tmp_path):
        async def scenario():
            server, client, _ = await _boot(tmp_path)
            try:
                cases = [
                    ("GET", "/sessions/ghost", None, 404, "session_not_found"),
                    ("GET", "/nope", None, 404, "not_found"),
                    (
                        "POST",
                        "/sessions",
                        {"name": "../evil", "graph": {}},
                        422,
                        "validation_failed",
                    ),
                    (
                        "POST",
                        "/sessions",
                        {"name": "x", "graph": {"edges": [[0]]}},
                        422,
                        "validation_failed",
                    ),
                    (
                        "POST",
                        "/sessions",
                        {
                            "name": "x",
                            "graph": {},
                            "config": {"store": "disk:///etc/passwd"},
                        },
                        422,
                        "validation_failed",
                    ),
                ]
                for method, path, body, want_status, want_code in cases:
                    status, payload = await client.request(
                        method, path, body=body
                    )
                    assert status == want_status, (path, payload)
                    assert payload["error"]["code"] == want_code
                    assert "message" in payload["error"]
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_retired_shared_memory_config_key_is_refused(self, tmp_path):
        async def scenario():
            server, client, _ = await _boot(tmp_path)
            try:
                status, payload = await client.request(
                    "POST",
                    "/sessions",
                    body={
                        "name": "x",
                        "graph": {"edges": [[0, 1], [1, 2]]},
                        "config": {"shared_memory": True},
                    },
                )
                assert status == 422, payload
                assert payload["error"]["code"] == "validation_failed"
                assert "unknown config fields" in payload["error"]["message"]
                assert "shared_memory" in payload["error"]["message"]
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_invalid_json_body_is_a_400(self, tmp_path):
        async def scenario():
            server, client, port = await _boot(tmp_path)
            try:
                status, _, payload = await _raw_exchange(
                    port, _post(b"{not json")
                )
                assert status == 400
                assert payload["error"]["code"] == "invalid_json"
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    @pytest.mark.parametrize(
        "wire, want_status, want_code, want_connection",
        [
            pytest.param(
                b"POST /sessions HTTP/1.1\r\ncontent-length: abc\r\n\r\n",
                400, "bad_request", "close",
                id="content-length-not-a-number",
            ),
            pytest.param(
                b"POST /sessions HTTP/1.1\r\ncontent-length: -5\r\n\r\n",
                400, "bad_request", "close",
                id="content-length-negative",
            ),
            pytest.param(
                b"GARBAGE\r\n\r\n", 400, "bad_request", "close",
                id="request-line-malformed",
            ),
            pytest.param(
                b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
                431, "header_too_large", "close",
                id="request-line-over-64k",
            ),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\nx-pad: " + b"a" * 70_000
                + b"\r\n\r\n",
                431, "header_too_large", "close",
                id="header-line-over-64k",
            ),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\n" + b"x-pad: aaaaaaaaaa\r\n" * 4000
                + b"\r\n",
                431, "header_too_large", "close",
                id="header-block-over-64k",
            ),
            pytest.param(
                b"POST /sessions HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n",
                413, "payload_too_large", "close",
                id="body-over-limit",
            ),
            pytest.param(
                b"POST /sessions HTTP/1.1\r\ntransfer-encoding: chunked\r\n"
                b"\r\n5\r\nhello\r\n0\r\n\r\n",
                411, "length_required", "close",
                id="transfer-encoding-chunked",
            ),
            pytest.param(
                _post(b'{"name": "\xff"}'), 400, "invalid_json", "keep-alive",
                id="body-not-utf8",
            ),
            pytest.param(
                _post(b"[" * 200_000), 400, "invalid_json", "keep-alive",
                id="body-nested-too-deep",
            ),
        ],
    )
    def test_malformed_wire_input_gets_a_typed_4xx(
        self, tmp_path, caplog, wire, want_status, want_code, want_connection
    ):
        async def scenario():
            server, client, port = await _boot(tmp_path)
            try:
                status, headers, payload = await _raw_exchange(port, wire)
                assert status == want_status, payload
                assert payload["error"]["code"] == want_code
                assert headers["connection"] == want_connection
                async with ServiceClient("127.0.0.1", port) as probe:
                    status, _ = await probe.get("/healthz")
                    assert status == 200
            finally:
                await client.close()
                await server.stop()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            run(scenario())
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_duplicate_session_is_a_409(self, tmp_path):
        async def scenario():
            server, client, _ = await _boot(tmp_path)
            try:
                await client.create_session("demo", edges=PATH_EDGES)
                with pytest.raises(ServiceClientError) as excinfo:
                    await client.create_session("demo", edges=PATH_EDGES)
                assert excinfo.value.status == 409
                assert excinfo.value.code == "session_exists"
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_rejected_update_is_a_409_and_atomic(self, tmp_path):
        async def scenario():
            server, client, _ = await _boot(tmp_path)
            try:
                await client.create_session("demo", edges=PATH_EDGES)
                with pytest.raises(ServiceClientError) as excinfo:
                    await client.post_updates(
                        "demo", [("add", 0, 4), ("add", 0, 1)]
                    )
                assert excinfo.value.status == 409
                assert excinfo.value.code == "update_rejected"
                payload = await client.scores("demo")
                assert dict(
                    (k, v) for k, v in payload["scores"]
                ) == oracle_scores()
            finally:
                await client.close()
                await server.stop()

        run(scenario())


class TestLifecycle:
    def test_full_crud_with_exact_scores(self, tmp_path):
        async def scenario():
            server, client, _ = await _boot(tmp_path)
            try:
                info = await client.create_session(
                    "demo",
                    edges=PATH_EDGES,
                    config={"backend": "arrays"},
                )
                assert info["name"] == "demo"
                assert info["num_edges"] == 4

                summary = await client.post_updates(
                    "demo", [("add", 0, 4), ("add", 1, 3)]
                )
                assert summary["applied"] == 2
                assert summary["durable"] is True

                expected = oracle_scores([(0, 4), (1, 3)])
                payload = await client.scores("demo")
                assert dict(payload["scores"]) == expected

                top = await client.top_k("demo", k=2)
                ranked = sorted(
                    expected.items(), key=lambda kv: (-kv[1], repr(kv[0]))
                )[:2]
                assert [
                    (t["item"], t["score"]) for t in top["top"]
                ] == ranked

                listing = await client.expect("GET", "/sessions")
                assert [s["name"] for s in listing["sessions"]] == ["demo"]

                result = await client.delete_session("demo", purge=True)
                assert result["purged"] is True
                status, _ = await client.get("/sessions/demo")
                assert status == 404
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_scores_vertex_filter_and_edge_scores(self, tmp_path):
        async def scenario():
            server, client, _ = await _boot(tmp_path)
            try:
                await client.create_session("demo", edges=[["a", "b"], ["b", "c"]])
                payload = await client.expect(
                    "GET",
                    "/sessions/demo/scores",
                    query={"vertices": "b"},
                )
                assert dict(payload["scores"]) == {"b": 2.0}
                status, body = await client.get(
                    "/sessions/demo/scores", query={"vertices": "b,z"}
                )
                assert status == 422  # unknown vertices are an error, not a skip
                assert body["error"]["details"] == {"unknown": ["z"]}
                payload = await client.scores("demo", edges=True)
                assert len(payload["scores"]) == 2
                assert payload["edges"] is True
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_reads_report_the_batch_of_their_scores(self, tmp_path):
        """Under a concurrent writer, every /top_k and /scores reply equals
        the oracle at the ``batches_applied`` it reports."""
        edges = [list(e) for e in random_connected_graph(60, 0.1, seed=9).edge_list()]
        births = [(i % 60, 100 + i) for i in range(40)]
        rankings, scores = [], []
        with BetweennessSession(
            Graph.from_edges(edges), BetweennessConfig(backend="arrays")
        ) as oracle:
            for step in range(len(births) + 1):
                if step:
                    oracle.apply_batch([EdgeUpdate.addition(*births[step - 1])])
                rankings.append([list(pair) for pair in oracle.top_k(5)])
                scores.append(oracle.vertex_betweenness())

        async def scenario():
            server, client, port = await _boot(tmp_path)
            try:
                await client.create_session(
                    "demo", edges=edges, config={"backend": "arrays"}
                )
                done = asyncio.Event()

                async def writer():
                    async with ServiceClient(
                        "127.0.0.1", port, api_key="secret"
                    ) as worker:
                        for u, v in births:
                            await worker.post_updates("demo", [("add", u, v)])
                    done.set()

                async def reader():
                    reads = 0
                    while not done.is_set():
                        top = await client.top_k("demo", k=5)
                        ranked = [[t["item"], t["score"]] for t in top["top"]]
                        assert ranked == rankings[top["batches_applied"]]
                        payload = await client.scores("demo")
                        batch = payload["batches_applied"]
                        assert dict(payload["scores"]) == scores[batch]
                        reads += 1
                    return reads

                _, reads = await asyncio.gather(writer(), reader())
                assert reads > 0
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_shard_top_k_answers_while_its_post_is_in_flight(self, tmp_path):
        """A SIGSTOPped worker holds the shard session's batch; /top_k
        still answers at once, naming the previous boundary."""
        edges = [list(e) for e in random_connected_graph(16, 0.2, seed=46).edge_list()]

        async def scenario():
            server, client, port = await _boot(tmp_path)
            try:
                await client.create_session(
                    "demo",
                    edges=edges,
                    config={"executor": "shard", "store": "shard://?shards=2"},
                )
                await client.post_updates("demo", [("add", 0, 100)])
                before = await client.top_k("demo", k=3)
                assert before["batches_applied"] == 1

                cluster = server.registry.get("demo").session.engine
                in_flight = threading.Event()
                broadcast = cluster._broadcast

                def flagged(message_for, expected):
                    in_flight.set()
                    return broadcast(message_for, expected)

                cluster._broadcast = flagged
                held = cluster._handles[0].process.pid
                os.kill(held, signal.SIGSTOP)
                try:
                    async with ServiceClient(
                        "127.0.0.1", port, api_key="secret"
                    ) as writer:
                        post = asyncio.create_task(
                            writer.post_updates("demo", [("add", 100, 101)])
                        )
                        loop = asyncio.get_running_loop()
                        assert await loop.run_in_executor(None, in_flight.wait, 10.0)
                        during = await asyncio.wait_for(
                            client.top_k("demo", k=3), 2.0
                        )
                        assert not post.done()
                        os.kill(held, signal.SIGCONT)
                        summary = await asyncio.wait_for(post, 30.0)
                finally:
                    os.kill(held, signal.SIGCONT)
                assert during == before
                assert summary["batch_index"] == 1
                after = await client.top_k("demo", k=3)
                assert after["batches_applied"] == 2
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_two_tenants_do_not_interfere(self, tmp_path):
        async def scenario():
            server, client, port = await _boot(tmp_path)
            try:
                await client.create_session("a", edges=PATH_EDGES)
                await client.create_session(
                    "b", edges=[[0, 1], [1, 2], [2, 0]]
                )

                async def hammer(name, updates):
                    async with ServiceClient(
                        "127.0.0.1", port, api_key="secret"
                    ) as worker:
                        for batch in updates:
                            await worker.post_updates(name, [batch])

                await asyncio.gather(
                    hammer("a", [("add", 0, 4), ("add", 1, 3)]),
                    hammer("b", [("add", 0, 3), ("add", 3, 1)]),
                )
                a = await client.scores("a")
                assert dict(a["scores"]) == oracle_scores([(0, 4), (1, 3)])
                b_graph = Graph()
                for u, v in [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)]:
                    b_graph.add_edge(u, v)
                b = await client.scores("b")
                assert (
                    dict(b["scores"])
                    == brandes_betweenness(b_graph).vertex_scores
                )
            finally:
                await client.close()
                await server.stop()

        run(scenario())


class TestEventStream:
    def test_sse_frames_for_updates_and_checkpoints(self, tmp_path):
        async def scenario():
            server, client, port = await _boot(tmp_path)
            try:
                await client.create_session("demo", edges=PATH_EDGES)
                subscriber = ServiceClient(
                    "127.0.0.1", port, api_key="secret"
                )
                frames = []

                async def consume():
                    async for frame in subscriber.events(
                        "demo", max_frames=4
                    ):
                        frames.append(frame)

                task = asyncio.create_task(consume())
                await asyncio.sleep(0.05)
                await client.post_updates("demo", [("add", 0, 4)])
                await client.post_updates("demo", [("add", 1, 3)])
                await asyncio.wait_for(task, 10)
                await subscriber.close()
                assert [f["type"] for f in frames] == [
                    "batch_applied",
                    "checkpoint_written",
                    "batch_applied",
                    "checkpoint_written",
                ]
                assert frames[0]["updates"] == [
                    {"kind": "add", "u": 0, "v": 4}
                ]
                assert frames[0]["batch_index"] == 0
                assert frames[2]["batch_index"] == 1
                assert frames[1]["path"].endswith("checkpoint.bin")
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_fan_out_is_complete_and_ordered(self, tmp_path):
        subscribers, batches = 6, 8

        async def scenario():
            server, client, port = await _boot(tmp_path)
            try:
                # No checkpoint within the run: only batch_applied frames.
                await client.create_session(
                    "demo", edges=PATH_EDGES, checkpoint_every=10 ** 6
                )

                async def subscribe():
                    listener = ServiceClient(
                        "127.0.0.1", port, api_key="secret"
                    )
                    return [
                        frame
                        async for frame in listener.events(
                            "demo", max_frames=batches
                        )
                    ]

                tasks = [
                    asyncio.create_task(subscribe())
                    for _ in range(subscribers)
                ]
                while (await client.expect("GET", "/sessions/demo"))[
                    "subscribers"
                ] < subscribers:
                    await asyncio.sleep(0.01)
                for index in range(batches):
                    kind = "add" if index % 2 == 0 else "remove"
                    await client.post_updates("demo", [(kind, 0, 4)])
                return await asyncio.wait_for(asyncio.gather(*tasks), 10)
            finally:
                await client.close()
                await server.stop()

        streams = run(scenario())
        assert len(streams) == subscribers
        for frames in streams:
            assert [f["type"] for f in frames] == ["batch_applied"] * batches
            assert [f["batch_index"] for f in frames] == list(range(batches))

    def test_sse_for_missing_session_is_a_404(self, tmp_path):
        async def scenario():
            server, client, port = await _boot(tmp_path)
            try:
                subscriber = ServiceClient(
                    "127.0.0.1", port, api_key="secret"
                )
                with pytest.raises(ServiceClientError) as excinfo:
                    async for _ in subscriber.events("ghost"):
                        pass
                assert excinfo.value.status == 404
                await subscriber.close()
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_open_stream_ends_with_session_closed_frame(self, tmp_path):
        async def scenario():
            server, client, port = await _boot(tmp_path)
            try:
                # One batch off a cadence of 2 leaves the tail to close.
                await client.create_session(
                    "demo", edges=PATH_EDGES, checkpoint_every=2
                )
                subscriber = ServiceClient(
                    "127.0.0.1", port, api_key="secret"
                )
                frames = []

                async def consume():
                    async for frame in subscriber.events("demo"):
                        frames.append(frame)

                task = asyncio.create_task(consume())
                await asyncio.sleep(0.05)
                await client.post_updates("demo", [("add", 0, 4)])
                await client.delete_session("demo")
                await asyncio.wait_for(task, 10)
                await subscriber.close()
                # The final close checkpoint precedes it.
                assert [f["type"] for f in frames] == [
                    "batch_applied",
                    "checkpoint_written",
                    "session_closed",
                ]
            finally:
                await client.close()
                await server.stop()

        run(scenario())


class TestRestartOverHTTP:
    def test_orderly_restart_restores_scores_exactly(self, tmp_path):
        async def first_life():
            server, client, _ = await _boot(tmp_path)
            await client.create_session(
                "demo", edges=PATH_EDGES, config={"store": "disk://"}
            )
            await client.post_updates("demo", [("add", 0, 4)])
            payload = await client.scores("demo")
            await client.close()
            await server.stop()
            return dict(payload["scores"])

        async def second_life():
            server, client, _ = await _boot(tmp_path)
            payload = await client.scores("demo")
            await client.close()
            await server.stop()
            return dict(payload["scores"])

        before = run(first_life())
        after = run(second_life())
        assert after == before == oracle_scores([(0, 4)])
