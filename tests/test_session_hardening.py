"""Session hardening: fault-isolated event dispatch, the locking contract,
idempotent close, and the resume error surface.

These are the guarantees the service layer builds on — an HTTP event
bridge is an untrusted subscriber, SSE readers race the single writer,
and a server restart resumes from whatever checkpoint survived.
"""

import sys
import threading

import pytest

from repro.api import (
    BatchApplied,
    BetweennessConfig,
    BetweennessSession,
    SessionClosed,
    open_session,
    resume_session,
)
from repro.core import EdgeUpdate
from repro.exceptions import ConfigurationError, ReproError, SubscriberError

from tests.helpers import random_connected_graph


def _updates():
    return [
        [EdgeUpdate.addition(0, 3), EdgeUpdate.addition(1, 4)],
        [EdgeUpdate.removal(0, 3)],
        [EdgeUpdate.addition(0, 2), EdgeUpdate.addition(2, 4)],
    ]


class Boom(RuntimeError):
    pass


class FailingSubscriber:
    def __init__(self):
        self.seen = []

    def on_event(self, event):
        self.seen.append(event)
        raise Boom("subscriber crash")


class TestEmitFaultIsolation:
    def test_failure_does_not_skip_later_subscribers(self, path5):
        session = open_session(path5)
        failing = FailingSubscriber()
        after = []
        session.subscribe(failing)
        session.subscribe(after.append)
        with pytest.raises(SubscriberError):
            session.apply_batch([EdgeUpdate.addition(0, 2)])
        # The subscriber registered *after* the crashing one still saw the
        # event, and so did the crasher itself.
        assert [type(e).__name__ for e in after] == ["BatchApplied"]
        assert len(failing.seen) == 1

    def test_state_is_consistent_when_the_error_surfaces(self, path5):
        session = open_session(path5)
        session.subscribe(FailingSubscriber())
        with pytest.raises(SubscriberError):
            session.apply_batch([EdgeUpdate.addition(0, 2)])
        # The batch committed before dispatch: scores, the graph and the
        # batch counter all reflect it.
        assert session.batches_applied == 1
        assert session.graph.has_edge(0, 2)
        oracle = open_session(path5)
        oracle.apply_batch([EdgeUpdate.addition(0, 2)])
        assert session.vertex_betweenness() == oracle.vertex_betweenness()

    def test_error_carries_event_and_all_failures(self, path5):
        session = open_session(path5)
        a, b = FailingSubscriber(), FailingSubscriber()
        session.subscribe(a)
        session.subscribe(b)
        with pytest.raises(SubscriberError) as excinfo:
            session.apply_batch([EdgeUpdate.addition(0, 2)])
        error = excinfo.value
        assert isinstance(error.event, BatchApplied)
        assert [s for s, _ in error.failures] == [a, b]
        assert all(isinstance(exc, Boom) for _, exc in error.failures)
        assert error.__cause__ is error.failures[0][1]

    def test_plain_callable_subscribers_are_isolated_too(self, path5):
        session = open_session(path5)
        order = []

        def crasher(event):
            order.append("crasher")
            raise Boom()

        session.subscribe(crasher)
        session.subscribe(lambda event: order.append("survivor"))
        with pytest.raises(SubscriberError):
            session.add_edge(0, 2)
        assert order == ["crasher", "survivor"]

    def test_close_emits_session_closed_despite_failures(self, path5):
        session = open_session(path5)
        failing = FailingSubscriber()
        session.subscribe(failing)
        with pytest.raises(SubscriberError):
            session.close()
        assert session.closed  # teardown committed before dispatch
        assert type(failing.seen[-1]).__name__ == "SessionClosed"


class TestIdempotentClose:
    def test_repeated_close_emits_once(self, path5):
        events = []
        session = open_session(path5)
        session.subscribe(events.append)
        session.close()
        session.close()
        session.close()
        assert [type(e) for e in events].count(SessionClosed) == 1

    def test_concurrent_close_from_many_threads(self, path5):
        events = []
        session = open_session(path5)
        session.subscribe(events.append)
        barrier = threading.Barrier(8)
        errors = []

        def closer():
            barrier.wait()
            try:
                session.close()
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert [type(e) for e in events].count(SessionClosed) == 1

    def test_close_concurrent_with_pending_checkpoints(self, path5, tmp_path):
        """close() racing checkpoint() must serialize, never corrupt.

        Each checkpoint call either completes (file valid) or observes the
        closed session and raises ConfigurationError — no torn writes, no
        crashes from a store yanked mid-write.
        """
        target = tmp_path / "race.bin"
        session = open_session(path5, checkpoint_path=str(target))
        session.checkpoint()
        outcomes = []
        barrier = threading.Barrier(5)

        def checkpointer():
            barrier.wait()
            for _ in range(10):
                try:
                    session.checkpoint()
                    outcomes.append("ok")
                except ConfigurationError:
                    outcomes.append("closed")
                    return

        def closer():
            barrier.wait()
            session.close()

        threads = [threading.Thread(target=checkpointer) for _ in range(4)]
        threads.append(threading.Thread(target=closer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert set(outcomes) <= {"ok", "closed"}
        # Whatever survived on disk is a loadable checkpoint.
        resumed = resume_session(target)
        assert resumed.graph.num_vertices == path5.num_vertices
        resumed.close()


class TestConcurrentReaders:
    def test_readers_observe_batch_boundaries_only(self):
        """snapshot()/top_k() during a concurrent stream() must equal the
        state at *some* batch boundary — never a half-applied batch."""
        graph = random_connected_graph(14, 0.25, seed=3)
        batches = [
            [EdgeUpdate.addition(0, 100), EdgeUpdate.addition(100, 5)],
            [EdgeUpdate.removal(0, 100)],
            [EdgeUpdate.addition(1, 101), EdgeUpdate.addition(101, 7)],
            [EdgeUpdate.addition(0, 100)],
            [EdgeUpdate.removal(1, 101)],
        ]
        # Oracle: the exact score dict at every batch boundary.
        oracle = open_session(graph)
        boundaries = [oracle.vertex_betweenness()]
        for batch in batches:
            oracle.apply_batch(batch)
            boundaries.append(oracle.vertex_betweenness())
        oracle.close()

        session = open_session(graph)
        stop = threading.Event()
        observed = []
        mismatches = []

        def reader():
            while not stop.is_set():
                snap = session.snapshot()
                observed.append(snap.vertex_scores)
                if snap.vertex_scores not in boundaries:
                    mismatches.append(snap)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for batch in batches:
            session.apply_batch(batch)
        stop.set()
        for t in threads:
            t.join()
        assert mismatches == []
        assert observed  # the readers actually ran
        assert session.vertex_betweenness() == boundaries[-1]
        session.close()

    def test_top_k_consistent_under_writer(self, path5):
        session = open_session(path5)
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                top = session.top_k(3)
                scores = session.vertex_betweenness()
                # top_k is one lock acquisition: its scores exist in *a*
                # consistent dict (re-reading may see a newer boundary,
                # but each returned pair is internally coherent).
                if any(score < 0 for _, score in top):
                    failures.append(top)
                if len(scores) < path5.num_vertices:
                    failures.append(scores)

        thread = threading.Thread(target=reader)
        thread.start()
        for i in range(20):
            session.apply_batch([EdgeUpdate.addition(i % 5, 200 + i)])
        stop.set()
        thread.join()
        assert failures == []
        session.close()


class TestLockFreeReads:
    @pytest.mark.parametrize("backend", ["dicts", "arrays"])
    def test_reads_do_not_wait_for_the_state_lock(self, path5, backend):
        """A long batch or checkpoint holds the lock; reads still return
        the last published boundary, promptly."""
        session = open_session(path5, backend=backend)
        session.apply_batch([EdgeUpdate.addition(0, 4)])
        expected = session.vertex_betweenness()
        held, release = threading.Event(), threading.Event()

        def writer():
            with session._state_lock:
                held.set()
                release.wait(10)

        reads = {}

        def reader():
            reads["top"] = session.top_k(2)
            reads["snapshot"] = session.snapshot()
            reads["scores"] = session.vertex_betweenness()
            reads["batches"] = session.batches_applied

        holder = threading.Thread(target=writer)
        holder.start()
        assert held.wait(5)
        thread = threading.Thread(target=reader)
        try:
            thread.start()
            thread.join(1.0)
            assert not thread.is_alive(), "a read waited for the state lock"
        finally:
            release.set()
            holder.join(5)
            thread.join(5)
        assert reads["scores"] == expected
        assert reads["snapshot"].vertex_scores == expected
        assert reads["snapshot"].batches_applied == reads["batches"] == 1
        full = sorted(expected.items(), key=lambda item: (-item[1], repr(item[0])))
        assert list(reads["top"]) == full[:2]
        assert reads["top"].batches_applied == 1
        session.close()

    def test_every_read_matches_the_batch_it_reports(self):
        """Stress: more reader threads than cores and a short switch
        interval; each snapshot and ranking must equal the oracle at the
        ``batches_applied`` it carries."""
        graph = random_connected_graph(30, 0.15, seed=4)
        births = [[EdgeUpdate.addition(i % 30, 100 + i)] for i in range(25)]
        oracle = open_session(graph, backend="arrays")
        scores, rankings = [oracle.vertex_betweenness()], [oracle.top_k(4)]
        for batch in births:
            oracle.apply_batch(batch)
            scores.append(oracle.vertex_betweenness())
            rankings.append(oracle.top_k(4))
        oracle.close()

        session = open_session(graph, backend="arrays")
        stop = threading.Event()
        mismatches, reads = [], []

        def reader():
            count = 0
            while True:
                snap = session.snapshot()
                if snap.vertex_scores != scores[snap.batches_applied]:
                    mismatches.append(("snapshot", snap.batches_applied))
                top = session.top_k(4)
                if top != rankings[top.batches_applied]:
                    mismatches.append(("top_k", top.batches_applied))
                count += 1
                if stop.is_set():
                    break
            reads.append(count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=reader) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for batch in births:
                session.apply_batch(batch)
        finally:
            stop.set()
            for thread in threads:
                thread.join(10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert len(reads) == 4 and min(reads) > 0
        session.close()

    def test_subscriber_reads_see_the_post_batch_state(self, path5):
        oracle = open_session(path5)
        after = []
        for batch in _updates():
            oracle.apply_batch(batch)
            after.append((oracle.vertex_betweenness(), oracle.top_k(3, edges=True)))
        oracle.close()

        session = open_session(path5)
        seen = []

        def on_event(event):
            if isinstance(event, BatchApplied):
                seen.append(
                    (session.vertex_betweenness(), session.top_k(3, edges=True))
                )
                assert session.batches_applied == event.batch_index + 1

        session.subscribe(on_event)
        for batch in _updates():
            session.apply_batch(batch)
        session.close()
        assert seen == after

    def test_rejected_batch_keeps_the_published_snapshot(self, path5):
        session = open_session(path5)
        session.apply_batch([EdgeUpdate.addition(0, 3)])
        before = session.snapshot()
        with pytest.raises(ReproError):
            session.apply_batch(
                [EdgeUpdate.addition(1, 4), EdgeUpdate.removal(0, 4)]
            )
        assert session.snapshot() is before
        assert session.batches_applied == 1
        assert session.vertex_betweenness() == before.vertex_scores
        session.close()
        for read in (
            session.top_k,
            session.snapshot,
            session.vertex_betweenness,
            session.edge_betweenness,
        ):
            with pytest.raises(ConfigurationError):
                read()


class TestResumeErrorSurface:
    def test_missing_checkpoint_names_the_path(self, tmp_path):
        missing = tmp_path / "nope" / "checkpoint.bin"
        with pytest.raises(ConfigurationError) as excinfo:
            resume_session(missing)
        assert str(missing) in str(excinfo.value)
        assert "cannot resume" in str(excinfo.value)

    def test_corrupt_checkpoint_names_the_path(self, tmp_path):
        corrupt = tmp_path / "checkpoint.bin"
        corrupt.write_bytes(b"this is not a checkpoint sidecar")
        with pytest.raises(ConfigurationError) as excinfo:
            resume_session(corrupt)
        assert str(corrupt) in str(excinfo.value)

    def test_truncated_checkpoint_is_a_configuration_error(
        self, path5, tmp_path
    ):
        target = tmp_path / "checkpoint.bin"
        session = open_session(path5, checkpoint_path=str(target))
        session.checkpoint()
        session.close()
        target.write_bytes(target.read_bytes()[: target.stat().st_size // 2])
        with pytest.raises(ConfigurationError) as excinfo:
            resume_session(target)
        assert str(target) in str(excinfo.value)

    def test_valid_checkpoint_still_resumes(self, path5, tmp_path):
        target = tmp_path / "checkpoint.bin"
        session = open_session(path5, checkpoint_path=str(target))
        session.apply_batch([EdgeUpdate.addition(0, 2)])
        session.checkpoint()
        expected = session.vertex_betweenness()
        session.close()
        resumed = resume_session(target)
        assert resumed.vertex_betweenness() == expected
        resumed.close()
