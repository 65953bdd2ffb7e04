"""In-memory span recorder and the wrappers a traced run installs.

Only ``--trace 1`` imports this module: an untraced run never pays for it.
Spans are recorded from here, around calls into each layer's public
functions; nothing under ``src/`` is edited.  A span is (name, layer, start,
end, parent, operation id); spans stay in memory until the run ends.

Nesting follows the call stack of each thread.  The service hops threads
twice, and both hops are bridged explicitly: ``ManagedSession.read`` hands
its span to the function it runs on the executor thread, and the executor
thread that applies a batch adopts the one open
``ManagedSession.apply_updates`` span (the workloads have a single writer).
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional


class Span:
    __slots__ = (
        "name", "layer", "start", "end", "parent", "op", "thread", "child_seconds",
    )

    def __init__(self, name: str, layer: str, parent: Optional["Span"], op: Any):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.thread = threading.get_ident()
        self.child_seconds = 0.0
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration minus the part of it covered by child spans."""
        return self.seconds - self.child_seconds


class Recorder:
    """Collects spans, engine results and checkpoint sizes of one run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Operation id stamped on new spans; the harness sets it to the
        #: index of the batch it is about to submit.
        self.op: Any = None
        #: What ``BetweennessSession.apply_batch`` returned, in call order.
        self.results: List[Any] = []
        #: (when, sidecar size) of every ``IncrementalBetweenness.checkpoint``.
        self.checkpoint_bytes: List[tuple] = []
        self._writer_span: Optional[Span] = None
        self._local = threading.local()
        self._undo: List[tuple] = []

    # -- recording ------------------------------------------------------ #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str, nest: bool = True) -> Span:
        """Open a span; ``nest=False`` for coroutines, which interleave on
        one thread and therefore cannot use its stack."""
        parent = None
        if nest:
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                writer = self._writer_span
                if writer is not None and writer.thread != threading.get_ident():
                    parent = writer
        span = Span(name, layer, parent, self.op)
        if nest:
            stack.append(span)
        self.spans.append(span)
        return span

    def finish(self, span: Span, nested: bool = True) -> None:
        span.end = time.perf_counter()
        if nested:
            self._stack().pop()
        if span.parent is not None:
            span.parent.child_seconds += span.seconds

    @contextmanager
    def under(self, parent: Span):
        """Make ``parent`` the base of this thread's stack (thread hop)."""
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    # -- analysis ------------------------------------------------------- #
    def between(
        self, start: float, end: float, names: Optional[Iterable[str]] = None
    ) -> List[Span]:
        """Finished spans that started inside ``[start, end]``."""
        wanted = None if names is None else set(names)
        return [
            s for s in self.spans
            if start <= s.start <= end and s.end
            and (wanted is None or s.name in wanted)
        ]

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as Chrome-trace JSON (load in chrome://tracing or
        https://ui.perfetto.dev)."""
        origin = min((s.start for s in self.spans), default=0.0)
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": s.name,
                    "cat": s.layer,
                    "ph": "X",
                    "pid": os.getpid(),
                    "tid": s.thread,
                    "ts": (s.start - origin) * 1e6,
                    "dur": s.seconds * 1e6,
                    "args": {"op": s.op, "self_ms": s.self_seconds * 1e3},
                }
                for s in self.spans if s.end
            ],
        }

    # -- wrappers ------------------------------------------------------- #
    def _patch(self, owner: Any, attr: str, make: Callable) -> None:
        raw = vars(owner).get(attr)
        if raw is None:
            return  # e.g. a store class that inherits no sweep window
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Record a nested span around every call of ``owner.attr``."""

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = self.begin(name, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.finish(span)
                if on_result is not None:
                    on_result(result)
                return result

            return traced

        self._patch(owner, attr, make)

    def wrap_coroutine(
        self, owner: Any, attr: str, name: str, layer: str, writer: bool = False
    ) -> None:
        """Record a flat span around a coroutine method; ``writer=True``
        marks it as the span the applying executor thread adopts."""

        def make(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                span = self.begin(name, layer, nest=False)
                if writer:
                    self._writer_span = span
                try:
                    return await fn(*args, **kwargs)
                finally:
                    if writer:
                        self._writer_span = None
                    self.finish(span, nested=False)

            return traced

        self._patch(owner, attr, make)

    def wrap_read(self, owner: Any, attr: str, name: str, layer: str) -> None:
        """``ManagedSession.read(fn, ...)``: the span follows ``fn`` onto
        the executor thread, so its ``top_k`` child pairs up exactly."""

        def make(read):
            @functools.wraps(read)
            async def traced(managed, fn, *args, **kwargs):
                span = self.begin(name, layer, nest=False)

                def hopped(*a, **k):
                    with self.under(span):
                        return fn(*a, **k)

                try:
                    return await read(managed, hopped, *args, **kwargs)
                finally:
                    self.finish(span, nested=False)

            return traced

        self._patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def install(recorder: Recorder) -> None:
    """Wrap the layer boundaries of ``src/repro`` (undo with
    :meth:`Recorder.uninstall`)."""
    import repro.api.session as session_module
    import repro.service.routes as routes_module
    from repro.api.session import BetweennessSession
    from repro.core.framework import IncrementalBetweenness
    from repro.core.kernel import ArrayKernel
    from repro.graph.csr import CSRGraph
    from repro.graph.graph import Graph
    from repro.parallel.shards import ShardCoordinator
    from repro.service.events import EventBridge
    from repro.service.registry import ManagedSession
    from repro.storage.arrays import ArrayBDStore
    from repro.storage.disk import DiskBDStore

    wrap = recorder.wrap
    wrap(Graph, "copy", "graph.build", "graph")
    for attr in ("from_graph", "compiled", "compiled_in"):
        wrap(CSRGraph, attr, "graph.csr_compile", "graph")

    wrap(ArrayKernel, "bootstrap", "core.bootstrap", "core")
    wrap(IncrementalBetweenness, "apply_updates", "core.apply", "core")
    # The whole sidecar: building the snapshot and writing it out.
    wrap(
        IncrementalBetweenness, "checkpoint", "core.checkpoint", "core",
        on_result=lambda path: recorder.checkpoint_bytes.append(
            (time.perf_counter(), os.path.getsize(path))
        ),
    )

    wrap(session_module, "create_store", "storage.create", "storage")
    for store in (ArrayBDStore, DiskBDStore):
        for attr in (
            "column_matrices", "peek_distance_block",
            "begin_column_sweep", "end_column_sweep",
        ):
            wrap(store, attr, "storage.sweep", "storage")
        wrap(store, "flush", "storage.flush", "storage")

    wrap(ShardCoordinator, "__init__", "parallel.init", "parallel")
    wrap(ShardCoordinator, "apply_batch", "parallel.apply", "parallel")
    for attr in ("vertex_betweenness", "edge_betweenness"):
        wrap(ShardCoordinator, attr, "parallel.collect", "parallel")

    wrap(
        BetweennessSession, "apply_batch", "api.apply_batch", "api",
        on_result=recorder.results.append,
    )
    wrap(BetweennessSession, "top_k", "api.top_k", "api")
    wrap(BetweennessSession, "checkpoint", "api.checkpoint", "api")

    wrap(routes_module, "parse_updates_payload", "service.parse", "service")
    wrap(EventBridge, "on_event", "service.event", "service")
    recorder.wrap_coroutine(
        ManagedSession, "apply_updates", "service.apply_updates", "service",
        writer=True,
    )
    recorder.wrap_read(ManagedSession, "read", "service.read", "service")
