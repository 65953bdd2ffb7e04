"""Command-line interface for the reproduction experiments.

The CLI wraps the experiment harness so the paper's measurements can be
explored without writing Python::

    repro datasets                               # list dataset stand-ins
    repro profile --dataset facebook             # Table 2 row
    repro speedup --dataset synthetic-10k --edges 20 --kind add --variant MO
    repro speedup --dataset synthetic-1k --backend arrays  # CSR kernel
    repro speedup --dataset facebook --variant DO \
        --store-path bd.bin --checkpoint ck.bin   # durable DO store + checkpoint
    repro resume --checkpoint ck.bin --edges 10 --verify
    repro shard --dataset synthetic-1k --root /var/data/bc --shards 4 \
        --edges 20                               # fault-tolerant sharded run
    repro shard --root /var/data/bc --edges 20   # resume the same ensemble
    repro resume --checkpoint /var/data/bc --edges 10   # shard roots work too
    repro online --dataset facebook --mappers 1,10,50
    repro online --dataset facebook --workers 4 --store disk://
    repro communities --dataset synthetic-1k --removals 25
    repro proxies --dataset wikielections        # degree/closeness vs betweenness
    repro migrate /var/data/bc                   # convert an earlier-format artefact
    repro --version

Every experiment subcommand runs on the unified session API
(:mod:`repro.api`): the flags below are assembled into one declarative
:class:`~repro.api.BetweennessConfig`.  A pre-built config can be supplied
as JSON via ``--config run.json`` (write one with
``BetweennessConfig.save``); **explicit flags override config-file values,
which override built-in defaults**.  Store backends are addressed by URI
(``memory://``, ``arrays://``, ``disk:///path``).

(``repro`` is installed as a console script; ``python -m repro.cli`` works
identically.)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro import __version__
from repro.algorithms import brandes_betweenness
from repro.algorithms.other_centrality import closeness_centrality, degree_centrality
from repro.analysis import (
    Variant,
    format_table,
    measure_stream_speedups,
    related_work_table,
    variant_config,
)
from repro.analysis.correlation import compare_rankings
from repro.api import (
    BetweennessConfig,
    BetweennessSession,
    CheckpointWritten,
    ShardRecovered,
    WorkerFailed,
    resume_session,
)
from repro.applications import girvan_newman, modularity
from repro.exceptions import ReproError
from repro.generators import (
    addition_stream,
    available_datasets,
    load_dataset,
    removal_stream,
)
from repro.graph import profile
from repro.parallel import replay_online_updates_parallel, simulate_online_updates
from repro.storage import ShardLayout
from repro.storage.migrate import migrate
from repro.types import BACKENDS
from repro.utils.timing import Timer

#: Help-text suffix shared by every flag that can also come from --config.
_PRECEDENCE = " (precedence: this flag > --config file > default)"


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Scalable online betweenness centrality - experiment CLI. "
            "Experiment subcommands accept --config run.json (a serialized "
            "BetweennessConfig); explicit flags override config-file values, "
            "which override built-in defaults."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list available dataset stand-ins")
    subparsers.add_parser("related-work", help="print the Table 1 comparison")

    profile_parser = subparsers.add_parser(
        "profile", help="structural statistics of a dataset (Table 2 row)"
    )
    _add_dataset_arguments(profile_parser)

    speedup_parser = subparsers.add_parser(
        "speedup", help="per-edge speedup of the incremental framework over Brandes"
    )
    _add_dataset_arguments(speedup_parser)
    _add_config_argument(speedup_parser)
    speedup_parser.add_argument("--edges", type=int, default=10, help="stream length")
    speedup_parser.add_argument(
        "--kind", choices=["add", "remove"], default="add", help="update kind"
    )
    speedup_parser.add_argument(
        "--variant",
        choices=[variant.value for variant in Variant],
        default=None,
        help="framework configuration (MP, MO or DO; default MO); sets the "
             "store URI and predecessor maintenance" + _PRECEDENCE,
    )
    speedup_parser.add_argument(
        "--batch-size", type=int, default=None,
        help="apply the stream in batches of this many updates "
             "(one source sweep per batch; default 1)" + _PRECEDENCE,
    )
    _add_backend_argument(speedup_parser)
    speedup_parser.add_argument(
        "--store-path", type=Path, default=None,
        help="DO variant only: durable location for a freshly created BD "
             "store (an existing store file is refused, never truncated; "
             "continue from one with `repro resume`)",
    )
    speedup_parser.add_argument(
        "--checkpoint", type=Path, default=None,
        help="write a framework checkpoint here after the stream (the "
             "resolved config is embedded, so `repro resume` needs no other "
             "flags)",
    )

    resume_parser = subparsers.add_parser(
        "resume",
        help="resume a session from a checkpoint and apply more updates "
             "(the config embedded in the checkpoint is restored; flags "
             "below override it)",
    )
    resume_parser.add_argument(
        "--checkpoint", type=Path, required=True,
        help="checkpoint sidecar written by `repro speedup --checkpoint`",
    )
    _add_config_argument(resume_parser)
    resume_parser.add_argument("--edges", type=int, default=10, help="stream length")
    resume_parser.add_argument(
        "--kind", choices=["add", "remove"], default="add", help="update kind"
    )
    resume_parser.add_argument("--seed", type=int, default=7, help="random seed")
    resume_parser.add_argument(
        "--batch-size", type=int, default=None,
        help="apply the stream in batches of this many updates"
             + _PRECEDENCE,
    )
    resume_parser.add_argument(
        "--verify", action="store_true",
        help="recompute betweenness from scratch afterwards and check the "
             "resumed scores match",
    )
    _add_backend_argument(resume_parser)

    shard_parser = subparsers.add_parser(
        "shard",
        help="fault-tolerant sharded execution under a shard:// root "
             "(initialises the ensemble, or resumes it when the root "
             "already holds a manifest)",
    )
    _add_dataset_arguments(shard_parser)
    _add_config_argument(shard_parser)
    shard_parser.add_argument(
        "--root", type=Path, required=True,
        help="shard root directory; becomes the shard:// store URI path "
             "(an existing ensemble there is resumed from disk — dataset "
             "flags then only shape the new update stream)",
    )
    shard_parser.add_argument(
        "--shards", type=int, default=2,
        help="number of shards (= worker processes) for a fresh ensemble; "
             "a resumed ensemble keeps its original count",
    )
    shard_parser.add_argument(
        "--checkpoint-every", type=int, default=4,
        help="checkpoint cadence in batches for a fresh ensemble",
    )
    shard_parser.add_argument("--edges", type=int, default=10, help="stream length")
    shard_parser.add_argument(
        "--kind", choices=["add", "remove"], default="add", help="update kind"
    )
    shard_parser.add_argument(
        "--batch-size", type=int, default=None,
        help="apply the stream in batches of this many updates" + _PRECEDENCE,
    )
    shard_parser.add_argument(
        "--verify", action="store_true",
        help="recompute betweenness from scratch afterwards and check the "
             "sharded scores match",
    )
    _add_backend_argument(shard_parser)
    _add_parallel_arguments(shard_parser)

    online_parser = subparsers.add_parser(
        "online", help="online replay: missed deadlines vs number of mappers"
    )
    _add_dataset_arguments(online_parser)
    _add_config_argument(online_parser)
    online_parser.add_argument("--edges", type=int, default=10, help="replayed arrivals")
    online_parser.add_argument(
        "--mappers", default="1,10",
        help="comma-separated mapper counts (simulated through the capacity "
             "model)",
    )
    online_parser.add_argument(
        "--time-scale", type=float, default=0.002,
        help="compression factor applied to inter-arrival times",
    )
    online_parser.add_argument(
        "--batch-size", type=int, default=None,
        help="process arrivals in batches of this many updates (default 1)"
             + _PRECEDENCE,
    )
    online_parser.add_argument(
        "--workers", type=int, default=None,
        help="replay on this many REAL worker processes instead of the "
             "capacity-model simulation (ignores --mappers)" + _PRECEDENCE,
    )
    online_parser.add_argument(
        "--store", default=None,
        help="per-worker BD store used with --workers, as a store URI "
             "(memory:// or disk://; path-less — workers own private "
             "temporary stores)" + _PRECEDENCE,
    )
    online_parser.add_argument(
        "--store-path", type=Path, default=None,
        help="with --workers: durable BD store file each worker reopens to "
             "seed its partition (skips the parallel Brandes bootstrap)",
    )
    _add_backend_argument(online_parser)
    _add_parallel_arguments(online_parser)

    communities_parser = subparsers.add_parser(
        "communities", help="Girvan-Newman community detection"
    )
    _add_dataset_arguments(communities_parser)
    communities_parser.add_argument(
        "--removals", type=int, default=20, help="number of edge removals"
    )

    proxies_parser = subparsers.add_parser(
        "proxies", help="how well degree/closeness approximate betweenness"
    )
    _add_dataset_arguments(proxies_parser)
    proxies_parser.add_argument("--top-k", type=int, default=10)

    migrate_parser = subparsers.add_parser(
        "migrate",
        help="rewrite a store file, checkpoint sidecar or shard root of an "
             "earlier format in the current one (opening refuses them)",
    )
    migrate_parser.add_argument("path", type=Path, metavar="PATH")

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve named betweenness sessions over HTTP/SSE",
        description=(
            "Betweenness-as-a-service: multi-tenant, checkpoint-backed "
            "sessions under --root, exposed over HTTP with live SSE event "
            "streams, served by the built-in asyncio HTTP server."
        ),
    )
    serve_parser.add_argument(
        "--root", type=Path, default=Path("service-root"), metavar="DIR",
        help="service state directory; sessions found here are restored "
             "from their checkpoints at startup (default: ./service-root)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8750)
    serve_parser.add_argument(
        "--api-key", default=None, metavar="KEY",
        help="require this key (X-API-Key or Bearer) on every request; "
             "falls back to $REPRO_SERVICE_API_KEY; unset serves openly",
    )
    serve_parser.add_argument(
        "--impl", choices=("asyncio",), default="asyncio",
        help="transport; 'asyncio' is the only one and is accepted for "
             "existing command lines",
    )
    serve_parser.add_argument(
        "--max-sessions", type=int, default=64,
        help="refuse new sessions beyond this many live ones (default 64)",
    )
    serve_parser.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="default checkpoint cadence for new sessions: persist after "
             "every N applied batches (default 1 = every batch durable)",
    )
    return parser


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=list(BACKENDS), default=None,
        help="compute backend: the classic dict implementation or the "
             "array-native CSR kernel (bit-identical scores, vectorized "
             "bootstrap; default dicts)" + _PRECEDENCE,
    )


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--recv-timeout", type=float, default=None, metavar="SECONDS",
        help="per-reply worker timeout; a worker that stays silent this "
             "long is declared dead (must be positive; default: wait "
             "forever)" + _PRECEDENCE,
    )


def _add_config_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", type=Path, default=None, metavar="PATH.json",
        help="JSON-serialized BetweennessConfig supplying defaults for the "
             "flags marked with a precedence note (explicit flags win)",
    )


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", default="synthetic-1k", choices=sorted(available_datasets())
    )
    parser.add_argument(
        "--vertices", type=int, default=None,
        help="override the stand-in vertex count",
    )
    parser.add_argument("--seed", type=int, default=7, help="random seed")


def _base_config(args) -> BetweennessConfig:
    """The config file's settings, or plain defaults when none was given."""
    config_path = getattr(args, "config", None)
    if config_path is not None:
        return BetweennessConfig.load(config_path)
    return BetweennessConfig()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command

    if command == "datasets":
        print(_run_datasets())
    elif command == "related-work":
        print(related_work_table())
    elif command == "profile":
        print(_run_profile(args))
    elif command == "speedup":
        print(_run_speedup(args))
    elif command == "resume":
        text, code = _run_resume(args)
        print(text)
        return code
    elif command == "shard":
        text, code = _run_shard(args)
        print(text)
        return code
    elif command == "online":
        print(_run_online(args))
    elif command == "communities":
        print(_run_communities(args))
    elif command == "proxies":
        print(_run_proxies(args))
    elif command == "migrate":
        print(_run_migrate(args.path))
    elif command == "serve":
        return _run_serve(args)
    else:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {command!r}")
    return 0


# --------------------------------------------------------------------------- #
# Sub-command implementations (each returns the text to print)
# --------------------------------------------------------------------------- #
def _load(args) -> "Graph":
    return load_dataset(args.dataset, num_vertices=args.vertices, rng=args.seed)


def _run_datasets() -> str:
    rows = [[name] for name in available_datasets()]
    return format_table(["dataset"], rows)


def _run_profile(args) -> str:
    graph = _load(args)
    row = profile(graph, name=args.dataset, rng=args.seed).as_row()
    return format_table(["dataset", "|V|", "|E|", "AD", "CC", "ED"], [row])


def _resolve_speedup_config(args, graph) -> BetweennessConfig:
    """Flags > config file > defaults, resolved into one session config."""
    base = _base_config(args)
    if args.variant is not None or args.config is None:
        # An explicit --variant (or the absence of any config file) routes
        # through the MP/MO/DO mapping; a config file with no --variant is
        # taken verbatim (its store URI already says where records live).
        variant = Variant(args.variant) if args.variant is not None else Variant.MO
        base = variant_config(
            variant,
            directed=graph.directed,
            backend=base.backend,
            batch_size=base.batch_size,
            disk_path=args.store_path,
        ).replace(checkpoint_path=base.checkpoint_path)
    overrides = {"directed": graph.directed}
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    if args.checkpoint is not None:
        overrides["checkpoint_path"] = str(args.checkpoint)
    return base.replace(**overrides)


def _run_speedup(args) -> str:
    graph = _load(args)
    if args.store_path is not None and args.variant != Variant.DO.value:
        raise SystemExit("--store-path only applies to the DO variant")
    config = _resolve_speedup_config(args, graph)
    if args.kind == "add":
        updates = addition_stream(graph, args.edges, rng=args.seed)
    else:
        updates = removal_stream(graph, args.edges, rng=args.seed)
    variant = (
        Variant.MP if config.maintain_predecessors
        else Variant.DO if config.store.startswith("disk")
        else Variant.MO
    )
    series = measure_stream_speedups(
        graph, updates, variant, label=args.dataset, config=config
    )
    stats = series.summary()
    header = ["dataset", "kind", "variant", "batch", "edges", "min", "median",
              "max", "avg skip fraction"]
    row = [
        args.dataset,
        args.kind,
        variant.value,
        config.batch_size,
        len(series.speedups),
        round(stats.minimum, 1),
        round(stats.median, 1),
        round(stats.maximum, 1),
        round(series.average_skip_fraction, 3),
    ]
    per_edge = ", ".join(f"{value:.1f}" for value in series.speedups)
    return format_table(header, [row]) + f"\nper-edge speedups: {per_edge}"


def _run_resume(args) -> tuple:
    # The checkpoint carries the config it was written under; --config and
    # explicit flags override it in the usual order (flag > file > embedded).
    overrides = {}
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    session = resume_session(
        args.checkpoint,
        config=BetweennessConfig.load(args.config) if args.config else None,
        **overrides,
    )
    config = session.config
    graph = session.graph
    # A shard-root checkpoint resumes a sharded session, which has no single
    # serial framework; every source is live on some shard.
    num_sources = (
        session.framework.num_sources
        if config.executor == "serial"
        else graph.num_vertices
    )
    lines = [
        f"resumed from {args.checkpoint}: {graph.num_vertices} vertices, "
        f"{graph.num_edges} edges, {num_sources} sources "
        f"(executor {config.executor}, backend {config.backend}, "
        f"store {config.store})",
    ]
    verified = True
    try:
        if args.kind == "add":
            updates = addition_stream(graph, args.edges, rng=args.seed)
        else:
            updates = removal_stream(graph, args.edges, rng=args.seed)
        timer = Timer()
        with timer.measure():
            for _ in session.stream(updates, batch_size=config.batch_size):
                pass
        lines.append(
            f"applied {len(updates)} {args.kind} updates in "
            f"{timer.total:.4f}s ({timer.total / max(1, len(updates)):.4f}s "
            "per update)"
        )
        if args.verify:
            reference = brandes_betweenness(session.graph)
            deviation = max(
                (
                    abs(session.vertex_betweenness().get(v, 0.0) - score)
                    for v, score in reference.vertex_scores.items()
                ),
                default=0.0,
            )
            verified = deviation <= 1e-8
            lines.append(
                f"verification vs from-scratch Brandes: "
                f"{'match' if verified else 'MISMATCH'} "
                f"(max |Δ| = {deviation:.2e})"
            )
        if verified:
            # The updates just mutated the durable store, so the old sidecar
            # no longer describes it; refresh it for the next resume.  A
            # sharded session checkpoints into its shard root instead.
            written = (
                session.checkpoint()
                if config.executor == "shard"
                else session.checkpoint(args.checkpoint)
            )
            lines.append(f"checkpoint refreshed: {written}")
        else:
            lines.append(
                "verification failed — checkpoint NOT refreshed (the store "
                "was modified, so the old sidecar is now stale by design; "
                "investigate before resuming again)"
            )
    finally:
        session.close()
    return "\n".join(lines), 0 if verified else 1


def _run_shard(args) -> tuple:
    root = Path(args.root)
    base = _base_config(args)
    backend = args.backend if args.backend is not None else base.backend
    batch_size = (
        args.batch_size if args.batch_size is not None else base.batch_size
    )
    events: list = []
    parallel_overrides = {}
    if args.recv_timeout is not None:
        parallel_overrides["recv_timeout"] = args.recv_timeout
    if ShardLayout.is_shard_root(root):
        session = resume_session(
            root, backend=backend, batch_size=batch_size, **parallel_overrides
        )
        session.subscribe(events.append)
        graph = session.graph
        lines = [
            f"resumed shard root {root}: {session.config.workers} shards, "
            f"{graph.num_vertices} vertices, {graph.num_edges} edges "
            f"(backend {session.config.backend})",
        ]
    else:
        graph = _load(args)
        uri = (
            f"shard://{root.resolve()}?shards={args.shards}"
            f"&checkpoint_every={args.checkpoint_every}"
        )
        config = base.replace(
            executor="shard",
            workers=args.shards,
            store=uri,
            backend=backend,
            batch_size=batch_size,
            directed=graph.directed,
            checkpoint_path=None,
            checkpoint_every=None,
            seed_store_path=None,
            **parallel_overrides,
        )
        session = BetweennessSession(graph, config, subscribers=[events.append])
        lines = [
            f"initialised shard root {root}: {args.shards} shards, "
            f"checkpoint every {args.checkpoint_every} batches, "
            f"{graph.num_vertices} vertices, {graph.num_edges} edges "
            f"(backend {backend})",
        ]
    verified = True
    try:
        if args.kind == "add":
            updates = addition_stream(session.graph, args.edges, rng=args.seed)
        else:
            updates = removal_stream(session.graph, args.edges, rng=args.seed)
        timer = Timer()
        with timer.measure():
            for _ in session.stream(updates, batch_size=batch_size):
                pass
        failures = [e for e in events if isinstance(e, WorkerFailed)]
        recoveries = [e for e in events if isinstance(e, ShardRecovered)]
        checkpoints = [e for e in events if isinstance(e, CheckpointWritten)]
        lines.append(
            f"applied {len(updates)} {args.kind} updates in "
            f"{timer.total:.4f}s — {len(checkpoints)} checkpoint rounds, "
            f"{len(failures)} worker failures, {len(recoveries)} recoveries"
        )
        for event in recoveries:
            lines.append(
                f"  shard {event.shard} recovered: "
                f"{event.replayed_batches} batches replayed in "
                f"{event.seconds:.3f}s"
            )
        top = session.top_k(5)
        lines.append(
            "top vertices: "
            + ", ".join(f"{vertex}={score:.2f}" for vertex, score in top)
        )
        if args.verify:
            reference = brandes_betweenness(session.graph)
            deviation = max(
                (
                    abs(session.vertex_betweenness().get(v, 0.0) - score)
                    for v, score in reference.vertex_scores.items()
                ),
                default=0.0,
            )
            verified = deviation <= 1e-8
            lines.append(
                f"verification vs from-scratch Brandes: "
                f"{'match' if verified else 'MISMATCH'} "
                f"(max |Δ| = {deviation:.2e})"
            )
    finally:
        # close() runs a final checkpoint round, so the root is immediately
        # resumable from exactly where this stream stopped.
        session.close()
    lines.append(f"shard root ready to resume: {root}")
    return "\n".join(lines), 0 if verified else 1


def _run_online(args) -> str:
    base = _base_config(args)
    backend = args.backend if args.backend is not None else base.backend
    batch_size = args.batch_size if args.batch_size is not None else base.batch_size
    workers = args.workers
    if workers is None and base.executor == "process":
        workers = base.workers
    store = args.store if args.store is not None else base.store
    recv_timeout = (
        args.recv_timeout if args.recv_timeout is not None else base.recv_timeout
    )
    evolving = load_dataset(
        args.dataset, num_vertices=args.vertices, rng=args.seed, as_evolving=True
    )
    prefix = max(0, evolving.num_edges - args.edges)
    base_graph = evolving.base_graph(prefix)
    future = evolving.future_updates(prefix)
    if args.store_path is not None and workers is None:
        raise SystemExit("--store-path requires --workers (real executor)")
    rows = []
    if workers is not None:
        result = replay_online_updates_parallel(
            base_graph,
            future,
            num_workers=workers,
            batch_size=batch_size,
            time_scale=args.time_scale,
            store=store,
            source_store_path=args.store_path,
            backend=backend,
            recv_timeout=recv_timeout,
        )
        rows.append(_online_row(args.dataset, f"{workers} (real)", result))
    else:
        mapper_counts = [int(token) for token in args.mappers.split(",") if token]
        for mappers in mapper_counts:
            result = simulate_online_updates(
                base_graph,
                future,
                num_mappers=mappers,
                time_scale=args.time_scale,
                batch_size=batch_size,
                backend=backend,
                store=store,
            )
            rows.append(_online_row(args.dataset, mappers, result))
    return format_table(
        ["dataset", "mappers", "batch", "edges", "missed", "avg delay (s)"], rows
    )


def _online_row(dataset: str, mappers, result) -> list:
    return [
        dataset,
        mappers,
        result.batch_size,
        result.num_updates,
        f"{100 * result.missed_fraction:.1f}%",
        f"{result.average_delay:.4f}",
    ]


def _run_communities(args) -> str:
    graph = _load(args)
    result = girvan_newman(graph, max_removals=args.removals, use_incremental=True)
    partition, q = result.hierarchy.best_partition(graph)
    lines = [
        f"dataset: {args.dataset} ({graph.num_vertices} vertices, {graph.num_edges} edges)",
        f"edges removed: {result.edges_processed}",
        f"splits discovered: {result.num_levels}",
        f"best partition: {len(partition)} communities, modularity Q = {q:.3f}",
    ]
    for index, community in enumerate(sorted(partition, key=len, reverse=True)[:5]):
        lines.append(f"  community {index}: {len(community)} vertices")
    return "\n".join(lines)


def _run_proxies(args) -> str:
    graph = _load(args)
    exact = brandes_betweenness(graph).vertex_scores
    rows = []
    for name, proxy in (
        ("degree", degree_centrality(graph)),
        ("closeness", closeness_centrality(graph)),
    ):
        comparison = compare_rankings(exact, proxy, k=args.top_k)
        spearman, kendall, overlap, mae = comparison.as_row()
        rows.append([name, spearman, kendall, overlap])
    return format_table(
        ["proxy", "spearman", "kendall tau", f"top-{args.top_k} overlap"], rows
    )


def _run_migrate(path: Path) -> str:
    try:
        changed = migrate(path)
    except (ReproError, OSError) as exc:
        raise SystemExit(f"repro migrate: cannot convert {path}: {exc}") from exc
    if not changed:
        return f"{path} is already in the current format"
    return "\n".join(
        f"{'rewrote' if file.exists() else 'removed'} {file}" for file in changed
    )


def _run_serve(args) -> int:
    import asyncio
    import os

    from repro.service import ServiceServer, ServiceSettings

    api_key = args.api_key or os.environ.get("REPRO_SERVICE_API_KEY") or None
    settings = ServiceSettings(
        root=args.root,
        api_key=api_key,
        max_sessions=args.max_sessions,
        default_checkpoint_every=args.checkpoint_every,
    )
    server = ServiceServer(settings)
    print(
        f"serving {settings.root} on http://{args.host}:{args.port} "
        f"(asyncio transport, auth {'on' if api_key else 'off'})"
    )
    try:
        asyncio.run(server.serve(args.host, args.port))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
