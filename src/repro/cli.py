"""``python -m repro`` — command-line front door over the Session/cluster APIs.

Six subcommands mirror the levels of the system:

* ``run`` — one (config, strategy) cell on one simulated server,
* ``sweep`` — a grid over batch sizes / GPU counts / datasets / servers /
  tasks / strategies through :meth:`Session.sweep`,
* ``cluster`` — a multi-job workload gang-scheduled onto a fleet under one
  or all placement policies; ``--faults`` / ``--fault-trace`` inject a
  seeded failure scenario (crashes, preemptions, stragglers) and
  ``--elastic`` picks the recovery policy (restart / shrink / migrate),
* ``tune`` — autotune strategy x batch x GPU count x server (and placement
  policy, for throughput objectives) under a simulation budget, emitting a
  Pareto frontier,
* ``serve`` — expose plan/sweep/tune/cluster (plus ``/v1/precompute``
  store warming and health/stats probes) as a versioned HTTP JSON API,
  answering hot queries from the store with zero simulations,
* ``pregen`` — pregenerate the planning tables for a named grid into a
  store artifact (resumable, manifest-stamped) that any
  later session or server boots from without simulating,
* ``cache`` — inspect (``stats``), prune (``gc``), dump (``export``) a
  persistent experiment store, or convert a legacy one (``import``),
* ``profile`` — run a fixed ``run``/``sweep``/``cluster``/``tune``
  workload under a span recorder and emit a per-span timing breakdown
  (plus an optional ``--trace-out`` chrome-trace file for
  ``chrome://tracing`` / Perfetto).

``run``/``sweep``/``cluster``/``tune`` are the HTTP service's
``/v1/plan``/``/v1/sweep``/``/v1/cluster``/``/v1/tune``: their flags are
generated from the request types of :mod:`repro.commands`
(:func:`add_request_arguments`) and they run the same commands, so a CLI
payload equals the HTTP payload minus each frontend's bookkeeping.

They also accept ``--store PATH`` (default:
the ``REPRO_STORE`` environment variable) to hydrate results from and
write them through a persistent store, making repeated invocations — even
across processes — perform zero duplicate simulations; ``sweep`` also
accepts ``--backend {inline,process}``.  Store-backed payloads
embed the session's warm/cold summary.

Every subcommand prints a JSON document to stdout (or ``--out FILE``), so
the CLI composes with ``jq``/notebooks the same way the benchmark JSON
artifacts do.  ``--version`` prints the library version and exits; the
global ``--log-level`` / ``--log-json`` flags configure structured
logging for every subcommand (see ``docs/OBSERVABILITY.md``).

Documented in ``docs/TUNING.md`` (tune), ``docs/CACHING.md`` (store and
backends) and the README (run/sweep/cluster).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro import commands
from repro.commands import ClusterRequest, PlanRequest, SweepRequest, TuneRequest
from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.errors import ReproError
from repro.obs.logs import configure_logging
from repro.obs.profiler import PROFILE_KINDS, format_breakdown, profile_workload
from repro.store import BACKENDS, ExperimentStore
from repro.store.store import import_legacy
from repro.version import __version__


def _int_list(text: str) -> List[int]:
    return [int(item) for item in text.split(",") if item]


def _str_list(text: str) -> List[str]:
    return [item for item in text.split(",") if item]


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        try:
            Path(out).write_text(text)
        except OSError as error:
            raise ReproError(f"cannot write --out {out!r}: {error}") from error
        print(f"wrote {out}")
    else:
        print(text)


def _session(args: argparse.Namespace) -> Session:
    """A session bound to ``--store`` / ``$REPRO_STORE`` when given."""
    return Session(store=getattr(args, "store", None) or None)


def _store_payload(session: Session) -> dict:
    """Warm/cold summary every store-backed payload embeds.

    Uses the handle's cached disk summary, not the full record parse — a
    4-second ``run`` against a long-lived store must not pay an
    O(whole-store) tail; ``cache stats`` is the full view.
    """
    from repro.analysis.store_report import warm_cold_summary

    payload = {
        "session_stats": session.stats.to_dict(),
        "warm_cold": warm_cold_summary(session),
    }
    if session.store is not None:
        payload["store"] = session.store.disk_summary()
    return payload


def _require_store(args: argparse.Namespace) -> None:
    if not args.store:
        raise ReproError(
            "cache commands need a store: pass --store PATH or set REPRO_STORE"
        )
    # Cache commands operate on an existing store; opening one would mkdir
    # and write meta.json, so a typo'd path would silently materialise an
    # empty store and report "0 records" instead of failing.
    if not (Path(args.store) / "meta.json").exists():
        raise ReproError(
            f"no experiment store at {args.store!r} (meta.json missing); "
            "check the path — stores are created by run/sweep/cluster/tune"
        )


# ---------------------------------------------------------------------- #
# Subcommands
# ---------------------------------------------------------------------- #
def _read_document(path: str, what: str) -> Any:
    """Parse a JSON file a document flag names, folding failures into ReproError."""
    try:
        text = Path(path).read_text()
    except OSError as error:
        raise ReproError(f"cannot read {what} {path!r}: {error}") from error
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise ReproError(
            f"malformed {what} {path!r}: {error}; expected the JSON shape "
            "written by save()"
        ) from error


#: Request fields whose flags name a JSON file; the request carries the
#: parsed document, exactly as an HTTP body does.
_DOCUMENTS = {"workload": "workload trace", "fault_trace": "fault trace"}


def _request(request_type: type, args: argparse.Namespace):
    """The request a subcommand's flags spell."""
    values = {spec.name: getattr(args, spec.name) for spec in fields(request_type)}
    commands.check_exclusive(values)
    for name, what in _DOCUMENTS.items():
        if values.get(name) is not None:
            values[name] = _read_document(values[name], what)
    return request_type(**values)


def _sweep_table(args: argparse.Namespace, session: Session, sweep) -> None:
    from repro.analysis.store_report import format_session_stats
    from repro.analysis.sweep import format_sweep_table

    # The default baseline (DP) may not be part of the swept strategy
    # set; fall back to the first swept strategy rather than failing
    # after the whole grid has been computed.
    baseline = args.baseline if args.baseline in sweep.strategies else sweep.strategies[0]
    print(format_sweep_table(sweep, baseline=baseline), file=sys.stderr)
    print(format_session_stats(session.stats), file=sys.stderr)


def _cluster_table(args: argparse.Namespace, session: Session, reports) -> None:
    from repro.analysis.cluster_report import compare_policies

    print(compare_policies(reports), file=sys.stderr)


def _tune_table(args: argparse.Namespace, session: Session, result) -> None:
    from repro.analysis.pareto import format_frontier_table, format_tune_summary

    print(format_tune_summary(result), file=sys.stderr)
    print(format_frontier_table(result), file=sys.stderr)


def _cmd_request(args: argparse.Namespace) -> int:
    """run / sweep / cluster / tune: build the request, run its command."""
    request = _request(args.request_type, args)
    if getattr(args, "save_workload", None):
        try:
            commands.make_workload(request).save(args.save_workload)
        except OSError as error:
            raise ReproError(
                f"cannot write --save-workload {args.save_workload!r}: {error}"
            ) from error
        print(f"wrote {args.save_workload}", file=sys.stderr)
    session = _session(args)
    payload, result = args.run_command(session, request)
    if getattr(args, "table", False):
        args.print_table(args, session, result)
    payload.update(_store_payload(session))
    _emit(payload, args.out)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.http import start_server
    from repro.serve.service import PlannerService

    if not (0 <= args.port <= 65535):
        raise ReproError(
            f"serve --port must be 0..65535 (0 picks a free port), got {args.port}"
        )
    if not args.host.strip():
        raise ReproError("serve --host must be a non-empty host name or address")
    service = PlannerService(store=args.store or None, backend=args.backend)
    try:
        server = start_server(
            service, host=args.host, port=args.port, background=False
        )
    except OSError as error:
        raise ReproError(
            f"cannot bind {args.host}:{args.port}: {error}"
        ) from error
    # One machine-readable startup line, then the server blocks; CI and
    # the load harness poll /v1/healthz for readiness.
    print(
        json.dumps(
            {
                "serving": {
                    "host": args.host,
                    "port": server.bound_port,
                    "frontend": "stdlib",
                    "version": __version__,
                    "store": args.store or None,
                    "backend": args.backend,
                    "endpoints": list(service.paths()),
                }
            }
        ),
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()
    return 0


def _cmd_pregen(args: argparse.Namespace) -> int:
    from repro.store.pregen import run_pregen

    if not args.store:
        raise ReproError(
            "pregen writes an artifact: pass --store PATH or set REPRO_STORE"
        )
    # Unlike the cache commands, pregen is how an artifact is *born*, so a
    # missing directory is created rather than rejected.
    store = ExperimentStore(args.store)
    report = run_pregen(
        store,
        grid=args.grid,
        backend=args.backend,
        workers=args.workers,
        max_cells=args.max_cells,
    )
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.analysis.store_report import format_store_overview, store_overview

    _require_store(args)
    if args.cache_command == "import":
        _emit(import_legacy(args.store), args.out)
        return 0
    store = ExperimentStore(args.store)
    if args.cache_command == "stats":
        if args.table:
            print(format_store_overview(store), file=sys.stderr)
        _emit(store_overview(store), args.out)
        return 0
    if args.cache_command == "gc":
        if args.max_records is None and args.max_age_days is None:
            raise ReproError(
                "cache gc needs an eviction bound: --max-records and/or "
                "--max-age-days"
            )
        evicted = store.gc(
            max_records=args.max_records,
            max_age_seconds=(
                args.max_age_days * 86400.0 if args.max_age_days is not None else None
            ),
        )
        payload = {"evicted": evicted}
        payload.update(store_overview(store))
        _emit(payload, args.out)
        return 0
    # export (the parser restricts the choices, so this is the only branch left)
    _emit(store.export(), args.out)
    return 0


def _profile_workload_for(args: argparse.Namespace):
    """A zero-argument workload callable for one ``profile`` kind.

    Each workload is a small, fixed, deterministic exercise of the
    corresponding subsystem — big enough for the span breakdown to be
    representative, small enough to finish in seconds.  ``--store``
    applies exactly as for the real subcommands, so profiling against a
    warm store shows the hydration fast path instead of simulations.
    """
    session = _session(args)
    if args.kind == "run":
        config = ExperimentConfig(simulated_steps=args.steps)
        return lambda: session.run(config)
    if args.kind == "sweep":
        base = ExperimentConfig(simulated_steps=args.steps)
        return lambda: session.sweep(
            base,
            batch_sizes=[128, 256],
            num_gpus=[2, 4],
            strategies=["DP", "TR+DPU+AHD"],
        )
    if args.kind == "cluster":
        from repro.cluster.simulator import run_policy_comparison
        from repro.cluster.spec import default_cluster
        from repro.cluster.workload import DEFAULT_MIX, arrival_process

        cluster = default_cluster()
        workload = arrival_process(
            "poisson", 32, rate=0.5, seed=0, mix=DEFAULT_MIX
        )
        return lambda: run_policy_comparison(
            cluster, workload, policies=("fifo",), session=session
        )
    # tune (the parser restricts the choices)
    from repro.tune.space import TuneSpace
    from repro.tune.tuner import tune

    space = TuneSpace(
        strategies=("DP", "TR+DPU+AHD"),
        batch_sizes=(128, 256),
        gpu_counts=(2, 4),
    )
    return lambda: tune(
        space, budget=16, seed=0, session=session, simulated_steps=args.steps
    )


def _cmd_profile(args: argparse.Namespace) -> int:
    report = profile_workload(args.kind, _profile_workload_for(args))
    if args.trace_out:
        try:
            Path(args.trace_out).write_text(
                json.dumps(report.chrome_trace, indent=2)
            )
        except OSError as error:
            raise ReproError(
                f"cannot write --trace-out {args.trace_out!r}: {error}"
            ) from error
        print(f"wrote {args.trace_out}", file=sys.stderr)
    print(format_breakdown(report), file=sys.stderr)
    _emit(report.to_dict(), args.out)
    return 0


# ---------------------------------------------------------------------- #
# Parser
# ---------------------------------------------------------------------- #
#: argparse ``type`` per request-field annotation.  List fields take comma
#: lists; document fields take the path of a JSON file (see ``_request``).
_FLAG_TYPES = {
    int: int,
    float: float,
    str: str,
    Optional[str]: str,
    Optional[float]: float,
    Optional[List[int]]: _int_list,
    Optional[List[str]]: _str_list,
    Optional[Dict[str, Any]]: str,
}


def add_request_arguments(sub: argparse.ArgumentParser, request_type: type) -> None:
    """One ``--flag-name`` per field of a :mod:`repro.commands` request type.

    The flag keeps the field's default; its help text and argparse choices
    come from the field's metadata, called here when they are callables
    (they list registry names).
    """
    for spec in fields(request_type):
        choices, help = spec.metadata["choices"], spec.metadata["help"]
        sub.add_argument(
            "--" + spec.name.replace("_", "-"),
            type=_FLAG_TYPES[spec.type],
            default=spec.default,
            choices=choices() if callable(choices) else choices,
            help=help() if callable(help) else help,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pipe-BD reproduction: run cells, sweep grids, simulate fleets.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the library version and exit",
    )
    parser.add_argument(
        "--log-level",
        default="WARNING",
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        help="log threshold for the 'repro' logger tree (default: WARNING)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit one JSON object per log line (machine-readable)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_store_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--store",
            default=os.environ.get("REPRO_STORE"),
            help="persistent experiment store directory (default: $REPRO_STORE); "
            "repeated invocations hydrate from it and simulate nothing twice",
        )

    def add_output_arguments(sub: argparse.ArgumentParser, table_help: str) -> None:
        sub.add_argument(
            "--table", action="store_true", help=f"also print {table_help} to stderr"
        )
        sub.add_argument("--out", help="write JSON to this file instead of stdout")
        add_store_argument(sub)

    run_parser = subparsers.add_parser("run", help="run one experiment cell")
    add_request_arguments(run_parser, PlanRequest)
    run_parser.add_argument("--out", help="write JSON to this file instead of stdout")
    add_store_argument(run_parser)
    run_parser.set_defaults(request_type=PlanRequest, run_command=commands.plan)

    sweep_parser = subparsers.add_parser("sweep", help="sweep a grid of cells")
    add_request_arguments(sweep_parser, SweepRequest)
    sweep_parser.add_argument("--baseline", default="DP")
    add_output_arguments(sweep_parser, "a speedup table")
    sweep_parser.set_defaults(
        request_type=SweepRequest, run_command=commands.sweep, print_table=_sweep_table
    )

    cluster_parser = subparsers.add_parser(
        "cluster", help="gang-schedule a multi-job workload onto a fleet"
    )
    add_request_arguments(cluster_parser, ClusterRequest)
    cluster_parser.add_argument("--save-workload", help="save the generated workload")
    add_output_arguments(cluster_parser, "the comparison table")
    cluster_parser.set_defaults(
        request_type=ClusterRequest,
        run_command=commands.cluster,
        print_table=_cluster_table,
    )

    tune_parser = subparsers.add_parser(
        "tune", help="autotune strategy/batch/GPU/server under a simulation budget"
    )
    add_request_arguments(tune_parser, TuneRequest)
    add_output_arguments(tune_parser, "the frontier table")
    tune_parser.set_defaults(
        request_type=TuneRequest, run_command=commands.tune, print_table=_tune_table
    )
    for sub in (run_parser, sweep_parser, cluster_parser, tune_parser):
        sub.set_defaults(handler=_cmd_request)

    serve_parser = subparsers.add_parser(
        "serve", help="serve the planner as a versioned HTTP JSON API"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8023, help="bind port (0 picks a free port)"
    )
    serve_parser.add_argument(
        "--backend",
        default="inline",
        choices=BACKENDS.names(),
        help="execution backend for sweep/precompute cells (default: inline)",
    )
    add_store_argument(serve_parser)
    serve_parser.set_defaults(handler=_cmd_serve)

    from repro.store.pregen import GRIDS

    pregen_parser = subparsers.add_parser(
        "pregen",
        help="pregenerate the planning tables for a named grid into a store "
        "artifact (resumable; stamps manifest.json)",
    )
    pregen_parser.add_argument(
        "--grid",
        default="canonical",
        choices=sorted(GRIDS),
        help="named grid to sweep (default: canonical)",
    )
    pregen_parser.add_argument(
        "--backend",
        default="inline",
        choices=BACKENDS.names(),
        help="execution backend for grid cells (default: inline)",
    )
    pregen_parser.add_argument(
        "--workers", type=int, help="pool size for the process backend"
    )
    pregen_parser.add_argument(
        "--max-cells",
        type=int,
        help="simulate at most this many missing cells (partial artifact; "
        "a later run resumes the remainder)",
    )
    pregen_parser.add_argument(
        "--out", help="write the report JSON to this file instead of stdout"
    )
    add_store_argument(pregen_parser)
    pregen_parser.set_defaults(handler=_cmd_pregen)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect, prune or dump a persistent experiment store"
    )
    cache_subparsers = cache_parser.add_subparsers(
        dest="cache_command", required=True
    )
    stats_parser = cache_subparsers.add_parser(
        "stats", help="record counts, disk usage and warm/cold hit rates"
    )
    stats_parser.add_argument(
        "--table", action="store_true", help="also print a summary table to stderr"
    )
    gc_parser = cache_subparsers.add_parser(
        "gc", help="evict old / excess records and compact the database"
    )
    gc_parser.add_argument(
        "--max-records", type=int, help="keep at most this many newest records"
    )
    gc_parser.add_argument(
        "--max-age-days", type=float, help="drop records older than this many days"
    )
    export_parser = cache_subparsers.add_parser(
        "export", help="dump every record as one JSON document"
    )
    import_parser = cache_subparsers.add_parser(
        "import", help="convert a legacy JSONL store to the SQLite format, once"
    )
    for sub in (stats_parser, gc_parser, export_parser, import_parser):
        add_store_argument(sub)
        sub.add_argument("--out", help="write JSON to this file instead of stdout")
    cache_parser.set_defaults(handler=_cmd_cache)

    profile_parser = subparsers.add_parser(
        "profile",
        help="profile a fixed workload and print a per-span timing breakdown",
    )
    profile_parser.add_argument(
        "kind",
        choices=PROFILE_KINDS,
        help="which subsystem workload to profile",
    )
    profile_parser.add_argument(
        "--steps", type=int, default=10, help="simulated steps per cell"
    )
    profile_parser.add_argument(
        "--trace-out",
        help="also write a chrome-trace JSON file (chrome://tracing, Perfetto)",
    )
    profile_parser.add_argument(
        "--out", help="write the report JSON to this file instead of stdout"
    )
    add_store_argument(profile_parser)
    profile_parser.set_defaults(handler=_cmd_profile)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_level, json_format=args.log_json)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (head, jq -e, ...) closed the pipe early; the
        # run itself succeeded.  Detach stdout so the interpreter does not
        # print a second BrokenPipeError while flushing at shutdown.
        devnull = open(os.devnull, "w")
        os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
