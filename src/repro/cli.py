"""``python -m repro`` — command-line front door over the Session/cluster APIs.

Seven subcommands mirror the levels of the system:

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
* ``precompute`` — warm a store with a named grid preset (``--grid``) or
  the grid its axis flags spell: resumable (``--max-cells`` bounds one
  run), stamped with a ``manifest.json`` that pins its rows against gc,
  so any later session or server answers the grid without simulating,
* ``serve`` — expose those five commands as a versioned HTTP JSON API
  (``/v1/plan`` for ``run``), plus health/stats probes, answering hot
  queries from the store with zero simulations,
* ``cache`` — inspect (``stats``), prune (``gc``), dump (``export``) a
  persistent experiment store, or convert a legacy one (``import``).

``run``/``sweep``/``cluster``/``tune``/``precompute`` are the HTTP
service's ``/v1/plan``/``/v1/sweep``/``/v1/cluster``/``/v1/tune``/
``/v1/precompute``: each is one entry of :data:`repro.commands.COMMANDS`,
its flags are generated from the request type
(:func:`add_request_arguments`) and it runs the same command, so a CLI
payload equals the HTTP payload minus each frontend's bookkeeping.

They share the rest of their flags too.  ``--store PATH`` (default: the
``REPRO_STORE`` environment variable) hydrates results from and writes
them through a persistent store, making repeated invocations — even
across processes — perform zero duplicate simulations; store-backed
payloads embed the session's warm/cold summary.  ``--profile PATH`` runs
the command under a span recorder, writes the chrome-trace file
(``chrome://tracing`` / Perfetto) to PATH, prints the per-span timing
breakdown to stderr and adds it to the payload as ``profile``.

Every subcommand prints a JSON document to stdout (or ``--out FILE``), so
the CLI composes with ``jq``/notebooks the same way the benchmark JSON
artifacts do.  ``--version`` prints the library version and exits; the
global ``--log-level`` / ``--log-json`` flags configure structured
logging for every subcommand (see ``docs/OBSERVABILITY.md``).

Documented in ``docs/TUNING.md`` (tune), ``docs/CACHING.md`` (store and
backends), ``docs/PREGEN.md`` (precompute), ``docs/OBSERVABILITY.md``
(``--profile``) and the README (run/sweep/cluster).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro import commands
from repro.core.session import Session
from repro.errors import ReproError
from repro.obs.logs import configure_logging
from repro.obs.profiler import format_breakdown, profile_workload
from repro.store import BACKENDS, ExperimentStore
from repro.store.store import import_legacy
from repro.version import __version__


def _int_list(text: str) -> List[int]:
    return [int(item) for item in text.split(",") if item]


def _str_list(text: str) -> List[str]:
    return [item for item in text.split(",") if item]


def _write(path: str, text: str, flag: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as error:
        raise ReproError(f"cannot write {flag} {path!r}: {error}") from error


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        _write(out, text, "--out")
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
            "check the path — stores are created by run/sweep/cluster/tune/precompute"
        )


# ---------------------------------------------------------------------- #
# The commands of repro.commands
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


def _add_baseline(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--baseline", default="DP", help="baseline strategy of --table's speedups"
    )


def _add_save_workload(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--save-workload", help="save the generated workload")


class _Subcommand(NamedTuple):
    """One CLI subcommand over one :data:`repro.commands.COMMANDS` entry."""

    command: str
    help: str
    #: What ``--table`` prints to stderr, and the function printing it.
    table: Optional[str] = None
    print_table: Optional[Callable[..., None]] = None
    #: Adds the subcommand's own flags.
    add_flags: Optional[Callable[[argparse.ArgumentParser], None]] = None


_SUBCOMMANDS: Dict[str, _Subcommand] = {
    "run": _Subcommand("plan", "run one experiment cell"),
    "sweep": _Subcommand(
        "sweep", "sweep a grid of cells", "a speedup table", _sweep_table, _add_baseline
    ),
    "cluster": _Subcommand(
        "cluster",
        "gang-schedule a multi-job workload onto a fleet",
        "the comparison table",
        _cluster_table,
        _add_save_workload,
    ),
    "tune": _Subcommand(
        "tune",
        "autotune strategy/batch/GPU/server under a simulation budget",
        "the frontier table",
        _tune_table,
    ),
    "precompute": _Subcommand(
        "precompute",
        "warm a store with a grid (resumable; stamps manifest.json)",
    ),
}


def _cmd_request(args: argparse.Namespace) -> int:
    """Every subcommand of ``_SUBCOMMANDS``: build the request, run its command."""
    subcommand = _SUBCOMMANDS[args.command]
    request_type, run_command = commands.COMMANDS[subcommand.command]
    request = _request(request_type, args)
    if getattr(args, "save_workload", None):
        try:
            commands.make_workload(request).save(args.save_workload)
        except OSError as error:
            raise ReproError(
                f"cannot write --save-workload {args.save_workload!r}: {error}"
            ) from error
        print(f"wrote {args.save_workload}", file=sys.stderr)
    session = _session(args)
    if args.profile:
        report = profile_workload(args.command, lambda: run_command(session, request))
        payload, result = report.result
        _write(args.profile, json.dumps(report.chrome_trace, indent=2), "--profile")
        print(f"wrote {args.profile}", file=sys.stderr)
        print(format_breakdown(report), file=sys.stderr)
        payload["profile"] = report.to_dict()
    else:
        payload, result = run_command(session, request)
    if getattr(args, "table", False):
        subcommand.print_table(args, session, result)
    payload.update(_store_payload(session))
    _emit(payload, args.out)
    return 0


# ---------------------------------------------------------------------- #
# serve and cache
# ---------------------------------------------------------------------- #
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
    Optional[int]: int,
    Optional[float]: float,
    List[int]: _int_list,
    List[str]: _str_list,
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
            default=spec.default_factory() if spec.default is MISSING else spec.default,
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

    def add_out_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--out", help="write JSON to this file instead of stdout")

    for name, subcommand in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=subcommand.help)
        add_request_arguments(sub, commands.COMMANDS[subcommand.command][0])
        if subcommand.add_flags is not None:
            subcommand.add_flags(sub)
        if subcommand.table is not None:
            sub.add_argument(
                "--table",
                action="store_true",
                help=f"also print {subcommand.table} to stderr",
            )
        sub.add_argument(
            "--profile",
            metavar="PATH",
            help="profile the command: write its chrome trace to PATH, print the "
            "per-span breakdown to stderr and add it to the JSON as 'profile'",
        )
        add_out_argument(sub)
        add_store_argument(sub)
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
        add_out_argument(sub)
    cache_parser.set_defaults(handler=_cmd_cache)

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
