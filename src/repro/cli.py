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

``run``/``sweep``/``cluster``/``tune`` accept ``--store PATH`` (default:
the ``REPRO_STORE`` environment variable) to hydrate results from and
write them through a persistent store, making repeated invocations — even
across processes — perform zero duplicate simulations; ``sweep`` also
accepts ``--backend {inline,thread,process}``.  Store-backed payloads
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
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.cluster_report import compare_policies
from repro.analysis.store_report import (
    format_session_stats,
    format_store_overview,
    store_overview,
    warm_cold_summary,
)
from repro.analysis.sweep import format_sweep_table
from repro.cluster.elastic import ELASTIC_POLICIES
from repro.cluster.faults import FAULT_PRESETS, FaultTrace, parse_fault_spec
from repro.cluster.scheduler import POLICIES
from repro.cluster.spec import cluster_from_shorthand, default_cluster
from repro.cluster.market import PRICE_CURVES, parse_price_curve
from repro.cluster.simulator import run_policy_comparison
from repro.cluster.workload import (
    DEFAULT_MIX,
    Workload,
    arrival_process,
    parse_tenant_shorthand,
    tenant_workload,
)
from repro.core.config import (
    ExperimentConfig,
    VALID_DATASETS,
    VALID_SERVERS,
    VALID_TASKS,
)
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
def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        task=args.task,
        dataset=args.dataset,
        server=args.server,
        num_gpus=args.num_gpus,
        batch_size=args.batch_size,
        strategy=args.strategy,
        simulated_steps=args.steps,
    )
    session = _session(args)
    result = session.run(config)
    payload = {"config": config.to_dict(), "result": result.to_dict()}
    payload.update(_store_payload(session))
    _emit(payload, args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = ExperimentConfig(
        task=args.task,
        dataset=args.dataset,
        server=args.server,
        num_gpus=args.num_gpus,
        batch_size=args.batch_size,
        simulated_steps=args.steps,
    )
    session = _session(args)
    sweep = session.sweep(
        base,
        batch_sizes=_int_list(args.batch_sizes) if args.batch_sizes else None,
        num_gpus=_int_list(args.gpu_counts) if args.gpu_counts else None,
        datasets=_str_list(args.datasets) if args.datasets else None,
        servers=_str_list(args.servers) if args.servers else None,
        tasks=_str_list(args.tasks) if args.tasks else None,
        strategies=_str_list(args.strategies) if args.strategies else None,
        parallel=args.parallel,
        backend=args.backend,
    )
    if args.table:
        # The default baseline (DP) may not be part of the swept strategy
        # set; fall back to the first swept strategy rather than failing
        # after the whole grid has been computed.
        baseline = (
            args.baseline if args.baseline in sweep.strategies else sweep.strategies[0]
        )
        print(format_sweep_table(sweep, baseline=baseline), file=sys.stderr)
        print(format_session_stats(session.stats), file=sys.stderr)
    payload = sweep.to_dict()
    payload.update(_store_payload(session))
    _emit(payload, args.out)
    return 0


def _load_trace(path: str, loader, what: str):
    """Load a JSON trace file, folding every failure mode into ReproError."""
    try:
        return loader(path)
    except ReproError:
        raise
    except OSError as error:
        raise ReproError(f"cannot read {what} {path!r}: {error}") from error
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
        raise ReproError(
            f"malformed {what} {path!r}: {error}; expected the JSON shape "
            "written by save()"
        ) from error


def _resolve_cli_faults(args: argparse.Namespace):
    """Coerce --faults / --fault-trace into a fault source (or None)."""
    if args.faults and args.fault_trace:
        raise ReproError(
            "--faults and --fault-trace are mutually exclusive; pass a "
            "generator spec or a concrete trace, not both"
        )
    if args.fault_trace:
        return _load_trace(args.fault_trace, FaultTrace.load, "fault trace")
    if args.faults:
        return parse_fault_spec(args.faults)
    return None


def _cmd_cluster(args: argparse.Namespace) -> int:
    cluster = (
        cluster_from_shorthand(args.nodes) if args.nodes else default_cluster()
    )
    if args.tenants and args.workload:
        raise ReproError(
            "--tenants and --workload are mutually exclusive; workload "
            "traces carry their own tenant roster"
        )
    price_curve = parse_price_curve(args.price_curve)
    if args.workload:
        workload = _load_trace(args.workload, Workload.load, "workload trace")
    elif args.tenants:
        workload = tenant_workload(
            parse_tenant_shorthand(args.tenants),
            args.num_jobs,
            rate=args.rate,
            seed=args.seed,
            deadline_slack=args.deadline_slack,
            diurnal=args.arrival == "diurnal",
        )
    else:
        workload = arrival_process(
            args.arrival,
            args.num_jobs,
            rate=args.rate,
            burst_size=args.burst_size,
            burst_gap=args.burst_gap,
            seed=args.seed,
            mix=DEFAULT_MIX,
        )
    if args.save_workload:
        try:
            workload.save(args.save_workload)
        except OSError as error:
            raise ReproError(
                f"cannot write --save-workload {args.save_workload!r}: {error}"
            ) from error
        print(f"wrote {args.save_workload}", file=sys.stderr)

    faults = _resolve_cli_faults(args)
    policies = tuple(POLICIES.names()) if args.policy == "all" else (args.policy,)
    session = _session(args)
    reports = run_policy_comparison(
        cluster,
        workload,
        policies=policies,
        session=session,
        faults=faults,
        elastic=args.elastic,
        fault_seed=args.fault_seed,
        price_curve=price_curve,
    )
    if args.table:
        print(compare_policies(reports), file=sys.stderr)
    payload = {
        "cluster": cluster.to_dict(),
        "workload": workload.name,
        "reports": {name: report.to_dict() for name, report in reports.items()},
    }
    if workload.tenants:
        payload["tenants"] = [spec.to_dict() for spec in workload.tenants]
    if price_curve is not None:
        payload["price_curve"] = price_curve.name
    if faults is not None:
        payload["faults"] = {
            "spec": (
                {"trace": faults.name}
                if isinstance(faults, FaultTrace)
                else faults.to_dict()
            ),
            "elastic": args.elastic,
            "seed": args.fault_seed,
        }
    payload.update(_store_payload(session))
    _emit(payload, args.out)
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.analysis.pareto import format_frontier_table, format_tune_summary
    from repro.tune.objective import MinCostUnderDeadline
    from repro.tune.space import TuneSpace, default_space

    base = default_space()
    clusters = (cluster_from_shorthand(args.nodes),) if args.nodes else ()
    space = TuneSpace(
        strategies=tuple(_str_list(args.strategies)) if args.strategies else base.strategies,
        batch_sizes=tuple(_int_list(args.batch_sizes)) if args.batch_sizes else base.batch_sizes,
        gpu_counts=tuple(_int_list(args.gpu_counts)) if args.gpu_counts else base.gpu_counts,
        servers=tuple(_str_list(args.servers)) if args.servers else base.servers,
        tasks=tuple(_str_list(args.tasks)) if args.tasks else base.tasks,
        datasets=tuple(_str_list(args.datasets)) if args.datasets else base.datasets,
        policies=tuple(_str_list(args.policies)) if args.policies else (),
        clusters=clusters,
    )
    if args.deadline is not None and args.objective != "cost":
        raise ReproError(
            f"--deadline only applies to the 'cost' objective, not "
            f"{args.objective!r}; drop the flag or use --objective cost"
        )
    objective = (
        MinCostUnderDeadline(deadline=args.deadline)
        if args.deadline is not None
        else args.objective
    )
    session = _session(args)
    result = session.tune(
        space,
        objective=objective,
        driver=args.driver,
        budget=args.budget,
        seed=args.seed,
        simulated_steps=args.steps,
        faults=_resolve_cli_faults(args),
        elastic=args.elastic,
        fault_seed=args.fault_seed,
        tenants=args.tenants,
        price_curve=args.price_curve,
        slo_deadline_slack=args.deadline_slack,
    )
    if args.table:
        print(format_tune_summary(result), file=sys.stderr)
        print(format_frontier_table(result), file=sys.stderr)
    payload = result.to_dict()
    payload.update(_store_payload(session))
    _emit(payload, args.out)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.service import PlannerService

    if not (0 <= args.port <= 65535):
        raise ReproError(
            f"serve --port must be 0..65535 (0 picks a free port), got {args.port}"
        )
    if not args.host.strip():
        raise ReproError("serve --host must be a non-empty host name or address")
    service = PlannerService(store=args.store or None, backend=args.backend)

    def announce(frontend: str, port: int) -> None:
        # One machine-readable startup line, then the server blocks; CI and
        # the load harness poll /v1/healthz for readiness.
        print(
            json.dumps(
                {
                    "serving": {
                        "host": args.host,
                        "port": port,
                        "frontend": frontend,
                        "version": __version__,
                        "store": args.store or None,
                        "backend": args.backend,
                        "endpoints": list(service.paths()),
                    }
                }
            ),
            flush=True,
        )

    if args.http in ("auto", "uvicorn"):
        try:
            import uvicorn

            from repro.serve.app import create_app

            app = create_app(service=service)
        except (ImportError, ReproError) as error:
            if args.http == "uvicorn":
                raise ReproError(
                    f"--http uvicorn needs fastapi and uvicorn installed: {error}"
                ) from error
            print(
                f"note: uvicorn/FastAPI unavailable ({error}); "
                "falling back to the stdlib HTTP server",
                file=sys.stderr,
            )
        else:
            announce("uvicorn", args.port)
            try:
                uvicorn.run(app, host=args.host, port=args.port, log_level="warning")
            except OSError as error:
                raise ReproError(
                    f"cannot serve on {args.host}:{args.port}: {error}"
                ) from error
            return 0

    from repro.serve.http import start_server

    try:
        server = start_server(
            service, host=args.host, port=args.port, background=False
        )
    except OSError as error:
        raise ReproError(
            f"cannot bind {args.host}:{args.port}: {error}"
        ) from error
    announce("stdlib", server.bound_port)
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
        cluster = default_cluster()
        workload = arrival_process(
            "poisson", 32, rate=0.5, seed=0, mix=DEFAULT_MIX
        )
        return lambda: run_policy_comparison(
            cluster, workload, policies=("fifo",), session=session
        )
    # tune (the parser restricts the choices)
    from repro.tune.space import TuneSpace

    space = TuneSpace(
        strategies=("DP", "TR+DPU+AHD"),
        batch_sizes=(128, 256),
        gpu_counts=(2, 4),
    )
    return lambda: session.tune(
        space, budget=16, seed=0, simulated_steps=args.steps
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

    def add_fault_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--faults",
            help="inject faults: a preset "
            f"({', '.join(sorted(FAULT_PRESETS))}) or 'kind:rate[,...]' with "
            "kind in crash/preempt/straggler (rates in events/sec)",
        )
        sub.add_argument(
            "--fault-trace", help="replay a JSON fault trace instead of generating"
        )
        sub.add_argument(
            "--elastic",
            default="restart",
            help="elastic recovery policy for evicted gangs "
            f"({', '.join(ELASTIC_POLICIES.names())})",
        )
        sub.add_argument(
            "--fault-seed", type=int, default=0, help="seed for fault generation"
        )

    def add_tenant_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--tenants",
            help="tenant roster shorthand 'name:k=v,...;...' with k in "
            "priority/quota/budget/deadline/rate/slack, e.g. "
            "'batch:rate=0.4;prod:priority=2,deadline=strict,rate=0.1'",
        )
        sub.add_argument(
            "--price-curve",
            help="spot-market price curve: a preset "
            f"({', '.join(sorted(PRICE_CURVES))}) or 't:mult,...[@period]'",
        )
        sub.add_argument(
            "--deadline-slack",
            type=float,
            default=900.0,
            help="seconds past arrival that deadline tenants' jobs must "
            "finish by (default: 900)",
        )

    def add_cell_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--task", default="nas", choices=VALID_TASKS)
        sub.add_argument("--dataset", default="cifar10", choices=VALID_DATASETS)
        sub.add_argument("--server", default="a6000", choices=VALID_SERVERS)
        sub.add_argument("--num-gpus", type=int, default=4)
        sub.add_argument("--batch-size", type=int, default=256)
        sub.add_argument("--steps", type=int, default=10, help="simulated steps")
        sub.add_argument("--out", help="write JSON to this file instead of stdout")
        add_store_argument(sub)

    run_parser = subparsers.add_parser("run", help="run one experiment cell")
    add_cell_arguments(run_parser)
    run_parser.add_argument("--strategy", default="TR+DPU+AHD")
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = subparsers.add_parser("sweep", help="sweep a grid of cells")
    add_cell_arguments(sweep_parser)
    sweep_parser.add_argument("--batch-sizes", help="comma list, e.g. 128,256")
    sweep_parser.add_argument("--gpu-counts", help="comma list, e.g. 2,4")
    sweep_parser.add_argument("--datasets", help="comma list")
    sweep_parser.add_argument("--servers", help="comma list")
    sweep_parser.add_argument("--tasks", help="comma list")
    sweep_parser.add_argument("--strategies", help="comma list, e.g. DP,TR+DPU+AHD")
    sweep_parser.add_argument("--baseline", default="DP")
    sweep_parser.add_argument(
        "--parallel", action="store_true", help="shorthand for --backend thread"
    )
    sweep_parser.add_argument(
        "--backend",
        choices=BACKENDS.names(),
        help="execution backend for sweep cells (default: inline)",
    )
    sweep_parser.add_argument(
        "--table", action="store_true", help="also print a speedup table to stderr"
    )
    sweep_parser.set_defaults(handler=_cmd_sweep)

    cluster_parser = subparsers.add_parser(
        "cluster", help="gang-schedule a multi-job workload onto a fleet"
    )
    cluster_parser.add_argument(
        "--nodes",
        help="cluster shorthand, e.g. a6000:4,a6000:4,2080ti:4 (default: 4-node fleet)",
    )
    cluster_parser.add_argument(
        "--policy",
        default="all",
        help=f"placement policy ({', '.join(POLICIES.names())}) or 'all'",
    )
    cluster_parser.add_argument("--num-jobs", type=int, default=200)
    cluster_parser.add_argument(
        "--arrival", default="poisson", choices=("poisson", "bursty", "diurnal")
    )
    cluster_parser.add_argument("--rate", type=float, default=0.5, help="jobs/sec (poisson)")
    cluster_parser.add_argument("--burst-size", type=int, default=8)
    cluster_parser.add_argument("--burst-gap", type=float, default=120.0)
    cluster_parser.add_argument("--seed", type=int, default=0)
    cluster_parser.add_argument("--workload", help="replay a JSON workload trace")
    cluster_parser.add_argument("--save-workload", help="save the generated workload")
    add_tenant_arguments(cluster_parser)
    add_fault_arguments(cluster_parser)
    cluster_parser.add_argument(
        "--table", action="store_true", help="also print the comparison table to stderr"
    )
    cluster_parser.add_argument("--out", help="write JSON to this file instead of stdout")
    add_store_argument(cluster_parser)
    cluster_parser.set_defaults(handler=_cmd_cluster)

    from repro.tune.drivers import DRIVERS
    from repro.tune.objective import OBJECTIVES

    tune_parser = subparsers.add_parser(
        "tune", help="autotune strategy/batch/GPU/server under a simulation budget"
    )
    tune_parser.add_argument(
        "--objective",
        default="epoch_time",
        choices=OBJECTIVES.names(),
        help="what to optimise",
    )
    tune_parser.add_argument(
        "--driver",
        default="successive-halving",
        choices=DRIVERS.names(),
        help="search driver",
    )
    tune_parser.add_argument(
        "--budget", type=int, default=64, help="max discrete-event simulations"
    )
    tune_parser.add_argument("--seed", type=int, default=0)
    tune_parser.add_argument("--steps", type=int, default=10, help="full-fidelity steps")
    tune_parser.add_argument("--strategies", help="comma list, e.g. DP,TR+DPU+AHD")
    tune_parser.add_argument("--batch-sizes", help="comma list, e.g. 128,256,512")
    tune_parser.add_argument("--gpu-counts", help="comma list, e.g. 2,4")
    tune_parser.add_argument("--servers", help="comma list, e.g. a6000,2080ti")
    tune_parser.add_argument("--tasks", help="comma list")
    tune_parser.add_argument("--datasets", help="comma list")
    tune_parser.add_argument(
        "--policies",
        help="comma list of placement policies (required for jobs_per_hour)",
    )
    tune_parser.add_argument(
        "--nodes", help="cluster shorthand for throughput probes, e.g. a6000:4,2080ti:4"
    )
    tune_parser.add_argument(
        "--deadline",
        type=float,
        help="epoch-time deadline in seconds (cost objective only)",
    )
    add_tenant_arguments(tune_parser)
    add_fault_arguments(tune_parser)
    tune_parser.add_argument(
        "--table", action="store_true", help="also print the frontier table to stderr"
    )
    tune_parser.add_argument("--out", help="write JSON to this file instead of stdout")
    add_store_argument(tune_parser)
    tune_parser.set_defaults(handler=_cmd_tune)

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
    serve_parser.add_argument(
        "--http",
        default="auto",
        choices=("auto", "uvicorn", "stdlib"),
        help="HTTP frontend: uvicorn+FastAPI when installed, stdlib fallback "
        "otherwise (default: auto)",
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
        "--workers", type=int, help="pool size for the thread/process backends"
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
