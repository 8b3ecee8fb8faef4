"""One workload process: set up, signal readiness, run the timed work, check.

Started by ``run.py`` as a fresh interpreter, so its set-up cost is what a
``repro`` invocation pays: interpreter start, ``import repro.cli`` and the
construction of a :class:`PlannerService` (plan workloads) or a
:class:`Session` (fleet workloads).  Once set up it prints one JSON line
``{"ready": true, "import_s": ..., "probes": [...]}`` on stdout; the parent
times the spawn up to that line and scales it by the host speed the probes,
taken in this process during set-up, saw.

Modes:

* ``setup`` — exit right after the ready line;
* ``fill``  — answer every plan-grid request against the store and write
  each cold result, keyed by request body, to ``--out``;
* ``run``   — a fixed amount of work (:func:`inputs.repeats` units for
  ``--seconds``) in a closed loop: one in-process client sends the next
  request only after the previous one returned.  Then the outputs are
  checked and a result document is written to ``--out``.

The clock runs only around operations (requests, fleet replays); output
checks and the rebuild of a fresh service between passes run with the clock
stopped.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

from inputs import repeats
from stats import PROBE_EVERY_S, probe, scaled

clock = time.perf_counter

#: Operations are scaled in segments of at least this many seconds.
SEGMENT_S = 0.2


class Sampler:
    """Probe times taken every ``PROBE_EVERY_S`` by an interval timer.

    Probes are taken only while ``active`` is true.  Use it as a context
    manager around the work to sample.
    """

    def __init__(self, active: bool = True) -> None:
        self.active = active
        self.probes = []

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        if self.active:
            self.probes.append(probe())


class Meter(Sampler):
    """Operation time, as measured and scaled to the reference host speed.

    The timer samples the host's speed only while an operation runs; each
    segment of operations is scaled by the speed its probes saw (see
    :func:`stats.scaled`).
    """

    def __init__(self) -> None:
        super().__init__(active=False)
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.latencies = []
        self._segment = 0.0
        self._last_probes = []

    def __exit__(self, *exc_info) -> None:
        super().__exit__(*exc_info)
        self.close()

    def time(self, operation):
        """Run and time one operation; returns its result."""
        self.active = True
        start = clock()
        try:
            result = operation()
        finally:
            self.active = False
        elapsed = clock() - start
        self.latencies.append(elapsed)
        self._segment += elapsed
        if self._segment >= SEGMENT_S:
            self.close()
        return result

    def close(self) -> None:
        """Scale the open segment; one without probes keeps the last speed."""
        if not self._segment:
            return
        probes = self.probes or self._last_probes or [probe()]
        self.raw_s += self._segment
        self.scaled_s += scaled(self._segment, probes)
        self._segment, self._last_probes, self.probes = 0.0, probes, []


def canonical(document) -> str:
    """Byte-stable JSON form of a response document, for equality checks."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def plan_client(store: str):
    from repro.serve.client import LocalClient
    from repro.serve.service import PlannerService

    return LocalClient(PlannerService(store=store))


def build(workload: str, store: str):
    """What the workload talks to: a service client or a session."""
    if workload in ("plan-cold", "serve-warm"):
        return plan_client(store)
    from repro.core.session import Session

    return Session()


def post_plan(client, body: dict):
    """Send one ``/v1/plan`` request; returns (status, payload)."""
    response = client.post("/v1/plan", json=body)
    return response.status_code, response.json()


def request_meta(payload: dict) -> dict:
    return payload.get("meta", {}).get("request", {})


def fill(client, grid: list) -> dict:
    """Plan every grid cell once; returns ``{request: cold result}``."""
    references = {}
    for body in grid:
        status, payload = post_plan(client, body)
        if status != 200 or request_meta(payload).get("simulations") != 1:
            raise SystemExit(f"fill request failed: {body} -> {status}")
        references[canonical(body)] = canonical(payload["result"])
    return references


def plan_cold(client, inputs: dict, units: int, store: str, meter: Meter):
    """Every request misses a fresh store; a new service starts each pass."""
    grid, verify = inputs["grid"], set(inputs["verify"])
    sampled = {}
    failed = 0
    for number in range(units):
        if number:
            meter.close()
            client = plan_client(f"{store}-pass{number}")
        for index, body in enumerate(grid):
            status, payload = meter.time(lambda: post_plan(client, body))
            if status != 200 or request_meta(payload).get("simulations") != 1:
                failed += 1
            elif number == 0 and index in verify:
                sampled[index] = canonical(payload["result"])

    def check() -> int:
        """Re-derive the sampled cells with a store-less session."""
        from repro.core.config import ExperimentConfig
        from repro.core.session import Session

        session = Session()
        mismatches = 0
        for index, expected in sampled.items():
            fields = dict(grid[index])
            config = ExperimentConfig(simulated_steps=fields.pop("steps"), **fields)
            mismatches += canonical(session.run(config).to_dict()) != expected
        return mismatches

    return units * len(grid), failed, check


def serve_warm(client, inputs: dict, units: int, references: dict, meter: Meter):
    """Zipf-skewed reads of a filled store; every answer must be warm."""
    from inputs import WARM_BLOCK

    grid, sequence = inputs["grid"], inputs["sequence"]
    keys = [canonical(body) for body in grid]
    requests = units * WARM_BLOCK
    failed = 0
    for number in range(requests):
        index = sequence[number % len(sequence)]
        status, payload = meter.time(lambda: post_plan(client, grid[index]))
        meta = request_meta(payload)
        failed += not (
            status == 200
            and meta.get("simulations") == 0
            and meta.get("warm") is True
            and canonical(payload["result"]) == references[keys[index]]
        )
    return requests, failed, lambda: 0


def fleet(session, inputs: dict, units: int, meter: Meter):
    """Replay every seeded fleet workload under every policy, ``units`` times."""
    from repro.cluster.faults import parse_fault_spec
    from repro.cluster.market import parse_price_curve
    from repro.cluster.simulator import run_policy_comparison
    from repro.cluster.spec import default_cluster
    from repro.cluster.workload import Workload
    from repro.core.session import Session

    cluster = default_cluster()
    workloads = [Workload.from_dict(document) for document in inputs["workloads"]]
    policies = tuple(inputs["policies"])
    faults = parse_fault_spec(inputs["faults"]) if inputs["faults"] else None
    price_curve = parse_price_curve(inputs["price_curve"])

    def replay(number, session):
        return run_policy_comparison(
            cluster,
            workloads[number],
            policies=policies,
            session=session,
            faults=faults,
            elastic=inputs["elastic"],
            fault_seed=inputs["fault_seeds"][number],
            price_curve=price_curve,
        )

    def mismatched(workload, reports) -> int:
        """Jobs of every policy whose report lost or invented a job."""
        bad = set(policies) ^ set(reports)
        bad.update(
            name
            for name, report in reports.items()
            if len(report.records) + len(report.killed) != len(workload.jobs)
        )
        return len(bad) * len(workload.jobs)

    ops = failed = 0
    first = None
    for _ in range(units):
        for number, workload in enumerate(workloads):
            reports = meter.time(lambda: replay(number, session))
            ops += len(workload.jobs) * len(policies)
            failed += mismatched(workload, reports)
            if first is None:
                first = {name: canonical(report.to_dict()) for name, report in reports.items()}
            session = Session()

    def check() -> int:
        """Replay the first fleet again: jobs of every policy whose report changed."""
        reports = replay(0, Session())
        return len(workloads[0].jobs) * sum(
            canonical(report.to_dict()) != first.get(name) for name, report in reports.items()
        )

    return ops, failed, check


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("mode", choices=("setup", "fill", "run"))
    parser.add_argument("--root", required=True, help="checkout holding src/repro")
    parser.add_argument("--store", required=True)
    parser.add_argument("--inputs")
    parser.add_argument("--references")
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    with Sampler() as setup:
        started = clock()
        import repro.cli  # noqa: F401  (what every repro invocation imports)

        import_s = clock() - started
        target = build(args.workload, args.store)
    ready = {"ready": True, "import_s": import_s, "probes": setup.probes}
    print(json.dumps(ready), flush=True)
    if args.mode == "setup":
        return

    inputs = json.loads(Path(args.inputs).read_text())
    if args.mode == "fill":
        Path(args.out).write_text(json.dumps(fill(target, inputs["grid"])))
        return

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    units = repeats(args.workload, args.seconds)
    if args.workload == "serve-warm":
        references = json.loads(Path(args.references).read_text())
    with Meter() as meter:
        if args.workload == "plan-cold":
            loop = plan_cold(target, inputs, units, args.store, meter)
        elif args.workload == "serve-warm":
            loop = serve_warm(target, inputs, units, references, meter)
        else:
            loop = fleet(target, inputs, units, meter)
    ops, failed, check = loop
    result = {
        "import_s": import_s,
        "ops": ops,
        "busy_s": meter.raw_s,
        "scaled_s": meter.scaled_s,
        "latencies_ms": [seconds * 1e3 for seconds in meter.latencies],
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        # Snapshot before the checks: they call traced functions off the clock.
        result["layers"] = tracer.metrics(meter.raw_s)
        result["shares"] = tracer.self_time_shares(meter.raw_s)
        result["silent"] = tracer.silent_spans(args.workload)
    result["failed"] = failed + check()
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
