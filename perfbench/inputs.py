"""Seeded inputs for the four benchmark workloads.

Everything the program under test receives is generated here from the
workload seed, so one seed always yields byte-identical inputs.  The axes
and sizes are fixed in this file rather than read from the program's
registries: a later change that registers another strategy or policy must
not silently change what the benchmark measures.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List

WORKLOADS = ("plan-cold", "serve-warm", "fleet-reliable", "fleet-slo")

#: The ``/v1/plan`` cross product: 2 x 2 x 2 x 2 x 4 cells x 6 strategies
#: x 3 step counts = 1152 requests.
PLAN_AXES = {
    "task": ("nas", "compression"),
    "dataset": ("cifar10", "imagenet"),
    "server": ("a6000", "2080ti"),
    "num_gpus": (2, 4),
    "batch_size": (64, 128, 256, 512),
    "strategy": ("DP", "LS", "TR", "TR+DPU", "TR+IR", "TR+DPU+AHD"),
    "steps": (5, 10, 20),
}

#: Cells of ``plan-cold`` re-derived with a store-less session after timing.
VERIFY_SAMPLE = 24

#: Zipf exponent of the ``serve-warm`` popularity skew.  No measured
#: request distribution exists for this service, so the value is a guess;
#: the README shows the workload's figures barely depend on it.
ZIPF_EXPONENT = 1.1
#: Requests in one unit of ``serve-warm`` work (see :func:`repeats`), and
#: draws per generated sequence (the worker cycles through it if a run is
#: longer than a minute).
WARM_BLOCK = 1000
WARM_DRAWS = 40000

RELIABLE_POLICIES = ("fifo", "best-fit", "sjf")
RELIABLE_JOBS = 600
RELIABLE_RATE = 0.5

SLO_POLICIES = ("fifo", "best-fit", "sjf", "priority", "fair-share", "deadline-aware")
SLO_JOBS = 100
SLO_ROSTER = "batch:rate=0.4;prod:priority=2,deadline=strict,rate=0.1"
SLO_SLACK = 900.0
SLO_FAULTS = "preempt:0.002,straggler:0.002"
SLO_ELASTIC = "shrink"
SLO_PRICE_CURVE = "spot"

#: Distinct fleet workloads generated per run; one unit of fleet work
#: replays each of them once.
RELIABLE_FLEETS = 8
SLO_FLEETS = 24

#: Seconds one unit of fixed work takes at the reference host speed, and
#: the fewest units a run makes.  A unit is a pass over the whole grid on
#: ``plan-cold``, ``WARM_BLOCK`` requests on ``serve-warm`` and one replay
#: of every fleet on the fleets.
UNIT_SECONDS = {"plan-cold": 8.0, "serve-warm": 2.5, "fleet-reliable": 12.0, "fleet-slo": 15.0}
MIN_UNITS = {"plan-cold": 1, "serve-warm": 5, "fleet-reliable": 1, "fleet-slo": 1}


def plan_grid() -> List[dict]:
    """Every ``/v1/plan`` request body of the cross product, in axis order."""
    names = tuple(PLAN_AXES)
    return [
        dict(zip(names, values))
        for values in itertools.product(*(PLAN_AXES[name] for name in names))
    ]


def shuffled_grid(seed: int) -> List[dict]:
    """The plan grid in a seeded order."""
    grid = plan_grid()
    random.Random(f"plan-cold:{seed}").shuffle(grid)
    return grid


def zipf_sequence(seed: int, num_items: int, draws: int) -> List[int]:
    """``draws`` item indices, Zipf-skewed over a seeded popularity ranking."""
    rng = random.Random(f"serve-warm:{seed}")
    ranking = list(range(num_items))
    rng.shuffle(ranking)
    cum_weights = list(
        itertools.accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(num_items))
    )
    return rng.choices(ranking, cum_weights=cum_weights, k=draws)


def repeats(workload: str, seconds: float) -> int:
    """Units of fixed work a run of about ``seconds`` makes.

    The count depends on ``seconds`` only, never on how fast the host is,
    so every run of one seed and length does the same work.
    """
    return max(MIN_UNITS[workload], round(seconds / UNIT_SECONDS[workload]))


def fleet_seeds(workload: str, seed: int) -> List[int]:
    """Seeds of the distinct fleet workloads one run replays."""
    count = RELIABLE_FLEETS if workload == "fleet-reliable" else SLO_FLEETS
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def fleet_workloads(workload: str, seed: int) -> List[dict]:
    """Serialised :class:`repro.cluster.workload.Workload` documents."""
    from repro.cluster.workload import (
        parse_tenant_shorthand,
        poisson_workload,
        tenant_workload,
    )

    roster = parse_tenant_shorthand(SLO_ROSTER)

    def build(sub_seed: int):
        if workload == "fleet-reliable":
            return poisson_workload(RELIABLE_JOBS, RELIABLE_RATE, seed=sub_seed)
        return tenant_workload(roster, SLO_JOBS, seed=sub_seed, deadline_slack=SLO_SLACK)

    return [build(sub_seed).to_dict() for sub_seed in fleet_seeds(workload, seed)]


def make_inputs(workload: str, seed: int) -> Dict:
    """The JSON-ready input document one workload process receives."""
    if workload == "plan-cold":
        grid = shuffled_grid(seed)
        verify = random.Random(f"verify:{seed}").sample(range(len(grid)), VERIFY_SAMPLE)
        return {"grid": grid, "verify": sorted(verify)}
    if workload == "serve-warm":
        grid = plan_grid()
        return {"grid": grid, "sequence": zipf_sequence(seed, len(grid), WARM_DRAWS)}
    if workload == "fleet-reliable":
        return {
            "workloads": fleet_workloads(workload, seed),
            "policies": list(RELIABLE_POLICIES),
            "faults": None,
            "elastic": "restart",
            "price_curve": None,
            "fault_seeds": [0] * RELIABLE_FLEETS,
        }
    if workload == "fleet-slo":
        # One fault timeline per fleet, so a run averages over timelines.
        rng = random.Random(f"faults:{seed}")
        return {
            "workloads": fleet_workloads(workload, seed),
            "policies": list(SLO_POLICIES),
            "faults": SLO_FAULTS,
            "elastic": SLO_ELASTIC,
            "price_curve": SLO_PRICE_CURVE,
            "fault_seeds": [rng.randrange(2**31) for _ in range(SLO_FLEETS)],
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
