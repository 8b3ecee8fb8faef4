"""Canonical record keying for the experiment store.

Every store record is addressed by the SHA-256 of a *canonical JSON*
rendering of its key payload — a plain dict naming everything that
determines the record's value (experiment cell, strategy, simulated step
count, seed, and for fleet probes the placement policy and cluster shape).
Canonicalisation (sorted keys, compact separators, no NaN) guarantees the
same logical key always hashes to the same address regardless of dict
insertion order or the process that produced it, which is what lets
``inline`` and ``process`` backends — and entirely separate
OS processes — share one store without coordination.

The key payload also embeds the record ``kind`` (``"run"``,
``"estimate"``, ``"throughput"``, ``"goodput"``, ``"slo"``) and the store
schema version, so a schema bump re-addresses every record instead of
serving stale shapes.

Documented in ``docs/CACHING.md`` (keying scheme).
"""

from __future__ import annotations

import hashlib
import json
from typing import Tuple

from repro.core.config import ExperimentConfig
from repro.version import __version__

#: Version of the record schema; bumped when record payload shapes change.
SCHEMA_VERSION = 1


def canonical_json(payload: dict) -> str:
    """Deterministic JSON rendering: sorted keys, compact, NaN-free.

    Example:
        >>> from repro.store.keys import canonical_json
        >>> canonical_json({"b": 1, "a": [2, 3]})
        '{"a":[2,3],"b":1}'
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def content_key(kind: str, payload: dict) -> str:
    """SHA-256 address of a record: hash of (lib, schema, kind, key payload).

    The library version participates in the address: stored results are
    simulation outputs, and a release that refines the cost or simulation
    model must re-address every record rather than silently serve numbers
    the current library would no longer produce.  A version bump therefore
    cold-starts the cache — deliberately trading retention for the
    guarantee that a warm hit is always bit-identical to a fresh run.

    Example:
        >>> from repro.store.keys import content_key
        >>> a = content_key("run", {"x": 1, "y": 2})
        >>> b = content_key("run", {"y": 2, "x": 1})
        >>> (a == b, len(a))
        (True, 64)
    """
    envelope = {
        "lib": __version__,
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "key": payload,
    }
    return hashlib.sha256(canonical_json(envelope).encode("utf-8")).hexdigest()


def run_key(config: ExperimentConfig, strategy: str) -> dict:
    """Key payload for one simulated (cell, strategy, steps, seed) run."""
    return {
        "task": config.task,
        "dataset": config.dataset,
        "server": config.server,
        "num_gpus": config.num_gpus,
        "batch_size": config.batch_size,
        "strategy": strategy,
        "simulated_steps": config.simulated_steps,
        "seed": config.seed,
    }


def estimate_key(cell_signature: Tuple) -> dict:
    """Key payload for an analytic (simulation-free) epoch-time estimate."""
    task, dataset, server, num_gpus, batch_size, strategy = cell_signature
    return {
        "task": task,
        "dataset": dataset,
        "server": server,
        "num_gpus": num_gpus,
        "batch_size": batch_size,
        "strategy": strategy,
    }


def probe_key(
    cell_signature: Tuple,
    steps: int,
    jobs: int,
    policy: str,
    cluster_dict: dict,
    scenario: dict,
) -> dict:
    """Key payload for a fleet probe (throughput, goodput or SLO).

    The cluster participates as its full serialised shape, not its name —
    two candidate fleets may share a (default) name yet differ in nodes.
    ``scenario`` holds everything else that changes the probed fleet: empty
    for a throughput probe; the fault spec, elastic policy, fault seed and
    recovery parameters for a goodput probe; the tenant roster (order
    preserved — tenant order seeds the per-tenant arrival streams), price
    curve and deadline slack for an SLO probe.  Two probes differing in any
    of these are different records.
    """
    payload = estimate_key(cell_signature)
    payload.update(
        {
            "simulated_steps": steps,
            "throughput_jobs": jobs,
            "policy": policy,
            "cluster": cluster_dict,
        }
    )
    payload.update(scenario)
    return payload
