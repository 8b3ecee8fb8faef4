"""Warm/cold cache analytics: how much work the store and session saved.

The sweep, cluster and tune consumers all answer the same capacity
question — *of the work this command implied, how much was actually
simulated and how much was replayed from a cache?*  This module turns the
:class:`~repro.core.session.SessionStats` counters and a persistent
:class:`~repro.store.store.ExperimentStore`'s stats into that answer:

* :func:`warm_cold_summary` — one dict: simulations performed vs results
  hydrated from the store, with the warm fraction;
* :func:`store_overview` — store-level aggregates plus a per-record-kind
  breakdown (``run`` / ``estimate`` / ``throughput``);
* :func:`format_session_stats` / :func:`format_store_overview` — the
  fixed-width tables ``python -m repro cache stats`` and ``--table``
  consumers print.

Documented in ``docs/CACHING.md`` (observability section).
"""

from __future__ import annotations

from repro.core.reporting import format_table
from repro.core.session import Session, SessionStats
from repro.store.store import ExperimentStore


def warm_cold_summary(session: Session) -> dict:
    """Simulations vs store replays for one session, with the warm fraction.

    Example:
        >>> from repro.analysis.store_report import warm_cold_summary
        >>> from repro import ExperimentConfig, Session
        >>> session = Session()
        >>> _ = session.run(ExperimentConfig(batch_size=128, simulated_steps=4))
        >>> summary = warm_cold_summary(session)
        >>> (summary["simulations"], summary["warm_fraction"])
        (1, 0.0)
    """
    stats = session.stats
    total = stats.runs + stats.store_hits
    return {
        "simulations": stats.runs,
        "store_hits": stats.store_hits,
        "store_builds": stats.store_builds,
        "warm_fraction": stats.store_hits / total if total else 0.0,
        "has_store": session.store is not None,
    }


def request_warm_cold(delta: dict) -> dict:
    """Per-request hydration accounting from a :meth:`SessionStats.delta`.

    The serve layer takes the change of the session's ``runs``,
    ``store_hits`` and ``store_builds`` counters over each HTTP request and
    embeds this summary as ``meta.request`` in the response, making "this
    query performed zero simulations" observable by the caller.

    Example:
        >>> from repro.analysis.store_report import request_warm_cold
        >>> request_warm_cold({"runs": 0, "store_hits": 3, "store_builds": 0})
        {'simulations': 0, 'store_hits': 3, 'store_builds': 0, 'warm': True}
    """
    simulations = delta.get("runs", 0)
    return {
        "simulations": simulations,
        "store_hits": delta.get("store_hits", 0),
        "store_builds": delta.get("store_builds", 0),
        "warm": simulations == 0,
    }


def store_overview(store: ExperimentStore) -> dict:
    """Store stats plus a per-record-kind count breakdown (one record walk)."""
    return store.overview()


def format_session_stats(stats: SessionStats) -> str:
    """Per-cache build/hit/hit-rate table for one session.

    Example:
        >>> from repro.analysis.store_report import format_session_stats
        >>> from repro.core.session import SessionStats
        >>> print(format_session_stats(SessionStats(profile_builds=1,
        ...                                         profile_hits=3)).splitlines()[0])
        Session caches (1 simulation(s) performed)
    """
    rows = []
    for cache in SessionStats.CACHES:
        builds = getattr(stats, f"{cache}_builds")
        hits = getattr(stats, f"{cache}_hits")
        rows.append([cache, str(builds), str(hits), f"{stats.hit_rate(cache):.2f}"])
    table = format_table(["cache", "builds", "hits", "hit rate"], rows)
    return f"Session caches ({stats.runs} simulation(s) performed)\n{table}"


def format_store_overview(store: ExperimentStore) -> str:
    """Human-readable ``cache stats`` report for one store."""
    overview = store_overview(store)
    stats = overview["stats"]
    rows = [
        ["records", str(stats["records"])],
        ["disk bytes", str(stats["disk_bytes"])],
        ["hits (this handle)", str(stats["hits"])],
        ["misses (this handle)", str(stats["misses"])],
        ["hit rate", f"{stats['hit_rate']:.2f}"],
    ]
    for kind, count in overview["records_by_kind"].items():
        rows.append([f"kind:{kind}", str(count)])
    table = format_table(["metric", "value"], rows)
    return f"Experiment store at {overview['root']}\n{table}"
