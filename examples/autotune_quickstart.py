"""Autotuner walkthrough: find the best Pipe-BD configuration automatically.

Instead of hand-enumerating sweep grids, describe the search space and let
``repro.tune.tune`` find the best (strategy, batch, GPU count, server) cell for
an objective — here minimum epoch time, then minimum cost under a deadline.
Run with ``PYTHONPATH=src python examples/autotune_quickstart.py``.
Full guide: ``docs/TUNING.md``.
"""

from repro import Session, TuneSpace
from repro.analysis.pareto import (
    format_frontier_table,
    format_tune_summary,
    frontier_series,
)
from repro.tune import tune
from repro.tune.objective import MinCostUnderDeadline


def main() -> None:
    session = Session()

    # 1. Describe the search space: every strategy, three batch sizes, both
    #    GPU counts, both server presets -> 72 candidates.
    space = TuneSpace(
        batch_sizes=(128, 256, 512),
        gpu_counts=(2, 4),
        servers=("a6000", "2080ti"),
    )
    print(f"search space: {len(space)} candidates")

    # 2. Tune for minimum epoch time with a 32-simulation budget.  The
    #    successive-halving driver ranks everything with free analytic
    #    estimates and only simulates the survivors.
    result = tune(space, session=session, objective="epoch_time", budget=32)
    print()
    print(format_tune_summary(result))
    print()
    print(format_frontier_table(result))

    # 3. The frontier answers "how much hardware buys how much speed":
    print()
    for gpus, epoch_time in sorted(frontier_series(result).items()):
        print(f"  best with {int(gpus)} GPUs: {epoch_time:.2f}s/epoch")

    # 4. Same space, different question: the cheapest configuration that
    #    still finishes an epoch within 12 simulated seconds.
    budget_result = tune(
        space,
        session=session,
        objective=MinCostUnderDeadline(deadline=12.0),
        budget=32,
    )
    best = budget_result.best
    print()
    print(
        f"cheapest under 12s deadline: {best.point.label()} "
        f"(${best.cost:.4f}/epoch, {best.epoch_time:.2f}s/epoch)"
    )

    # 5. Everything above reused one Session: the second tune hit the
    #    caches the first one filled.
    stats = session.stats
    print()
    print(
        f"session: {stats.runs} simulations, profile cache hit rate "
        f"{stats.hit_rate('profile') * 100:.0f}%"
    )


if __name__ == "__main__":
    main()
