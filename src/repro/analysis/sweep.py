"""Report helpers over :class:`~repro.core.session.SweepResult` grids.

The series the paper's sensitivity figures plot come from the sweep itself:
``SweepResult.series`` gives batch-size sensitivity (Fig. 6) and GPU-count
scaling (the extras ablation), ``SweepResult.speedup_table`` the per-cell
speedups (Figs. 4/5a generalised to arbitrary grids).  This module adds the
crossover search and the fixed-width tables.
"""

from __future__ import annotations

from repro.analysis.speedup import crossover_batch
from repro.core.reporting import format_table
from repro.core.session import SweepResult
from repro.errors import ConfigurationError


def sweep_crossover_batch(
    sweep: SweepResult, strategy_a: str, strategy_b: str, baseline: str = "DP"
) -> int | None:
    """Smallest swept batch size at which strategy B overtakes strategy A."""
    return crossover_batch(
        sweep.series(strategy_a, axis="batch_size", baseline=baseline),
        sweep.series(strategy_b, axis="batch_size", baseline=baseline),
    )


def format_sweep_table(sweep: SweepResult, baseline: str = "DP") -> str:
    """Fixed-width speedup table: one row per cell, one column per strategy."""
    if not sweep.cells:
        raise ConfigurationError("sweep produced no cells")
    strategies = list(sweep.strategies)
    headers = ["cell"] + strategies
    rows = []
    for cell in sweep.cells:
        speedups = cell.speedups(baseline)
        rows.append(
            [cell.config.cell_label()]
            + [f"{speedups[strategy]:.2f}x" for strategy in strategies]
        )
    title = f"Speedup over {baseline} across {len(sweep.cells)} cells"
    return f"{title}\n{format_table(headers, rows)}"


def format_best_cells(sweep: SweepResult) -> str:
    """Table of the fastest strategy (and its epoch time) in every cell."""
    rows = []
    for cell in sweep.cells:
        strategy = min(cell.results, key=lambda name: cell.results[name].epoch_time)
        rows.append(
            [cell.config.cell_label(), strategy, f"{cell.results[strategy].epoch_time:.2f}s"]
        )
    return format_table(["cell", "fastest strategy", "epoch time"], rows)
