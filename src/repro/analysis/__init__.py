"""Post-processing: breakdowns, speedups, memory, schedules, cache analytics."""

from repro.lazy import lazy_exports

#: Each name is imported on first access: a command that needs one report
#: does not load the others.
__getattr__, __dir__ = lazy_exports(
    globals(),
    (
        (
            "repro.analysis.breakdown",
            ("epoch_breakdown", "ideal_breakdown", "breakdown_fractions"),
        ),
        (
            "repro.analysis.speedup",
            ("speedup_over", "geometric_mean_speedup"),
        ),
        (
            "repro.analysis.memory_report",
            ("per_rank_memory_gb", "average_memory_overhead"),
        ),
        ("repro.analysis.schedule_viz", ("render_gantt", "schedule_summary")),
        (
            "repro.analysis.sweep",
            (
                "sweep_crossover_batch",
                "format_sweep_table",
                "format_best_cells",
            ),
        ),
        (
            "repro.analysis.cluster_report",
            (
                "ClusterReport",
                "JobRecord",
                "compare_policies",
                "format_cluster_report",
                "percentile",
            ),
        ),
        (
            "repro.analysis.store_report",
            (
                "format_session_stats",
                "format_store_overview",
                "store_overview",
                "warm_cold_summary",
            ),
        ),
        (
            "repro.analysis.pareto",
            (
                "assert_frontier_consistent",
                "dominated_fraction",
                "format_frontier_table",
                "format_tune_summary",
                "frontier_points",
                "frontier_series",
                "hypervolume_2d",
                "load_tune_result",
            ),
        ),
    ),
)

__all__ = [
    "epoch_breakdown",
    "ideal_breakdown",
    "breakdown_fractions",
    "speedup_over",
    "geometric_mean_speedup",
    "per_rank_memory_gb",
    "average_memory_overhead",
    "render_gantt",
    "schedule_summary",
    "sweep_crossover_batch",
    "format_sweep_table",
    "format_best_cells",
    "ClusterReport",
    "JobRecord",
    "compare_policies",
    "format_cluster_report",
    "percentile",
    "format_session_stats",
    "format_store_overview",
    "store_overview",
    "warm_cold_summary",
    "assert_frontier_consistent",
    "dominated_fraction",
    "format_frontier_table",
    "format_tune_summary",
    "frontier_points",
    "frontier_series",
    "hypervolume_2d",
    "load_tune_result",
]
