"""The Pipe-BD framework: configuration, planning (Algorithm 1) and sessions."""

from repro.lazy import lazy_exports

#: Each name is imported on first access, so ``repro.core.config`` loads
#: without the session (which needs the store, which needs the config).
__getattr__, __dir__ = lazy_exports(
    globals(),
    (
        ("repro.core.config", ("ExperimentConfig",)),
        ("repro.core.pipebd", ("PipeBD",)),
        ("repro.core.session", ("ExperimentSuiteResult", "Session", "SweepResult")),
    ),
)

__all__ = [
    "ExperimentConfig",
    "PipeBD",
    "Session",
    "SweepResult",
    "ExperimentSuiteResult",
]
