"""The Pipe-BD framework: configuration, planning (Algorithm 1) and sessions."""

from repro.core.config import ExperimentConfig
from repro.core.ablation import PIPE_BD_STRATEGY, build_plan
from repro.core.pipebd import PipeBD
from repro.core.session import ExperimentSuiteResult, Session, SweepResult

__all__ = [
    "ExperimentConfig",
    "PIPE_BD_STRATEGY",
    "build_plan",
    "PipeBD",
    "Session",
    "SweepResult",
    "ExperimentSuiteResult",
]
