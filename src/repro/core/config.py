"""Experiment configuration objects.

An :class:`ExperimentConfig` captures one cell of the paper's evaluation
matrix — a workload (NAS or compression), a dataset (CIFAR-10 or ImageNet), a
server (4x A6000 or 4x 2080Ti), a global batch size and a scheduling
strategy — and knows how to materialise the model pair, dataset descriptor
and server spec it refers to.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.data.dataset import DatasetSpec, get_dataset
from repro.errors import ConfigurationError
from repro.hardware.server import ServerSpec, get_server
from repro.models.pairs import DistillationPair, build_pair
from repro.parallel.executor import MIN_SIMULATED_STEPS
from repro.parallel.registry import REGISTRY

#: Tasks the paper evaluates (§VI-A).
VALID_TASKS: Tuple[str, ...] = ("nas", "compression")
#: Datasets the paper evaluates (§VI-B).
VALID_DATASETS: Tuple[str, ...] = ("cifar10", "imagenet")
#: Server presets the paper evaluates (Table I).
VALID_SERVERS: Tuple[str, ...] = ("a6000", "2080ti")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell of the evaluation matrix."""

    task: str = "nas"
    dataset: str = "cifar10"
    server: str = "a6000"
    num_gpus: int = 4
    batch_size: int = 256
    strategy: str = "TR+DPU+AHD"
    simulated_steps: int = 10
    seed: int = 0
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.task not in VALID_TASKS:
            raise ConfigurationError(f"task must be one of {VALID_TASKS}, got {self.task!r}")
        if self.dataset not in VALID_DATASETS:
            raise ConfigurationError(
                f"dataset must be one of {VALID_DATASETS}, got {self.dataset!r}"
            )
        if self.server not in VALID_SERVERS:
            raise ConfigurationError(
                f"server must be one of {VALID_SERVERS}, got {self.server!r}"
            )
        if self.num_gpus < 1:
            raise ConfigurationError("num_gpus must be >= 1")
        if self.batch_size < self.num_gpus:
            raise ConfigurationError(
                f"batch_size ({self.batch_size}) must be >= num_gpus ({self.num_gpus})"
            )
        if self.simulated_steps < MIN_SIMULATED_STEPS:
            raise ConfigurationError(f"simulated_steps must be >= {MIN_SIMULATED_STEPS}")
        if self.strategy not in REGISTRY:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; registered strategies: "
                f"{REGISTRY.names()} (register custom strategies with "
                "repro.parallel.registry.register_strategy before building configs)"
            )

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #
    def build_pair(self) -> DistillationPair:
        """Teacher/student pair for this cell."""
        return build_pair(self.task, self.dataset)

    def build_server(self) -> ServerSpec:
        """Server spec for this cell."""
        return get_server(self.server, self.num_gpus)

    def build_dataset(self) -> DatasetSpec:
        """Dataset descriptor for this cell."""
        return get_dataset(self.dataset)

    # ------------------------------------------------------------------ #
    def with_strategy(self, strategy: str) -> "ExperimentConfig":
        """A copy of this config with a different scheduling strategy."""
        return replace(self, strategy=strategy)

    def with_batch_size(self, batch_size: int) -> "ExperimentConfig":
        """A copy of this config with a different global batch size."""
        return replace(self, batch_size=batch_size)

    def with_server(self, server: str, num_gpus: int | None = None) -> "ExperimentConfig":
        """A copy of this config targeting a different server preset.

        ``num_gpus=None`` keeps the current GPU count; any explicit value —
        including an invalid one such as ``0`` — is passed through to
        validation rather than silently ignored.
        """
        if num_gpus is None:
            num_gpus = self.num_gpus
        elif num_gpus < 1:
            raise ConfigurationError(
                f"num_gpus must be >= 1, got {num_gpus}; pass num_gpus=None to "
                "keep the current count"
            )
        return replace(self, server=server, num_gpus=num_gpus)

    def label(self) -> str:
        """Short label used in reports, e.g. ``"nas/cifar10/a6000/b256"``."""
        return f"{self.task}/{self.dataset}/{self.server}/b{self.batch_size}"

    def cell_label(self) -> str:
        """Unambiguous cell label including the GPU count (sweep reports)."""
        return f"{self.task}/{self.dataset}/{self.server}x{self.num_gpus}/b{self.batch_size}"

    def cell_key(self) -> Tuple[str, str, str, int, int]:
        """Hashable identity of the cell (ignores strategy and step count)."""
        return (self.task, self.dataset, self.server, self.num_gpus, self.batch_size)

    def to_dict(self) -> dict:
        """JSON-serialisable view of the config."""
        return {
            "task": self.task,
            "dataset": self.dataset,
            "server": self.server,
            "num_gpus": self.num_gpus,
            "batch_size": self.batch_size,
            "strategy": self.strategy,
            "simulated_steps": self.simulated_steps,
            "seed": self.seed,
        }
