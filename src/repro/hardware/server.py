"""Server presets combining GPUs, interconnect and host (paper Table I)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.hardware.cost_model import CostModel
from repro.hardware.gpu import GPUSpec, RTX_2080TI, RTX_A6000
from repro.hardware.host import HostSpec, EPYC_7302, XEON_4214_DUAL
from repro.hardware.interconnect import InterconnectSpec, PCIE_3, PCIE_4
from repro.hardware.memory import MemoryModel

#: Most GPUs a simulated server may have, checked wherever the minimum of
#: one is.  Planning work grows steeply with the count: a default
#: ``/v1/plan`` body takes about 0.04 s at 16 GPUs, 0.7 s at 32, 7 s at 48
#: and 32 s at 64, all of it under the service's session lock.
MAX_GPUS = 32


@dataclass(frozen=True)
class ServerSpec:
    """A single-node multi-GPU training server."""

    name: str
    gpus: Tuple[GPUSpec, ...]
    interconnect: InterconnectSpec
    host: HostSpec
    memory_model: MemoryModel = field(default_factory=MemoryModel)
    _cost_models: Dict[int, CostModel] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.gpus:
            raise ConfigurationError(f"server {self.name!r} has no GPUs")

    # ------------------------------------------------------------------ #
    @property
    def num_devices(self) -> int:
        return len(self.gpus)

    def gpu(self, device_id: int) -> GPUSpec:
        if device_id < 0 or device_id >= len(self.gpus):
            raise ConfigurationError(
                f"device id {device_id} out of range [0, {len(self.gpus)})"
            )
        return self.gpus[device_id]

    def cost_model(self, device_id: int = 0) -> CostModel:
        """Cost model for a device (all presets are homogeneous).

        The instance is cached per device so its block-time memo (see
        :class:`~repro.hardware.cost_model.CostModel`) survives across the
        many short-lived callers that re-request a model for one estimate.
        """
        cached = self._cost_models.get(device_id)
        if cached is None:
            cached = CostModel(gpu=self.gpu(device_id))
            self._cost_models[device_id] = cached
        return cached

    def describe(self) -> str:
        gpu_names = ", ".join(gpu.name for gpu in self.gpus)
        return (
            f"{self.name}: {self.num_devices}x [{gpu_names}] over "
            f"{self.interconnect.name}, host {self.host.name}"
        )


def default_a6000_server(num_gpus: int = 4) -> ServerSpec:
    """The paper's default environment: 4x RTX A6000, PCIe 4.0, EPYC 7302."""
    _check_num_gpus(num_gpus)
    return ServerSpec(
        name=f"{num_gpus}x RTX A6000 server",
        gpus=tuple([RTX_A6000] * num_gpus),
        interconnect=PCIE_4,
        host=EPYC_7302,
    )


def alternative_2080ti_server(num_gpus: int = 4) -> ServerSpec:
    """The paper's alternative environment: 4x RTX 2080Ti, PCIe 3.0, 2x Xeon."""
    _check_num_gpus(num_gpus)
    return ServerSpec(
        name=f"{num_gpus}x RTX 2080Ti server",
        gpus=tuple([RTX_2080TI] * num_gpus),
        interconnect=PCIE_3,
        host=XEON_4214_DUAL,
    )


def get_server(name: str, num_gpus: int = 4) -> ServerSpec:
    """Look up a server preset by name (``"a6000"`` or ``"2080ti"``)."""
    key = name.lower()
    if key in ("a6000", "default"):
        return default_a6000_server(num_gpus)
    if key in ("2080ti", "alternative"):
        return alternative_2080ti_server(num_gpus)
    raise ConfigurationError(
        f"unknown server {name!r}; known presets: 'a6000', '2080ti'"
    )


def _check_num_gpus(num_gpus: int) -> None:
    if num_gpus < 1:
        raise ConfigurationError(f"num_gpus must be >= 1, got {num_gpus}")
    if num_gpus > MAX_GPUS:
        raise ConfigurationError(f"num_gpus must be <= {MAX_GPUS} (MAX_GPUS), got {num_gpus}")
