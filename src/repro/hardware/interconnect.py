"""PCIe interconnect model: point-to-point transfers and all-reduce.

Teacher relaying sends intermediate activations device-to-device over PCIe
(the paper notes the overhead is "almost negligible" on a single node and
largely overlapped with compute — we still model it so the claim can be
checked).  Data-parallel strategies additionally perform ring all-reduce of
student gradients after every backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class InterconnectSpec:
    """A symmetric device-to-device interconnect.

    Attributes
    ----------
    name:
        e.g. ``"PCIe 4.0 x16"``.
    bandwidth_gbs:
        Effective unidirectional bandwidth per link in GB/s (already
        discounted for protocol overhead).
    latency_s:
        Fixed per-transfer latency in seconds (driver + DMA setup).
    """

    name: str
    bandwidth_gbs: float
    latency_s: float = 20e-6

    def __post_init__(self) -> None:
        if self.bandwidth_gbs <= 0:
            raise ConfigurationError(f"interconnect {self.name!r} has non-positive bandwidth")
        if self.latency_s < 0:
            raise ConfigurationError("latency must be non-negative")

    @property
    def bandwidth(self) -> float:
        """Bandwidth in bytes/s."""
        return self.bandwidth_gbs * 1e9

    def transfer_time(self, num_bytes: float) -> float:
        """Time to move ``num_bytes`` point-to-point between two devices."""
        if num_bytes < 0:
            raise ConfigurationError(f"num_bytes must be non-negative, got {num_bytes}")
        if num_bytes == 0:
            return 0.0
        return self.latency_s + num_bytes / self.bandwidth

    def allreduce_time(self, num_bytes: float, num_devices: int) -> float:
        """Ring all-reduce time for ``num_bytes`` across ``num_devices``.

        The standard ring algorithm moves ``2 * (n - 1) / n`` times the buffer
        per device, in ``2 * (n - 1)`` latency-bound steps.
        """
        if num_devices < 1:
            raise ConfigurationError(f"num_devices must be >= 1, got {num_devices}")
        if num_devices == 1 or num_bytes == 0:
            return 0.0
        volume = 2.0 * (num_devices - 1) / num_devices * num_bytes
        return 2.0 * (num_devices - 1) * self.latency_s + volume / self.bandwidth

    def describe(self) -> str:
        return f"{self.name}: {self.bandwidth_gbs:.1f} GB/s, {self.latency_s * 1e6:.0f} us latency"


#: PCIe 4.0 x16 — ~32 GB/s theoretical, ~25 GB/s effective.
PCIE_4 = InterconnectSpec(name="PCIe 4.0 x16", bandwidth_gbs=25.0)

#: PCIe 3.0 x16 — ~16 GB/s theoretical, ~12 GB/s effective.
PCIE_3 = InterconnectSpec(name="PCIe 3.0 x16", bandwidth_gbs=12.0)
