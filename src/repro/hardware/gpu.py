"""GPU device specifications and utilization (efficiency) curves.

The paper's central throughput argument is about *utilization*: with
data-parallel blockwise distillation each GPU sees only ``batch / N`` samples
per step, which is "often too small to fully utilize the hardware resources"
(§IV-A).  Utilization is fundamentally a property of how much parallel work a
kernel exposes, so we model the achieved fraction of peak throughput as a
saturating function of the *work per kernel launch*:

    efficiency(work) = max_eff * work / (work + half_saturation_work)

A convolution over 224x224 ImageNet feature maps exposes enough parallelism
to saturate an A6000 even at a per-device batch of 64, whereas the same layer
on 32x32 CIFAR-10 inputs does not — which is exactly why the paper's speedups
over the data-parallel baseline are larger on CIFAR-10 and at small batch
sizes (Fig. 6), and why the A6000 (more SMs to fill than a 2080Ti) shows a
larger imbalance between the heavy first block and the rest (Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Per-op efficiency caps relative to peak FP32 throughput.  Depthwise convs
#: and element-wise ops are memory-bound and achieve far less of the peak.
DEFAULT_OP_EFFICIENCY = {
    "conv": 0.85,
    "mixed": 0.85,
    "linear": 0.70,
    "dwconv": 0.30,
    "bn": 0.15,
    "relu": 0.15,
    "pool": 0.20,
    "add": 0.15,
    "reshape": 0.10,
}


@dataclass(frozen=True)
class GPUSpec:
    """Analytical model of one GPU.

    Attributes
    ----------
    name:
        Marketing name (``"RTX A6000"``).
    peak_fp32_tflops:
        Peak single-precision throughput in TFLOP/s.
    mem_bandwidth_gbs:
        Peak device-memory bandwidth in GB/s.
    mem_capacity_gb:
        Device memory capacity in GB.
    half_saturation_gmacs:
        Kernel work (in giga-MACs) at which the utilization curve reaches half
        of ``max_efficiency``.  Bigger GPUs need more work per kernel to fill
        their SMs, so this grows with the SM count.
    max_efficiency:
        Asymptotic fraction of peak throughput achievable by well-shaped kernels.
    kernel_launch_overhead_s:
        Fixed per-layer kernel-launch/dispatch overhead in seconds.
    """

    name: str
    peak_fp32_tflops: float
    mem_bandwidth_gbs: float
    mem_capacity_gb: float
    half_saturation_gmacs: float = 0.5
    max_efficiency: float = 0.75
    kernel_launch_overhead_s: float = 8e-6
    op_efficiency: dict = field(default_factory=lambda: dict(DEFAULT_OP_EFFICIENCY))

    def __post_init__(self) -> None:
        if self.peak_fp32_tflops <= 0 or self.mem_bandwidth_gbs <= 0:
            raise ConfigurationError(f"GPU {self.name!r} has non-positive throughput")
        if not 0 < self.max_efficiency <= 1:
            raise ConfigurationError("max_efficiency must be in (0, 1]")
        if self.half_saturation_gmacs <= 0:
            raise ConfigurationError("half_saturation_gmacs must be positive")

    # ------------------------------------------------------------------ #
    @property
    def peak_flops(self) -> float:
        """Peak FLOP/s."""
        return self.peak_fp32_tflops * 1e12

    @property
    def mem_bandwidth(self) -> float:
        """Memory bandwidth in bytes/s."""
        return self.mem_bandwidth_gbs * 1e9

    @property
    def mem_capacity_bytes(self) -> int:
        return int(self.mem_capacity_gb * 1e9)

    @property
    def half_saturation_macs(self) -> float:
        """Half-saturation work in MACs."""
        return self.half_saturation_gmacs * 1e9

    def work_efficiency(self, macs: float) -> float:
        """Fraction of peak throughput achieved by a kernel doing ``macs`` work.

        Monotonically increasing and saturating at ``max_efficiency``; zero
        work has zero efficiency.
        """
        if macs < 0:
            raise ConfigurationError(f"macs must be non-negative, got {macs}")
        if macs == 0:
            return 0.0
        return self.max_efficiency * macs / (macs + self.half_saturation_macs)

    def batch_efficiency(self, batch: int, macs_per_sample: float = 5e6) -> float:
        """Convenience wrapper: efficiency of a kernel at a given batch size.

        ``macs_per_sample`` defaults to a typical CIFAR-scale layer; callers
        with real layer specs should prefer :meth:`work_efficiency` directly.
        """
        if batch < 0:
            raise ConfigurationError(f"batch must be non-negative, got {batch}")
        return self.work_efficiency(batch * macs_per_sample)

    def describe(self) -> str:
        return (
            f"{self.name}: {self.peak_fp32_tflops:.1f} TFLOP/s, "
            f"{self.mem_bandwidth_gbs:.0f} GB/s, {self.mem_capacity_gb:.0f} GB"
        )


#: NVIDIA RTX A6000 (Ampere): 38.7 TFLOP/s FP32, 768 GB/s GDDR6, 48 GB, 84 SMs.
RTX_A6000 = GPUSpec(
    name="RTX A6000",
    peak_fp32_tflops=38.7,
    mem_bandwidth_gbs=768.0,
    mem_capacity_gb=48.0,
    half_saturation_gmacs=1.0,
    max_efficiency=0.78,
)

#: NVIDIA RTX 2080Ti (Turing): 13.45 TFLOP/s FP32, 616 GB/s GDDR6, 11 GB, 68 SMs.
RTX_2080TI = GPUSpec(
    name="RTX 2080Ti",
    peak_fp32_tflops=13.45,
    mem_bandwidth_gbs=616.0,
    mem_capacity_gb=11.0,
    half_saturation_gmacs=0.35,
    max_efficiency=0.72,
)

_KNOWN_GPUS = {
    "a6000": RTX_A6000,
    "rtx a6000": RTX_A6000,
    "2080ti": RTX_2080TI,
    "rtx 2080ti": RTX_2080TI,
}


def get_gpu(name: str) -> GPUSpec:
    """Look up a GPU preset by (case-insensitive) name."""
    key = name.lower()
    if key not in _KNOWN_GPUS:
        raise ConfigurationError(
            f"unknown GPU {name!r}; known presets: {sorted(set(_KNOWN_GPUS))}"
        )
    return _KNOWN_GPUS[key]
