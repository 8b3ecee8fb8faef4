"""Shared data-loading cost model.

Combines a :class:`~repro.data.dataset.DatasetSpec` with a
:class:`~repro.hardware.host.HostSpec` to answer the single question the
schedulers need: *how long does it take to produce one batch on the GPU,
given how many training processes are loading concurrently?*

Two terms compete for each batch:

* an I/O term — the larger of the on-disk and decoded byte volume pushed
  through the host's storage/copy pipeline; and
* a CPU term — per-sample decode + augmentation work spread over the host's
  cores.

Both are shared system-wide, so concurrent loaders (the DP and LS baselines
run one loader per training process) divide the available throughput — this
is the "extra data loading" overhead of §I that teacher relaying removes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.dataset import DatasetSpec
from repro.errors import ConfigurationError
from repro.hardware.host import HostSpec


@dataclass(frozen=True)
class DataLoadModel:
    """Batch-loading time estimates for one (dataset, host) pair."""

    dataset: DatasetSpec
    host: HostSpec

    def batch_bytes(self, batch_size: int) -> float:
        """Bytes the loader pipeline must move for one batch."""
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        decoded = self.dataset.batch_decoded_bytes(batch_size)
        on_disk = self.dataset.disk_bytes_per_sample * batch_size
        return max(decoded, on_disk)

    def batch_cpu_time(self, batch_size: int) -> float:
        """CPU decode/augment time for one batch using every host core."""
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        return batch_size * self.dataset.per_sample_decode_cpu_s / self.host.num_cores

    def batch_load_time(self, batch_size: int, concurrent_loaders: int = 1) -> float:
        """Time to produce one batch with ``concurrent_loaders`` active.

        The I/O and CPU pipelines run in parallel with each other, so the
        batch time is the larger of the two, plus a fixed per-batch overhead.
        Concurrent loaders divide both shared resources.
        """
        if concurrent_loaders < 1:
            raise ConfigurationError("concurrent_loaders must be >= 1")
        io_time = self.batch_bytes(batch_size) / self.host.loader_throughput
        cpu_time = self.batch_cpu_time(batch_size)
        return self.host.per_batch_overhead_s + concurrent_loaders * max(io_time, cpu_time)

    def describe(self) -> str:
        return f"loader({self.dataset.name} on {self.host.name})"
