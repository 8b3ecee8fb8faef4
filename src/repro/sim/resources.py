"""Resource naming conventions for the simulator.

Resources are identified by strings so the engine stays generic:

* ``"gpu{i}:compute"`` — the single compute stream of device ``i``.
* ``"link:{src}->{dst}"`` — the point-to-point channel from ``src`` to ``dst``.
* ``"host:loader"`` — the shared CPU/disk data-loading pipeline.
* ``"collective:{tag}"`` — a virtual resource serialising a collective
  (all-reduce) among a device group.
"""

from __future__ import annotations

from repro.errors import SimulationError


def device_compute(device_id: int) -> str:
    """Compute-stream resource of one GPU."""
    if device_id < 0:
        raise SimulationError(f"device id must be non-negative, got {device_id}")
    return f"gpu{device_id}:compute"


def device_link(src: int, dst: int) -> str:
    """Point-to-point channel between two GPUs."""
    if src < 0 or dst < 0:
        raise SimulationError(f"device ids must be non-negative, got {src}->{dst}")
    if src == dst:
        raise SimulationError(f"link endpoints must differ, got {src}->{dst}")
    return f"link:{src}->{dst}"


def host_loader() -> str:
    """The shared host data-loading pipeline."""
    return "host:loader"


def collective(tag: str) -> str:
    """A virtual resource serialising one collective group."""
    return f"collective:{tag}"


def is_compute_resource(resource: str) -> bool:
    """True if the resource is a GPU compute stream."""
    return resource.startswith("gpu") and resource.endswith(":compute")


def parse_device(resource: str) -> int:
    """Extract the device id from a compute-stream resource name."""
    if not is_compute_resource(resource):
        raise SimulationError(f"{resource!r} is not a device compute resource")
    return int(resource[len("gpu") : -len(":compute")])
