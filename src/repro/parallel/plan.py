"""Schedule plan representation shared by every strategy.

A plan describes *where* each block runs and *how* the batch is split, not
*when* things happen — the executor and the simulator derive the timing.
Three plan kinds cover all six strategies:

* ``"pipeline"`` — blocks are partitioned into contiguous stages, each stage
  owned by a group of devices that split the batch among themselves (TR,
  TR+DPU, TR+DPU+AHD, and IR as the single-stage degenerate case).
* ``"data_parallel"`` — the DP baseline: every device trains every block
  sequentially with the batch split across devices.
* ``"layerwise"`` — the LS baseline: blocks are bin-packed onto devices; each
  device trains its blocks with the full batch and no communication.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import ScheduleError

PLAN_KINDS = ("pipeline", "data_parallel", "layerwise")


@dataclass(frozen=True)
class StageAssignment:
    """One pipeline stage: a contiguous run of blocks on a device group."""

    stage_id: int
    block_ids: Tuple[int, ...]
    device_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.block_ids:
            raise ScheduleError(f"stage {self.stage_id} has no blocks")
        if not self.device_ids:
            raise ScheduleError(f"stage {self.stage_id} has no devices")
        if list(self.block_ids) != list(range(self.block_ids[0], self.block_ids[-1] + 1)):
            raise ScheduleError(
                f"stage {self.stage_id} blocks {self.block_ids} are not contiguous"
            )
        if len(set(self.device_ids)) != len(self.device_ids):
            raise ScheduleError(f"stage {self.stage_id} has duplicate devices")

    @property
    def num_devices(self) -> int:
        return len(self.device_ids)

    @property
    def first_block(self) -> int:
        return self.block_ids[0]

    @property
    def last_block(self) -> int:
        return self.block_ids[-1]

    def per_device_batch(self, global_batch: int) -> int:
        """Per-device micro-batch when the stage splits the global batch."""
        return max(1, math.ceil(global_batch / self.num_devices))

    def describe(self) -> str:
        blocks = ",".join(str(b) for b in self.block_ids)
        devices = ",".join(str(d) for d in self.device_ids)
        return f"stage{self.stage_id}[blocks {blocks} -> devices {devices}]"


@dataclass(frozen=True)
class SchedulePlan:
    """A complete scheduling decision for one training run."""

    kind: str
    strategy: str
    batch_size: int
    num_devices: int
    num_blocks: int
    decoupled_update: bool = False
    stages: Tuple[StageAssignment, ...] = ()
    device_blocks: Optional[Dict[int, Tuple[int, ...]]] = None
    metadata: dict = field(default_factory=dict, compare=False)

    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if self.kind not in PLAN_KINDS:
            raise ScheduleError(f"unknown plan kind {self.kind!r}")
        if self.batch_size <= 0:
            raise ScheduleError("batch_size must be positive")
        if self.num_devices <= 0 or self.num_blocks <= 0:
            raise ScheduleError("num_devices and num_blocks must be positive")
        if self.kind == "pipeline":
            self._validate_pipeline()
        elif self.kind == "layerwise":
            self._validate_layerwise()
        else:
            if self.stages or self.device_blocks:
                raise ScheduleError("data_parallel plans carry no stages or device_blocks")

    def _validate_pipeline(self) -> None:
        if not self.stages:
            raise ScheduleError("pipeline plan requires at least one stage")
        covered_blocks = [block for stage in self.stages for block in stage.block_ids]
        if sorted(covered_blocks) != list(range(self.num_blocks)):
            raise ScheduleError(
                f"pipeline stages cover blocks {sorted(covered_blocks)}, expected "
                f"0..{self.num_blocks - 1} exactly once"
            )
        expected_start = 0
        for stage in self.stages:
            if stage.first_block != expected_start:
                raise ScheduleError(
                    f"stage {stage.stage_id} starts at block {stage.first_block}, "
                    f"expected {expected_start} (stages must be in block order)"
                )
            expected_start = stage.last_block + 1
        used_devices = [device for stage in self.stages for device in stage.device_ids]
        if len(set(used_devices)) != len(used_devices):
            raise ScheduleError("a device appears in more than one pipeline stage")
        for device in used_devices:
            if device < 0 or device >= self.num_devices:
                raise ScheduleError(f"device id {device} out of range")

    def _validate_layerwise(self) -> None:
        if not self.device_blocks:
            raise ScheduleError("layerwise plan requires device_blocks")
        covered = [block for blocks in self.device_blocks.values() for block in blocks]
        if sorted(covered) != list(range(self.num_blocks)):
            raise ScheduleError(
                f"layerwise assignment covers blocks {sorted(covered)}, expected "
                f"0..{self.num_blocks - 1} exactly once"
            )
        for device in self.device_blocks:
            if device < 0 or device >= self.num_devices:
                raise ScheduleError(f"device id {device} out of range")

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def active_devices(self) -> Tuple[int, ...]:
        """Devices that actually do work under this plan."""
        if self.kind == "pipeline":
            return tuple(device for stage in self.stages for device in stage.device_ids)
        if self.kind == "layerwise":
            assert self.device_blocks is not None
            return tuple(sorted(self.device_blocks))
        return tuple(range(self.num_devices))

    def per_device_batch(self) -> Dict[int, int]:
        """Per-device batch size for every active device.

        A pipeline stage's devices split its batch rounding up, an LS device
        runs the whole batch, and DP splits the batch rounding down (at
        least 1 per device), which is the batch the executor simulates it at.
        """
        result: Dict[int, int] = {}
        if self.kind == "pipeline":
            for stage in self.stages:
                micro_batch = stage.per_device_batch(self.batch_size)
                for device in stage.device_ids:
                    result[device] = micro_batch
        elif self.kind == "layerwise":
            assert self.device_blocks is not None
            for device in self.device_blocks:
                result[device] = self.batch_size
        else:
            micro_batch = max(1, self.batch_size // self.num_devices)
            for device in range(self.num_devices):
                result[device] = micro_batch
        return result

    def describe(self) -> str:
        """Multi-line, human-readable description of the plan."""
        lines = [
            f"{self.strategy} ({self.kind}), batch={self.batch_size}, "
            f"devices={self.num_devices}, blocks={self.num_blocks}, "
            f"decoupled_update={self.decoupled_update}"
        ]
        if self.kind == "pipeline":
            lines.extend("  " + stage.describe() for stage in self.stages)
        elif self.kind == "layerwise":
            assert self.device_blocks is not None
            for device in sorted(self.device_blocks):
                blocks = ",".join(str(b) for b in self.device_blocks[device])
                lines.append(f"  device {device}: blocks {blocks} (full batch)")
        else:
            lines.append(
                f"  all devices train every block sequentially with batch "
                f"{self.batch_size}//{self.num_devices}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Serialisation (persistent experiment store, benchmark artifacts)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serialisable view; ``plan_from_dict`` round-trips it.

        Keys come in canonical order (sorted, device keys sorted as
        strings), so the dict dumps to the same bytes as the store's
        canonical JSON.  :func:`copied_plan` copies it.
        """
        return {
            "batch_size": self.batch_size,
            "decoupled_update": self.decoupled_update,
            "device_blocks": (
                {
                    device: list(blocks)
                    for device, blocks in by_device(self.device_blocks).items()
                }
                if self.device_blocks is not None
                else None
            ),
            "kind": self.kind,
            "metadata": jsonable(self.metadata),
            "num_blocks": self.num_blocks,
            "num_devices": self.num_devices,
            "stages": [
                {
                    "block_ids": list(stage.block_ids),
                    "device_ids": list(stage.device_ids),
                    "stage_id": stage.stage_id,
                }
                for stage in self.stages
            ],
            "strategy": self.strategy,
        }


def copied_plan(document: dict) -> dict:
    """A copy of a :meth:`SchedulePlan.to_dict` document: every dict and list new.

    The leaves are shared.  It re-sorts and converts nothing, so it is
    cheaper than building the document again.
    """
    copy = document.copy()
    if document["device_blocks"] is not None:
        copy["device_blocks"] = {
            device: blocks.copy() for device, blocks in document["device_blocks"].items()
        }
    copy["metadata"] = copied(document["metadata"])
    copy["stages"] = [
        {
            "block_ids": stage["block_ids"].copy(),
            "device_ids": stage["device_ids"].copy(),
            "stage_id": stage["stage_id"],
        }
        for stage in document["stages"]
    ]
    return copy


def by_device(per_device: Dict[int, Any]) -> Dict[str, Any]:
    """A per-device mapping keyed by device string, in string order.

    Example:
        >>> from repro.parallel.plan import by_device
        >>> list(by_device({2: "a", 10: "b", 1: "c"}))
        ['1', '10', '2']
    """
    keyed = {str(device): value for device, value in per_device.items()}
    return {device: keyed[device] for device in sorted(keyed)}


def jsonable(value):
    """Recursively convert tuples to lists (keys sorted) for JSON payloads.

    Dict keys are emitted in sorted order so a payload serialises to the
    same bytes whether it was just computed or hydrated from the store's
    canonical (key-sorted) JSON; ``SchedulePlan.to_dict`` and
    ``ExecutionResult.document`` follow the same rule.  A dict or list
    already in that form is returned as it is, not copied, so a document
    can share the containers a hydrated record already holds.

    Example:
        >>> from repro.parallel.plan import jsonable
        >>> jsonable({"split": (3, 5), "name": "ahd"})
        {'name': 'ahd', 'split': [3, 5]}
        >>> canonical = {"name": "ahd", "split": [3, 5]}
        >>> jsonable(canonical) is canonical
        True
    """
    if isinstance(value, dict):
        converted = {key: jsonable(value[key]) for key in sorted(value, key=str)}
        if list(converted) == list(value) and all(
            map(operator.is_, converted.values(), value.values())
        ):
            return value
        return converted
    if isinstance(value, list):
        converted = [jsonable(item) for item in value]
        return value if all(map(operator.is_, converted, value)) else converted
    if isinstance(value, tuple):
        return [jsonable(item) for item in value]
    return value


def copied(tree):
    """A copy of a JSON tree: every dict and list new, the leaves shared.

    Example:
        >>> from repro.parallel.plan import copied
        >>> tree = {"split": [3, 5], "name": "ahd"}
        >>> copy = copied(tree)
        >>> copy == tree and copy["split"] is not tree["split"]
        True
    """
    if isinstance(tree, dict):
        return {
            key: copied(value) if isinstance(value, (dict, list)) else value
            for key, value in tree.items()
        }
    return [copied(item) if isinstance(item, (dict, list)) else item for item in tree]


def plan_from_dict(payload: dict) -> SchedulePlan:
    """Rebuild a validated :class:`SchedulePlan` from :meth:`SchedulePlan.to_dict`.

    Validation runs again on the reconstructed plan, so a tampered or
    truncated store record fails loudly instead of producing timings for a
    plan that could never have been scheduled.

    Example:
        >>> from repro.parallel.plan import SchedulePlan, plan_from_dict
        >>> plan = SchedulePlan(kind="data_parallel", strategy="DP",
        ...                     batch_size=128, num_devices=4, num_blocks=5)
        >>> plan_from_dict(plan.to_dict()) == plan
        True
    """
    stages = tuple(
        StageAssignment(
            stage_id=stage["stage_id"],
            block_ids=tuple(stage["block_ids"]),
            device_ids=tuple(stage["device_ids"]),
        )
        for stage in payload.get("stages", [])
    )
    device_blocks = payload.get("device_blocks")
    return SchedulePlan(
        kind=payload["kind"],
        strategy=payload["strategy"],
        batch_size=payload["batch_size"],
        num_devices=payload["num_devices"],
        num_blocks=payload["num_blocks"],
        decoupled_update=payload.get("decoupled_update", False),
        stages=stages,
        device_blocks=(
            {int(device): tuple(blocks) for device, blocks in device_blocks.items()}
            if device_blocks is not None
            else None
        ),
        metadata=payload.get("metadata", {}),
    )
