"""Task and event definitions for the discrete-event simulator."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Tuple


class TaskKind(str, enum.Enum):
    """Categories of simulated work.

    The categories map onto the breakdown the paper plots in Fig. 2:
    data loading, teacher execution, student execution, and everything else
    (communication, updates) that mostly overlaps or is negligible; whatever
    remains of the makespan is idle time.
    """

    DATA_LOAD = "data_load"
    TEACHER_FORWARD = "teacher_forward"
    STUDENT_FORWARD = "student_forward"
    STUDENT_BACKWARD = "student_backward"
    WEIGHT_UPDATE = "weight_update"
    SEND = "send"
    RECV = "recv"
    ALLREDUCE = "allreduce"
    BARRIER = "barrier"
    VALIDATE = "validate"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Task kinds that occupy a GPU compute stream (as opposed to a link or the
#: host loader).
COMPUTE_KINDS = frozenset(
    {
        TaskKind.TEACHER_FORWARD,
        TaskKind.STUDENT_FORWARD,
        TaskKind.STUDENT_BACKWARD,
        TaskKind.WEIGHT_UPDATE,
        TaskKind.VALIDATE,
    }
)

#: Task kinds counted as "student execution" in the Fig. 2 style breakdown.
STUDENT_EXEC_KINDS = frozenset(
    {TaskKind.STUDENT_FORWARD, TaskKind.STUDENT_BACKWARD, TaskKind.WEIGHT_UPDATE}
)


def check_duration(name: str, duration: float) -> None:
    """Reject a service time that is negative, NaN or infinite."""
    if not (duration >= 0.0 and math.isfinite(duration)):
        raise ValueError(
            f"task {name!r} has invalid duration {duration} "
            f"(must be finite and non-negative)"
        )


@dataclass(frozen=True)
class SimTask:
    """One unit of simulated work.

    Attributes
    ----------
    task_id:
        Unique integer id assigned by the engine.
    name:
        Human-readable label (shows up in traces and Gantt output).
    kind:
        Task category.
    resource:
        The serial resource that executes the task (e.g. ``"gpu0:compute"``).
    duration:
        Service time in (simulated) seconds.
    deps:
        Ids of tasks that must complete before this task may start.
    step / device / block:
        Optional labels used by metrics and visualisation.
    """

    task_id: int
    name: str
    kind: TaskKind
    resource: str
    duration: float
    deps: Tuple[int, ...] = ()
    step: int = -1
    device: int = -1
    block: int = -1
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        check_duration(self.name, self.duration)
