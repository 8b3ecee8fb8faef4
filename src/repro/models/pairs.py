"""Teacher/student pairing for blockwise distillation tasks.

A :class:`DistillationPair` couples a pre-trained teacher network with the
student network trained against it, block by block.  The pairing is validated
so that for every block index ``i`` the student block consumes the teacher
block ``i-1``'s output activation (the relayed tensor) and produces an output
with the same shape as teacher block ``i``'s output (so the blockwise loss
``L(delta_output)`` is well defined).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ShapeError
from repro.models.dsconv import build_dsconv_student
from repro.models.mobilenetv2 import build_mobilenetv2
from repro.models.network import NetworkSpec
from repro.models.proxylessnas import build_proxylessnas_supernet
from repro.models.vgg import build_vgg16


@dataclass(frozen=True)
class DistillationPair:
    """A teacher/student pair for blockwise distillation.

    Attributes
    ----------
    task:
        ``"nas"`` or ``"compression"``.
    teacher / student:
        The paired networks; must have the same number of blocks and matching
        block-boundary shapes.
    student_rounds_per_step:
        Forward/backward rounds of the *student* per training step.  NAS runs
        two rounds per step (architecture parameters, then weights — paper
        §VI-A); compression runs one.
    dataset:
        Dataset name, ``"cifar10"`` or ``"imagenet"``.
    """

    task: str
    teacher: NetworkSpec
    student: NetworkSpec
    dataset: str
    student_rounds_per_step: int = 1
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.task not in ("nas", "compression"):
            raise ConfigurationError(f"unknown task {self.task!r}")
        if self.student_rounds_per_step < 1:
            raise ConfigurationError("student_rounds_per_step must be >= 1")
        if self.teacher.num_blocks != self.student.num_blocks:
            raise ShapeError(
                f"teacher has {self.teacher.num_blocks} blocks but student has "
                f"{self.student.num_blocks}"
            )
        for index in range(self.teacher.num_blocks):
            teacher_block = self.teacher.block(index)
            student_block = self.student.block(index)
            if teacher_block.in_shape != student_block.in_shape:
                raise ShapeError(
                    f"block {index}: teacher input {teacher_block.in_shape} != "
                    f"student input {student_block.in_shape}"
                )
            if teacher_block.out_shape != student_block.out_shape:
                raise ShapeError(
                    f"block {index}: teacher output {teacher_block.out_shape} != "
                    f"student output {student_block.out_shape}"
                )

    # ------------------------------------------------------------------ #
    @property
    def num_blocks(self) -> int:
        return self.teacher.num_blocks

    @property
    def input_shape(self):
        return self.teacher.input_shape

    def describe(self) -> str:
        return (
            f"{self.task} on {self.dataset}: teacher={self.teacher.name} "
            f"({self.teacher.num_blocks} blocks), student={self.student.name}, "
            f"student rounds/step={self.student_rounds_per_step}"
        )


def build_nas_pair(dataset: str = "cifar10") -> DistillationPair:
    """The paper's NAS workload: MobileNetV2 teacher, ProxylessNAS supernet."""
    teacher = build_mobilenetv2(dataset)
    student = build_proxylessnas_supernet(dataset)
    return DistillationPair(
        task="nas",
        teacher=teacher,
        student=student,
        dataset=dataset.lower(),
        student_rounds_per_step=2,
        metadata={"search_backbone": "ProxylessNAS", "teacher": "MobileNetV2"},
    )


def build_compression_pair(dataset: str = "cifar10") -> DistillationPair:
    """The paper's compression workload: VGG-16 teacher, DS-Conv student."""
    teacher = build_vgg16(dataset)
    student = build_dsconv_student(dataset)
    return DistillationPair(
        task="compression",
        teacher=teacher,
        student=student,
        dataset=dataset.lower(),
        student_rounds_per_step=1,
        metadata={"teacher": "VGG-16", "replacement": "DS-Conv"},
    )


def build_pair(task: str, dataset: str) -> DistillationPair:
    """Dispatch on the paper's two workloads."""
    task = task.lower()
    if task == "nas":
        return build_nas_pair(dataset)
    if task == "compression":
        return build_compression_pair(dataset)
    raise ConfigurationError(f"unknown task {task!r}; expected 'nas' or 'compression'")
