"""Shared fixtures for the Pipe-BD reproduction test suite."""

from __future__ import annotations

import os

import pytest

from repro.core.config import ExperimentConfig
from repro.data.dataset import get_dataset
from repro.hardware.server import alternative_2080ti_server, default_a6000_server
from repro.models.pairs import build_compression_pair, build_nas_pair
from repro.parallel.executor import ScheduleExecutor
from repro.parallel.profiler import Profiler

try:
    from hypothesis import settings

    # Deterministic, CI-friendly property testing: derandomize pins the
    # example sequence (no flaky shrink paths across runs) and deadline=None
    # keeps slow shared CI runners from failing on timing alone.  Select a
    # different registered profile with HYPOTHESIS_PROFILE.
    settings.register_profile(
        "repro", derandomize=True, deadline=None, max_examples=40
    )
    settings.register_profile(
        "ci", derandomize=True, deadline=None, max_examples=100
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))
except ImportError:  # pragma: no cover - property tests skip without hypothesis
    pass


@pytest.fixture(scope="session")
def a6000_server():
    """The paper's default 4x RTX A6000 server."""
    return default_a6000_server()


@pytest.fixture(scope="session")
def ti2080_server():
    """The paper's alternative 4x RTX 2080Ti server."""
    return alternative_2080ti_server()


@pytest.fixture(scope="session")
def nas_cifar_pair():
    """MobileNetV2 teacher + ProxylessNAS supernet student on CIFAR-10."""
    return build_nas_pair("cifar10")


@pytest.fixture(scope="session")
def nas_imagenet_pair():
    """MobileNetV2 teacher + ProxylessNAS supernet student on ImageNet."""
    return build_nas_pair("imagenet")


@pytest.fixture(scope="session")
def compression_cifar_pair():
    """VGG-16 teacher + DS-Conv student on CIFAR-10."""
    return build_compression_pair("cifar10")


@pytest.fixture(scope="session")
def cifar_dataset():
    return get_dataset("cifar10")


@pytest.fixture(scope="session")
def imagenet_dataset():
    return get_dataset("imagenet")


@pytest.fixture(scope="session")
def nas_cifar_profile(nas_cifar_pair, a6000_server):
    """Profile table for the NAS/CIFAR-10 cell at batch 256."""
    return Profiler(pair=nas_cifar_pair, server=a6000_server).profile(
        global_batch=256, extra_batches=(256,)
    )


@pytest.fixture(scope="session")
def nas_imagenet_profile(nas_imagenet_pair, a6000_server):
    """Profile table for the NAS/ImageNet cell at batch 256."""
    return Profiler(pair=nas_imagenet_pair, server=a6000_server).profile(
        global_batch=256, extra_batches=(256,)
    )


@pytest.fixture(scope="session")
def nas_cifar_executor(nas_cifar_pair, a6000_server, cifar_dataset):
    """Executor for the NAS/CIFAR-10 cell."""
    return ScheduleExecutor(
        pair=nas_cifar_pair, server=a6000_server, dataset=cifar_dataset, simulated_steps=6
    )


@pytest.fixture(scope="session")
def default_config():
    """The paper's default experiment cell: NAS, CIFAR-10, A6000, batch 256."""
    return ExperimentConfig(task="nas", dataset="cifar10", simulated_steps=6)
