"""Tests of the host model and the shared data-loading cost model."""

import pytest
from hypothesis import given, strategies as st

from repro.data.dataset import CIFAR10, IMAGENET
from repro.data.loader import DataLoadModel
from repro.errors import ConfigurationError
from repro.hardware.host import EPYC_7302, HostSpec, XEON_4214_DUAL


class TestHostSpec:
    def test_presets(self):
        assert EPYC_7302.num_cores == 16
        assert XEON_4214_DUAL.num_cores == 24

    def test_batch_load_time_scales_with_contention(self):
        single = EPYC_7302.batch_load_time(1e8, concurrent_loaders=1)
        contended = EPYC_7302.batch_load_time(1e8, concurrent_loaders=4)
        assert contended > single

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            EPYC_7302.batch_load_time(-1)
        with pytest.raises(ConfigurationError):
            EPYC_7302.batch_load_time(1e6, concurrent_loaders=0)
        with pytest.raises(ConfigurationError):
            HostSpec(name="bad", num_cores=0, loader_throughput_gbs=1.0)

    def test_describe(self):
        assert "EPYC" in EPYC_7302.describe()

    def test_loader_throughput_in_bytes_per_second(self):
        assert EPYC_7302.loader_throughput == pytest.approx(6e9)
        # One second of the full pipeline, plus the fixed per-batch cost.
        assert EPYC_7302.batch_load_time(6e9) == pytest.approx(
            1.0 + EPYC_7302.per_batch_overhead_s
        )
        assert EPYC_7302.batch_load_time(6e9, concurrent_loaders=3) == pytest.approx(
            3.0 + EPYC_7302.per_batch_overhead_s
        )


class TestDataLoadModel:
    def test_imagenet_batches_cost_more_than_cifar(self):
        cifar = DataLoadModel(dataset=CIFAR10, host=EPYC_7302)
        imagenet = DataLoadModel(dataset=IMAGENET, host=EPYC_7302)
        assert imagenet.batch_load_time(256) > cifar.batch_load_time(256)

    def test_concurrent_loaders_slow_each_load(self):
        loader = DataLoadModel(dataset=IMAGENET, host=EPYC_7302)
        assert loader.batch_load_time(256, concurrent_loaders=4) > loader.batch_load_time(256)

    @given(batch=st.integers(min_value=1, max_value=1024))
    def test_load_time_positive_and_monotone(self, batch):
        loader = DataLoadModel(dataset=CIFAR10, host=EPYC_7302)
        assert loader.batch_load_time(batch) > 0
        assert loader.batch_load_time(batch + 64) >= loader.batch_load_time(batch)

    def test_batch_bytes_is_the_larger_of_decoded_and_on_disk(self):
        for dataset in (CIFAR10, IMAGENET):
            loader = DataLoadModel(dataset=dataset, host=EPYC_7302)
            assert loader.batch_bytes(64) == max(
                dataset.batch_decoded_bytes(64), dataset.disk_bytes_per_sample * 64
            )
            assert loader.batch_bytes(128) == pytest.approx(2 * loader.batch_bytes(64))

    def test_batch_cpu_time_spreads_over_the_host_cores(self):
        epyc = DataLoadModel(dataset=IMAGENET, host=EPYC_7302)
        xeon = DataLoadModel(dataset=IMAGENET, host=XEON_4214_DUAL)
        assert epyc.batch_cpu_time(256) == pytest.approx(
            256 * IMAGENET.per_sample_decode_cpu_s / 16
        )
        assert xeon.batch_cpu_time(256) == pytest.approx(epyc.batch_cpu_time(256) * 16 / 24)

    def test_load_time_is_overhead_plus_the_bottleneck(self):
        loader = DataLoadModel(dataset=IMAGENET, host=EPYC_7302)
        io_time = loader.batch_bytes(256) / EPYC_7302.loader_throughput
        bottleneck = max(io_time, loader.batch_cpu_time(256))
        assert loader.batch_load_time(256, concurrent_loaders=2) == pytest.approx(
            EPYC_7302.per_batch_overhead_s + 2 * bottleneck
        )

    def test_invalid_batch_rejected(self):
        loader = DataLoadModel(dataset=CIFAR10, host=EPYC_7302)
        with pytest.raises(ConfigurationError):
            loader.batch_load_time(0)
        with pytest.raises(ConfigurationError):
            loader.batch_bytes(0)
        with pytest.raises(ConfigurationError):
            loader.batch_cpu_time(-8)
        with pytest.raises(ConfigurationError):
            loader.batch_load_time(16, concurrent_loaders=0)
