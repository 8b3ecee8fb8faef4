"""The metrics registry: families, labels, rendering, and thread safety.

The exactness test is the load-bearing one: the serve dispatcher and the
cluster flush both increment counters from worker threads, so a lost
update would silently corrupt the ``/v1/metrics`` cross-check in
``tools/load_serve.py``.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    get_registry,
    set_registry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value_per_label_set(self, registry):
        c = registry.counter("jobs_total", "jobs")
        c.inc(endpoint="/a")
        c.inc(2, endpoint="/b")
        assert c.value(endpoint="/a") == 1.0
        assert c.value(endpoint="/b") == 2.0
        assert c.total() == 3.0

    def test_label_order_is_irrelevant(self, registry):
        c = registry.counter("x_total", "x")
        c.inc(a="1", b="2")
        c.inc(b="2", a="1")
        assert c.value(a="1", b="2") == 2.0

    def test_negative_increment_is_refused(self, registry):
        c = registry.counter("x_total", "x")
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_unseen_label_set_reads_zero(self, registry):
        assert registry.counter("x_total", "x").value(endpoint="/nope") == 0.0


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("depth", "depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value() == 4.0

    def test_set_max_keeps_the_peak(self, registry):
        g = registry.gauge("peak", "peak")
        g.set_max(3)
        g.set_max(1)
        assert g.value() == 3.0


class TestHistogram:
    def test_observe_counts_and_sums(self, registry):
        h = registry.histogram("lat_seconds", "latency")
        h.observe(0.003)
        h.observe(0.04)
        assert h.count() == 2
        assert h.sum() == pytest.approx(0.043)

    def test_value_on_bucket_boundary_lands_in_that_bucket(self, registry):
        # Prometheus `le` semantics: observe(bound) counts in bound's bucket.
        h = registry.histogram("b_seconds", "b", buckets=(1.0, 2.0))
        h.observe(1.0)
        text = registry.render_prometheus()
        assert 'b_seconds_bucket{le="1"} 1' in text

    def test_reregistration_must_match_buckets(self, registry):
        registry.histogram("h_seconds", "h", buckets=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("h_seconds", "h", buckets=(5.0,))


class TestRegistry:
    def test_get_or_create_returns_the_same_family(self, registry):
        assert registry.counter("a_total", "a") is registry.counter("a_total", "a")

    def test_name_collision_across_kinds_is_refused(self, registry):
        registry.counter("thing", "x")
        with pytest.raises(ConfigurationError):
            registry.gauge("thing", "x")

    def test_reset_keeps_registrations_but_zeroes_samples(self, registry):
        c = registry.counter("a_total", "a")
        c.inc()
        registry.reset()
        assert registry.counter("a_total", "a") is c
        assert c.total() == 0.0

    def test_snapshot_shape(self, registry):
        registry.counter("a_total", "a").inc(endpoint="/x")
        snap = registry.snapshot()
        assert snap["a_total"]["kind"] == "counter"
        assert snap["a_total"]["samples"] == {'{endpoint="/x"}': 1.0}

    def test_render_prometheus_families(self, registry):
        registry.counter("reqs_total", "requests").inc(endpoint="/a")
        registry.gauge("inflight", "in flight").set(2)
        registry.histogram("lat_seconds", "latency").observe(0.05)
        text = registry.render_prometheus()
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{endpoint="/a"} 1' in text
        assert "# TYPE inflight gauge" in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_default_buckets_are_sorted_and_positive(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert all(b > 0 for b in DEFAULT_BUCKETS)

    def test_set_registry_swaps_the_process_default(self):
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            set_registry(previous)
        assert get_registry() is previous

    def test_handles_bind_to_the_registry_current_at_construction(self, tmp_path):
        from repro.core.config import ExperimentConfig
        from repro.core.session import Session

        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            session = Session(store=tmp_path / "store")
        finally:
            set_registry(previous)
        runs_before = previous.counter(
            "repro_session_runs_total",
            "Session.run completions by outcome (simulated vs store_hit)",
        ).total()
        session.run(ExperimentConfig(batch_size=128, simulated_steps=4))
        assert mine.counter("repro_session_runs_total").value(outcome="simulated") == 1
        assert mine.counter("repro_store_lookups_total").value(result="miss") == 1
        assert mine.counter("repro_store_puts_total").value(kind="run") == 1
        assert previous.counter("repro_session_runs_total").total() == runs_before


class TestBoundChildren:
    """``family.labels(...)`` handles share the keyword path's samples."""

    def test_child_and_keyword_calls_share_one_sample(self, registry):
        c = registry.counter("x_total", "x")
        child = c.labels(b="2", a="1")
        child.inc()
        c.inc(2, a="1", b="2")
        assert c.value(a="1", b="2") == 3.0
        g = registry.gauge("g", "g").labels(endpoint="/a")
        g.set(5)
        g.inc()
        g.dec(2)
        g.set_max(3)
        assert registry.gauge("g", "g").value(endpoint="/a") == 4.0
        h = registry.histogram("h_seconds", "h").labels(endpoint="/a")
        h.observe(0.5)
        assert registry.histogram("h_seconds", "h").count(endpoint="/a") == 1

    def test_binding_creates_no_sample(self, registry):
        families = (
            registry.counter("x_total", "x"),
            registry.gauge("g", "g"),
            registry.histogram("h_seconds", "h"),
        )
        before = registry.render_prometheus()
        for family in families:
            family.labels(endpoint="/a")
        assert registry.render_prometheus() == before

    def test_child_keeps_counting_after_reset_from_zero(self, registry):
        child = registry.counter("x_total", "x").labels(endpoint="/a")
        histogram = registry.histogram("h_seconds", "h").labels()
        child.inc(5)
        histogram.observe(1.0)
        registry.reset()
        assert registry.counter("x_total", "x").value(endpoint="/a") == 0.0
        child.inc()
        histogram.observe(2.0)
        assert registry.counter("x_total", "x").value(endpoint="/a") == 1.0
        assert registry.histogram("h_seconds", "h").sum() == 2.0

    def test_counter_child_refuses_a_negative_increment(self, registry):
        child = registry.counter("x_total", "x").labels(endpoint="/a")
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            child.inc(-1)
        assert registry.counter("x_total", "x").value(endpoint="/a") == 0.0


class TestThreadSafety:
    """Concurrent writers must never lose an update."""

    def test_concurrent_counter_increments_sum_exactly(self, registry):
        c = registry.counter("hammer_total", "hammered")
        threads, per_thread = 8, 2500
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                c.inc(worker="shared")

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for _ in range(threads):
                pool.submit(hammer)
        assert c.value(worker="shared") == threads * per_thread

    def test_concurrent_histogram_observations_count_exactly(self, registry):
        h = registry.histogram("obs_seconds", "observed")
        threads, per_thread = 8, 1000
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                h.observe(0.001)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for _ in range(threads):
                pool.submit(hammer)
        assert h.count() == threads * per_thread
        assert h.sum() == pytest.approx(threads * per_thread * 0.001)
