"""Unit tests for counters, gauges, histograms and the registry."""

from __future__ import annotations

import pytest

from repro.sim.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_increment_accumulates(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(2.5)
        assert counter.value == 3.5

    def test_increment_is_branch_free(self):
        # Counter.increment fires for every message sent/delivered, so it is
        # a single unguarded add; the monotonicity contract is the caller's.
        counter = Counter("c")
        counter.increment(0.0)
        counter.increment(7)
        assert counter.value == 7.0

    def test_reset(self):
        counter = Counter("c")
        counter.increment(4)
        counter.reset()
        assert counter.value == 0.0


class TestGauge:
    def test_set_and_max_tracking(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set(1.0)
        assert gauge.value == 1.0
        assert gauge.max_value == 3.0

    def test_add_moves_value(self):
        gauge = Gauge("g")
        gauge.add(2.0)
        gauge.add(-1.0)
        assert gauge.value == 1.0


class TestHistogram:
    def test_mean_min_max(self):
        histogram = Histogram("h")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.mean == pytest.approx(2.0)
        assert histogram.min == 1.0
        assert histogram.max == 3.0
        assert histogram.count == 3

    def test_percentiles_interpolate(self):
        histogram = Histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.percentile(50) == pytest.approx(50.5)
        assert histogram.percentile(99) == pytest.approx(99.01)
        assert histogram.median == histogram.percentile(50)

    def test_empty_histogram_is_zero(self):
        histogram = Histogram("h")
        assert histogram.mean == 0.0
        assert histogram.percentile(99) == 0.0

    def test_percentile_bounds_validated(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_snapshot_keys(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        snapshot = histogram.snapshot()
        assert set(snapshot) == {"count", "mean", "min", "max", "p50", "p90", "p99"}


class TestRegistry:
    def test_named_metrics_are_cached(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.gauge("g") is registry.gauge("g")

    def test_snapshot_contains_all_sections(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        registry.gauge("g").set(2)
        registry.histogram("h").observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 1.0}
        assert snapshot["gauges"] == {"g": 2}
        assert "h" in snapshot["histograms"]

    def test_clock_is_used(self):
        registry = MetricsRegistry(clock=lambda: 12.5)
        assert registry.now == 12.5
