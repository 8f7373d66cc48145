"""Unit tests for the rolling per-second windows (repro.obs.window)."""

import threading

import pytest

from repro.obs.window import (
    DEFAULT_HORIZON_SECONDS,
    LATENCY_BUCKET_BOUNDS,
    SLO_ERROR_BUDGET,
    SLO_LATENCY_SECONDS,
    STANDARD_WINDOWS,
    RollingWindow,
    WindowRegistry,
)

#: A fixed "current" epoch so every test is deterministic.
NOW = 1_700_000_000


class TestObserveAndStats:
    def test_counts_and_qps_over_window(self):
        ring = RollingWindow()
        for offset in range(5):
            ring.observe(0.010, now=NOW - offset)
        stats = ring.stats(window=10, now=NOW)
        assert stats["count"] == 5
        assert stats["qps"] == 0.5
        assert stats["errors"] == 0
        assert stats["error_rate"] == 0.0
        assert stats["mean_seconds"] == pytest.approx(0.010)

    def test_window_excludes_older_slots(self):
        ring = RollingWindow()
        ring.observe(0.010, now=NOW)
        ring.observe(0.010, now=NOW - 30)
        assert ring.stats(window=10, now=NOW)["count"] == 1
        assert ring.stats(window=60, now=NOW)["count"] == 2

    def test_error_rate(self):
        ring = RollingWindow()
        ring.observe(0.01, now=NOW)
        ring.observe(0.01, error=True, now=NOW)
        stats = ring.stats(window=1, now=NOW)
        assert stats["errors"] == 1
        assert stats["error_rate"] == 0.5

    def test_quantiles_bracket_observed_latencies(self):
        ring = RollingWindow()
        for _ in range(99):
            ring.observe(0.004, now=NOW)  # lands in the (2ms, 4ms] bucket
        ring.observe(1.0, now=NOW)
        stats = ring.stats(window=1, now=NOW)
        assert 0.002 <= stats["p50"] <= 0.004
        assert 0.002 <= stats["p95"] <= 0.004
        assert stats["p99"] <= 0.004 or stats["p99"] >= 0.5

    def test_ring_slot_reuse_evicts_stale_epoch(self):
        # Same ring index (epochs an exact capacity apart) must not mix
        # the old second's counts into the new one.
        ring = RollingWindow()
        capacity = DEFAULT_HORIZON_SECONDS + 1
        ring.observe(0.01, now=NOW - capacity)
        ring.observe(0.01, now=NOW)
        assert ring.stats(window=1, now=NOW)["count"] == 1

    def test_empty_ring_stats_are_zero(self):
        stats = RollingWindow().stats(window=10, now=NOW)
        assert stats["count"] == 0
        assert stats["qps"] == 0.0
        assert stats["p99"] == 0.0

    def test_window_bounds_validated(self):
        ring = RollingWindow()
        with pytest.raises(ValueError):
            ring.stats(window=0, now=NOW)
        with pytest.raises(ValueError):
            ring.stats(window=DEFAULT_HORIZON_SECONDS + 1, now=NOW)

    def test_bucket_bounds_are_inclusive_upper_bounds(self):
        # Prometheus `le`: a latency equal to a bound lands in that
        # bucket, so the quantile never reads above the bound.
        ring = RollingWindow()
        ring.observe(LATENCY_BUCKET_BOUNDS[2], now=NOW)
        stats = ring.stats(window=1, now=NOW)
        assert LATENCY_BUCKET_BOUNDS[1] < stats["p50"] <= LATENCY_BUCKET_BOUNDS[2]

    def test_default_horizon_spans_standard_windows(self):
        assert DEFAULT_HORIZON_SECONDS >= max(STANDARD_WINDOWS)


class TestSlo:
    def test_burn_rate_counts_errors_and_slow_requests(self):
        ring = RollingWindow()
        for _ in range(98):
            ring.observe(0.01, now=NOW)  # good
        ring.observe(SLO_LATENCY_SECONDS * 10, now=NOW)  # slow -> bad
        ring.observe(0.01, error=True, now=NOW)  # errored -> bad
        stats = ring.stats(window=1, now=NOW)
        # 2 bad out of 100: 0.02 bad fraction over the error budget
        assert stats["slo_burn"] == pytest.approx(0.02 / SLO_ERROR_BUDGET)

    def test_healthy_traffic_burns_nothing(self):
        ring = RollingWindow()
        ring.observe(0.01, now=NOW)
        assert ring.stats(window=1, now=NOW)["slo_burn"] == 0.0


class TestWindowRegistry:
    def test_observe_buckets_by_query_class(self):
        registry = WindowRegistry()
        registry.observe("selection", 0.01, now=NOW)
        registry.observe("join", 0.05, now=NOW)
        stats = registry.stats(window=10, now=NOW)
        assert set(stats) == {"join", "selection"}
        assert stats["selection"]["count"] == 1

    def test_reset_clears_every_class(self):
        registry = WindowRegistry()
        registry.observe("selection", 0.01, now=NOW)
        registry.reset()
        assert registry.stats(window=10, now=NOW) == {}

    def test_multi_stats_shape(self):
        registry = WindowRegistry()
        registry.observe("selection", 0.01, now=NOW)
        multi = registry.multi_stats(now=NOW)
        assert set(multi) == {"selection"}
        assert set(multi["selection"]) == {1, 10, 60}
        assert multi["selection"][60]["count"] == 1

    def test_concurrent_observe_loses_nothing(self):
        # The serving parent books outcomes while the `serve --stats`
        # thread reads; every observation from every thread must land.
        registry = WindowRegistry()
        threads_count, per_thread = 3, 400

        def observe():
            for _ in range(per_thread):
                registry.observe("selection", 0.01, now=NOW)
                registry.stats(window=1, now=NOW)

        threads = [threading.Thread(target=observe) for _ in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = registry.stats(window=10, now=NOW)
        assert stats["selection"]["count"] == threads_count * per_thread
