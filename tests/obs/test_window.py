"""Unit tests for the rolling per-second windows (repro.obs.window)."""

import threading

import pytest

from repro.obs.window import (
    DEFAULT_HORIZON_SECONDS,
    LATENCY_BUCKET_BOUNDS,
    RollingWindow,
    SloPolicy,
    WindowRegistry,
    merge_window_snapshots,
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
        ring = RollingWindow(horizon=10)
        capacity = 11
        ring.observe(0.01, now=NOW - capacity)
        ring.observe(0.01, now=NOW)
        assert ring.stats(window=1, now=NOW)["count"] == 1

    def test_empty_ring_stats_are_zero(self):
        stats = RollingWindow().stats(window=10, now=NOW)
        assert stats["count"] == 0
        assert stats["qps"] == 0.0
        assert stats["p99"] == 0.0

    def test_window_bounds_validated(self):
        ring = RollingWindow(horizon=10)
        with pytest.raises(ValueError):
            ring.stats(window=0, now=NOW)
        with pytest.raises(ValueError):
            ring.stats(window=11, now=NOW)


class TestSlo:
    def test_burn_rate_counts_errors_and_slow_requests(self):
        ring = RollingWindow()
        slo = SloPolicy(latency_seconds=0.1, error_budget=0.1)
        for _ in range(8):
            ring.observe(0.01, now=NOW)  # good
        ring.observe(5.0, now=NOW)  # slow -> bad
        ring.observe(0.01, error=True, now=NOW)  # errored -> bad
        stats = ring.stats(window=1, now=NOW, slo=slo)
        # 2 bad out of 10 = 0.2 bad fraction / 0.1 budget = 2.0 burn
        assert stats["slo_burn"] == pytest.approx(2.0)

    def test_healthy_traffic_burns_nothing(self):
        ring = RollingWindow()
        ring.observe(0.01, now=NOW)
        assert ring.stats(window=1, now=NOW)["slo_burn"] == 0.0


class TestSnapshotAbsorb:
    def test_snapshot_rows_carry_absolute_epochs(self):
        ring = RollingWindow()
        ring.observe(0.01, now=NOW)
        ring.observe(0.02, error=True, now=NOW)
        rows = ring.snapshot(now=NOW)
        assert len(rows) == 1
        epoch, count, errors, total, buckets = rows[0]
        assert epoch == NOW
        assert count == 2
        assert errors == 1
        assert total == pytest.approx(0.03)
        assert sum(buckets) == 2

    def test_snapshot_reset_ships_deltas(self):
        ring = RollingWindow()
        ring.observe(0.01, now=NOW)
        assert ring.snapshot(now=NOW, reset=True)
        assert ring.snapshot(now=NOW) == []

    def test_absorb_reproduces_remote_observations(self):
        worker, parent = RollingWindow(), RollingWindow()
        worker.observe(0.01, now=NOW)
        worker.observe(0.5, error=True, now=NOW - 3)
        parent.absorb_rows(worker.snapshot(now=NOW), now=NOW)
        assert parent.stats(window=10, now=NOW) == worker.stats(
            window=10, now=NOW
        )

    def test_absorb_drops_rows_beyond_horizon(self):
        ring = RollingWindow(horizon=10)
        ring.absorb_rows([[NOW - 100, 5, 0, 1.0, [5]]], now=NOW)
        assert ring.stats(window=10, now=NOW)["count"] == 0

    def test_absorb_clips_foreign_bucket_layouts(self):
        ring = RollingWindow()
        oversized = [1] * (len(LATENCY_BUCKET_BOUNDS) + 5)
        ring.absorb_rows([[NOW, len(oversized), 0, 1.0, oversized]], now=NOW)
        assert ring.stats(window=1, now=NOW)["count"] == len(oversized)


class TestWindowRegistry:
    def test_observe_buckets_by_query_class(self):
        registry = WindowRegistry()
        registry.observe("selection", 0.01, now=NOW)
        registry.observe("join", 0.05, now=NOW)
        stats = registry.stats(window=10, now=NOW)
        assert set(stats) == {"join", "selection"}
        assert stats["selection"]["count"] == 1

    def test_disabled_registry_records_nothing(self):
        registry = WindowRegistry(enabled=False)
        registry.observe("selection", 0.01, now=NOW)
        assert registry.stats(window=10, now=NOW) == {}

    def test_snapshot_absorb_round_trip(self):
        worker, parent = WindowRegistry(), WindowRegistry()
        worker.observe("selection", 0.01, now=NOW)
        worker.observe("join", 0.02, error=True, now=NOW)
        parent.absorb(worker.snapshot(now=NOW), now=NOW)
        assert parent.stats(window=10, now=NOW) == worker.stats(
            window=10, now=NOW
        )

    def test_absorb_tolerates_none_and_empty(self):
        registry = WindowRegistry()
        registry.absorb(None)
        registry.absorb({})
        assert registry.stats(window=10, now=NOW) == {}

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

    def test_concurrent_observe_and_absorb_lose_nothing(self):
        # The serving parent absorbs worker snapshots while its own
        # thread keeps observing; every observation must survive.
        registry = WindowRegistry()
        rounds, per_thread = 8, 50

        def absorb_worker():
            for _ in range(rounds):
                worker = WindowRegistry()
                for _ in range(per_thread):
                    worker.observe("selection", 0.01, now=NOW)
                registry.absorb(worker.snapshot(now=NOW), now=NOW)

        def observe_directly():
            for _ in range(rounds * per_thread):
                registry.observe("selection", 0.02, now=NOW)

        threads = [
            threading.Thread(target=absorb_worker),
            threading.Thread(target=absorb_worker),
            threading.Thread(target=observe_directly),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = registry.stats(window=10, now=NOW)
        assert stats["selection"]["count"] == 3 * rounds * per_thread


class TestMergeSnapshots:
    def _snapshot(self, *observations):
        registry = WindowRegistry()
        for query_class, seconds, error, now in observations:
            registry.observe(query_class, seconds, error=error, now=now)
        return registry.snapshot(now=NOW)

    def test_merge_sums_per_epoch(self):
        left = self._snapshot(("selection", 0.01, False, NOW))
        right = self._snapshot(("selection", 0.02, True, NOW))
        merged = merge_window_snapshots(left, right)
        (row,) = merged["classes"]["selection"]
        assert row[1] == 2 and row[2] == 1
        assert row[3] == pytest.approx(0.03)

    def test_merge_keeps_distinct_epochs_and_classes(self):
        left = self._snapshot(("selection", 0.01, False, NOW))
        right = self._snapshot(("join", 0.02, False, NOW - 5))
        merged = merge_window_snapshots(left, right)
        assert set(merged["classes"]) == {"join", "selection"}

    def test_merge_is_commutative(self):
        left = self._snapshot(("selection", 0.01, False, NOW),
                              ("join", 0.5, True, NOW - 2))
        right = self._snapshot(("selection", 0.03, False, NOW - 1))
        assert merge_window_snapshots(left, right) == merge_window_snapshots(
            right, left
        )

    def test_merge_does_not_mutate_inputs(self):
        left = self._snapshot(("selection", 0.01, False, NOW))
        right = self._snapshot(("selection", 0.02, False, NOW))
        import copy

        left_before = copy.deepcopy(left)
        right_before = copy.deepcopy(right)
        merge_window_snapshots(left, right)
        assert left == left_before and right == right_before

    def test_absorbing_merged_equals_absorbing_both(self):
        left = self._snapshot(("selection", 0.01, False, NOW))
        right = self._snapshot(("selection", 0.04, True, NOW - 2))

        via_merge = WindowRegistry()
        via_merge.absorb(merge_window_snapshots(left, right), now=NOW)
        one_by_one = WindowRegistry()
        one_by_one.absorb(left, now=NOW)
        one_by_one.absorb(right, now=NOW)
        assert via_merge.stats(window=10, now=NOW) == one_by_one.stats(
            window=10, now=NOW
        )

    def test_default_horizon_spans_standard_windows(self):
        assert DEFAULT_HORIZON_SECONDS >= 60
