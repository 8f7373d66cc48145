"""Unit tests for the sampling profiler (repro.obs.profile)."""

import threading
import time

import pytest

from repro.obs.profile import IDLE_PHASE, SamplingProfiler
from repro.obs.trace import Tracer


def _spin(seconds):
    deadline = time.perf_counter() + seconds
    value = 0
    while time.perf_counter() < deadline:
        value += 1
    return value


class TestLifecycle:
    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)

    def test_start_stop_idempotent(self):
        profiler = SamplingProfiler(hz=200)
        assert profiler.start() is profiler
        assert profiler.start() is profiler  # already running: no-op
        assert profiler.running
        profiler.stop()
        profiler.stop()
        assert not profiler.running

    def test_context_manager_stops_on_exit(self):
        with SamplingProfiler(hz=200) as profiler:
            assert profiler.running
        assert not profiler.running


class TestSampling:
    def test_busy_loop_is_sampled(self):
        with SamplingProfiler(hz=500) as profiler:
            _spin(0.2)
        exemplar = profiler.take_exemplar(top=5)
        assert exemplar["samples"] > 0
        rows = exemplar["hotspots"]
        assert rows
        assert any("_spin" in row["stack"] for row in rows)
        assert rows[0]["phase"] == IDLE_PHASE  # no tracer active

    def test_phase_attribution_reads_open_span(self):
        tracer = Tracer(enabled=True)
        with SamplingProfiler(hz=500) as profiler:
            with tracer.trace("query.selection"):
                with tracer.span("verify"):
                    _spin(0.2)
        phases = profiler.take_exemplar()["phase_seconds"]
        assert "verify" in phases
        assert phases["verify"] > 0

    def test_hotspot_samples_sum_to_total(self):
        with SamplingProfiler(hz=500) as profiler:
            _spin(0.2)
        exemplar = profiler.take_exemplar(top=10**6)
        fractions = [row["samples"] / exemplar["samples"] for row in exemplar["hotspots"]]
        assert sum(fractions) == pytest.approx(1.0, abs=0.01)

    def test_samples_target_the_starting_thread_only(self):
        # A profiler started from this thread must not attribute the
        # spinner thread's stack frames.
        stop = threading.Event()
        spinner = threading.Thread(
            target=lambda: [_spin(0.01) for _ in iter(stop.is_set, True)],
            daemon=True,
        )
        spinner.start()
        try:
            with SamplingProfiler(hz=500) as profiler:
                time.sleep(0.1)  # this thread sleeps; spinner burns CPU
        finally:
            stop.set()
            spinner.join(timeout=2.0)
        for row in profiler.take_exemplar(top=10**6)["hotspots"]:
            assert "sleep" in row["stack"] or "_spin" not in row["stack"]


class TestExemplar:
    def test_take_exemplar_reports_and_drains(self):
        with SamplingProfiler(hz=500) as profiler:
            _spin(0.2)
        exemplar = profiler.take_exemplar(top=3)
        assert exemplar["hz"] == 500
        assert exemplar["samples"] > 0
        assert exemplar["phase_seconds"]
        assert len(exemplar["hotspots"]) <= 3
        # Drained: the next exemplar starts from zero.
        assert profiler.take_exemplar()["samples"] == 0

    def test_estimated_seconds_roughly_match_wall_clock(self):
        with SamplingProfiler(hz=500) as profiler:
            _spin(0.3)
        total = sum(profiler.take_exemplar()["phase_seconds"].values())
        # Sampling is stochastic; the estimate must be the right order of
        # magnitude, not exact.
        assert 0.03 <= total <= 1.0
