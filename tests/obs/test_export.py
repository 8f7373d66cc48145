"""Unit tests for telemetry export (repro.obs.export)."""

import json
import math

import pytest

from repro.obs.export import (
    format_status_line,
    metric_name,
    parse_prometheus,
    render_json,
    render_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.window import WindowRegistry

NOW = 1_700_000_000


@pytest.fixture
def snapshot():
    registry = MetricsRegistry()
    registry.counter("executor.queries").inc(7)
    registry.gauge("pool.workers").set(4)
    registry.histogram("executor.seconds", [0.1, 1.0]).observe(0.05)
    registry.histogram("executor.seconds").observe(0.5)
    return registry.snapshot()


@pytest.fixture
def window_stats():
    windows = WindowRegistry()
    windows.observe("selection", 0.01, now=NOW)
    windows.observe("join", 0.2, error=True, now=NOW)
    return windows.multi_stats(now=NOW)


class TestMetricName:
    def test_dots_become_underscores_with_namespace(self):
        assert metric_name("executor.query_seconds") == (
            "toss_executor_query_seconds"
        )

    def test_empty_namespace_drops_prefix(self):
        assert metric_name("a.b", namespace="") == "a_b"

    def test_leading_digit_gets_guarded(self):
        assert metric_name("1xx", namespace="")[0] not in "0123456789"


class TestRenderPrometheus:
    def test_counter_total_suffix_and_value(self, snapshot):
        text = render_prometheus(snapshot)
        assert "# TYPE toss_executor_queries_total counter" in text
        assert "toss_executor_queries_total 7" in text

    def test_gauge(self, snapshot):
        text = render_prometheus(snapshot)
        assert "toss_pool_workers 4" in text

    def test_histogram_buckets_are_cumulative(self, snapshot):
        text = render_prometheus(snapshot)
        assert 'toss_executor_seconds_bucket{le="0.1"} 1' in text
        assert 'toss_executor_seconds_bucket{le="1"} 2' in text
        assert 'toss_executor_seconds_bucket{le="+Inf"} 2' in text
        assert "toss_executor_seconds_count 2" in text

    def test_window_gauges_labelled_by_class_and_window(
        self, snapshot, window_stats
    ):
        text = render_prometheus(snapshot, window_stats)
        assert (
            'toss_window_qps{class="selection",window="10s"} 0.1' in text
        )
        assert 'toss_window_error_rate{class="join",window="1s"} 1' in text

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == ""


class TestRoundTrip:
    def test_every_sample_survives_parse(self, snapshot, window_stats):
        text = render_prometheus(snapshot, window_stats)
        families = parse_prometheus(text)
        assert families["toss_executor_queries_total"]["type"] == "counter"
        assert families["toss_executor_queries_total"]["samples"] == [
            ({}, 7.0)
        ]
        buckets = families["toss_executor_seconds_bucket"]
        assert buckets["type"] == "histogram"
        inf_samples = [
            value for labels, value in buckets["samples"]
            if labels["le"] == "+Inf"
        ]
        assert inf_samples == [2.0]
        qps = families["toss_window_qps"]["samples"]
        assert ({"class": "selection", "window": "10s"}, 0.1) in qps

    def test_label_escaping_round_trips(self):
        windows = WindowRegistry()
        windows.observe('we"ird\\class', 0.01, now=NOW)
        text = render_prometheus({}, windows.multi_stats(now=NOW))
        families = parse_prometheus(text)
        classes = {
            labels["class"]
            for labels, _ in families["toss_window_requests"]["samples"]
        }
        assert 'we"ird\\class' in classes

    def test_inf_value_parses(self):
        families = parse_prometheus('x_bucket{le="+Inf"} +Inf\n')
        ((labels, value),) = families["x_bucket"]["samples"]
        assert math.isinf(value)

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is { not exposition format\n")


class TestRenderJson:
    def test_payload_shape(self, snapshot, window_stats):
        payload = json.loads(render_json(snapshot, window_stats))
        assert payload["format"] == 1
        assert payload["metrics"]["executor.queries"]["value"] == 7
        assert payload["windows"]["selection"]["10"]["count"] == 1


class TestStatusLine:
    def test_quiet_registry_reports_no_traffic(self):
        assert format_status_line({}) == "[10s] (no traffic)"

    def test_line_shows_each_active_class(self, window_stats):
        line = format_status_line(window_stats, window=10)
        assert line.startswith("[10s] ")
        assert "selection qps=0.1" in line
        assert "join" in line
        assert "p95=" in line and "burn=" in line

    def test_latencies_format_ms_vs_seconds(self):
        windows = WindowRegistry()
        windows.observe("slow", 3.0, now=NOW)
        line = format_status_line(windows.multi_stats(now=NOW), window=10)
        assert "s" in line.split("p50=")[1]
