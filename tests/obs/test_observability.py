"""Observability wiring: sinks under a root, and the executor integration."""

import json

import pytest

from repro.core.conditions import SeoConditionContext
from repro.core.executor import ExecutionReport, QueryExecutor
from repro.core.parser import parse_query
from repro.guard import ResourceGuard
from repro.obs import (
    DEFAULT_SLOW_QUERY_SECONDS,
    NULL_OBSERVABILITY,
    REGISTRY,
    Observability,
    for_root,
    obs_directory,
)
from repro.obs.trace import NULL_TRACER
from repro.ontology import Hierarchy
from repro.similarity.measures import Levenshtein
from repro.similarity.seo import SimilarityEnhancedOntology
from repro.xmldb.database import Database

DBLP = """
<dblp>
  <inproceedings key="p1">
    <author>J. Smith</author>
    <title>Paper One</title>
    <booktitle>SIGMOD Conference</booktitle>
  </inproceedings>
  <inproceedings key="p2">
    <author>J. Smyth</author>
    <title>Paper Two</title>
    <booktitle>VLDB</booktitle>
  </inproceedings>
</dblp>
"""


@pytest.fixture
def executor_factory():
    def build(observability=None):
        database = Database()
        database.create_collection("dblp").add_document("d", DBLP)
        hierarchy = Hierarchy(
            [("J. Smith", "author"), ("J. Smyth", "author"),
             ("SIGMOD Conference", "database conference")]
        )
        seo = SimilarityEnhancedOntology.for_hierarchy(
            hierarchy, Levenshtein(), 1.0
        )
        return QueryExecutor(
            database, SeoConditionContext(seo), observability=observability
        )

    return build


class TestObservabilityConfig:
    def test_disabled_is_the_default_and_allocates_nothing(self):
        assert NULL_OBSERVABILITY.tracer() is NULL_TRACER
        assert NULL_OBSERVABILITY.record_query("selection") is False
        assert NULL_OBSERVABILITY.flush_metrics() is None

    def test_enabled_without_directory_traces_in_memory(self):
        obs = Observability(enabled=True)
        tracer = obs.tracer()
        assert tracer is not NULL_TRACER
        assert obs.event_log is None and obs.slow_log is None
        assert obs.record_query("selection", total_seconds=10.0) is False

    def test_for_root_lays_out_the_obs_directory(self, tmp_path):
        obs = for_root(tmp_path, slow_query_seconds=0.0)
        assert obs.slow_query_seconds == 0.0
        captured = obs.record_query(
            "selection", query="q", total_seconds=0.01,
            trace={"name": "query.selection", "seconds": 0.01},
            plan_lines=["tag in {inproceedings}"],
        )
        assert captured is True
        directory = obs_directory(tmp_path)
        events = (directory / "events.jsonl").read_text().splitlines()
        assert json.loads(events[0])["event"] == "selection"
        slow = json.loads(
            (directory / "slow_queries.jsonl").read_text().splitlines()[0]
        )
        assert slow["trace"]["name"] == "query.selection"
        assert slow["plan"] == ["tag in {inproceedings}"]

    def test_slow_log_gated_by_default_threshold(self, tmp_path):
        obs = for_root(tmp_path)
        assert obs.record_query(
            "selection", total_seconds=DEFAULT_SLOW_QUERY_SECONDS / 2
        ) is False
        assert obs.record_query(
            "selection", total_seconds=DEFAULT_SLOW_QUERY_SECONDS
        ) is True

    def test_flush_metrics_merges_to_disk(self, tmp_path):
        obs = for_root(tmp_path)
        REGISTRY.counter("test.flush").inc(2)
        try:
            snapshot = obs.flush_metrics()
            assert snapshot["test.flush"]["value"] >= 2
        finally:
            REGISTRY._instruments.pop("test.flush", None)


class TestExecutorIntegration:
    QUERY = 'inproceedings(author ~ "J. Smith")'

    def test_trace_attached_with_expected_stages(self, executor_factory):
        executor = executor_factory(Observability(enabled=True))
        parsed = parse_query(self.QUERY)
        report = executor.selection("dblp", parsed.pattern, sl_labels=[1])
        trace = report.trace
        assert trace["name"] == "query.selection"
        stages = [child["name"] for child in trace["children"]]
        assert stages == ["rewrite", "plan", "xpath", "verify"]
        assert trace["attributes"]["results"] == len(report.results)

    def test_stage_durations_sum_to_wall_time(self, executor_factory):
        executor = executor_factory(Observability(enabled=True))
        parsed = parse_query(self.QUERY)
        report = executor.selection("dblp", parsed.pattern, sl_labels=[1])
        trace = report.trace
        stage_sum = sum(c["seconds"] for c in trace["children"])
        # The four phases cover the whole query: anything outside them is
        # loop scaffolding, bounded well under half the wall time.
        assert stage_sum <= trace["seconds"] + 1e-6
        assert stage_sum >= trace["seconds"] * 0.5

    def test_disabled_observability_leaves_no_trace(self, executor_factory):
        executor = executor_factory(None)
        parsed = parse_query(self.QUERY)
        report = executor.selection("dblp", parsed.pattern, sl_labels=[1])
        assert report.trace is None

    def test_guard_stage_ticks_sum_to_total(self, executor_factory):
        executor = executor_factory(Observability(enabled=True))
        parsed = parse_query(self.QUERY)
        guard = ResourceGuard(max_steps=10**9)
        report = executor.selection(
            "dblp", parsed.pattern, sl_labels=[1], guard=guard
        )
        assert guard.steps > 0
        assert sum(guard.stage_steps.values()) == guard.steps
        assert report.trace["attributes"]["guard_steps"] == guard.steps
        assert report.trace["attributes"]["guard_stages"] == guard.stage_steps

    def test_slow_query_capture_from_executor(self, executor_factory, tmp_path):
        obs = for_root(tmp_path, slow_query_seconds=0.0)
        executor = executor_factory(obs)
        parsed = parse_query(self.QUERY)
        executor.selection("dblp", parsed.pattern, sl_labels=[1])
        entries = obs.slow_log.read()
        assert len(entries) == 1
        assert entries[0]["event"] == "selection"
        assert entries[0]["trace"]["name"] == "query.selection"
