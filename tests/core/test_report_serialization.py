"""Round-trip tests for the canonical report serializers.

``ExecutionReport.to_dict``/``from_dict`` is the single serialization
path shared by the CLI (``query --json``, ``db trace``), the experiment
runner and the event sinks; these tests pin the round trip and guard
against a field being added to the dataclass without a serializer entry.
"""

import dataclasses

from repro.core.build_report import BuildReport, RelationBuild
from repro.core.executor import ExecutionReport
from repro.xmldb.parser import parse_fragment
from repro.xmldb.serializer import serialize

TRACE = {
    "name": "query.selection",
    "seconds": 0.012,
    "attributes": {"results": 1},
    "children": [
        {"name": "rewrite", "seconds": 0.002},
        {"name": "xpath", "seconds": 0.01},
    ],
}


def sample_report(**overrides):
    values = dict(
        results=[parse_fragment("<inproceedings key='p1'><title>T</title></inproceedings>")],
        rewrite_seconds=0.002,
        planner_seconds=0.001,
        xpath_seconds=0.01,
        convert_seconds=0.003,
        xpath_queries=["//inproceedings[title]", "//inproceedings[author]"],
        candidates=5,
        ontology_accesses=7,
        degraded=False,
        docs_total=10,
        docs_scanned=4,
        index_used=True,
        plan_cache_hit=True,
        trace=dict(TRACE),
    )
    values.update(overrides)
    return ExecutionReport(**values)


class TestExecutionReportRoundTrip:
    def test_scalars_survive(self):
        report = sample_report()
        rebuilt = ExecutionReport.from_dict(report.to_dict())
        for name in ExecutionReport._SCALAR_FIELDS:
            assert getattr(rebuilt, name) == getattr(report, name), name
        assert rebuilt.trace == report.trace
        assert rebuilt.total_seconds == report.total_seconds
        assert rebuilt.docs_pruned == report.docs_pruned

    def test_results_reparsed_when_included(self):
        report = sample_report()
        payload = report.to_dict(include_results=True)
        rebuilt = ExecutionReport.from_dict(payload)
        assert len(rebuilt.results) == 1
        assert serialize(rebuilt.results[0]) == serialize(report.results[0])

    def test_results_omitted_by_default(self):
        payload = sample_report().to_dict()
        assert "results" not in payload
        assert payload["result_count"] == 1
        assert ExecutionReport.from_dict(payload).results == []

    def test_trace_omitted_when_absent(self):
        payload = sample_report(trace=None).to_dict()
        assert "trace" not in payload
        assert ExecutionReport.from_dict(payload).trace is None

    def test_derived_fields_match_payload(self):
        report = sample_report()
        payload = report.to_dict()
        assert payload["total_seconds"] == report.total_seconds
        assert payload["docs_pruned"] == 6

    def test_scalar_fields_cover_the_dataclass(self):
        # Drift guard: a field added to ExecutionReport must either be a
        # serialized scalar or one of the two specially-handled fields.
        field_names = {f.name for f in dataclasses.fields(ExecutionReport)}
        assert field_names == set(ExecutionReport._SCALAR_FIELDS) | {
            "results",
            "trace",
        }


class TestBuildReportRoundTrip:
    def sample(self):
        return BuildReport(
            measure="levenshtein",
            epsilon=2.0,
            mode="order-safe",
            build_seconds=1.25,
            relations=[
                RelationBuild(
                    relation="isa",
                    fusion_seconds=0.5,
                    sea_seconds=0.7,
                    total_seconds=1.2,
                    sea={"total_pairs": 10, "pairs_pruned": 4, "candidates": 6},
                )
            ],
            trace={
                "name": "build",
                "seconds": 1.25,
                "children": [{"name": "relation.isa", "seconds": 1.2}],
            },
        )

    def test_round_trip(self):
        report = self.sample()
        rebuilt = BuildReport.from_dict(report.to_dict())
        assert rebuilt.to_dict() == report.to_dict()
        assert rebuilt.trace == report.trace
        assert rebuilt.relations[0].relation == "isa"
        assert rebuilt.total_pairs == 10

    def test_trace_omitted_when_absent(self):
        report = self.sample()
        report.trace = None
        payload = report.to_dict()
        assert "trace" not in payload
        assert BuildReport.from_dict(payload).trace is None

    def test_reports_written_with_build_route_keys_still_load(self):
        expected = self.sample().to_dict()
        route_keys = dict(expected, workers=2, candidate_filter=True)
        # Stores saved while a content-keyed SEO cache existed carry its
        # outcome on the report and on every relation.
        cache_keys = dict(
            expected,
            cache_used=True,
            relations=[
                dict(relation, cache_hit=True, cache_key="0" * 64)
                for relation in expected["relations"]
            ],
        )
        for payload in (route_keys, cache_keys):
            assert BuildReport.from_dict(payload).to_dict() == expected
        # Stores saved while SEA could replay a verdict cache carry a
        # "delta" rung and the replay's counters: SEA ran, so it is full,
        # and the old counters stay on the record.
        old_sea = dict(expected["relations"][0]["sea"], incremental=True, reused_pairs=7)
        delta_keys = dict(
            expected,
            relations=[
                dict(relation, rung="delta", incremental=True, sea=old_sea)
                for relation in expected["relations"]
            ],
        )
        loaded = BuildReport.from_dict(delta_keys)
        assert loaded.to_dict() == dict(
            expected,
            relations=[
                dict(relation, sea=old_sea) for relation in expected["relations"]
            ],
        )
        assert "isa: rung full, " in loaded.summary()
        assert loaded.candidates == 6
