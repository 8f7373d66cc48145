"""CLI tests for the observability commands: explain, db trace, db obs."""

import json

import pytest

from repro.cli import main

DBLP = """
<dblp>
  <inproceedings key="p1">
    <author>J. Smith</author>
    <title>Paper One</title>
  </inproceedings>
  <inproceedings key="p2">
    <author>J. Smyth</author>
    <title>Paper Two</title>
  </inproceedings>
</dblp>
"""

QUERY = 'inproceedings(author ~ "J. Smith")'


@pytest.fixture
def dblp_file(tmp_path):
    path = tmp_path / "dblp.xml"
    path.write_text(DBLP)
    return str(path)


@pytest.fixture
def store(dblp_file, tmp_path, capsys):
    root = str(tmp_path / "store")
    assert main(
        ["db", "build", "--source", f"dblp={dblp_file}", "--epsilon", "1", root]
    ) == 0
    capsys.readouterr()  # discard build output
    return root


class TestExplainCommand:
    def test_explain_from_source(self, dblp_file, capsys):
        status = main(
            ["explain", "--source", f"dblp={dblp_file}", "--epsilon", "1",
             QUERY]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "original :" in out
        assert "rewritten:" in out
        assert "xpath[0]" in out

    def test_explain_json(self, store, capsys):
        assert main(["explain", "--load", store, "--json", QUERY]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["xpath_queries"]
        assert "index_plan" in payload


class TestDbTraceCommand:
    def test_trace_prints_span_tree_and_stage_line(self, store, capsys):
        status = main(["db", "trace", store, QUERY])
        assert status == 0
        out = capsys.readouterr().out
        assert "# 2 results" in out
        assert "query.selection" in out
        for stage in ("rewrite", "plan", "xpath", "verify"):
            assert stage in out
        assert "# stages account for" in out
        assert "wall" in out

    def test_trace_names_the_fixed_bounds_when_spans_drop(
        self, store, capsys, monkeypatch
    ):
        from repro.obs import Observability, Tracer

        # A tracer bounded below the query's span count, so spans drop.
        monkeypatch.setattr(Observability, "tracer", lambda self: Tracer(max_spans=3))
        assert main(["db", "trace", store, QUERY]) == 0
        out = capsys.readouterr().out
        assert (
            "span(s) dropped at the tree bound (see the trace.spans_dropped "
            "counter; the bounds are fixed: repro.obs.trace.DEFAULT_MAX_SPANS "
            "= 2048, DEFAULT_MAX_DEPTH = 16)"
        ) in out
        assert "raise max_spans" not in out

    def test_trace_stage_seconds_sum_to_wall_time(self, store, capsys):
        assert main(["db", "trace", store, "--json", QUERY]) == 0
        payload = json.loads(capsys.readouterr().out)
        trace = payload["trace"]
        assert trace["name"] == "query.selection"
        stage_sum = sum(child["seconds"] for child in trace["children"])
        assert stage_sum <= trace["seconds"] + 1e-6
        assert stage_sum >= trace["seconds"] * 0.5

    def test_trace_populates_slow_log_when_threshold_zero(
        self, store, capsys
    ):
        assert main(
            ["db", "trace", store, "--slow-threshold", "0", QUERY]
        ) == 0
        capsys.readouterr()
        assert main(["db", "obs", "slow", store]) == 0
        out = capsys.readouterr().out
        assert "selection" in out
        # The logged query is the compiled XPath form of the pattern.
        assert "inproceedings" in out


class TestDbObsCommands:
    def test_metrics_after_traced_query(self, store, capsys):
        assert main(["db", "trace", store, QUERY]) == 0
        capsys.readouterr()
        assert main(["db", "obs", "metrics", store]) == 0
        out = capsys.readouterr().out
        assert "executor.queries" in out
        assert "executor.seconds" in out

    def test_metrics_json(self, store, capsys):
        assert main(["db", "trace", store, QUERY]) == 0
        capsys.readouterr()
        assert main(["db", "obs", "metrics", store, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["executor.queries"]["type"] == "counter"
        assert payload["executor.queries"]["value"] >= 1

    def test_slow_with_trace_renders_span_tree(self, store, capsys):
        assert main(
            ["db", "trace", store, "--slow-threshold", "0", QUERY]
        ) == 0
        capsys.readouterr()
        assert main(["db", "obs", "slow", store, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "query.selection" in out
        assert "plan:" in out

    def test_slow_empty(self, store, capsys):
        assert main(["db", "obs", "slow", store]) == 0
        assert "(no slow queries recorded)" in capsys.readouterr().out


class TestDbTraceRequestFlag:
    def test_no_query_and_no_request_is_an_error(self, store, capsys):
        assert main(["db", "trace", store]) == 2
        assert "needs a query" in capsys.readouterr().err

    def test_trace_prints_request_id_header(self, store, capsys):
        assert main(["db", "trace", store, QUERY]) == 0
        out = capsys.readouterr().out
        header = [line for line in out.splitlines()
                  if line.startswith("# request ")]
        assert len(header) == 1
        rid = header[0].split()[-1]
        assert len(rid) == 16

    def test_request_timeline_after_slow_traced_query(self, store, capsys):
        assert main(
            ["db", "trace", store, "--slow-threshold", "0", QUERY]
        ) == 0
        out = capsys.readouterr().out
        rid = next(
            line.split()[-1] for line in out.splitlines()
            if line.startswith("# request ")
        )
        assert main(["db", "trace", store, "--request", rid]) == 0
        out = capsys.readouterr().out
        assert f"# request {rid}" in out
        assert "query.selection" in out  # the slow-log span tree rides in


class TestDbTraceProfile:
    def test_profile_flag_reports_samples_and_phases(self, store, capsys):
        assert main(
            ["db", "trace", store, "--profile-hz", "500", QUERY]
        ) == 0
        out = capsys.readouterr().out
        assert "# profile:" in out
        assert "Hz" in out

    def test_profile_json_attaches_exemplar(self, store, capsys):
        assert main(
            ["db", "trace", store, "--json", "--profile-hz", "500", QUERY]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"]["hz"] == 500.0
        assert "phase_seconds" in payload["profile"]


class TestDbObsExport:
    def test_prometheus_export_round_trips(self, store, capsys):
        """Acceptance: ``db obs export --format prometheus`` output must
        survive a parse of the exposition format."""
        from repro.obs.export import parse_prometheus

        assert main(["db", "trace", store, QUERY]) == 0
        capsys.readouterr()
        assert main(["db", "obs", "export", store]) == 0
        text = capsys.readouterr().out
        families = parse_prometheus(text)
        assert families["toss_executor_queries_total"]["type"] == "counter"
        (sample,) = families["toss_executor_queries_total"]["samples"]
        assert sample[1] >= 1.0
        assert any(name.endswith("_bucket") for name in families)

    def test_json_export_shape(self, store, capsys):
        assert main(["db", "trace", store, QUERY]) == 0
        capsys.readouterr()
        assert main(["db", "obs", "export", store, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["executor.queries"]["value"] >= 1

    def test_out_writes_file(self, store, tmp_path, capsys):
        from repro.obs.export import parse_prometheus

        assert main(["db", "trace", store, QUERY]) == 0
        capsys.readouterr()
        target = tmp_path / "metrics.prom"
        assert main(
            ["db", "obs", "export", store, "--out", str(target)]
        ) == 0
        assert "wrote prometheus export" in capsys.readouterr().out
        assert parse_prometheus(target.read_text())

    def test_export_empty_store_is_empty_but_ok(self, store, capsys):
        from repro.obs.window import WINDOWS

        # Rolling windows are process-local; clear residue from earlier
        # in-process queries so only the store's (empty) metrics show.
        WINDOWS.reset()
        assert main(["db", "obs", "export", store]) == 0
        assert capsys.readouterr().out.strip() == ""


class TestQueryJsonAndNoObs:
    def test_query_prints_request_id_on_stderr(self, store, capsys):
        assert main(["query", "--load", store, QUERY]) == 0
        captured = capsys.readouterr()
        assert "# request " in captured.err
        assert "# request " not in captured.out  # stdout layout unchanged


    def test_query_json_report(self, store, capsys):
        assert main(["query", "--load", store, "--json", QUERY]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result_count"] == 2
        assert len(payload["results"]) == 2
        assert "total_seconds" in payload

    def test_no_obs_skips_sink_attachment(self, store, tmp_path, capsys):
        assert main(["query", "--load", store, "--no-obs", QUERY]) == 0
        capsys.readouterr()
        # Nothing recorded: the obs metrics file was never flushed to.
        assert main(["db", "obs", "metrics", store]) == 0
        assert "(no metrics recorded)" in capsys.readouterr().out
