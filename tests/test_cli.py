"""Unit tests for the command-line interface."""

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

SIGMOD = """
<ProceedingsPage>
  <articles>
    <article key="p1"><title>Paper One.</title></article>
  </articles>
</ProceedingsPage>
"""


@pytest.fixture
def dblp_file(tmp_path):
    path = tmp_path / "dblp.xml"
    path.write_text(DBLP)
    return str(path)


@pytest.fixture
def sigmod_file(tmp_path):
    path = tmp_path / "sigmod.xml"
    path.write_text(SIGMOD)
    return str(path)


class TestQueryCommand:
    def test_similarity_query(self, dblp_file, capsys):
        status = main(
            [
                "query",
                "--source", f"dblp={dblp_file}",
                "--epsilon", "1",
                'inproceedings(author ~ "J. Smith")',
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "# 2 results" in out
        assert "Paper One" in out and "Paper Two" in out

    def test_join_query(self, dblp_file, sigmod_file, capsys):
        status = main(
            [
                "query",
                "--source", f"dblp={dblp_file}",
                "--source", f"sigmod={sigmod_file}",
                "--epsilon", "2",
                'inproceedings(title $a), //article(title $b) where $a ~ $b',
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "# 1 results" in out

    def test_bad_source_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(["query", "--source", "no-equals-sign", "a"])

    def test_measure_option(self, dblp_file, capsys):
        status = main(
            [
                "query",
                "--source", f"dblp={dblp_file}",
                "--measure", "jaro_winkler",
                "--epsilon", "0.1",
                'inproceedings(author ~ "J. Smith")',
            ]
        )
        assert status == 0


class TestSeoCommand:
    def test_seo_to_stdout(self, dblp_file, capsys):
        status = main(
            ["seo", "--source", f"dblp={dblp_file}", "--epsilon", "1"]
        )
        assert status == 0
        out = capsys.readouterr().out
        body = out[out.index("{"):]
        payload = json.loads(body)
        assert payload["measure"] == "levenshtein"

    def test_seo_to_file(self, dblp_file, tmp_path, capsys):
        out_path = tmp_path / "seo.json"
        status = main(
            [
                "seo",
                "--source", f"dblp={dblp_file}",
                "--out", str(out_path),
            ]
        )
        assert status == 0
        from repro.similarity.persistence import read_seo

        seo = read_seo(str(out_path))
        assert "J. Smith" in seo


class TestExperimentCommand:
    def test_fig15a_small(self, capsys):
        status = main(
            ["experiment", "fig15a", "--datasets", "1", "--papers", "40"]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "avg precision" in out

    @pytest.mark.parametrize("figure", ["fig15b", "fig15c"])
    def test_fig15_series_quick(self, figure, capsys):
        assert main(["experiment", figure, "--quick"]) == 0
        assert capsys.readouterr().out.strip()

    def test_fig16a_quick(self, capsys):
        assert main(["experiment", "fig16a", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "TAX" in out and "TOSS" in out

    def test_fig16b_quick(self, capsys):
        assert main(["experiment", "fig16b", "--quick"]) == 0
        assert "join" in capsys.readouterr().out

    def test_fig16c_quick(self, capsys):
        assert main(["experiment", "fig16c", "--quick"]) == 0
        assert "epsilon" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestSaveLoad:
    def test_save_then_query_loaded(self, dblp_file, tmp_path, capsys):
        store = str(tmp_path / "system")
        status = main(
            ["save", "--source", f"dblp={dblp_file}", "--epsilon", "1",
             "--out", store]
        )
        assert status == 0
        assert "saved 1 instances" in capsys.readouterr().out
        status = main(
            ["query", "--load", store, 'inproceedings(author ~ "J. Smith")']
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "# 2 results" in out

    def test_query_needs_source_or_load(self):
        with pytest.raises(SystemExit):
            main(["query", "a(b)"])


class TestDbCommand:
    @pytest.fixture
    def store(self, dblp_file, tmp_path, capsys):
        root = str(tmp_path / "system")
        assert main(
            ["save", "--source", f"dblp={dblp_file}", "--epsilon", "1",
             "--out", root]
        ) == 0
        capsys.readouterr()
        return root

    def test_verify_clean(self, store, capsys):
        assert main(["db", "verify", store]) == 0
        out = capsys.readouterr().out
        assert "0 quarantined" in out

    def test_verify_detects_corruption(self, store, tmp_path, capsys):
        victim = next((tmp_path / "system" / "database").glob("dblp.*.seg"))
        victim.write_text("garbage")
        assert main(["db", "verify", store]) == 1
        assert "1 quarantined" in capsys.readouterr().out
        assert victim.read_text() == "garbage"  # verify is read-only

    def test_recover_quarantines_and_rewrites(self, store, tmp_path, capsys):
        victim = next((tmp_path / "system" / "database").glob("dblp.*.seg"))
        victim.write_text("garbage")
        assert main(["db", "recover", store]) == 0
        out = capsys.readouterr().out
        assert "store rewritten" in out
        assert not victim.exists()  # superseded by a clean segment ...
        kept = tmp_path / "system" / "database" / ".quarantine" / "dblp"
        assert [p.read_text() for p in kept.iterdir()] == ["garbage\n"]  # ... bytes kept
        # after recovery the store verifies clean again
        assert main(["db", "verify", store]) == 0

    def test_verify_missing_store(self, tmp_path, capsys):
        assert main(["db", "verify", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err


class TestDbBuildCommand:
    def test_build_persists_and_reports(self, dblp_file, tmp_path, capsys):
        root = str(tmp_path / "system")
        status = main(
            ["db", "build", "--source", f"dblp={dblp_file}",
             "--epsilon", "1", root]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "build: measure=levenshtein epsilon=1.0" in out
        assert "isa:" in out
        assert f"saved 1 instances to {root}" in out
        # The persisted store answers queries.
        assert main(
            ["query", "--load", root, 'inproceedings(author ~ "J. Smith")']
        ) == 0
        assert "# 2 results" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "measure, path", [("levenshtein", "filtered"), ("damerau", "all-pairs")]
    )
    def test_summary_names_the_path_that_ran(
        self, dblp_file, tmp_path, capsys, measure, path
    ):
        # The q-gram filter is unsound for Damerau transpositions, so that
        # build verifies all pairs; the summary reports what ran.
        root = str(tmp_path / "system")
        assert main(
            ["db", "build", "--source", f"dblp={dblp_file}", "--epsilon", "1",
             "--measure", measure, root]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        relations = [line for line in lines if line.startswith("  isa:")]
        assert relations and all(line.endswith(f", {path}") for line in relations)
        assert not any("filter=" in line or "workers=" in line for line in lines)


class TestDbStatsCommand:
    def test_stats_after_build(self, dblp_file, tmp_path, capsys):
        root = str(tmp_path / "system")
        assert main(
            ["db", "build", "--source", f"dblp={dblp_file}",
             "--epsilon", "1", root]
        ) == 0
        capsys.readouterr()
        assert main(["db", "stats", root]) == 0
        out = capsys.readouterr().out
        assert "collections: 1" in out
        assert "xpath query cache" not in out
        assert "build: measure=levenshtein" in out
        assert "seo cache" not in out
        assert "pairs pruned" in out

    def test_stats_reports_the_saved_seos_chain_depth(self, dblp_file, tmp_path, capsys):
        # A load has no build state of its own: the lines describe the
        # served SEOs, as the build report saved with them says.
        root = str(tmp_path / "system")
        assert main(
            ["db", "build", "--source", f"dblp={dblp_file}",
             "--epsilon", "1", root]
        ) == 0
        capsys.readouterr()
        assert main(["db", "stats", root]) == 0
        out = capsys.readouterr().out
        assert "seo [isa]: delta chain depth 0 (full build)" in out
        assert "seo [part-of]: delta chain depth 0 (full build)" in out

    def test_stats_prints_a_report_with_the_retired_delta_rung(
        self, dblp_file, tmp_path, capsys
    ):
        import json
        import os

        root = str(tmp_path / "system")
        assert main(
            ["db", "build", "--source", f"dblp={dblp_file}",
             "--epsilon", "1", root]
        ) == 0
        report_path = os.path.join(root, "build_report.json")
        with open(report_path) as handle:
            payload = json.load(handle)
        for relation in payload["relations"]:
            relation.update(rung="delta", incremental=True)
            relation["sea"].update(incremental=True, reused_pairs=3)
        with open(report_path, "w") as handle:
            json.dump(payload, handle)
        capsys.readouterr()
        assert main(["db", "stats", root]) == 0
        out = capsys.readouterr().out
        assert "  isa: rung full (first-build)," in out
        assert "delta" not in out.replace("delta chain depth", "")

    def test_stats_without_build_report(self, dblp_file, tmp_path, capsys):
        # `save` predates the build report; stats must degrade gracefully.
        root = str(tmp_path / "system")
        assert main(
            ["save", "--source", f"dblp={dblp_file}", "--epsilon", "1",
             "--out", root]
        ) == 0
        import os

        report_path = os.path.join(root, "build_report.json")
        if os.path.exists(report_path):
            os.unlink(report_path)
        capsys.readouterr()
        assert main(["db", "stats", root]) == 0
        assert "build report: none persisted" in capsys.readouterr().out


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestRemovedOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--workers", "2", "--source", "dblp=x.xml", "paper(title)"],
            ["seo", "--workers", "2", "--source", "dblp=x.xml"],
            ["save", "--workers", "2", "--source", "dblp=x.xml", "--out", "x"],
            ["serve", "--workers", "2", "--source", "dblp=x.xml"],
            ["db", "build", "--workers", "2", "--source", "dblp=x.xml", "x"],
        ],
        ids=["query", "seo", "save", "serve", "db-build"],
    )
    def test_workers_flag_is_gone(self, argv, capsys):
        # The SEO build has one route; no flag selects a process pool.
        with pytest.raises(SystemExit):
            main(argv)
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--cache-dir", "DIR"], ["--no-cache"]],
                             ids=["cache-dir", "no-cache"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--source", "dblp=x.xml", "paper(title)"],
            ["serve", "--source", "dblp=x.xml"],
            ["explain", "--source", "dblp=x.xml", "paper(title)"],
            ["seo", "--source", "dblp=x.xml"],
            ["save", "--source", "dblp=x.xml", "--out", "x"],
            ["db", "build", "--source", "dblp=x.xml", "x"],
        ],
        ids=["query", "serve", "explain", "seo", "save", "db-build"],
    )
    def test_seo_cache_flags_are_gone(self, argv, flag, capsys):
        # save_system / load_system is the one SEO store; no flag reaches
        # a second one.
        with pytest.raises(SystemExit):
            main(argv + flag)
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
