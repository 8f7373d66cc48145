"""The ``serve`` subcommand."""

import io
import json

import pytest

from repro.cli import main

PAPERS = (
    "<bib>"
    + "".join(
        f"<paper key='p{index}'>"
        f"<title>Paper {index}</title>"
        f"<author>Author {index % 3}</author>"
        f"</paper>"
        for index in range(6)
    )
    + "</bib>"
)


@pytest.fixture
def papers_file(tmp_path):
    path = tmp_path / "papers.xml"
    path.write_text(PAPERS)
    return str(path)


@pytest.fixture
def queries_file(tmp_path):
    path = tmp_path / "queries.txt"
    path.write_text(
        'paper(author ~ "Author 1")\n'
        "# a comment, skipped\n"
        "\n"
        'paper(author ~ "Author 2")\n'
    )
    return str(path)


class TestServeCommand:
    def test_serves_a_batch(self, papers_file, queries_file, capsys):
        status = main(
            [
                "serve",
                "--source", f"papers={papers_file}",
                "--epsilon", "2",
                "--queries", queries_file,
                "--pool", "2",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "# served 2 queries with 2 workers, 0 errors" in out
        assert 'paper(author ~ "Author 1")' in out

    def test_json_output(self, papers_file, queries_file, capsys):
        status = main(
            [
                "serve",
                "--source", f"papers={papers_file}",
                "--epsilon", "2",
                "--queries", queries_file,
                "--pool", "1",
                "--json",
            ]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert all(entry["ok"] for entry in payload)
        assert all("report" in entry for entry in payload)

    def test_query_error_sets_exit_status(self, papers_file, tmp_path, capsys):
        queries = tmp_path / "bad.txt"
        queries.write_text('paper(author ~ "Author 1")\npaper(((\n')
        status = main(
            [
                "serve",
                "--source", f"papers={papers_file}",
                "--epsilon", "2",
                "--queries", str(queries),
                "--pool", "1",
            ]
        )
        assert status == 1
        out = capsys.readouterr().out
        assert "# ERROR" in out
        assert "1 errors" in out

    def test_reads_stdin_by_default(self, papers_file, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO('paper(author ~ "Author 1")\n')
        )
        status = main(
            [
                "serve",
                "--source", f"papers={papers_file}",
                "--epsilon", "2",
                "--pool", "1",
            ]
        )
        assert status == 0
        assert "# served 1 queries" in capsys.readouterr().out

    def test_empty_input(self, papers_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("# only comments\n"))
        status = main(
            [
                "serve",
                "--source", f"papers={papers_file}",
                "--epsilon", "2",
            ]
        )
        assert status == 0
        assert "no queries" in capsys.readouterr().err

    def test_deadline_budget_is_enforced(self, papers_file, tmp_path, capsys):
        queries = tmp_path / "q.txt"
        queries.write_text('paper(author ~ "Author 1")\n')
        status = main(
            [
                "serve",
                "--source", f"papers={papers_file}",
                "--epsilon", "2",
                "--queries", str(queries),
                "--pool", "1",
                "--max-steps", "1",
            ]
        )
        assert status == 1
        assert "ResourceExhaustedError" in capsys.readouterr().out


class TestServeStats:
    def test_stats_prints_rolling_status_line(
        self, papers_file, queries_file, capsys
    ):
        status = main(
            [
                "serve",
                "--source", f"papers={papers_file}",
                "--epsilon", "2",
                "--queries", queries_file,
                "--pool", "1",
                "--stats",
            ]
        )
        assert status == 0
        captured = capsys.readouterr()
        assert "# served 2 queries" in captured.out
        # The final status line lands on stderr and reflects the batch.
        assert "[10s]" in captured.err


class TestRemovedOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--jobs", "2", "--source", "papers=x.xml", "paper(title)"],
            ["serve", "--degrade-partial", "--source", "papers=x.xml"],
        ],
    )
    def test_intra_query_parallelism_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert "unrecognized arguments" in capsys.readouterr().err
