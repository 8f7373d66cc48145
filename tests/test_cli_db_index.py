"""Unit tests for the ``db index`` command group."""

import pathlib

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


@pytest.fixture
def store(tmp_path, capsys):
    path = tmp_path / "dblp.xml"
    path.write_text(DBLP)
    root = str(tmp_path / "system")
    assert main(
        ["save", "--source", f"dblp={path}", "--epsilon", "1", "--out", root]
    ) == 0
    capsys.readouterr()
    return root


def _index_file(tmp_path):
    files = list(
        (tmp_path / "system" / "database" / ".indexes").glob("*.idx")
    )
    assert files, "expected a persisted index file"
    return files[0]


class TestDbIndexCommand:
    def test_build_then_verify(self, store, tmp_path, capsys):
        assert main(["db", "index", "build", store]) == 0
        out = capsys.readouterr().out
        assert "built index [dblp]: 1 documents" in out
        assert _index_file(tmp_path).exists()
        assert main(["db", "index", "verify", store]) == 0
        assert "search index [dblp]: ok" in capsys.readouterr().out

    def test_verify_fails_on_missing_index(self, store, tmp_path, capsys):
        index_dir = tmp_path / "system" / "database" / ".indexes"
        if index_dir.exists():
            for f in index_dir.glob("*.idx"):
                f.unlink()
        assert main(["db", "index", "verify", store]) == 1
        assert "missing" in capsys.readouterr().out

    def test_verify_fails_on_corruption_build_repairs(
        self, store, tmp_path, capsys
    ):
        assert main(["db", "index", "build", store]) == 0
        _index_file(tmp_path).write_text("{broken")
        assert main(["db", "index", "verify", store]) == 1
        assert "corrupt" in capsys.readouterr().out
        # A rebuild repairs it; verify passes again.
        assert main(["db", "index", "build", store]) == 0
        capsys.readouterr()
        assert main(["db", "index", "verify", store]) == 0

    def test_stats_reports_but_never_fails(self, store, tmp_path, capsys):
        assert main(["db", "index", "build", store]) == 0
        _index_file(tmp_path).write_text("{broken")
        # stats is informational: exit 0 even with a damaged index.
        assert main(["db", "index", "stats", store]) == 0
        assert "corrupt" in capsys.readouterr().out

    def test_build_missing_store_errors(self, tmp_path, capsys):
        assert main(["db", "index", "build", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_db_stats_includes_index_health(self, store, capsys):
        assert main(["db", "index", "build", store]) == 0
        capsys.readouterr()
        assert main(["db", "stats", store]) == 0
        out = capsys.readouterr().out
        assert "search index [dblp]: ok" in out
        assert "postings" in out

    def test_db_stats_prints_bytes_per_part(self, store, tmp_path, capsys):
        assert main(["db", "index", "build", store]) == 0
        capsys.readouterr()
        assert main(["db", "stats", store]) == 0
        out = capsys.readouterr().out
        database = tmp_path / "system" / "database"
        (segment,) = database.glob("*.seg")
        assert f"store [segments]: {segment.stat().st_size} bytes, " in out
        index = _index_file(tmp_path)
        assert f"store [indexes]: {index.stat().st_size} bytes, " in out
        for part in ("seo", "manifest", "total"):
            assert f"store [{part}]: " in out
        total = sum(
            p.stat().st_size for p in (tmp_path / "system").rglob("*") if p.is_file()
        )
        assert f"store [total]: {total} bytes, " in out
        assert "x the documents" in out
