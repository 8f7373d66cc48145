"""Unit tests for whole-system persistence."""

import pytest

from repro.errors import TossError
from repro.core.parser import parse_query
from repro.core.persistence import load_system, save_system
from repro.core.system import TossSystem
from repro.data import samples


@pytest.fixture
def built_system():
    return samples.sample_system(epsilon=3.0)


class TestRoundTrip:
    def test_queries_survive(self, built_system, tmp_path):
        save_system(built_system, str(tmp_path / "sys"))
        loaded = load_system(str(tmp_path / "sys"))
        query = "inproceedings(title $a), //article(title $b) where $a ~ $b"
        original = built_system.query(
            "dblp", query, right_collection="sigmod"
        ).results
        restored = loaded.query("dblp", query, right_collection="sigmod").results
        assert {t.canonical_key() for t in original} == {
            t.canonical_key() for t in restored
        }

    def test_configuration_survives(self, built_system, tmp_path):
        save_system(built_system, str(tmp_path / "sys"))
        loaded = load_system(str(tmp_path / "sys"))
        assert loaded.epsilon == built_system.epsilon
        assert loaded.measure.name == built_system.measure.name
        assert sorted(loaded.instances) == sorted(built_system.instances)
        assert loaded.ontology_size() == built_system.ontology_size()

    def test_constraints_survive_and_rebuild_works(self, built_system, tmp_path):
        save_system(built_system, str(tmp_path / "sys"))
        loaded = load_system(str(tmp_path / "sys"))
        loaded.build()  # recompute from restored documents + constraints
        assert loaded.seo.leq("SIGMOD Conference", "booktitle")

    def test_part_of_relation_restored(self, built_system, tmp_path):
        save_system(built_system, str(tmp_path / "sys"))
        loaded = load_system(str(tmp_path / "sys"))
        assert "part-of" in loaded.context.seos


class TestErrors:
    def test_unbuilt_system_rejected(self, tmp_path):
        system = TossSystem()
        system.add_instance("x", "<a><b>1</b></a>")
        with pytest.raises(TossError):
            save_system(system, str(tmp_path / "sys"))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(TossError):
            load_system(str(tmp_path / "nothing-here"))

    def test_corrupt_system_file(self, tmp_path):
        save_system(samples.sample_system(epsilon=3.0), str(tmp_path / "sys"))
        (tmp_path / "sys" / "system.json").write_text("{torn")
        with pytest.raises(TossError):
            load_system(str(tmp_path / "sys"))


class TestCorruptionRecovery:
    def test_corrupt_document_raises_by_default(self, built_system, tmp_path):
        root = tmp_path / "sys"
        save_system(built_system, str(root))
        victim = next((root / "database").glob("dblp.*.seg"))
        victim.write_text("garbage")
        from repro.errors import StorageCorruptionError

        with pytest.raises(StorageCorruptionError):
            load_system(str(root))

    def test_corrupt_document_quarantined(self, built_system, tmp_path):
        root = tmp_path / "sys"
        save_system(built_system, str(root))
        victim = next((root / "database").glob("dblp.*.seg"))
        victim.write_text("garbage")
        loaded = load_system(str(root), on_corruption="quarantine")
        report = loaded.database.recovery_report
        assert len(report.quarantined) == 1
        # the surviving collections still answer queries
        out = loaded.query("sigmod", "article(title)")
        assert len(out.results) > 0

    def test_corrupt_seo_rebuilt_from_documents(self, built_system, tmp_path):
        root = tmp_path / "sys"
        save_system(built_system, str(root))
        (root / "seo" / "isa.json").write_text("{torn json")
        with pytest.raises(TossError):
            load_system(str(root))
        loaded = load_system(str(root), on_corruption="quarantine")
        assert not loaded.degraded  # rebuilt, not degraded
        query = "inproceedings(title $a), //article(title $b) where $a ~ $b"
        original = built_system.query(
            "dblp", query, right_collection="sigmod"
        ).results
        restored = loaded.query("dblp", query, right_collection="sigmod").results
        assert {t.canonical_key() for t in original} == {
            t.canonical_key() for t in restored
        }
