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


class TestMakerPersistence:
    """``system.json`` format 2 carries the Ontology Maker."""

    RULES = [("isa", "workshop paper", "inproceedings")]

    @staticmethod
    def _venue_system(rules=()):
        """A corpus-lexicon system: the venue taxonomy lives in the maker."""
        from repro.data import generate_corpus, render_dblp
        from repro.data.lexicon_rules import corpus_lexicon
        from repro.ontology.maker import OntologyMaker

        corpus = generate_corpus(12, seed=3)
        maker = OntologyMaker(
            lexicon=corpus_lexicon(),
            content_tags={"author", "booktitle"},
            rules=rules,
            max_content_terms=500,
        )
        system = TossSystem(epsilon=2.0, maker=maker)
        keys = corpus.paper_keys()
        system.add_instance(
            "dblp", [render_dblp(corpus, seed=3, paper_keys=[key]) for key in keys[:-1]]
        )
        system.build()
        return system, render_dblp(corpus, seed=3, paper_keys=[keys[-1]])

    @staticmethod
    def _venue_and_category(system):
        """A venue string in the documents and the category above it."""
        from repro.data import VENUE_POOL

        categories = {venue.short: venue.category for venue in VENUE_POOL}
        for tree in system.instances["dblp"].trees:
            for node in tree.iter():
                if node.tag == "booktitle" and node.text in categories:
                    return node.text, categories[node.text]
        raise AssertionError("the corpus renders no short venue name")

    def test_maker_round_trips(self, tmp_path):
        system, _extra = self._venue_system(self.RULES)
        save_system(system, str(tmp_path / "sys"))
        loaded = load_system(str(tmp_path / "sys"))
        assert loaded.maker is not system.maker
        assert loaded.maker.to_dict() == system.maker.to_dict()
        assert loaded.maker.lexicon.to_dict() == system.maker.lexicon.to_dict()
        assert loaded.maker.content_tags == frozenset({"author", "booktitle"})
        assert loaded.maker.rules == self.RULES
        assert loaded.maker.max_content_terms == 500

    def test_instance_ontology_is_extracted_on_first_use(self, tmp_path):
        system, _extra = self._venue_system()
        save_system(system, str(tmp_path / "sys"))
        loaded = load_system(str(tmp_path / "sys"))
        assert "dblp" not in loaded._sources  # nothing extracted at load time
        assert loaded.instances["dblp"].ontology == system.instances["dblp"].ontology
        assert "dblp" in loaded._sources

    def test_write_after_load_keeps_the_venue_taxonomy(self, tmp_path):
        """No manual ``loaded.maker = ...``: the restored maker re-extracts,
        and the write is a delta, not a poisoned full re-fuse."""
        system, extra = self._venue_system()
        save_system(system, str(tmp_path / "sys"))
        loaded = load_system(str(tmp_path / "sys"))
        receipt = loaded.add_documents("dblp", extra)
        assert receipt.incremental and not loaded._poisoned
        loaded.build()
        system.add_documents("dblp", extra)
        system.build()
        venue, category = self._venue_and_category(system)
        assert loaded.seo.leq(venue, category)
        assert loaded.seo.leq(category, "conference")
        query = 'inproceedings(booktitle below "conference")'
        # (a loaded store scans in key order, hence sorted)
        assert (
            sorted(loaded.query("dblp", query).result_texts())
            == sorted(system.query("dblp", query).result_texts())
            != []
        )

    def test_write_after_load_keeps_the_dba_rules(self, tmp_path):
        system, extra = self._venue_system(self.RULES)
        save_system(system, str(tmp_path / "sys"))
        loaded = load_system(str(tmp_path / "sys"))
        loaded.add_documents("dblp", extra)  # rule-bearing: re-extracts in full
        loaded.build()
        assert loaded.seo.leq("workshop paper", "inproceedings")
        assert loaded.seo.leq(*self._venue_and_category(system))

    def test_format_1_is_refused_by_name(self, built_system, tmp_path):
        import json

        root = tmp_path / "sys"
        save_system(built_system, str(root))
        payload = json.loads((root / "system.json").read_text())
        assert payload["format"] == 2 and "lexicon" in payload["maker"]
        payload["format"] = 1
        del payload["maker"]
        (root / "system.json").write_text(json.dumps(payload))
        with pytest.raises(TossError, match="unsupported system format 1"):
            load_system(str(root))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("lexicon", {"format": 99}),
            ("content_tags", [1, 2]),
            ("rules", [["isa", "only-two"]]),
            ("max_content_terms", "many"),
        ],
    )
    def test_unrestorable_maker_field_is_named(self, built_system, tmp_path, field, value):
        import json

        root = tmp_path / "sys"
        save_system(built_system, str(root))
        payload = json.loads((root / "system.json").read_text())
        payload["maker"][field] = value
        (root / "system.json").write_text(json.dumps(payload))
        with pytest.raises(TossError, match=f"maker field '{field}'"):
            load_system(str(root))
        del payload["maker"][field]
        (root / "system.json").write_text(json.dumps(payload))
        with pytest.raises(TossError, match=f"maker field '{field}'"):
            load_system(str(root))
