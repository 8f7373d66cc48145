"""Unit tests for the canned paper samples and lexicon persistence."""

import pytest

from repro.data import samples
from repro.ontology.lexicon import Lexicon, bibliography_lexicon
from repro.xmldb import parse_document


class TestSamples:
    def test_figures_parse(self):
        dblp = parse_document(samples.DBLP_FIGURE_1)
        sigmod = parse_document(samples.SIGMOD_FIGURE_2)
        assert len(dblp.find_all("inproceedings")) == 3
        assert len(sigmod.find_all("article")) == 2

    def test_sample_system_answers_example_13(self):
        system = samples.sample_system()
        report = system.query(
            "dblp",
            "inproceedings(title $a), //article(title $b) where $a ~ $b",
            right_collection="sigmod",
        )
        titles = sorted(t.find_all("title")[0].text for t in report.results)
        assert titles == [
            "Materialized View and Index Selection Tool for Microsoft SQL Server 2000",
            "Securing XML Documents",
        ]

    def test_sample_system_constraints_fused(self):
        system = samples.sample_system()
        assert system.seo.leq("SIGMOD Conference", "booktitle")
        assert system.seo.leq("SIGMOD Conference", "conference")


class TestLexiconPersistence:
    def test_round_trip(self, tmp_path):
        original = bibliography_lexicon()
        path = tmp_path / "lexicon.json"
        original.save(str(path))
        loaded = Lexicon.load(str(path))
        assert loaded.hypernyms("google") == original.hypernyms("google")
        assert loaded.holonyms("us army") == original.holonyms("us army")
        assert loaded.synonyms("booktitle") == original.synonyms("booktitle")
        assert loaded.to_dict() == original.to_dict()

    def test_from_dict_rejects_bad_format(self):
        with pytest.raises(ValueError):
            Lexicon.from_dict({"format": 2})

    def test_hand_written_knowledge_file(self):
        lexicon = Lexicon.from_dict(
            {
                "format": 1,
                "hypernyms": {"corgi": ["dog"]},
                "holonyms": {"tail": ["dog"]},
                "synonyms": [["dog", "canine"]],
            }
        )
        assert lexicon.hypernyms("corgi") == frozenset({"dog"})
        assert lexicon.synonyms("canine") == frozenset({"dog"})
