"""Unit tests for the embedded lexical knowledge base."""

import pytest

from repro.ontology.lexicon import Lexicon, bibliography_lexicon


class TestLexicon:
    def test_hypernyms_case_insensitive(self):
        lexicon = Lexicon()
        lexicon.add_hypernym("Google", "Web Search Company")
        assert lexicon.hypernyms("google") == frozenset({"web search company"})
        assert lexicon.hypernyms("GOOGLE") == frozenset({"web search company"})

    def test_isa_chain(self):
        lexicon = Lexicon()
        lexicon.add_isa_chain("google", "web search company", "company")
        assert lexicon.hypernyms("google") == frozenset({"web search company"})
        assert lexicon.hypernyms("web search company") == frozenset({"company"})

    def test_holonyms(self):
        lexicon = Lexicon()
        lexicon.add_holonym("wheel", "car")
        assert lexicon.holonyms("wheel") == frozenset({"car"})

    def test_synonyms_symmetric_without_self(self):
        lexicon = Lexicon()
        lexicon.add_synonyms("paper", "article")
        assert lexicon.synonyms("paper") == frozenset({"article"})
        assert lexicon.synonyms("article") == frozenset({"paper"})

    def test_synonym_groups(self):
        lexicon = Lexicon()
        lexicon.add_synonyms("a", "b", "c")
        assert lexicon.synonyms("a") == frozenset({"b", "c"})

    def test_terms_include_targets(self):
        lexicon = Lexicon()
        lexicon.add_hypernym("a", "b")
        lexicon.add_holonym("c", "d")
        assert lexicon.terms() >= {"a", "b", "c", "d"}
        assert len(lexicon) == 4

    def test_unknown_lookups_empty(self):
        lexicon = Lexicon()
        assert lexicon.hypernyms("x") == frozenset()
        assert lexicon.holonyms("x") == frozenset()
        assert lexicon.synonyms("x") == frozenset()


class TestBibliographyLexicon:
    def setup_method(self):
        self.lexicon = bibliography_lexicon()

    def test_paper_intro_chain(self):
        """Google isa web search company isa computer company isa company."""
        chain = ["google", "web search company", "computer company", "company"]
        for term, hypernym in zip(chain, chain[1:]):
            assert hypernym in self.lexicon.hypernyms(term)

    def test_us_government_parts(self):
        assert "us government" in self.lexicon.holonyms("US Census Bureau")
        assert "us government" in self.lexicon.holonyms("us army")

    def test_booktitle_conference_synonyms(self):
        assert "conference" in self.lexicon.synonyms("booktitle")

    def test_publication_kinds(self):
        for kind in ("article", "inproceedings", "book"):
            assert "publication" in self.lexicon.hypernyms(kind)

    def test_author_is_person(self):
        assert "person" in self.lexicon.hypernyms("author")

    def test_record_parts(self):
        assert "publication" in self.lexicon.holonyms("title")
