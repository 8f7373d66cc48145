"""Unit tests for SimilarityEnhancedOntology (string-level SEO API)."""

import pytest

from repro.errors import UnknownTermError
from repro.ontology import Hierarchy, parse_constraint
from repro.similarity.measures import Levenshtein
from repro.similarity.seo import SimilarityEnhancedOntology


@pytest.fixture
def seo():
    hierarchy = Hierarchy(
        [
            ("J. Smith", "author"),
            ("J. Smyth", "author"),
            ("P. Chen", "author"),
            ("author", "person"),
            ("SIGMOD Conference", "database conference"),
            ("database conference", "conference"),
        ]
    )
    return SimilarityEnhancedOntology.for_hierarchy(hierarchy, Levenshtein(), 1.0)


class TestBuild:
    def test_build_from_multiple_sources(self):
        left = Hierarchy([("title", "article")])
        right = Hierarchy([("title", "inproceedings")])
        seo = SimilarityEnhancedOntology.build(
            {1: left, 2: right},
            Levenshtein(),
            0.0,
            [parse_constraint("article:1 = inproceedings:2"),
             parse_constraint("title:1 = title:2")],
        )
        assert "title" in seo
        assert seo.leq("title", "article")
        assert seo.leq("title", "inproceedings")

    def test_term_count(self, seo):
        # J. Smith, J. Smyth, P. Chen, author, person,
        # SIGMOD Conference, database conference, conference
        assert seo.term_count() == 8

    def test_strings(self, seo):
        assert "J. Smith" in seo.strings()
        assert "conference" in seo.strings()


class TestSimilar:
    def test_cohabiting_terms_similar(self, seo):
        assert seo.similar("J. Smith", "J. Smyth")

    def test_identity(self, seo):
        assert seo.similar("whatever", "whatever")

    def test_distant_terms_not_similar(self, seo):
        assert not seo.similar("J. Smith", "P. Chen")

    def test_unknown_terms_fall_back_to_measure(self, seo):
        assert seo.similar("zzzz", "zzzy")  # distance 1, neither known
        assert not seo.similar("zzzz", "aaaa")


class TestExpansion:
    def test_expand_similar_known_term(self, seo):
        assert seo.expand_similar("J. Smith") == frozenset(
            {"J. Smith", "J. Smyth"}
        )

    def test_expand_similar_unknown_term_scans(self, seo):
        expansion = seo.expand_similar("J. Smitt")  # 1 from Smith, Smyth? 2
        assert "J. Smith" in expansion
        assert "J. Smitt" in expansion

    def test_expand_below_category(self, seo):
        below = seo.expand_below("conference")
        assert "SIGMOD Conference" in below
        assert "database conference" in below
        assert "J. Smith" not in below

    def test_expand_below_includes_similars_of_members(self, seo):
        below = seo.expand_below("person")
        assert {"J. Smith", "J. Smyth", "P. Chen", "author"} <= set(below)

    def test_expand_below_unknown_term_is_singleton(self, seo):
        assert seo.expand_below("nonexistent") == frozenset({"nonexistent"})

    def test_expand_above(self, seo):
        above = seo.expand_above("SIGMOD Conference")
        assert {"database conference", "conference"} <= set(above)


class TestOrder:
    def test_leq_through_enhancement(self, seo):
        assert seo.leq("J. Smith", "person")
        assert not seo.leq("person", "J. Smith")

    def test_leq_reflexive_via_shared_node(self, seo):
        assert seo.leq("J. Smith", "J. Smyth")  # same enhanced node

    def test_leq_unknown_raises(self, seo):
        with pytest.raises(UnknownTermError):
            seo.leq("martian", "person")
