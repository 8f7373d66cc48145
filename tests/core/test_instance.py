"""Unit tests for semistructured / ontology-extended / SEO instances."""

import pytest

from repro.core.instance import (
    OntologyExtendedInstance,
    SemistructuredInstance,
    SeoInstance,
)
from repro.ontology import Hierarchy, Ontology
from repro.similarity.measures import Levenshtein
from repro.similarity.seo import SimilarityEnhancedOntology
from repro.xmldb.parser import parse_document

DOC = "<dblp><inproceedings><author>A</author></inproceedings></dblp>"


@pytest.fixture
def trees():
    return [parse_document(DOC)]


class TestSemistructuredInstance:
    def test_basic_accessors(self, trees):
        instance = SemistructuredInstance("dblp", trees)
        assert len(instance) == 1
        assert instance.total_bytes() > 0
        assert instance.tags() == {"dblp", "inproceedings", "author"}

    def test_default_typing_is_tag(self, trees):
        instance = SemistructuredInstance("dblp", trees)
        author = trees[0].find_first("author")
        assert instance.type_of(author, "tag") == "author"
        assert instance.type_of(author, "content") == "author"

    def test_custom_typing(self, trees):
        instance = SemistructuredInstance(
            "dblp", trees, typing=lambda node, attr: "custom"
        )
        assert instance.type_of(trees[0], "tag") == "custom"


class TestOntologyExtendedInstance:
    def test_carries_ontology(self, trees):
        ontology = Ontology({Ontology.ISA: Hierarchy([("author", "person")])})
        instance = OntologyExtendedInstance("dblp", trees, ontology)
        assert instance.isa.leq("author", "person")
        assert len(instance.part_of) == 0


class TestSeoInstance:
    def test_lift_shares_seo(self, trees):
        seo = SimilarityEnhancedOntology.for_hierarchy(
            Hierarchy([("author", "person")]), Levenshtein(), 1.0
        )
        base = SemistructuredInstance("dblp", trees)
        lifted = SeoInstance.lift(base, seo)
        assert lifted.seo is seo
        assert lifted.trees == base.trees
        assert lifted.name == "dblp"
