"""Unit tests for Hierarchy (Hasse diagrams) and Ontology."""

import pytest

from repro.errors import HierarchyCycleError, UnknownTermError
from repro.ontology.hierarchy import Hierarchy, Ontology


@pytest.fixture
def diamond():
    return Hierarchy(
        [("bottom", "left"), ("bottom", "right"), ("left", "top"), ("right", "top")]
    )


class TestConstruction:
    def test_empty(self):
        hierarchy = Hierarchy()
        assert len(hierarchy) == 0
        assert list(hierarchy) == []

    def test_from_mapping(self):
        hierarchy = Hierarchy({"a": ["b"], "b": ["c"]})
        assert hierarchy.leq("a", "c")

    def test_isolated_nodes(self):
        hierarchy = Hierarchy(nodes=["x", "y"])
        assert "x" in hierarchy and "y" in hierarchy
        assert not hierarchy.leq("x", "y") and not hierarchy.leq("y", "x")

    def test_reflexive_pairs_dropped(self):
        hierarchy = Hierarchy([("a", "a"), ("a", "b")])
        assert hierarchy.edge_count() == 1

    def test_normalises_to_hasse_form(self):
        # The transitive edge a->c must be removed (minimal edge set).
        hierarchy = Hierarchy([("a", "b"), ("b", "c"), ("a", "c")])
        assert hierarchy.edge_count() == 2
        assert hierarchy.leq("a", "c")

    def test_cycle_rejected(self):
        with pytest.raises(HierarchyCycleError):
            Hierarchy([("a", "b"), ("b", "a")])

    def test_example_7(self):
        """The paper's Example 7: the part-of hierarchy of an article."""
        hierarchy = Hierarchy(
            [("author", "article"), ("title", "article"),
             ("article", "article"), ("author", "author"), ("title", "title")]
        )
        assert set(hierarchy.edges()) == {
            ("author", "article"), ("title", "article")
        }


class TestOrderQueries:
    def test_leq_reflexive(self, diamond):
        assert diamond.leq("left", "left")

    def test_leq_transitive(self, diamond):
        assert diamond.leq("bottom", "top")

    def test_leq_not_symmetric(self, diamond):
        assert not diamond.leq("top", "bottom")

    def test_lt_strict(self, diamond):
        assert diamond.lt("bottom", "top")
        assert not diamond.lt("left", "left")

    def test_unknown_term_raises(self, diamond):
        with pytest.raises(UnknownTermError):
            diamond.leq("bottom", "martian")

    def test_ancestors_descendants(self, diamond):
        assert diamond.ancestors("bottom") == {"left", "right", "top"}
        assert diamond.descendants("top") == {"left", "right", "bottom"}
        assert diamond.ancestors("top") == frozenset()

    def test_below_above_include_self(self, diamond):
        assert "left" in diamond.below("left")
        assert "left" in diamond.above("left")

    def test_parents_children(self, diamond):
        assert diamond.parents("bottom") == {"left", "right"}
        assert diamond.children("top") == {"left", "right"}

    def test_roots_and_leaves(self, diamond):
        assert diamond.roots() == {"top"}
        assert {term for term in diamond.terms if not diamond.children(term)} == {"bottom"}

    def test_comparable(self, diamond):
        assert diamond.leq("bottom", "top")
        assert not diamond.leq("left", "right") and not diamond.leq("right", "left")


class TestLeastUpperBound:
    def test_diamond_has_lub(self, diamond):
        assert diamond.least_upper_bound("left", "right") == "top"

    def test_lub_of_comparable_pair(self, diamond):
        assert diamond.least_upper_bound("bottom", "left") == "left"

    def test_no_upper_bound(self):
        hierarchy = Hierarchy(nodes=["x", "y"])
        assert hierarchy.least_upper_bound("x", "y") is None

    def test_ambiguous_lub(self):
        # x and y are both below two incomparable uppers: no least one.
        hierarchy = Hierarchy(
            [("x", "u1"), ("x", "u2"), ("y", "u1"), ("y", "u2")]
        )
        assert hierarchy.least_upper_bound("x", "y") is None


class TestDerivation:
    def test_with_terms(self, diamond):
        extended = diamond.with_terms(["extra"])
        assert "extra" in extended


class TestValueSemantics:
    def test_equality_ignores_edge_order(self):
        first = Hierarchy([("a", "b"), ("c", "b")])
        second = Hierarchy([("c", "b"), ("a", "b")])
        assert first == second
        assert hash(first) == hash(second)

    def test_equality_includes_redundant_edge_normalisation(self):
        first = Hierarchy([("a", "b"), ("b", "c")])
        second = Hierarchy([("a", "b"), ("b", "c"), ("a", "c")])
        assert first == second

    def test_pretty_renders_roots_first(self, diamond):
        text = diamond.pretty()
        assert text.splitlines()[0] == "top"
        assert "  left" in text


class TestOntology:
    def test_distinguished_hierarchies_always_defined(self):
        ontology = Ontology()
        assert len(ontology.isa) == 0
        assert len(ontology.part_of) == 0

    def test_getitem_unknown(self):
        with pytest.raises(KeyError):
            Ontology()["color-of"]

    def test_term_count_sums_hierarchies(self):
        ontology = Ontology(
            {
                Ontology.ISA: Hierarchy([("a", "b")]),
                Ontology.PART_OF: Hierarchy([("c", "d"), ("e", "d")]),
            }
        )
        assert ontology.term_count() == 5

    def test_relations(self):
        assert Ontology().relations() == {"isa", "part-of"}

    def test_equality(self):
        assert Ontology() == Ontology()
