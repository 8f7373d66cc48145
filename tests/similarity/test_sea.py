"""Unit tests for the SEA algorithm (Figure 12, Definitions 8-9)."""

import pytest

from repro.errors import SimilarityInconsistencyError
from repro.ontology import Hierarchy
from repro.ontology.fusion import canonical_fusion
from repro.similarity.measures import Levenshtein, get_measure
from repro.similarity.sea import (
    EnhancedNode,
    NodeDistance,
    ORDER_SAFE,
    SimilarityEnhancement,
    node_strings,
    sea,
)


def enhanced_by_strings(enhancement, *strings):
    """Find the enhanced node containing exactly the given strings."""
    target = frozenset(strings)
    for node in enhancement.hierarchy.terms:
        if node.strings == target:
            return node
    raise AssertionError(f"no enhanced node with strings {target}")


class TestNodeStrings:
    def test_plain_string(self):
        assert node_strings("author") == frozenset({"author"})

    def test_object_with_strings_attribute(self):
        class Fake:
            strings = frozenset({"a", "b"})

        assert node_strings(Fake()) == frozenset({"a", "b"})

    def test_other_objects_stringified(self):
        assert node_strings(42) == frozenset({"42"})


class TestNodeDistance:
    def test_identity_zero(self):
        distance = NodeDistance(Levenshtein())
        assert distance("x", "x") == 0.0

    def test_strong_measure_uses_single_pair(self):
        calls = []

        class Spy(Levenshtein):
            def distance(self, x, y):
                calls.append((x, y))
                return super().distance(x, y)

        distance = NodeDistance(Spy())
        assert distance("model", "models") == 1.0
        assert len(calls) == 1

    def test_weak_measure_takes_min_over_pairs(self):
        class TwoStrings:
            strings = frozenset({"zzzzz", "model"})

        jaro = get_measure("jaro")
        distance = NodeDistance(jaro)
        d = distance(TwoStrings(), "models")
        assert d == pytest.approx(jaro.distance("model", "models"))

    def test_caches_symmetrically(self):
        distance = NodeDistance(Levenshtein())
        a, b = "alpha", "alphas"
        assert distance(a, b) == distance(b, a)


class TestExample11:
    """The paper's Example 11 / Figure 13 golden case."""

    def setup_method(self):
        self.hierarchy = Hierarchy(
            [
                ("relation", "concept"),
                ("relational", "concept"),
                ("model", "concept"),
                ("models", "concept"),
            ]
        )

    def test_epsilon_two_merges_the_two_pairs(self):
        enhancement = sea(self.hierarchy, Levenshtein(), 2.0, verify=True)
        names = sorted(str(node) for node in enhancement.hierarchy.terms)
        assert names == ["concept", "{model, models}", "{relation, relational}"]

    def test_enhanced_edges_point_to_concept(self):
        enhancement = sea(self.hierarchy, Levenshtein(), 2.0)
        edges = {
            (str(lower), str(upper))
            for lower, upper in enhancement.hierarchy.edges()
        }
        assert edges == {
            ("{model, models}", "concept"),
            ("{relation, relational}", "concept"),
        }

    def test_mu_maps_merged_terms(self):
        enhancement = sea(self.hierarchy, Levenshtein(), 2.0)
        merged = enhanced_by_strings(enhancement, "model", "models")
        assert enhancement.mu["model"] == frozenset({merged})
        assert enhancement.mu["models"] == frozenset({merged})
        assert enhancement.mu_inverse(merged) == frozenset({"model", "models"})

    def test_epsilon_zero_is_isomorphic_to_input(self):
        enhancement = sea(self.hierarchy, Levenshtein(), 0.0, verify=True)
        assert len(enhancement.hierarchy) == len(self.hierarchy)
        for node in enhancement.hierarchy.terms:
            assert len(node.members) == 1


class TestSemantics:
    def test_cohabiting_is_the_similarity_test(self):
        hierarchy = Hierarchy(nodes=["model", "models", "far-away"])
        enhancement = sea(hierarchy, Levenshtein(), 1.0)
        assert enhancement.cohabiting("model", "models")
        assert not enhancement.cohabiting("model", "far-away")
        assert enhancement.cohabiting("model", "model")

    def test_overlapping_cliques_paper_example(self):
        """The A/B/C discussion under Definition 8: overlapping nodes."""
        hierarchy = Hierarchy(nodes=["abcd", "abce", "abzz"])
        # d(abcd, abce)=1, d(abcd, abzz)=2, d(abce, abzz)=2
        enhancement = sea(hierarchy, Levenshtein(), 1.0, verify=True)
        merged = enhanced_by_strings(enhancement, "abcd", "abce")
        assert merged in enhancement.mu["abcd"]
        assert len(enhancement.mu["abzz"]) == 1

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            sea(Hierarchy(nodes=["x"]), Levenshtein(), -1.0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            sea(Hierarchy(nodes=["x"]), Levenshtein(), 1.0, mode="bogus")


class TestInconsistency:
    def test_strict_mode_detects_definition_9_case(self):
        # "article" < "document" but its epsilon-neighbour "articles" is
        # not below "document": condition 1 is unsatisfiable.
        hierarchy = Hierarchy(
            [("article", "document")], nodes=["articles"]
        )
        with pytest.raises(SimilarityInconsistencyError):
            sea(hierarchy, Levenshtein(), 1.0)

    def test_order_safe_mode_splits_the_conflict(self):
        hierarchy = Hierarchy(
            [("article", "document")], nodes=["articles"]
        )
        enhancement = sea(
            hierarchy, Levenshtein(), 1.0, mode=ORDER_SAFE, verify=True
        )
        # article and articles stay separate (different order contexts).
        assert not enhancement.cohabiting("article", "articles")

    def test_order_safe_still_merges_interchangeable_terms(self):
        hierarchy = Hierarchy(
            [("model", "concept"), ("models", "concept")]
        )
        enhancement = sea(hierarchy, Levenshtein(), 1.0, mode=ORDER_SAFE)
        assert enhancement.cohabiting("model", "models")

    def test_consistent_case_with_comparable_similars(self):
        # database <= databases in H and they are 1 apart: the clique
        # {database, databases} requires all-pairs ordering, which holds.
        hierarchy = Hierarchy([("database", "databases")])
        enhancement = sea(hierarchy, Levenshtein(), 1.0, verify=True)
        assert enhancement.cohabiting("database", "databases")


class TestOnFusedHierarchies:
    def test_sea_over_fused_nodes_uses_their_strings(self):
        left = Hierarchy([("J. Smith", "author")])
        right = Hierarchy([("J. Smyth", "author")])
        fusion = canonical_fusion({1: left, 2: right})
        # author:1 and author:2 are NOT auto-fused without constraints;
        # build with shared-term constraint instead.
        from repro.ontology.constraints import EqualityConstraint, ScopedTerm

        fusion = canonical_fusion(
            {1: left, 2: right},
            [EqualityConstraint(ScopedTerm("author", 1), ScopedTerm("author", 2))],
        )
        enhancement = sea(fusion.hierarchy, Levenshtein(), 1.0, mode=ORDER_SAFE)
        smith = fusion.node_of("J. Smith", 1)
        smyth = fusion.node_of("J. Smyth", 2)
        assert enhancement.cohabiting(smith, smyth)
