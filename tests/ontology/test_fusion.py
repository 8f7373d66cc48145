"""Unit tests for canonical fusion (Definitions 5-6, Figures 9-11)."""

import pytest

from repro.errors import ConstraintError, FusionInconsistencyError
from repro.ontology.constraints import ScopedTerm, parse_constraint
from repro.ontology.fusion import (
    FusedNode,
    canonical_fusion,
    hierarchy_graph,
)
from repro.ontology.hierarchy import Hierarchy


def sigmod_hierarchy():
    """Figure 9(a): the SIGMOD proceedings part-of hierarchy (simplified)."""
    return Hierarchy(
        [
            ("article", "articles"),
            ("articles", "ProceedingsPage"),
            ("author", "article"),
            ("title", "article"),
            ("conference", "ProceedingsPage"),
            ("confYear", "ProceedingsPage"),
        ]
    )


def dblp_hierarchy():
    """Figure 9(b): the DBLP part-of hierarchy (simplified)."""
    return Hierarchy(
        [
            ("author", "inproceedings"),
            ("title", "inproceedings"),
            ("booktitle", "inproceedings"),
            ("year", "inproceedings"),
        ]
    )


FIGURE_10_CONSTRAINTS = [
    "conference:1 = booktitle:2",
    "title:1 = title:2",
    "author:1 = author:2",
    "confYear:1 = year:2",
]


class TestFusedNode:
    def test_strings_and_label(self):
        node = FusedNode(frozenset({ScopedTerm("b", 1), ScopedTerm("a", 2)}))
        assert node.strings == frozenset({"a", "b"})
        assert node.label == "a"
        assert str(node) == "{a, b}"

    def test_single_term_str(self):
        node = FusedNode(frozenset({ScopedTerm("only", 1)}))
        assert str(node) == "only"

    def test_contains_term(self):
        node = FusedNode(frozenset({ScopedTerm("a", 1)}))
        assert node.contains_term("a")
        assert not node.contains_term("b")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FusedNode(frozenset())


class TestHierarchyGraph:
    def test_contains_hasse_and_constraint_edges(self):
        graph = hierarchy_graph(
            {1: Hierarchy([("a", "b")]), 2: Hierarchy([("c", "d")])},
            [parse_constraint("a:1 <= c:2")],
        )
        assert ScopedTerm("c", 2) in graph[ScopedTerm("a", 1)]
        assert ScopedTerm("b", 1) in graph[ScopedTerm("a", 1)]

    def test_equality_contributes_both_directions(self):
        graph = hierarchy_graph(
            {1: Hierarchy(nodes=["a"]), 2: Hierarchy(nodes=["b"])},
            [parse_constraint("a:1 = b:2")],
        )
        assert ScopedTerm("b", 2) in graph[ScopedTerm("a", 1)]
        assert ScopedTerm("a", 1) in graph[ScopedTerm("b", 2)]

    def test_inequality_contributes_no_edges(self):
        graph = hierarchy_graph(
            {1: Hierarchy(nodes=["a"]), 2: Hierarchy(nodes=["b"])},
            [parse_constraint("a:1 != b:2")],
        )
        assert graph[ScopedTerm("a", 1)] == set()


class TestCanonicalFusion:
    def test_figure_11_example(self):
        """The paper's Figure 10 -> Figure 11 canonical fusion."""
        fusion = canonical_fusion(
            {1: sigmod_hierarchy(), 2: dblp_hierarchy()},
            [parse_constraint(text) for text in FIGURE_10_CONSTRAINTS],
        )
        # conference:1 and booktitle:2 merge into one node.
        conference = fusion.node_of("conference", 1)
        assert conference == fusion.node_of("booktitle", 2)
        assert conference.strings == frozenset({"conference", "booktitle"})
        # title:1/title:2 merge; the fused node is below both parents.
        title = fusion.node_of("title", 1)
        assert title == fusion.node_of("title", 2)
        article = fusion.node_of("article", 1)
        inproceedings = fusion.node_of("inproceedings", 2)
        assert fusion.hierarchy.leq(title, article)
        assert fusion.hierarchy.leq(title, inproceedings)
        # confYear:1 = year:2.
        assert fusion.node_of("confYear", 1) == fusion.node_of("year", 2)

    def test_definition_5_axiom_1_order_preservation(self):
        """psi_i(x) <= psi_i(y) whenever x <=_i y."""
        hierarchies = {1: sigmod_hierarchy(), 2: dblp_hierarchy()}
        fusion = canonical_fusion(
            hierarchies, [parse_constraint(t) for t in FIGURE_10_CONSTRAINTS]
        )
        for source, hierarchy in hierarchies.items():
            psi = fusion.psi(source)
            for lower in hierarchy.terms:
                for upper in hierarchy.terms:
                    if hierarchy.leq(lower, upper):
                        assert fusion.hierarchy.leq(psi[lower], psi[upper])

    def test_definition_5_axiom_2_constraint_preservation(self):
        constraints = [parse_constraint(t) for t in FIGURE_10_CONSTRAINTS]
        fusion = canonical_fusion(
            {1: sigmod_hierarchy(), 2: dblp_hierarchy()}, constraints
        )
        for constraint in constraints:
            left = fusion.witness[constraint.left]
            right = fusion.witness[constraint.right]
            assert fusion.hierarchy.leq(left, right)
            assert fusion.hierarchy.leq(right, left)

    def test_subsumption_only_keeps_nodes_separate(self):
        fusion = canonical_fusion(
            {1: Hierarchy(nodes=["kdd"]), 2: Hierarchy(nodes=["conference"])},
            [parse_constraint("kdd:1 <= conference:2")],
        )
        kdd = fusion.node_of("kdd", 1)
        conference = fusion.node_of("conference", 2)
        assert kdd != conference
        assert fusion.hierarchy.lt(kdd, conference)

    def test_subsumption_cycle_merges(self):
        """x <= y and y <= x (via chains) force one fused node."""
        fusion = canonical_fusion(
            {1: Hierarchy(nodes=["a"]), 2: Hierarchy(nodes=["b"])},
            [parse_constraint("a:1 <= b:2"), parse_constraint("b:2 <= a:1")],
        )
        assert fusion.node_of("a", 1) == fusion.node_of("b", 2)

    def test_inequality_violation_raises(self):
        with pytest.raises(FusionInconsistencyError):
            canonical_fusion(
                {1: Hierarchy(nodes=["a"]), 2: Hierarchy(nodes=["b"])},
                [
                    parse_constraint("a:1 = b:2"),
                    parse_constraint("a:1 != b:2"),
                ],
            )

    def test_inequality_satisfied_is_fine(self):
        fusion = canonical_fusion(
            {1: Hierarchy(nodes=["a"]), 2: Hierarchy(nodes=["b"])},
            [parse_constraint("a:1 != b:2")],
        )
        assert fusion.node_of("a", 1) != fusion.node_of("b", 2)

    def test_constraint_on_unknown_term_raises(self):
        with pytest.raises(ConstraintError):
            canonical_fusion(
                {1: Hierarchy(nodes=["a"]), 2: Hierarchy(nodes=["b"])},
                [parse_constraint("zz:1 = b:2")],
            )


class TestFusionResultLookups:
    def test_node_of_requires_source_on_ambiguity(self):
        fusion = canonical_fusion(
            {1: Hierarchy(nodes=["title"]), 2: Hierarchy(nodes=["title"])}
        )
        with pytest.raises(ConstraintError):
            fusion.node_of("title")  # ambiguous without source
        assert fusion.node_of("title", 1) != fusion.node_of("title", 2)

    def test_node_of_unknown_term(self):
        fusion = canonical_fusion({1: Hierarchy(nodes=["x"])})
        with pytest.raises(ConstraintError):
            fusion.node_of("martian")

    def test_nodes_of_term(self):
        fusion = canonical_fusion(
            {1: Hierarchy(nodes=["title"]), 2: Hierarchy(nodes=["title"])}
        )
        assert len(fusion.nodes_of_term("title")) == 2

    def test_fuse_single_is_isomorphic(self):
        hierarchy = Hierarchy([("a", "b"), ("c", "b")])
        fusion = canonical_fusion({1: hierarchy})
        assert len(fusion.hierarchy) == 3
        assert fusion.hierarchy.leq(fusion.node_of("a"), fusion.node_of("b"))
