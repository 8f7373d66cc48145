"""Unit tests for the executor's similarity hash join."""

import pytest

from repro.core.conditions import SeoConditionContext, SimilarTo
from repro.core.executor import QueryExecutor, _cross_similarity_atom
from repro.core.reference import ReferenceExecutor
from repro.ontology import Hierarchy
from repro.similarity.measures import Levenshtein
from repro.similarity.seo import SimilarityEnhancedOntology
from repro.tax.conditions import And, Comparison, Constant, NodeContent, NodeTag
from repro.tax.pattern import pattern_of
from repro.xmldb.database import Database

from tests.oracle import assert_matches_reference

LEFT = """
<dblp>
  <inproceedings key="l1"><title>Alpha Beta Gamma</title></inproceedings>
  <inproceedings key="l2"><title>Delta Epsilon</title></inproceedings>
  <inproceedings key="l3"><title>Completely Different Thing</title></inproceedings>
</dblp>
"""

RIGHT = """
<page>
  <article key="r1"><title>Alpha Beta Gamma.</title></article>
  <article key="r2"><title>Delta Epsilom</title></article>
  <article key="r3"><title>Unrelated</title></article>
</page>
"""


def join_pattern(similar=True):
    pattern = pattern_of(
        [(0, None, "pc"), (1, 0, "pc"), (2, 1, "pc"), (3, 0, "ad"), (4, 3, "pc")]
    )
    cross = (
        SimilarTo(NodeContent(2), NodeContent(4))
        if similar
        else Comparison("=", NodeContent(2), NodeContent(4))
    )
    pattern.condition = And(
        Comparison("=", NodeTag(1), Constant("inproceedings")),
        Comparison("=", NodeTag(2), Constant("title")),
        Comparison("=", NodeTag(3), Constant("article")),
        Comparison("=", NodeTag(4), Constant("title")),
        cross,
    )
    return pattern


@pytest.fixture
def database():
    db = Database()
    db.create_collection("left").add_document("l", LEFT)
    db.create_collection("right").add_document("r", RIGHT)
    return db


@pytest.fixture
def context():
    hierarchy = Hierarchy(nodes=["title"])
    seo = SimilarityEnhancedOntology.for_hierarchy(hierarchy, Levenshtein(), 2.0)
    return SeoConditionContext(seo)


class TestCrossAtomDetection:
    def test_finds_cross_atom(self):
        pattern = join_pattern()
        atom = _cross_similarity_atom(pattern.condition, {1, 2}, {3, 4})
        assert atom is not None
        assert atom.left.labels() == {2}
        assert atom.right.labels() == {4}

    def test_normalises_orientation(self):
        pattern = pattern_of([(0, None, "pc"), (1, 0, "pc"), (2, 0, "pc")])
        pattern.condition = SimilarTo(NodeContent(2), NodeContent(1))
        atom = _cross_similarity_atom(pattern.condition, {1}, {2})
        assert atom.left.labels() == {1}

    def test_same_side_atom_ignored(self):
        condition = SimilarTo(NodeContent(1), NodeContent(2))
        assert _cross_similarity_atom(condition, {1, 2}, {3}) is None

    def test_constant_atom_ignored(self):
        condition = SimilarTo(NodeContent(1), Constant("x"))
        assert _cross_similarity_atom(condition, {1}, {2}) is None


class TestHashJoinEquivalence:
    def test_matches_expected_pairs(self, database, context):
        executor = QueryExecutor(database, context)
        report = executor.join("left", "right", join_pattern(), sl_labels=[2, 4])
        pairs = set()
        for tree in report.results:
            titles = tuple(n.text for n in tree.find_all("title"))
            pairs.add(titles)
        assert pairs == {
            ("Alpha Beta Gamma", "Alpha Beta Gamma."),
            ("Delta Epsilon", "Delta Epsilom"),
        }

    def test_agrees_with_naive_product(self, database, context):
        pattern = join_pattern()
        for sl in ([2, 4], [0], []):
            fast = QueryExecutor(database, context).join(
                "left", "right", pattern, sl_labels=sl
            )
            naive = ReferenceExecutor(database, context).join(
                "left", "right", pattern, sl_labels=sl
            )
            # Hash-joined: the reference evaluates all 9 pairs, so
            # results only.
            assert_matches_reference(fast, naive, accesses=False)
            assert len(fast.results) == 2
            assert fast.pairs_probed < 3 * 3 and naive.candidates == 3 + 3

    def test_empty_contents_are_similar_too(self, context):
        # "" ~ "" (distance 0) and "" ~ "ab" (distance 2 <= epsilon): the
        # hash join may not drop valueless nodes from its value sets.
        db = Database()
        db.create_collection("left").add_document(
            "l", "<dblp><inproceedings><title></title></inproceedings></dblp>"
        )
        db.create_collection("right").add_document(
            "r",
            "<page><article><title></title></article>"
            "<article><title>ab</title></article>"
            "<article><title>abcdef</title></article></page>",
        )
        pattern = join_pattern()
        report = QueryExecutor(db, context).join("left", "right", pattern, [2, 4])
        assert_matches_reference(
            report,
            ReferenceExecutor(db, context).join("left", "right", pattern, [2, 4]),
            accesses=False,
        )
        assert len(report.results) == 2

    def test_falls_back_without_cross_atom(self, database, context):
        executor = QueryExecutor(database, context)
        report = executor.join(
            "left", "right", join_pattern(similar=False), sl_labels=[2, 4]
        )
        assert report.results == []  # no exactly-equal titles

    def test_known_ontology_terms_bypass_distance_pruning(self, database):
        # "booktitle" and "conference" are fused (equal) terms: string
        # distance 8, but similar through the SEO.  The hash join must
        # not drop the pair.
        from repro.ontology import parse_constraint

        left = Hierarchy(nodes=["booktitle"])
        right = Hierarchy(nodes=["conference"])
        seo = SimilarityEnhancedOntology.build(
            {1: left, 2: right},
            Levenshtein(),
            1.0,
            [parse_constraint("booktitle:1 = conference:2")],
        )
        context = SeoConditionContext(seo)
        db = Database()
        db.create_collection("left").add_document(
            "l", "<x><r key='a'><v>booktitle</v></r></x>"
        )
        db.create_collection("right").add_document(
            "r", "<y><s key='b'><w>conference</w></s></y>"
        )
        pattern = pattern_of(
            [(0, None, "pc"), (1, 0, "pc"), (2, 1, "pc"), (3, 0, "ad"), (4, 3, "pc")]
        )
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("r")),
            Comparison("=", NodeTag(2), Constant("v")),
            Comparison("=", NodeTag(3), Constant("s")),
            Comparison("=", NodeTag(4), Constant("w")),
            SimilarTo(NodeContent(2), NodeContent(4)),
        )
        executor = QueryExecutor(db, context)
        report = executor.join("left", "right", pattern)
        assert len(report.results) == 1
