"""Unit tests for the Query Executor and XPath compilation (Section 6)."""

import pytest

from repro.errors import QueryExecutionError
from repro.core.conditions import Below, SeoConditionContext, SimilarTo
from repro.core.executor import (
    QueryExecutor,
    _side_condition,
    _subtree_pattern,
)
from repro.core.reference import (
    ReferenceExecutor,
    compile_pattern_to_xpath,
    _content_predicates,
)
from repro.ontology import Hierarchy
from repro.similarity.measures import Levenshtein
from repro.similarity.seo import SimilarityEnhancedOntology
from repro.tax.conditions import (
    And,
    Comparison,
    Constant,
    Contains,
    NodeContent,
    NodeTag,
    Or,
)
from repro.tax.pattern import AD, PC, pattern_of
from repro.xmldb.database import Database

DBLP = """
<dblp>
  <inproceedings key="p1">
    <author>J. Smith</author>
    <title>Paper One</title>
    <year>1999</year>
    <booktitle>SIGMOD Conference</booktitle>
  </inproceedings>
  <inproceedings key="p2">
    <author>J. Smyth</author>
    <title>Paper Two</title>
    <year>2000</year>
    <booktitle>VLDB</booktitle>
  </inproceedings>
</dblp>
"""

SIGMOD = """
<ProceedingsPage>
  <articles>
    <article key="p1">
      <title>Paper One.</title>
      <author>J. Smith</author>
    </article>
  </articles>
</ProceedingsPage>
"""


@pytest.fixture
def database():
    db = Database()
    db.create_collection("dblp").add_document("d", DBLP)
    db.create_collection("sigmod").add_document("s", SIGMOD)
    return db


@pytest.fixture
def context():
    hierarchy = Hierarchy(
        [
            ("J. Smith", "author"),
            ("J. Smyth", "author"),
            ("SIGMOD Conference", "database conference"),
            ("VLDB", "database conference"),
        ]
    )
    seo = SimilarityEnhancedOntology.for_hierarchy(hierarchy, Levenshtein(), 1.0)
    return SeoConditionContext(seo)


class TestXPathCompilation:
    def test_simple_pattern(self):
        pattern = pattern_of([(1, None, PC), (2, 1, PC)])
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("inproceedings")),
            Comparison("=", NodeTag(2), Constant("author")),
            Comparison("=", NodeContent(2), Constant("J. Smith")),
        )
        xpath = compile_pattern_to_xpath(pattern)
        assert xpath == "//inproceedings[author[text() = 'J. Smith']]"

    def test_ad_edge_uses_descendant_path(self):
        pattern = pattern_of([(1, None, PC), (2, 1, AD)])
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("dblp")),
            Comparison("=", NodeTag(2), Constant("title")),
        )
        assert compile_pattern_to_xpath(pattern) == "//dblp[.//title]"

    def test_unconstrained_tags_become_wildcards(self):
        pattern = pattern_of([(1, None, PC), (2, 1, PC)])
        assert compile_pattern_to_xpath(pattern) == "//*[*]"

    def test_multi_tag_restriction_uses_name_predicate(self):
        pattern = pattern_of([(1, None, PC)])
        pattern.condition = Or(
            Comparison("=", NodeTag(1), Constant("article")),
            Comparison("=", NodeTag(1), Constant("inproceedings")),
        )
        xpath = compile_pattern_to_xpath(pattern)
        assert "name() = 'article'" in xpath
        assert "name() = 'inproceedings'" in xpath

    def test_numeric_comparison_pushdown(self):
        pattern = pattern_of([(1, None, PC), (2, 1, PC)])
        pattern.condition = And(
            Comparison("=", NodeTag(2), Constant("year")),
            Comparison("<=", NodeContent(2), Constant("2000")),
        )
        # Not pushed: TAX compares a non-number (``n/a``) as a string
        # where XPath's number() gives NaN, and a 7-digit constant would
        # print as 1.23457e+06, which XPath cannot parse.
        assert compile_pattern_to_xpath(pattern) == "//*[year]"

    def test_quotes_handled(self):
        predicates = _content_predicates(
            Comparison("=", NodeContent(1), Constant("O'Neil"))
        )
        assert predicates[1] == ['text() = "O\'Neil"']

    def test_empty_literal_not_pushed(self):
        # text() selects nothing on an empty element, so "text() = ''"
        # would drop the very nodes the equality holds for.
        empty = Comparison("=", NodeContent(1), Constant(""))
        assert _content_predicates(empty) == {}
        assert _content_predicates(
            Or(empty, Comparison("=", NodeContent(1), Constant("a")))
        ) == {}

    def test_unquotable_values_skipped(self):
        predicates = _content_predicates(
            Comparison("=", NodeContent(1), Constant("both ' and \" quotes"))
        )
        assert predicates == {}

    def test_contains_not_pushed_down(self):
        predicates = _content_predicates(
            Contains(NodeContent(1), Constant("conference"))
        )
        assert predicates == {}

    def test_or_over_one_label_pushed(self):
        condition = Or(
            Comparison("=", NodeContent(1), Constant("a")),
            Comparison("=", NodeContent(1), Constant("b")),
        )
        predicates = _content_predicates(condition)
        assert predicates[1] == ["(text() = 'a' or text() = 'b')"]

    def test_or_over_mixed_labels_not_pushed(self):
        condition = Or(
            Comparison("=", NodeContent(1), Constant("a")),
            Comparison("=", NodeContent(2), Constant("b")),
        )
        assert _content_predicates(condition) == {}


class TestHelpers:
    def test_subtree_pattern(self):
        pattern = pattern_of(
            [(0, None, PC), (1, 0, PC), (2, 1, AD), (3, 0, PC)]
        )
        sub = _subtree_pattern(pattern, 1)
        assert sub.root == 1
        assert sub.labels() == [1, 2]
        assert sub.node(2).edge == AD

    def test_side_condition_keeps_only_side_conjuncts(self):
        condition = And(
            Comparison("=", NodeTag(1), Constant("a")),
            Comparison("=", NodeTag(3), Constant("b")),
            SimilarTo(NodeContent(1), NodeContent(3)),
        )
        side = _side_condition(condition, {1})
        assert side.labels() == {1}


class TestSelectionExecution:
    def test_toss_selection(self, database, context):
        pattern = pattern_of([(1, None, PC), (2, 1, PC)])
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("inproceedings")),
            Comparison("=", NodeTag(2), Constant("author")),
            SimilarTo(NodeContent(2), Constant("J. Smith")),
        )
        executor = QueryExecutor(database, context)
        report = executor.selection("dblp", pattern, [1])
        keys = {t.attributes["key"] for t in report.results}
        assert keys == {"p1", "p2"}
        assert report.total_seconds >= 0
        assert report.candidates >= 2
        assert report.xpath_queries == []
        assert len(executor.explain(pattern, join=False).xpath_queries) == 1

    def test_tax_executor_exact_only(self, database):
        pattern = pattern_of([(1, None, PC), (2, 1, PC)])
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("inproceedings")),
            Comparison("=", NodeTag(2), Constant("author")),
            Comparison("=", NodeContent(2), Constant("J. Smith")),
        )
        report = QueryExecutor(database, context=None).selection("dblp", pattern, [1])
        assert {t.attributes["key"] for t in report.results} == {"p1"}

    def test_below_condition_via_executor(self, database, context):
        pattern = pattern_of([(1, None, PC), (2, 1, PC)])
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("inproceedings")),
            Comparison("=", NodeTag(2), Constant("booktitle")),
            Below(NodeContent(2), Constant("database conference")),
        )
        report = QueryExecutor(database, context).selection("dblp", pattern, [1])
        assert {t.attributes["key"] for t in report.results} == {"p1", "p2"}

    def test_ontology_accesses_counted(self, database, context):
        pattern = pattern_of([(1, None, PC), (2, 1, PC)])
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("inproceedings")),
            Comparison("=", NodeTag(2), Constant("author")),
            SimilarTo(NodeContent(2), Constant("J. Smith")),
        )
        toss_report = QueryExecutor(database, context).selection("dblp", pattern, [1])
        assert toss_report.ontology_accesses > 0
        tax_pattern = pattern_of([(1, None, PC), (2, 1, PC)])
        tax_pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("inproceedings")),
            Comparison("=", NodeTag(2), Constant("author")),
            Comparison("=", NodeContent(2), Constant("J. Smith")),
        )
        tax_report = QueryExecutor(database, None).selection("dblp", tax_pattern, [1])
        assert tax_report.ontology_accesses == 0

    def test_projection_execution(self, database, context):
        pattern = pattern_of([(1, None, PC), (2, 1, PC)])
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("inproceedings")),
            Comparison("=", NodeTag(2), Constant("author")),
            SimilarTo(NodeContent(2), Constant("J. Smith")),
        )
        report = QueryExecutor(database, context).projection("dblp", pattern, [2])
        assert sorted(t.text for t in report.results) == ["J. Smith", "J. Smyth"]


class TestJoinExecution:
    def make_join_pattern(self):
        pattern = pattern_of(
            [(0, None, PC), (1, 0, PC), (2, 1, PC), (3, 0, AD), (4, 3, PC)]
        )
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("inproceedings")),
            Comparison("=", NodeTag(2), Constant("title")),
            Comparison("=", NodeTag(3), Constant("article")),
            Comparison("=", NodeTag(4), Constant("title")),
            SimilarTo(NodeContent(2), NodeContent(4)),
        )
        return pattern

    def test_similarity_join(self, database, context):
        executor = QueryExecutor(database, context)
        pattern = self.make_join_pattern()
        report = executor.join("dblp", "sigmod", pattern, sl_labels=[2, 4])
        assert len(report.results) == 1
        titles = [n.text for n in report.results[0].find_all("title")]
        assert titles == ["Paper One", "Paper One."]
        assert report.xpath_queries == []
        assert len(executor.explain(pattern, join=True).xpath_queries) == 2

    def test_join_requires_two_subtrees(self, database, context):
        bad = pattern_of([(0, None, PC), (1, 0, PC)])
        with pytest.raises(QueryExecutionError):
            QueryExecutor(database, context).join("dblp", "sigmod", bad)

    def test_tax_join_misses_similar_titles(self, database):
        pattern = self.make_join_pattern()
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("inproceedings")),
            Comparison("=", NodeTag(2), Constant("title")),
            Comparison("=", NodeTag(3), Constant("article")),
            Comparison("=", NodeTag(4), Constant("title")),
            Comparison("=", NodeContent(2), NodeContent(4)),
        )
        report = QueryExecutor(database, context=None).join(
            "dblp", "sigmod", pattern, sl_labels=[2, 4]
        )
        assert report.results == []

    def test_descendants_of_a_side_root_exclude_the_root_itself(self, context):
        # Regression: in the virtual product, the pool "descendants of the
        # product root on this side" (which holds the side's root row) was
        # memoised under the same key as "descendants of the side's root
        # row" (which must not), so an ``ad`` edge hanging off the pattern
        # root could bind a node as its own descendant.
        database = Database()
        for name in ("left", "right"):
            database.create_collection(name).add_document(
                "d", "<lib><book><book>alpha</book></book></lib>"
            )
        pattern = pattern_of(
            [(0, None, PC), (1, 0, AD), (2, 1, PC), (3, 0, AD), (4, 3, PC)]
        )
        pattern.condition = And(
            *(Comparison("=", NodeTag(n), Constant("book")) for n in (1, 2, 3, 4)),
            Comparison("=", NodeContent(2), NodeContent(4)),
        )
        report = QueryExecutor(database, context).join(
            "left", "right", pattern, sl_labels=[2, 4]
        )
        oracle = ReferenceExecutor(database, context).join(
            "left", "right", pattern, sl_labels=[2, 4]
        )
        assert [t.canonical_key() for t in report.results] == [
            t.canonical_key() for t in oracle.results
        ]
        assert all(tree.tag == "tax_prod_root" for tree in report.results)
