"""Unit tests for the TAX algebra operators."""

import pytest

from repro.tax.algebra import (
    PRODUCT_ROOT_TAG,
    difference,
    intersection,
    join,
    product,
    projection,
    selection,
    union,
)
from repro.tax.conditions import And, Comparison, Constant, NodeContent, NodeTag
from repro.tax.pattern import AD, PC, pattern_of
from repro.tax.tree import canonical_keys, dedupe, trees_equal
from repro.xmldb.parser import parse_document

DBLP = """
<dblp>
  <inproceedings>
    <author>First Author</author>
    <title>Paper One</title>
    <year>1999</year>
  </inproceedings>
  <inproceedings>
    <author>Second Author</author>
    <title>Paper Two</title>
    <year>1999</year>
  </inproceedings>
  <inproceedings>
    <author>Third Author</author>
    <title>Paper Three</title>
    <year>2001</year>
  </inproceedings>
</dblp>
"""

SIGMOD = """
<ProceedingsPage>
  <articles>
    <article>
      <title>Paper One</title>
      <author>F. Author</author>
    </article>
  </articles>
</ProceedingsPage>
"""


@pytest.fixture
def dblp():
    return parse_document(DBLP)


@pytest.fixture
def sigmod():
    return parse_document(SIGMOD)


def year_pattern(year):
    pattern = pattern_of([(1, None, PC), (2, 1, PC), (3, 1, PC)])
    pattern.condition = And(
        Comparison("=", NodeTag(1), Constant("inproceedings")),
        Comparison("=", NodeTag(2), Constant("title")),
        Comparison("=", NodeTag(3), Constant("year")),
        Comparison("=", NodeContent(3), Constant(year)),
    )
    return pattern


class TestSelection:
    def test_returns_witness_per_match(self, dblp):
        results = selection([dblp], year_pattern("1999"))
        assert len(results) == 2
        assert all(tree.tag == "inproceedings" for tree in results)

    def test_sl_includes_descendants(self, dblp):
        results = selection([dblp], year_pattern("1999"), sl_labels=[1])
        assert all(tree.find_first("author") is not None for tree in results)

    def test_without_sl_only_matched_nodes(self, dblp):
        results = selection([dblp], year_pattern("1999"))
        assert all(tree.find_first("author") is None for tree in results)

    def test_no_match_empty(self, dblp):
        assert selection([dblp], year_pattern("1883")) == []

    def test_duplicate_witnesses_collapsed(self, dblp):
        # A pattern with just an unconstrained year node produces one
        # witness per year element; two are structurally equal ("1999").
        pattern = pattern_of([(1, None, PC)])
        pattern.condition = Comparison("=", NodeTag(1), Constant("year"))
        results = selection([dblp], pattern, sl_labels=[1])
        texts = sorted(tree.text for tree in results)
        assert texts == ["1999", "2001"]


class TestProjection:
    def test_example_5_shape(self, dblp):
        """Projecting the authors of 1999 papers -> collection of authors."""
        pattern = pattern_of([(1, None, PC), (2, 1, PC), (3, 1, PC)])
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("inproceedings")),
            Comparison("=", NodeTag(2), Constant("author")),
            Comparison("=", NodeTag(3), Constant("year")),
            Comparison("=", NodeContent(3), Constant("1999")),
        )
        results = projection([dblp], pattern, [2])
        assert sorted(tree.text for tree in results) == [
            "First Author", "Second Author",
        ]

    def test_projection_keeps_hierarchy(self, dblp):
        pattern = pattern_of([(1, None, PC), (2, 1, AD)])
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("dblp")),
            Comparison("=", NodeTag(2), Constant("title")),
        )
        results = projection([dblp], pattern, [1, 2])
        assert len(results) == 1
        assert [c.tag for c in results[0].children] == ["title"] * 3

    def test_projection_with_subtree_flag(self, dblp):
        pattern = pattern_of([(1, None, PC)])
        pattern.condition = Comparison("=", NodeTag(1), Constant("inproceedings"))
        results = projection([dblp], pattern, [(1, True)])
        assert all(tree.find_first("author") is not None for tree in results)

    def test_projection_no_matches(self, dblp):
        pattern = pattern_of([(1, None, PC)])
        pattern.condition = Comparison("=", NodeTag(1), Constant("zzz"))
        assert projection([dblp], pattern, [1]) == []


class TestProductAndJoin:
    def test_product_counts_pairs(self, dblp, sigmod):
        left = selection([dblp], year_pattern("1999"), sl_labels=[1])
        pairs = product(left, [sigmod])
        assert len(pairs) == 2
        assert all(tree.tag == PRODUCT_ROOT_TAG for tree in pairs)
        assert all(len(tree.children) == 2 for tree in pairs)

    def test_product_copies_inputs(self, dblp, sigmod):
        pairs = product([dblp], [sigmod])
        pairs[0].children[0].find_first("title").text = "mutated"
        assert dblp.find_first("title").text == "Paper One"

    def test_join_example_13_shape(self, dblp, sigmod):
        """Join on equal titles across schemas."""
        pattern = pattern_of(
            [(0, None, PC), (1, 0, PC), (2, 1, AD), (3, 0, AD), (4, 3, PC)]
        )
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("dblp")),
            Comparison("=", NodeTag(2), Constant("title")),
            Comparison("=", NodeTag(3), Constant("article")),
            Comparison("=", NodeTag(4), Constant("title")),
            Comparison("=", NodeContent(2), NodeContent(4)),
        )
        results = join([dblp], [sigmod], pattern, sl_labels=[2, 4])
        assert len(results) == 1
        titles = [node.text for node in results[0].find_all("title")]
        assert titles == ["Paper One", "Paper One"]


class TestSetOperators:
    def test_union_dedupes(self, dblp):
        papers = selection([dblp], year_pattern("1999"), sl_labels=[1])
        assert len(union(papers, papers)) == 2

    def test_intersection(self, dblp):
        all_years = selection([dblp], year_pattern("1999"), sl_labels=[1])
        one = all_years[:1]
        result = intersection(all_years, one)
        assert len(result) == 1
        assert trees_equal(result[0], one[0])

    def test_difference(self, dblp):
        all_years = selection([dblp], year_pattern("1999"), sl_labels=[1])
        one = all_years[:1]
        result = difference(all_years, one)
        assert len(result) == 1
        assert not trees_equal(result[0], one[0])

    def test_difference_disjoint(self, dblp):
        papers_1999 = selection([dblp], year_pattern("1999"), sl_labels=[1])
        papers_2001 = selection([dblp], year_pattern("2001"), sl_labels=[1])
        assert len(difference(papers_1999, papers_2001)) == 2

    def test_set_ops_return_copies(self, dblp):
        papers = selection([dblp], year_pattern("1999"), sl_labels=[1])
        united = union(papers, [])
        united[0].find_first("title").text = "mutated"
        assert papers[0].find_first("title").text != "mutated"


class TestTreeHelpers:
    def test_dedupe_keeps_first(self, dblp):
        copies = [dblp.copy().renumber(), dblp.copy().renumber()]
        assert len(dedupe(copies)) == 1

    def test_canonical_keys_align(self, dblp):
        keys = canonical_keys([dblp, dblp.copy().renumber()])
        assert keys[0] == keys[1]
