"""Unit tests for embeddings and witness trees (Section 2.1.1)."""

import pytest

from repro.tax.conditions import And, Comparison, Constant, NodeContent, NodeTag
from repro.tax.embedding import (
    assemble_forest,
    find_embeddings,
    witness_tree,
)
from repro.tax.pattern import AD, PC, PatternTree, pattern_of
from repro.xmldb.parser import parse_document

DOC = """
<dblp>
  <inproceedings>
    <author>First Author</author>
    <title>Paper One</title>
    <year>1999</year>
  </inproceedings>
  <inproceedings>
    <author>Second Author</author>
    <author>Third Author</author>
    <title>Paper Two</title>
    <year>2000</year>
  </inproceedings>
</dblp>
"""


@pytest.fixture
def doc():
    return parse_document(DOC)


def figure_3_pattern():
    """The paper's Figure 3: inproceedings with title and year=1999."""
    pattern = pattern_of([(1, None, PC), (2, 1, PC), (3, 1, PC)])
    pattern.condition = And(
        Comparison("=", NodeTag(1), Constant("inproceedings")),
        Comparison("=", NodeTag(2), Constant("title")),
        Comparison("=", NodeTag(3), Constant("year")),
        Comparison("=", NodeContent(3), Constant("1999")),
    )
    return pattern


class TestFindEmbeddings:
    def test_figure_3_single_embedding(self, doc):
        embeddings = list(find_embeddings(figure_3_pattern(), doc))
        assert len(embeddings) == 1
        assert embeddings[0].image(2).text == "Paper One"

    def test_pc_edge_requires_direct_child(self, doc):
        pattern = pattern_of([(1, None, PC), (2, 1, PC)])
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("dblp")),
            Comparison("=", NodeTag(2), Constant("author")),
        )
        assert list(find_embeddings(pattern, doc)) == []

    def test_ad_edge_reaches_descendants(self, doc):
        pattern = pattern_of([(1, None, PC), (2, 1, AD)])
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("dblp")),
            Comparison("=", NodeTag(2), Constant("author")),
        )
        assert len(list(find_embeddings(pattern, doc))) == 3

    def test_multiple_embeddings_per_node(self, doc):
        # Two authors in paper two: pattern with one author node embeds
        # once per author.
        pattern = pattern_of([(1, None, PC), (2, 1, PC), (3, 1, PC)])
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("inproceedings")),
            Comparison("=", NodeTag(2), Constant("author")),
            Comparison("=", NodeTag(3), Constant("year")),
            Comparison("=", NodeContent(3), Constant("2000")),
        )
        assert len(list(find_embeddings(pattern, doc))) == 2

    def test_root_can_embed_anywhere(self, doc):
        pattern = pattern_of([(1, None, PC)])
        pattern.condition = Comparison("=", NodeTag(1), Constant("author"))
        assert len(list(find_embeddings(pattern, doc))) == 3

    def test_unconstrained_root_tries_all_nodes(self, doc):
        pattern = pattern_of([(1, None, PC)])
        assert len(list(find_embeddings(pattern, doc))) == doc.size()

    def test_collection_search(self, doc):
        other = parse_document(DOC)
        pattern = pattern_of([(1, None, PC)])
        pattern.condition = Comparison("=", NodeTag(1), Constant("title"))
        embeddings = [e for tree in (doc, other) for e in find_embeddings(pattern, tree)]
        assert len(embeddings) == 4


class TestWitnessTrees:
    def test_witness_contains_only_matched_nodes(self, doc):
        embedding = next(iter(find_embeddings(figure_3_pattern(), doc)))
        witness = witness_tree(embedding)
        assert witness.tag == "inproceedings"
        assert [c.tag for c in witness.children] == ["title", "year"]
        # author was not matched, so it is absent
        assert witness.find_first("author") is None

    def test_sl_inflates_subtrees(self, doc):
        embedding = next(iter(find_embeddings(figure_3_pattern(), doc)))
        witness = witness_tree(embedding, sl_labels=[1])
        assert [c.tag for c in witness.children] == ["author", "title", "year"]

    def test_witness_is_a_copy(self, doc):
        embedding = next(iter(find_embeddings(figure_3_pattern(), doc)))
        witness = witness_tree(embedding, sl_labels=[1])
        witness.children[0].text = "mutated"
        assert doc.find_first("author").text == "First Author"

    def test_witness_preserves_document_order(self, doc):
        # Match year before title in the pattern; output stays in
        # document order (title before year).
        pattern = pattern_of([(1, None, PC), (3, 1, PC), (2, 1, PC)])
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("inproceedings")),
            Comparison("=", NodeTag(3), Constant("year")),
            Comparison("=", NodeTag(2), Constant("title")),
            Comparison("=", NodeContent(3), Constant("1999")),
        )
        embedding = next(iter(find_embeddings(pattern, doc)))
        witness = witness_tree(embedding)
        assert [c.tag for c in witness.children] == ["title", "year"]

    def test_closest_ancestor_edge_rule(self, doc):
        # Pattern matching dblp and a deep author: the author hangs
        # directly under dblp in the witness (inproceedings not matched).
        pattern = pattern_of([(1, None, PC), (2, 1, AD)])
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("dblp")),
            Comparison("=", NodeTag(2), Constant("author")),
            Comparison("=", NodeContent(2), Constant("First Author")),
        )
        embedding = next(iter(find_embeddings(pattern, doc)))
        witness = witness_tree(embedding)
        assert witness.tag == "dblp"
        assert [c.tag for c in witness.children] == ["author"]


class TestAssembleForest:
    def test_disconnected_nodes_become_separate_trees(self, doc):
        authors = doc.find_all("author")
        forest = assemble_forest(authors)
        assert len(forest) == 3
        assert all(tree.tag == "author" for tree in forest)

    def test_nested_selection_keeps_hierarchy(self, doc):
        nodes = [doc] + doc.find_all("title")
        forest = assemble_forest(nodes)
        assert len(forest) == 1
        assert [c.tag for c in forest[0].children] == ["title", "title"]

    def test_empty_input(self):
        assert assemble_forest([]) == []
