"""Unit tests for the XmlNode tree model."""

import pytest

from repro.xmldb.model import XmlNode, ancestor_of, build, document_order


@pytest.fixture
def tree():
    root = XmlNode("dblp")
    paper = root.element("inproceedings")
    paper.element("author", "Jeffrey D. Ullman")
    paper.element("title", "A Survey")
    paper2 = root.element("inproceedings")
    paper2.element("author", "Paolo Ciancarini")
    root.renumber()
    return root


class TestConstruction:
    def test_element_helper(self):
        root = XmlNode("a")
        child = root.element("b", "text", attr="v")
        assert child.parent is root
        assert child.text == "text"
        assert child.attributes == {"attr": "v"}

    def test_build_helper(self):
        tree = build("x", build("y", "inner"), outer="1")
        assert tree.attributes == {"outer": "1"}
        assert tree.children[0].text == "inner"

    def test_detach(self, tree):
        paper = tree.children[0]
        paper.detach()
        assert paper.parent is None
        assert len(tree.children) == 1

    def test_object_ids_unique(self):
        assert XmlNode("a").object_id != XmlNode("a").object_id


class TestNumbering:
    def test_preorder_numbers(self, tree):
        nodes = list(tree.iter())
        assert [node.pre for node in nodes] == list(range(len(nodes)))

    def test_ancestor_test_via_numbers(self, tree):
        paper = tree.children[0]
        author = paper.children[0]
        assert ancestor_of(tree, author)
        assert ancestor_of(paper, author)
        assert not ancestor_of(author, paper)
        assert not ancestor_of(paper, paper)  # strict

    def test_sibling_subtrees_not_ancestors(self, tree):
        first, second = tree.children
        assert not ancestor_of(first, second.children[0])

    def test_depth(self, tree):
        assert tree.depth == 0
        assert tree.children[0].depth == 1
        assert tree.children[0].children[0].depth == 2

    def test_document_order(self, tree):
        shuffled = list(reversed(list(tree.iter())))
        ordered = document_order(shuffled)
        assert [n.pre for n in ordered] == sorted(n.pre for n in shuffled)

    def test_ancestor_of_without_numbering_walks_parents(self):
        root = XmlNode("a")
        child = root.element("b")
        assert ancestor_of(root, child)


class TestTraversal:
    def test_iter_is_preorder(self, tree):
        tags = [node.tag for node in tree.iter()]
        assert tags == [
            "dblp", "inproceedings", "author", "title",
            "inproceedings", "author",
        ]

    def test_descendants_excludes_self(self, tree):
        assert all(node is not tree for node in tree.descendants())

    def test_ancestors(self, tree):
        author = tree.children[0].children[0]
        assert [node.tag for node in author.ancestors()] == [
            "inproceedings", "dblp",
        ]

    def test_root(self, tree):
        leaf = tree.children[0].children[0]
        assert leaf.root() is tree

    def test_find_all_and_first(self, tree):
        assert len(tree.find_all("author")) == 2
        assert tree.find_first("title").text == "A Survey"
        assert tree.find_first("nothing") is None

    def test_child_by_tag(self, tree):
        paper = tree.children[0]
        assert paper.child_by_tag("title").text == "A Survey"
        assert paper.child_by_tag("zzz") is None

    def test_leaves(self, tree):
        assert all(node.is_leaf() for node in tree.leaves())
        assert sum(1 for _ in tree.leaves()) == 3

    def test_size(self, tree):
        assert tree.size() == 6

    def test_path_tags(self, tree):
        author = tree.children[0].children[0]
        assert author.path_tags() == ("dblp", "inproceedings", "author")

    def test_sibling_index(self, tree):
        assert tree.children[1].sibling_index() == 1
        assert tree.sibling_index() == 0


class TestContent:
    def test_content_is_own_text(self, tree):
        author = tree.children[0].children[0]
        assert author.content == "Jeffrey D. Ullman"

    def test_string_value_concatenates(self, tree):
        assert "Jeffrey D. Ullman" in tree.string_value()
        assert "A Survey" in tree.string_value()


class TestCopying:
    def test_copy_is_deep(self, tree):
        clone = tree.copy()
        clone.children[0].children[0].text = "changed"
        assert tree.children[0].children[0].text == "Jeffrey D. Ullman"

    def test_copy_has_new_identities(self, tree):
        clone = tree.copy()
        originals = {node.object_id for node in tree.iter()}
        clones = {node.object_id for node in clone.iter()}
        assert originals.isdisjoint(clones)


class TestEquality:
    def test_structural_equality(self, tree):
        assert tree.structurally_equal(tree.copy())

    def test_text_difference_detected(self, tree):
        clone = tree.copy()
        clone.children[0].children[0].text = "Someone Else"
        assert not tree.structurally_equal(clone)

    def test_order_matters(self):
        a = build("r", build("x"), build("y"))
        b = build("r", build("y"), build("x"))
        assert not a.structurally_equal(b)

    def test_attribute_difference_detected(self):
        a = build("r", key="1")
        b = build("r", key="2")
        assert not a.structurally_equal(b)

    def test_canonical_key_agrees_with_equality(self, tree):
        assert tree.canonical_key() == tree.copy().canonical_key()
        other = tree.copy()
        other.children[0].tag = "article"
        assert tree.canonical_key() != other.canonical_key()
