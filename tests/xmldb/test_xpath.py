"""Unit tests for the XPath engine: the grammar the pattern compiler writes."""

import pytest

from repro.errors import XPathSyntaxError
from repro.xmldb.parser import parse_document
from repro.xmldb.xpath import XPathQuery


@pytest.fixture
def doc():
    return parse_document(
        """
        <dblp>
          <inproceedings key="p1">
            <author>Jeffrey D. Ullman</author>
            <author>Second Author</author>
            <title>A Survey of Deductive Database Systems</title>
            <year>1999</year>
            <booktitle>SIGMOD Conference</booktitle>
          </inproceedings>
          <inproceedings key="p2">
            <author>Paolo Ciancarini</author>
            <title>Managing Complex Documents</title>
            <year>2000</year>
            <booktitle>VLDB</booktitle>
          </inproceedings>
          <article key="p3">
            <author>Paolo Ciancarini</author>
            <title>Another One</title>
            <year>1999</year>
          </article>
        </dblp>
        """
    )


def select(doc, query):
    return XPathQuery(query).select(doc)


def keys(results):
    return [node.attributes["key"] for node in results]


class TestLexer:
    def test_unterminated_literal(self):
        with pytest.raises(XPathSyntaxError):
            XPathQuery("//a[text() = 'oops]")

    def test_bad_character(self):
        with pytest.raises(XPathSyntaxError) as info:
            XPathQuery("//a $ b")
        assert info.value.position == 4


class TestParser:
    def test_empty_rejected(self):
        with pytest.raises(XPathSyntaxError):
            XPathQuery("   ")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(XPathSyntaxError):
            XPathQuery("//a]")

    def test_missing_operand_rejected(self):
        with pytest.raises(XPathSyntaxError):
            XPathQuery("//a[year=]")

    @pytest.mark.parametrize(
        "query",
        [
            "//a/b",
            "//a/@id",
            "..",
            "//a[1]",
            "position()",
            "contains(., 'x')",
            "//a | //b",
            "1 + 2",
            "//a[b and c]",
        ],
    )
    def test_rejects_what_the_compiler_never_writes(self, query):
        with pytest.raises(XPathSyntaxError):
            XPathQuery(query)


class TestPaths:
    def test_descendant_axis(self, doc):
        assert len(select(doc, "//author")) == 4

    def test_wildcard(self, doc):
        assert select(doc, "//*") == list(doc.iter())

    def test_nested_descendant(self, doc):
        assert keys(select(doc, "//inproceedings[.//title]")) == ["p1", "p2"]

    def test_results_in_document_order_without_duplicates(self, doc):
        # dblp, both inproceedings and the article hold an author below
        # them; each author matches both alternatives and comes once.
        results = select(doc, "//*[(name() = 'author' or .//author)]")
        pres = [node.pre for node in results]
        assert pres == sorted(pres)
        assert len(pres) == len(set(pres)) == 8


class TestPredicates:
    def test_value_equality(self, doc):
        assert keys(select(doc, "//inproceedings[year[text() = '1999']]")) == ["p1"]

    def test_existence_predicate(self, doc):
        assert len(select(doc, "//*[booktitle]")) == 2

    def test_and_or(self, doc):
        # A conjunction is written as chained predicates.
        results = select(
            doc, "//inproceedings[year[text() = '1999']][booktitle[text() = 'SIGMOD Conference']]"
        )
        assert keys(results) == ["p1"]
        results = select(
            doc, "//*[year[text() = '2000'] or booktitle[text() = 'SIGMOD Conference']]"
        )
        assert keys(results) == ["p1", "p2"]

    def test_nested_path_predicate(self, doc):
        assert keys(select(doc, "//inproceedings[author[text() = 'Paolo Ciancarini']]")) == [
            "p2"
        ]

    def test_chained_predicates(self, doc):
        assert len(select(doc, "//inproceedings[author][year[text() = '1999']]")) == 1


class TestAttributesAndText:
    def test_text_in_predicate(self, doc):
        results = select(doc, "//author[text()='Paolo Ciancarini']")
        assert len(results) == 2

    def test_text_selects_nothing_on_an_empty_element(self):
        tree = parse_document("<a><b/><b>x</b></a>")
        assert select(tree, "//b[text() = '']") == []
        assert select(tree, "//*[text() = 'x']") == [tree.children[1]]

    def test_both_quote_styles(self):
        tree = parse_document("""<a><b>it's</b><b>say "hi"</b></a>""")
        assert select(tree, """//b[text() = "it's"]""") == [tree.children[0]]
        assert select(tree, """//b[text() = 'say "hi"']""") == [tree.children[1]]


class TestFunctions:
    def test_name(self, doc):
        assert keys(select(doc, "//*[name() = 'article']")) == ["p3"]

    def test_unknown_function(self):
        with pytest.raises(XPathSyntaxError):
            XPathQuery("//a[frobnicate() = 'x']")

    def test_keywords_are_element_names(self):
        tree = parse_document("<or><or/><text>t</text><name/></or>")
        assert select(tree, "//or[or or name][text[text() = 't']]") == [tree]
        assert select(tree, "//*[(name() = 'text' or name() = 'name')]") == tree.children[1:]


class TestQueryObject:
    def test_reusable_across_documents(self, doc):
        other = parse_document("<dblp><inproceedings><title>t</title></inproceedings></dblp>")
        query = XPathQuery("//inproceedings[title]")
        assert len(query.select(doc)) == 2
        assert len(query.select(other)) == 1
