"""Columnar document scans: same nodes as the AST engine, or None.

:mod:`repro.xmldb.columnar` compiles the XPath subset the executor's
pattern-to-XPath compiler emits into flat-array row scans.  Its contract
is the engine's own answer — the rows index the same nodes, in the same
order — and a clean ``None`` for everything outside the subset, so the
collection falls back to :meth:`XPathQuery.select` transparently.
"""

import pytest

from repro.xmldb.columnar import DocumentColumns, compile_columnar_rows
from repro.xmldb.parser import parse_document
from repro.xmldb.xpath import XPathQuery

DOCUMENT = """
<dblp>
  <inproceedings position="1">
    <author>Jane Roe</author>
    <author>John Doe</author>
    <title>Pattern Trees</title>
    <year>1999</year>
    <booktitle>SIGMOD</booktitle>
  </inproceedings>
  <article>
    <author>Jane Roe</author>
    <title>Ontologies</title>
    <year>2004</year>
    <journal>TODS</journal>
  </article>
  <inproceedings>
    <title>Similarity Queries</title>
    <year>2001</year>
    <booktitle>VLDB</booktitle>
    <cite><title>Pattern Trees</title></cite>
  </inproceedings>
</dblp>
"""

#: The shapes repro.core.executor.compile_pattern_to_xpath generates,
#: plus edge variants (no matches, root tag, star, nesting).
SUPPORTED = [
    "//title",
    "//inproceedings",
    "//dblp",
    "//*",
    "//title[. = 'Pattern Trees']",
    "//title[. = 'No Such Title']",
    "//inproceedings[year]",
    "//inproceedings[year[. = '1999']]",
    "//inproceedings[.//title[. = 'Pattern Trees']]",
    "//inproceedings[(booktitle = 'SIGMOD' or booktitle = 'VLDB')]",
    "//inproceedings[booktitle[(. = 'SIGMOD' or . = 'VLDB')]]",
    "//year[number(.) > 2000]",
    "//year[number(.) >= 1999]",
    "//year[number() < 2000]",
    "//inproceedings[number(year) > 2000]",
    "//*[(name() = 'article' or name() = 'journal')]",
    "//inproceedings[title and year]",
    "//inproceedings[title or journal]",
    "//inproceedings[not(journal)]",
    "//inproceedings[string(.) != '']",
    "//author[. = 'Jane Roe']",
    "//cite[title]",
    "//inproceedings[year != '1999']",
    "//title[. = booktitle]",
    "/dblp/inproceedings/title",
    "/dblp//title",
]

#: Outside the subset: must return None (AST fallback), never wrong rows.
UNSUPPORTED = [
    "//title/text()",
    "//inproceedings/@position",
    "//inproceedings[1]",
    "//inproceedings[last()]",
    "//title | //author",
    "count(//title)",
    "//inproceedings/ancestor::dblp",
]


@pytest.fixture(scope="module")
def root():
    return parse_document(DOCUMENT)


@pytest.fixture(scope="module")
def columns(root):
    return DocumentColumns(root)


@pytest.mark.parametrize("source", SUPPORTED)
def test_matcher_equals_engine(source, root, columns):
    query = XPathQuery(source)
    rows = compile_columnar_rows(query.expression)
    assert rows is not None, f"{source!r} fell out of the columnar subset"
    assert [columns.nodes[row] for row in rows(columns)] == query.select(root)


@pytest.mark.parametrize("source", UNSUPPORTED)
def test_unsupported_shapes_decline(source):
    query = XPathQuery(source)
    assert compile_columnar_rows(query.expression) is None


def test_matcher_is_cached_on_the_query(root):
    query = XPathQuery("//title")
    first = query.columnar_rows()
    assert first is not None
    assert query.columnar_rows() is first


def test_columns_reflect_document_order(root, columns):
    preorder = list(root.iter())
    assert columns.nodes == preorder
    assert [node.tag for node in preorder] == list(columns.tags)
    # end[] is one past the subtree: the root subtree spans every row.
    assert columns.end[0] == len(columns.nodes)


def test_svalues_match_string_value(root, columns):
    for row, node in enumerate(columns.nodes):
        assert columns.svalues[row] == node.string_value()
