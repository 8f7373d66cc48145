"""Columnar document arrays: one preorder row per node of the tree."""

import pytest

from repro.xmldb.columnar import DocumentColumns
from repro.xmldb.parser import parse_document

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


@pytest.fixture(scope="module")
def root():
    return parse_document(DOCUMENT)


@pytest.fixture(scope="module")
def columns(root):
    return DocumentColumns(root)


def test_columns_reflect_document_order(root, columns):
    preorder = list(root.iter())
    assert columns.nodes == preorder
    assert [node.tag for node in preorder] == list(columns.tags)
    # end[] is one past the subtree: the root subtree spans every row.
    assert columns.end[0] == len(columns.nodes)
