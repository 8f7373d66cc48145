"""Property-based tests: the XPath engine vs a naive walk of ``root.iter()``.

The engine runs the grammar :func:`~repro.core.executor.
compile_pattern_to_xpath` writes: a ``//`` step with name, ``*``,
``name() = v``, ``text() = v`` and nested child / ``.//`` predicates.
Each test states one construct's meaning as a filter over the
document's nodes and requires the same node objects in the same order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmldb.model import XmlNode
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize
from repro.xmldb.xpath import XPathQuery

tags = st.sampled_from(["a", "b", "c"])
texts = st.sampled_from(["", "1", "two", "x y", "it's"])
# Tags that read as XPath syntax or keywords: they reach the engine
# only as name() literals (or bare, for the plain names).
hostile_tags = st.sampled_from(
    ["a|b", "self::a", "..", "text()", "or", "text", "name", "it's", 'say "hi"', "1a"]
)


@st.composite
def random_documents(draw, tag_strategy=tags, max_depth=3):
    def make(depth):
        node = XmlNode(draw(tag_strategy), draw(texts))
        if depth < max_depth:
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                node.append(make(depth + 1))
        return node

    return make(0).renumber()


def literal(value):
    return f'"{value}"' if "'" in value else f"'{value}'"


def select(doc, query):
    return XPathQuery(query).select(doc)


def naive(doc, keep):
    return [node for node in doc.iter() if keep(node)]


@given(doc=random_documents(), tag=tags)
@settings(max_examples=80, deadline=None)
def test_descendant_axis_matches_reference(doc, tag):
    assert select(doc, f"//{tag}") == naive(doc, lambda node: node.tag == tag)


@given(doc=random_documents())
@settings(max_examples=40, deadline=None)
def test_wildcard_matches_reference(doc):
    assert select(doc, "//*") == list(doc.iter())


@given(doc=random_documents(), outer=tags, inner=tags)
@settings(max_examples=80, deadline=None)
def test_child_step_matches_reference(doc, outer, inner):
    assert select(doc, f"//{outer}[{inner}]") == naive(
        doc,
        lambda node: node.tag == outer
        and any(child.tag == inner for child in node.children),
    )


@given(doc=random_documents(), outer=tags, inner=tags)
@settings(max_examples=80, deadline=None)
def test_descendant_step_matches_reference(doc, outer, inner):
    assert select(doc, f"//{outer}[.//{inner}]") == naive(
        doc,
        lambda node: node.tag == outer
        and any(below.tag == inner for below in node.descendants()),
    )


@given(doc=random_documents(), tag=tags, value=texts)
@settings(max_examples=80, deadline=None)
def test_value_predicate_matches_reference(doc, tag, value):
    # text() selects nothing on an empty element, so '' never matches.
    assert select(doc, f"//{tag}[text() = {literal(value)}]") == naive(
        doc, lambda node: node.tag == tag and value != "" and node.text == value
    )


def test_value_predicate_reads_merged_mixed_content():
    doc = parse_document("<a>x<b>1</b>y<c/></a>")
    assert select(doc, "//*[text() = 'x y']") == [doc]
    assert select(doc, "//*[text() = 'x']") == []


@given(doc=random_documents(tag_strategy=hostile_tags), first=hostile_tags, second=hostile_tags)
@settings(max_examples=80, deadline=None)
def test_name_predicate_matches_reference(doc, first, second):
    if "'" in first and '"' in first or "'" in second and '"' in second:
        return  # no XPath literal holds both quotes; the compiler leaves such tags out
    query = f"//*[(name() = {literal(first)} or name() = {literal(second)})]"
    assert select(doc, query) == naive(doc, lambda node: node.tag in (first, second))


@given(doc=random_documents())
@settings(max_examples=60, deadline=None)
def test_serialize_parse_roundtrip_preserves_xpath_results(doc):
    """Serialise -> reparse -> same XPath answers (modulo whitespace)."""
    reparsed = parse_document(serialize(doc))
    for tag in ("a", "b", "c"):
        original = [n.text for n in select(doc, f"//{tag}")]
        roundtripped = [n.text for n in select(reparsed, f"//{tag}")]
        assert original == roundtripped
