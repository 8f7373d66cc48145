"""Unit tests for XML parsing and serialisation."""

import pytest

from repro.errors import XmlParseError
from repro.xmldb.model import XmlNode
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.serializer import (
    document_bytes,
    escape_attribute,
    escape_text,
    serialize,
)


class TestParse:
    def test_simple_document(self):
        root = parse_document("<a><b>hi</b></a>")
        assert root.tag == "a"
        assert root.children[0].text == "hi"

    def test_attributes(self):
        root = parse_document('<a key="k1" other="v"/>')
        assert root.attributes == {"key": "k1", "other": "v"}

    def test_whitespace_stripped(self):
        root = parse_document("<a>\n  <b>\n    text\n  </b>\n</a>")
        assert root.children[0].text == "text"

    def test_entities_decoded(self):
        root = parse_document("<a>&lt;tag&gt; &amp; more</a>")
        assert root.text == "<tag> & more"

    def test_renumbered_on_parse(self):
        root = parse_document("<a><b/><c/></a>")
        assert root.pre == 0
        assert root.children[1].pre == 2

    def test_split_text_joined(self):
        root = parse_document("<a>first <b>mid</b> last</a>")
        assert "first" in root.text and "last" in root.text

    def test_bytes_input(self):
        root = parse_document(b"<a>ok</a>")
        assert root.text == "ok"

    def test_malformed_raises(self):
        with pytest.raises(XmlParseError):
            parse_document("<a><b></a>")

    def test_empty_raises(self):
        with pytest.raises(XmlParseError):
            parse_document("")

    def test_fragment_wraps_many_roots(self):
        root = parse_fragment("<a/><b/>")
        assert root.tag == "fragment"
        assert [c.tag for c in root.children] == ["a", "b"]

    def test_fragment_passthrough_single_root(self):
        assert parse_fragment("<only/>").tag == "only"


class TestSerialize:
    def test_roundtrip(self):
        text = '<a key="1"><b>hello &amp; goodbye</b><c/></a>'
        root = parse_document(text)
        again = parse_document(serialize(root))
        assert root.structurally_equal(again)

    def test_compact_is_single_line(self):
        root = parse_document("<a><b>x</b></a>")
        assert "\n" not in serialize(root)

    def test_pretty_print_indents(self):
        root = parse_document("<a><b>x</b></a>")
        pretty = serialize(root, indent=2)
        assert "\n  <b>" in pretty

    def test_self_closing_empty_elements(self):
        root = parse_document("<a><b/></a>")
        assert "<b/>" in serialize(root)

    def test_escapes(self):
        assert escape_text("a < b & c > d") == "a &lt; b &amp; c &gt; d"
        assert escape_attribute('say "hi"') == "say &quot;hi&quot;"

    def test_attribute_escaping_roundtrip(self):
        root = XmlNode("a", attributes={"q": 'va"l<ue'})
        again = parse_document(serialize(root))
        assert again.attributes["q"] == 'va"l<ue'

    def test_document_bytes_counts_utf8(self):
        root = parse_document("<a>héllo</a>")
        assert document_bytes(root) == len(serialize(root).encode("utf-8"))
