"""XML text -> :class:`XmlNode` trees.

Parsing uses the stdlib expat bindings (the one C-accelerated XML tokenizer
guaranteed to be present) and converts directly into our node model,
stripping ignorable whitespace.  Everything above tokenisation — the tree
model, numbering, queries — is this package's own.
"""

from __future__ import annotations

import sys
import xml.parsers.expat
from typing import List, Optional

from ..errors import XmlParseError
from .model import XmlNode


class _TreeBuilder:
    """Expat handler assembling an :class:`XmlNode` tree."""

    def __init__(self) -> None:
        self.root: Optional[XmlNode] = None
        self._stack: List[XmlNode] = []
        self._text_parts: List[str] = []

    def start_element(self, name: str, attributes) -> None:
        self._flush_text()
        # Intern tags and attribute names: a DBLP-scale corpus repeats a
        # tiny vocabulary millions of times, and interning turns the
        # equality probes in the scan/verify hot paths into pointer
        # comparisons (and deduplicates the strings across documents).
        node = XmlNode(
            sys.intern(name),
            attributes={sys.intern(key): value for key, value in attributes.items()},
        )
        if self._stack:
            self._stack[-1].append(node)
        elif self.root is None:
            self.root = node
        else:  # pragma: no cover - expat already rejects two roots
            raise XmlParseError("multiple root elements")
        self._stack.append(node)

    def end_element(self, name: str) -> None:
        self._flush_text()
        self._stack.pop()

    def character_data(self, data: str) -> None:
        self._text_parts.append(data)

    def _flush_text(self) -> None:
        if not self._text_parts:
            return
        text = "".join(self._text_parts).strip()
        self._text_parts.clear()
        if text and self._stack:
            node = self._stack[-1]
            merged = f"{node.text} {text}".strip() if node.text else text
            # Content values repeat heavily too (years, venues, names).
            node.text = sys.intern(merged)


def parse_document(xml_text: "str | bytes") -> XmlNode:
    """Parse a complete XML document into a renumbered tree.

    Raises :class:`~repro.errors.XmlParseError` with the expat diagnostic
    (line/column) on malformed input.

    >>> parse_document("<a><b>hi</b></a>").children[0].text
    'hi'
    """
    builder = _TreeBuilder()
    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = builder.start_element
    parser.EndElementHandler = builder.end_element
    parser.CharacterDataHandler = builder.character_data
    try:
        if isinstance(xml_text, bytes):
            parser.Parse(xml_text, True)
        else:
            parser.Parse(xml_text.encode("utf-8"), True)
    except xml.parsers.expat.ExpatError as exc:
        raise XmlParseError(f"malformed XML: {exc}") from exc
    if builder.root is None:
        raise XmlParseError("document contains no root element")
    return builder.root.renumber()


def parse_fragment(xml_text: str) -> XmlNode:
    """Parse an XML fragment (may omit a single enclosing root).

    Multiple top-level elements are wrapped under a synthetic ``fragment``
    root so test fixtures can be written tersely.
    """
    try:
        return parse_document(xml_text)
    except XmlParseError:
        wrapped = f"<fragment>{xml_text}</fragment>"
        return parse_document(wrapped)
