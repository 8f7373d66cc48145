"""The XPath the paper's rewrite writes, run over one document tree.

:func:`~repro.core.reference.compile_pattern_to_xpath` turns a pattern
tree into one ``//`` step whose structure and content are nested
predicates, and the :class:`~repro.core.reference.ReferenceExecutor`
(the test oracle) runs that text here, per document.  The grammar is
exactly what the writer emits::

    Query     := '//' Step
    Step      := Test Predicate*
    Test      := Name | '*'
    Predicate := '[' Or ']'
    Or        := Term ('or' Term)*
    Term      := '(' Or ')' | ('name' | 'text') '(' ')' '=' Literal
               | './/' Step | Step

A relative step selects the node's children (bare) or its proper
descendants (``.//``), and holds as a predicate when it selects
anything.  ``name() = 'x'`` holds when the node's tag is ``x``;
``text() = 'x'`` when its own text is ``x`` and not empty (``text()``
selects nothing on an empty element).  A literal takes either quote
and no escapes.  ``or``, ``name`` and ``text`` are element names
wherever a test is read.  Anything else — other functions, axes, ``@``,
``/`` paths, ``|``, numbers, ``and`` — raises
:class:`~repro.errors.XPathSyntaxError`.
"""

from __future__ import annotations

import re
from typing import Callable, List, Tuple

from ...errors import XPathSyntaxError
from ..model import XmlNode

Check = Callable[[XmlNode], bool]

#: One token after optional whitespace: punctuation, a name (the
#: writer's plain names) or a literal in either quote.
_TOKEN = re.compile(
    r"""\s*(?:(\.//|//|[\[\]()=*])|([A-Za-z_][A-Za-z0-9_.-]*)|'([^']*)'|"([^"]*)")"""
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    """``(kind, value, position)`` triples; ``kind`` is the punctuation
    itself, ``"name"`` or ``"literal"``, and ``"end"`` closes the list."""
    tokens = []
    at = 0
    while True:
        match = _TOKEN.match(text, at)
        if match is None:
            break
        punct, name, single, double = match.groups()
        start = match.end() - len(match.group().lstrip())
        if punct:
            tokens.append((punct, punct, start))
        elif name:
            tokens.append(("name", name, start))
        else:
            tokens.append(("literal", single if double is None else double, start))
        at = match.end()
    rest = text[at:].lstrip()
    if rest:
        position = len(text) - len(rest)
        raise XPathSyntaxError(f"unexpected character {rest[0]!r}", position)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens, compiling as it goes: a step
    becomes a test of one node, a predicate a test of its context node."""

    def __init__(self, text: str) -> None:
        self._tokens = _tokenize(text)
        self._at = 0

    def _next(self) -> Tuple[str, str, int]:
        token = self._tokens[self._at]
        self._at += 1
        return token

    def _peek(self, kind: str) -> bool:
        return self._tokens[self._at][0] == kind

    def _expect(self, kind: str) -> str:
        found, value, position = self._next()
        if found != kind:
            raise XPathSyntaxError(f"expected {kind}, found {found} {value!r}", position)
        return value

    def query(self) -> Check:
        self._expect("//")
        step = self._step()
        self._expect("end")
        return step

    def _step(self) -> Check:
        kind, tag, position = self._next()
        if kind not in ("name", "*"):
            raise XPathSyntaxError(f"expected a name test, found {kind} {tag!r}", position)
        checks = []
        while self._peek("["):
            self._next()
            checks.append(self._or())
            self._expect("]")
        if kind == "*":
            return lambda node: all(check(node) for check in checks)
        return lambda node: node.tag == tag and all(check(node) for check in checks)

    def _or(self) -> Check:
        terms = [self._term()]
        while self._tokens[self._at][:2] == ("name", "or"):
            self._next()
            terms.append(self._term())
        if len(terms) == 1:
            return terms[0]
        return lambda node: any(term(node) for term in terms)

    def _term(self) -> Check:
        kind, value, position = self._tokens[self._at]
        if kind == "(":
            self._next()
            inner = self._or()
            self._expect(")")
            return inner
        if kind == ".//":
            self._next()
            step = self._step()
            return lambda node: any(map(step, node.descendants()))
        if kind == "name" and self._tokens[self._at + 1][0] == "(":
            if value not in ("name", "text"):
                raise XPathSyntaxError(f"unsupported function {value}()", position)
            self._at += 2
            self._expect(")")
            self._expect("=")
            literal = self._expect("literal")
            if value == "name":
                return lambda node: node.tag == literal
            return lambda node: literal != "" and node.text == literal
        step = self._step()
        return lambda node: any(map(step, node.children))


class XPathQuery:
    """A parsed query, reusable across documents.

    >>> XPathQuery("//inproceedings[.//author[text() = 'A']]").select(root)  # doctest: +SKIP
    """

    def __init__(self, query: str) -> None:
        self._step = _Parser(query).query()

    def select(self, root: XmlNode) -> List[XmlNode]:
        """The elements the query selects, in document order."""
        return [node for node in root.iter() if self._step(node)]
