"""The paper's Section 6 pipeline, kept small as the test oracle.

:class:`ReferenceExecutor` answers a query the way the Xindice prototype
did: rewrite the condition against the SEO, compile the pattern to
XPath, run the XPath over every document with the tree engine, then hand
the candidates to the TAX algebra (for joins: product, then selection).
No index, no columns, no compiled conditions, no caches, no guard, no
options.

The XPath is a sound prefilter: it pushes only what the condition
implies (content equalities as ``text() = 'x'``, tag tests, structure)
and never a ``~`` expansion, which is narrower than ``~`` itself.  So
the algebra — with the evaluator deciding every semantic atom — sees
every true answer, and production, which runs no XPath at all, must
agree with it.  A join side's candidates are the XPath's nodes at which
the side pattern embeds with its root bound to the node: which subtrees
hang off the product root decides what the product selection returns.

The paper's pattern -> XPath compilation lives here, beside the engine
that runs it: :func:`prefilter_xpaths` (the SEO rewrite, then
:func:`compile_pattern_to_xpath`).  ``QueryExecutor.explain`` imports it
to show the text; the production pipeline never writes it.  This module
must never import the machinery it is the oracle for:
``tax.batch``, ``tax.compile``, ``xmldb.columnar``, ``core.planner`` and
``similarity.candidates`` (a lint step greps this file's imports).  The
property suites require production == reference on result sequence and
bytes; the Figure 16(b) reproduction runs on it, since product-then-
select is the strategy the paper measured.
"""

from __future__ import annotations

import re
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..tax import algebra as tax_algebra
from ..tax.conditions import (
    DEFAULT_CONTEXT,
    And,
    Comparison,
    Condition,
    ConditionContext,
    Constant,
    NodeContent,
    Or,
    required_tags,
)
from ..tax.embedding import find_embeddings
from ..tax.pattern import AD, PatternTree
from ..xmldb.database import Database
from ..xmldb.model import XmlNode
from ..xmldb.xpath import XPathQuery
from .conditions import SeoConditionContext, rewrite_condition
from .executor import ExecutionReport, join_side_patterns


#: Largest ``or``-alternative chain pushed into an XPath predicate.  SEO
#: expansions can produce hundreds of alternatives; past this cap the
#: disjunction stays out of the XPath text.  The prefilter only narrows
#: candidates, so the cap never changes an answer.
MAX_OR_ALTERNATIVES = 32


# ---------------------------------------------------------------------------
# Pattern -> XPath compilation
# ---------------------------------------------------------------------------


#: Tags inlined as XPath name tests; anything else goes through ``name()``.
_PLAIN_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*\Z")


def _xpath_literal(value: str) -> Optional[str]:
    """Quote a string for XPath, or None when it cannot be quoted."""
    if "'" not in value:
        return f"'{value}'"
    if '"' not in value:
        return f'"{value}"'
    return None  # mixed quotes: leave for the verification phase


def _content_predicates(condition: Condition) -> Dict[int, List[str]]:
    """Per-label XPath predicate fragments implied by the condition.

    Pushes, from the positive conjunctive structure, content equalities
    with a non-empty constant, alone or as a one-label disjunction, as
    ``text() = 'x'``: it holds exactly when the node's own text (TAX's
    ``content``) is ``x``.  ``. = 'x'`` would compare the whole
    subtree's text, and ``text()`` selects nothing on an empty element.
    Nothing else is pushed: ordering comparisons (TAX compares
    non-numbers as strings, XPath's ``number()`` gives NaN), ``contains``
    (case-insensitive in TAX) and semantic atoms stay with verification.
    Sound, not complete — the XPath never drops a true answer.
    """
    predicates: Dict[int, List[str]] = {}

    def equality_fragment(atom: Condition) -> Optional[Tuple[int, str]]:
        if not isinstance(atom, Comparison) or atom.op != "=":
            return None
        left, right = atom.left, atom.right
        if isinstance(left, Constant):
            left, right = right, left
        if not (isinstance(left, NodeContent) and isinstance(right, Constant)):
            return None
        literal = _xpath_literal(right.value) if right.value else None
        return None if literal is None else (left.label, f"text() = {literal}")

    def visit(node: Condition) -> None:
        if isinstance(node, And):
            for operand in node.operands:
                visit(operand)
        elif isinstance(node, Or):
            if len(node.operands) > MAX_OR_ALTERNATIVES:
                return
            fragments = [equality_fragment(operand) for operand in node.operands]
            if None in fragments:
                return
            labels = {label for label, _ in fragments}
            if len(labels) == 1:
                predicates.setdefault(labels.pop(), []).append(
                    "(" + " or ".join(f for _, f in fragments) + ")"
                )
        else:
            pair = equality_fragment(node)
            if pair is not None:
                predicates.setdefault(pair[0], []).append(pair[1])

    visit(condition)
    return predicates


def compile_pattern_to_xpath(
    pattern: PatternTree, condition: Optional[Condition] = None
) -> str:
    """Compile a pattern tree (+ an already-rewritten condition) to XPath.

    The query selects candidate images of the pattern *root*; structure
    below the root becomes nested existence predicates (`pc` -> child
    path, `ad` -> ``.//`` path) and per-node content constraints become
    value predicates (:func:`_content_predicates`).  The condition is
    the one :func:`~repro.core.conditions.rewrite_condition` gives with
    ``expand_similar=False``: a ``~`` expansion is narrower than ``~``.
    """
    if condition is None:
        condition = pattern.condition
    tags = required_tags(condition)
    contents = _content_predicates(condition)

    def tag_expr(label: int) -> str:
        restriction = tags.get(label)
        if restriction is None or len(restriction) != 1:
            return "*"
        (tag,) = restriction
        if _PLAIN_NAME.match(tag):
            return tag
        # Not an XPath name (``dc:title``, ``a|b``, ``1a``): spliced in
        # bare it would fail to parse or be read as XPath syntax.
        literal = _xpath_literal(tag)
        return "*" if literal is None else f"*[name() = {literal}]"

    def name_predicate(label: int) -> Optional[str]:
        restriction = tags.get(label)
        if restriction is None or len(restriction) <= 1:
            return None
        if len(restriction) > MAX_OR_ALTERNATIVES:
            return None  # capped: verification filters the tags exactly
        literals = [_xpath_literal(tag) for tag in sorted(restriction)]
        if None in literals:
            return None  # unquotable alternative: verification filters it
        alternatives = " or ".join(f"name() = {literal}" for literal in literals)
        return f"({alternatives})"

    def node_expression(label: int, is_root: bool) -> str:
        node = pattern.node(label)
        if is_root:
            prefix = "//"
        elif node.edge == AD:
            prefix = ".//"
        else:
            prefix = ""
        expression = prefix + tag_expr(label)
        predicates: List[str] = []
        name_pred = name_predicate(label)
        if name_pred is not None:
            predicates.append(name_pred)
        predicates.extend(contents.get(label, ()))
        for child in pattern.children(label):
            predicates.append(node_expression(child.label, is_root=False))
        return expression + "".join(f"[{p}]" for p in predicates)

    return node_expression(pattern.root, is_root=True)



def prefilter_xpaths(
    pattern: PatternTree, context: Optional[ConditionContext], join: bool
) -> List[str]:
    """The paper's prefilter XPath per side: one for a selection or a
    projection, left then right for a join.

    Under an SEO context the condition is rewritten first, with ``~``
    left unexpanded (:func:`compile_pattern_to_xpath` says why); any
    other context evaluates semantic atoms itself and rewrites nothing.
    ``explain`` shows these texts and the reference executor runs them;
    the production pipeline does neither.
    """
    condition = pattern.condition
    if isinstance(context, SeoConditionContext):
        condition = rewrite_condition(condition, context, expand_similar=False)
    if join:
        return [
            compile_pattern_to_xpath(side)
            for side in join_side_patterns(pattern, condition)
        ]
    return [compile_pattern_to_xpath(pattern, condition)]


class ReferenceExecutor:
    """Rewrite -> XPath -> algebra, one candidate tree at a time.

    ``context`` is the evaluation context: an
    :class:`~repro.core.conditions.SeoConditionContext` for TOSS (its SEO
    also drives the rewrite), None for plain TAX, or any other
    :class:`~repro.tax.conditions.ConditionContext` (the exact-fallback
    one of degraded mode) to evaluate with and not rewrite.  Candidates
    are verified against the *original* condition: a semantic atom asks
    the SEO directly, which decides exactly what its rewritten
    disjunction does.
    """

    def __init__(
        self, database: Database, context: Optional[ConditionContext] = None
    ) -> None:
        self.database = database
        self.context = context if context is not None else DEFAULT_CONTEXT

    def _accesses(self) -> int:
        return self.context.ontology_accesses

    def _candidates(self, collection_name: str, xpath: str) -> List[XmlNode]:
        """Every node the XPath selects, documents in collection order."""
        query = XPathQuery(xpath)
        candidates: List[XmlNode] = []
        for _key, root in self.database.get_collection(collection_name).documents():
            candidates.extend(query.select(root))
        return candidates

    def _run(self, collections, pattern, join, convert) -> ExecutionReport:
        """The three timed phases: rewrite + compile, XPath scan, algebra.

        One XPath per collection (:func:`prefilter_xpaths`); ``convert``
        gets each collection's candidates.
        """
        accesses_before = self._accesses()
        started = time.perf_counter()
        xpaths = prefilter_xpaths(pattern, self.context, join)
        rewrite_seconds = time.perf_counter() - started

        started = time.perf_counter()
        candidates = [
            self._candidates(name, xpath) for name, xpath in zip(collections, xpaths)
        ]
        xpath_seconds = time.perf_counter() - started

        started = time.perf_counter()
        results = convert(*candidates)
        convert_seconds = time.perf_counter() - started
        return ExecutionReport(
            results,
            rewrite_seconds,
            xpath_seconds,
            convert_seconds,
            xpaths,
            sum(map(len, candidates)),
            self._accesses() - accesses_before,
        )

    def _pattern_query(
        self, collection_name: str, pattern: PatternTree, operator, keep
    ) -> ExecutionReport:
        return self._run(
            [collection_name],
            pattern,
            False,
            lambda candidates: operator(candidates, pattern, keep, self.context),
        )

    def selection(
        self, collection_name: str, pattern: PatternTree, sl_labels: Iterable[int] = ()
    ) -> ExecutionReport:
        """``sigma_{P, SL}`` over the XPath candidates of one collection."""
        return self._pattern_query(
            collection_name, pattern, tax_algebra.selection, list(sl_labels)
        )

    def projection(
        self,
        collection_name: str,
        pattern: PatternTree,
        pl: Sequence[tax_algebra.ProjectionEntry],
    ) -> ExecutionReport:
        """``pi_{P, PL}`` over the XPath candidates of one collection."""
        return self._pattern_query(collection_name, pattern, tax_algebra.projection, pl)

    def join(
        self,
        left_collection: str,
        right_collection: str,
        pattern: PatternTree,
        sl_labels: Iterable[int] = (),
    ) -> ExecutionReport:
        """Per-side anchored candidates, their full product, then selection.

        The pattern's root is the product root with the left collection's
        subtree first (Example 13's Figure 14 shape); cross-side
        conditions are decided by the selection over the product.
        """
        sl = list(sl_labels)
        sides = join_side_patterns(pattern, pattern.condition)

        def anchored(side: PatternTree, candidates: List[XmlNode]) -> List[XmlNode]:
            return [
                node
                for node in candidates
                if any(
                    embedding.image(side.root) is node
                    for embedding in find_embeddings(side, node, self.context)
                )
            ]

        return self._run(
            [left_collection, right_collection],
            pattern,
            True,
            lambda left, right: tax_algebra.selection(
                tax_algebra.product(anchored(sides[0], left), anchored(sides[1], right)),
                pattern,
                sl,
                self.context,
            ),
        )
