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

It shares with :class:`~repro.core.executor.QueryExecutor` only the
paper's own algorithm (the SEO rewrite and the pattern -> XPath
compilation: :func:`~repro.core.executor.prefilter_xpaths`, whose text
``explain`` shows) and must never import the machinery it is the oracle
for:
``tax.batch``, ``tax.compile``, ``xmldb.columnar``, ``core.planner`` and
``similarity.candidates`` (a lint step greps this file's imports).  The
property suites require production == reference on result sequence and
bytes; the Figure 16(b) reproduction runs on it, since product-then-
select is the strategy the paper measured.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence

from ..tax import algebra as tax_algebra
from ..tax.conditions import DEFAULT_CONTEXT, ConditionContext
from ..tax.embedding import find_embeddings
from ..tax.pattern import PatternTree
from ..xmldb.database import Database
from ..xmldb.model import XmlNode
from ..xmldb.xpath import XPathQuery
from .executor import ExecutionReport, join_side_patterns, prefilter_xpaths


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
        return getattr(self.context, "ontology_accesses", 0)

    def _candidates(self, collection_name: str, xpath: str) -> List[XmlNode]:
        """Every node the XPath selects, documents in collection order."""
        query = XPathQuery(xpath)
        candidates: List[XmlNode] = []
        for _key, root in self.database.get_collection(collection_name).documents():
            candidates.extend(query.select(root))
        return candidates

    def _run(self, collections, pattern, join, convert) -> ExecutionReport:
        """The three timed phases: rewrite + compile, XPath scan, algebra.

        One XPath per collection (:func:`~repro.core.executor.
        prefilter_xpaths`); ``convert`` gets each collection's candidates.
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
