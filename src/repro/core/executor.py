"""The Query Executor — component (3) of the TOSS architecture.

Section 6 describes the prototype's execution pipeline, whose three timed
phases all experiments report:

(i)   parse the pattern tree and **rewrite** it into XPath queries, with
      semantic conditions expanded through the precomputed SEO;
(ii)  **execute** the XPath queries on the Xindice system (here:
      :class:`repro.xmldb.Database`);
(iii) **parse the results** returned and convert them to the form defined
      by TAX (witness trees), verifying the full condition.

Phase (ii) is a sound prefilter: it finds candidate subtree roots whose
tag/content constraints can be pushed into XPath.  Phase (iii) then runs
the real TAX/TOSS embedding machinery over just those candidates, so
conditions that XPath cannot express (cross-node similarity, typed
comparisons, negation) are still answered exactly.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, dataclass, field, fields
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import QueryExecutionError
from ..guard import ResourceGuard
from ..lru import LruCache
from ..obs import NULL_OBSERVABILITY, Observability
from ..obs.context import current_request
from ..obs.metrics import DEFAULT_COUNT_BUCKETS, REGISTRY as METRICS
from ..obs.window import WINDOWS
from ..similarity.candidates import bipartite_index, similar_pairs
from ..tax import algebra as tax_algebra
from ..tax import batch as tax_batch
from ..tax.conditions import (
    And,
    Comparison,
    Condition,
    Constant,
    Contains,
    NodeContent,
    Or,
    TrueCondition,
    required_tags,
)
from ..tax.pattern import AD, PatternTree
from ..xmldb.database import Database
from ..xmldb.model import XmlNode
from .conditions import SeoConditionContext, rewrite_condition
from .planner import (
    CrossProbe,
    PlanSpec,
    build_plan_spec,
    describe_verify_strategy,
    find_cross_probe,
    has_semantic_atom,
    prune_candidates,
    prune_join_docs,
)

#: Largest ``or``-alternative chain pushed into an XPath predicate.  SEO
#: expansions can produce hundreds of alternatives; past this cap the
#: disjunction stays out of the XPath prefilter (candidates grow, results
#: do not change — the verification phase evaluates the full condition).
MAX_OR_ALTERNATIVES = 32

#: Size of the executor's compiled-plan LRU cache.
DEFAULT_PLAN_CACHE_SIZE = 128


@dataclass
class QueryPlan:
    """:meth:`QueryExecutor.explain` output: the plan, not the answers."""

    original: str
    rewritten: str
    xpath_queries: List[str]
    rewrite_seconds: float
    #: Human-readable index-pruning plan (one probe per line; empty when
    #: the executor runs without an index).
    index_plan: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        lines = [
            f"original : {self.original}",
            f"rewritten: {self.rewritten}",
        ]
        for index, xpath in enumerate(self.xpath_queries):
            lines.append(f"xpath[{index}] : {xpath}")
        for line in self.index_plan:
            lines.append(f"index    : {line}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (``explain --json`` and the slow-query log)."""
        return {
            "original": self.original,
            "rewritten": self.rewritten,
            "xpath_queries": list(self.xpath_queries),
            "rewrite_seconds": self.rewrite_seconds,
            "index_plan": list(self.index_plan),
        }


@dataclass
class ExecutionReport:
    """A query's results plus the paper's three timing components.

    ``results`` is a lazy property (attached below the class body so the
    dataclass machinery still records it as a field): a report rebuilt
    from a wire payload holds the serialized XML texts and re-parses
    them only on first access.  The serving layer's batch path never
    touches ``.results`` parent-side, so transport + bookkeeping cost no
    parse at all; :meth:`result_texts` exposes the wire form directly
    for identity checks and re-serialization.
    """

    results: List[XmlNode]
    rewrite_seconds: float
    xpath_seconds: float
    convert_seconds: float
    xpath_queries: List[str] = field(default_factory=list)
    candidates: int = 0
    #: semantic-hook invocations during this query (Section 6's "accesses
    #: to the ontology"; 0 for plain TAX).
    ontology_accesses: int = 0
    #: True when the query ran in degraded mode (SEO build failed or timed
    #: out; semantic operators fell back to exact TAX matching).
    degraded: bool = False
    #: Time spent deriving and intersecting index probes (0 on scans).
    planner_seconds: float = 0.0
    #: Documents in the queried collection(s) / actually run through XPath.
    docs_total: int = 0
    docs_scanned: int = 0
    #: True when index pruning restricted the XPath scan.
    index_used: bool = False
    #: True when the compiled plan came from the executor's plan cache.
    plan_cache_hit: bool = False
    #: Candidate documents run through embedding verification (every
    #: XPath candidate; for joins, both sides' counts).
    docs_verified: int = 0
    #: Join verification work: candidate pairs whose virtual product
    #: was verified, and product trees actually constructed — only for
    #: pairs that produced a surviving witness.  Both stay 0 for
    #: selections/projections (and on the reference executor, which
    #: materialises every pair).
    pairs_probed: int = 0
    pairs_materialized: int = 0
    #: The serving request this execution belonged to (see
    #: :mod:`repro.obs.context`); None outside any request.  Makes
    #: ``query --json`` output joinable against event-log and
    #: slow-query-log lines carrying the same id.
    request_id: Optional[str] = None
    #: The query's span tree (:meth:`repro.obs.trace.Span.to_dict` shape);
    #: None when the executor ran without tracing.
    trace: Optional[Dict[str, Any]] = None

    @property
    def result_count(self) -> int:
        """Number of results, without forcing a lazy parse."""
        if self._results is not None:
            return len(self._results)
        return len(self._result_texts or ())

    def result_texts(self) -> List[str]:
        """The results as serialized XML strings (cached).

        For a report rebuilt from a wire payload this is the payload's
        own text list — byte-identical to what the worker serialized —
        and costs no parse; otherwise the trees are serialized once.
        """
        if self._result_texts is None:
            from ..xmldb.serializer import serialize

            self._result_texts = [serialize(node) for node in self._results]
        return self._result_texts

    @property
    def docs_pruned(self) -> int:
        return max(0, self.docs_total - self.docs_scanned)

    @property
    def total_seconds(self) -> float:
        return (
            self.rewrite_seconds
            + self.planner_seconds
            + self.xpath_seconds
            + self.convert_seconds
        )

    def to_dict(
        self, include_results: bool = False, compact: bool = False
    ) -> Dict[str, Any]:
        """Canonical JSON-ready form (the CLI, the experiment runner and
        the event sinks all go through this one method).

        ``include_results=True`` adds the result trees serialized as XML
        strings; by default only ``result_count`` is recorded.
        ``compact=True`` is the wire form the serving workers ship:
        default-valued scalars and the derived ``total_seconds`` /
        ``docs_pruned`` are omitted (``from_dict`` restores them), which
        keeps the per-query payload skinny.
        """
        payload: Dict[str, Any] = {}
        for field_name in self._SCALAR_FIELDS:
            value = getattr(self, field_name)
            if compact and self._SCALAR_DEFAULTS.get(field_name, _SENTINEL) == value:
                continue
            payload[field_name] = value
        if "xpath_queries" in payload:
            payload["xpath_queries"] = list(self.xpath_queries)
        payload["result_count"] = self.result_count
        if not compact:
            payload["total_seconds"] = self.total_seconds
            payload["docs_pruned"] = self.docs_pruned
        if self.trace is not None:
            payload["trace"] = self.trace
        if include_results:
            payload["results"] = list(self.result_texts())
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExecutionReport":
        """Rebuild a report from :meth:`to_dict` output.

        Serialized result trees are kept as-is and re-parsed lazily on
        the first ``.results`` access; without a ``results`` entry the
        report has no results (``result_count`` still reflects the
        original run via the payload, not the rebuilt object).
        """
        report = cls(
            results=[],
            rewrite_seconds=float(payload.get("rewrite_seconds", 0.0)),
            xpath_seconds=float(payload.get("xpath_seconds", 0.0)),
            convert_seconds=float(payload.get("convert_seconds", 0.0)),
        )
        texts = payload.get("results")
        if texts:
            report._results = None
            report._result_texts = [str(text) for text in texts]
        for field_name in cls._SCALAR_FIELDS:
            if field_name in payload:
                setattr(report, field_name, payload[field_name])
        report.xpath_queries = list(report.xpath_queries)
        report.trace = payload.get("trace")
        return report

    def __repr__(self) -> str:
        return (
            f"ExecutionReport({self.result_count} results in "
            f"{self.total_seconds:.4f}s; rewrite={self.rewrite_seconds:.4f} "
            f"planner={self.planner_seconds:.4f} "
            f"xpath={self.xpath_seconds:.4f} convert={self.convert_seconds:.4f}; "
            f"scanned {self.docs_scanned}/{self.docs_total} docs)"
        )


#: Internal marker for "no compact default" in ExecutionReport.to_dict.
_SENTINEL = object()


def _report_results_get(self: ExecutionReport) -> List[XmlNode]:
    if self._results is None:
        from ..xmldb.parser import parse_fragment

        self._results = [
            parse_fragment(text) for text in (self._result_texts or ())
        ]
    return self._results


def _report_results_set(self: ExecutionReport, value: List[XmlNode]) -> None:
    self._results = value
    self._result_texts = None


# ``results`` stays a dataclass *field* (the drift-guard tests pin the
# field set) but reads/writes go through this property: the generated
# __init__'s ``self.results = results`` lands in the setter, and
# from_dict can park serialized texts for lazy parsing.
ExecutionReport.results = property(_report_results_get, _report_results_set)

#: Scalar fields serialized verbatim by ``to_dict`` (every field except
#: the result trees and the trace tree), in dataclass order, used by both
#: directions — so a field added to the dataclass is serialized with it.
ExecutionReport._SCALAR_FIELDS = tuple(
    f.name for f in fields(ExecutionReport) if f.name not in ("results", "trace")
)

#: Default value per scalar field — what ``compact=True`` omits from the
#: wire payload (``from_dict`` restores exactly these defaults for
#: missing keys, so a compact round-trip is lossless).
ExecutionReport._SCALAR_DEFAULTS = {
    f.name: f.default if f.default is not MISSING else f.default_factory()
    for f in fields(ExecutionReport)
    if f.name in ExecutionReport._SCALAR_FIELDS
    and (f.default is not MISSING or f.default_factory is not MISSING)
}


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

    Collects, from the positive conjunctive structure, content equalities
    (including disjunctions over one label), ``contains`` atoms and numeric
    content comparisons.  Sound, not complete — anything unrecognised is
    simply not pushed down.
    """
    predicates: Dict[int, List[str]] = {}

    def add(label: int, fragment: str) -> None:
        predicates.setdefault(label, []).append(fragment)

    def equality_fragment(atom: Comparison) -> Optional[Tuple[int, str]]:
        left, right = atom.left, atom.right
        if isinstance(left, NodeContent) and isinstance(right, Constant):
            literal = _xpath_literal(right.value)
            if literal is not None:
                return (left.label, f". = {literal}")
        if isinstance(right, NodeContent) and isinstance(left, Constant):
            literal = _xpath_literal(left.value)
            if literal is not None:
                return (right.label, f". = {literal}")
        return None

    def visit(node: Condition) -> None:
        if isinstance(node, And):
            for operand in node.operands:
                visit(operand)
            return
        if isinstance(node, Comparison):
            if node.op == "=":
                pair = equality_fragment(node)
                if pair is not None:
                    add(pair[0], pair[1])
                return
            if node.op in ("<", "<=", ">", ">="):
                left, right = node.left, node.right
                if isinstance(left, NodeContent) and isinstance(right, Constant):
                    try:
                        number = float(right.value)
                    except ValueError:
                        return
                    add(left.label, f"number(.) {node.op} {number:g}")
                return
            return
        if isinstance(node, Contains):
            # Contains is case-insensitive while XPath contains() is not,
            # so pushing it down would be unsound (the prefilter could
            # drop true matches); it is evaluated in the verify phase.
            return
        if isinstance(node, Or):
            # Cap the pushed disjunction: SEO expansions can run to
            # hundreds of alternatives, and a giant or-chain costs more
            # to evaluate per node than the scan it saves.  Past the cap
            # the disjunct set stays out of the prefilter and the
            # verification phase decides (results unchanged).
            if len(node.operands) > MAX_OR_ALTERNATIVES:
                return
            fragments: List[Tuple[int, str]] = []
            for operand in node.operands:
                if not isinstance(operand, Comparison) or operand.op != "=":
                    return
                pair = equality_fragment(operand)
                if pair is None:
                    return
                fragments.append(pair)
            labels = {label for label, _ in fragments}
            if len(labels) == 1:
                label = labels.pop()
                add(label, "(" + " or ".join(f for _, f in fragments) + ")")
            return

    visit(condition)
    return predicates


def compile_pattern_to_xpath(
    pattern: PatternTree, condition: Optional[Condition] = None
) -> str:
    """Compile a pattern tree (+ an already-rewritten condition) to XPath.

    The query selects candidate images of the pattern *root*; structure
    below the root becomes nested existence predicates (`pc` -> child
    path, `ad` -> ``.//`` path) and per-node content constraints become
    value predicates.
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


def _subtree_pattern(pattern: PatternTree, new_root: int) -> PatternTree:
    """The sub-pattern rooted at ``new_root`` (structure only)."""
    sub = PatternTree()
    sub.add_node(new_root)

    def copy_children(label: int) -> None:
        for child in pattern.children(label):
            sub.add_node(child.label, parent=label, edge=child.edge)
            copy_children(child.label)

    copy_children(new_root)
    return sub


def _side_condition(condition: Condition, side_labels: Set[int]) -> Condition:
    """Conjuncts of ``condition`` that mention only ``side_labels``."""
    kept: List[Condition] = []

    def visit(node: Condition) -> None:
        if isinstance(node, And):
            for operand in node.operands:
                visit(operand)
            return
        if node.labels() and node.labels() <= side_labels:
            kept.append(node)

    visit(condition)
    if not kept:
        return TrueCondition()
    if len(kept) == 1:
        return kept[0]
    return And(*kept)


@contextmanager
def _stage(
    tracer, guard: Optional[ResourceGuard], name: str, **attributes: Any
) -> Iterator[SimpleNamespace]:
    """One timed pipeline stage: a span, its wall time, its guard steps.

    The body annotates the open span itself; on a clean exit the span
    also gets ``guard_steps``, what the stage charged the guard.  Yields
    an object whose ``seconds`` is the stage's wall time once it closed.
    """
    timing = SimpleNamespace(seconds=0.0)
    started = time.perf_counter()
    steps_before = guard.steps if guard is not None else 0
    with tracer.span(name, **attributes):
        yield timing
        tracer.annotate(
            guard_steps=(guard.steps if guard is not None else 0) - steps_before
        )
    timing.seconds = time.perf_counter() - started


def join_side_patterns(
    pattern: PatternTree, condition: Condition
) -> List[PatternTree]:
    """The two per-side patterns of a join pattern, left then right.

    Each is the subtree under one child of the product root, carrying the
    conjuncts of ``condition`` (already rewritten) that mention only that
    side — what :func:`compile_pattern_to_xpath` turns into the side's
    candidate query.
    """
    root_children = pattern.children(pattern.root)
    if len(root_children) != 2:
        raise QueryExecutionError(
            "a join pattern needs exactly two subtrees under the product root"
        )
    sides = []
    for child in root_children:
        side = _subtree_pattern(pattern, child.label)
        side.condition = _side_condition(condition, set(side.labels()))
        sides.append(side)
    return sides


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledPlan:
    """Everything about one query that does not depend on the documents.

    Built once per pattern, operator shape and evaluation context by
    :meth:`QueryExecutor._plan` and kept in the plan cache; every stage
    of the pipeline, and :meth:`QueryExecutor.explain`, reads it.  A
    selection or projection has one side, a join two (left, right).
    """

    #: The SEO-rewritten condition the XPath queries were compiled from.
    condition: Condition
    #: Per side: the candidate XPath and the index-probe spec.
    xpaths: Tuple[str, ...]
    specs: Tuple[PlanSpec, ...]
    #: False when no side may be pruned: semantic atoms without an SEO
    #: context must reach verification (and raise) on every document.
    prunable: bool
    #: The verify stage, compiled from the *original* condition.
    program: tax_batch.VerifyProgram
    #: Join only: the cross-side pre-join probe, and the ``~`` conjunct
    #: the verify stage's hash join filters candidate pairs by.
    cross: Optional[CrossProbe] = None
    hash_atom: Optional[Condition] = None


class QueryExecutor:
    """Runs TOSS (or plain TAX) pattern queries against the database."""

    def __init__(
        self,
        database: Database,
        context: Optional[SeoConditionContext] = None,
        guard: Optional[ResourceGuard] = None,
        exact_fallback: bool = False,
        observability: Optional[Observability] = None,
    ) -> None:
        self.database = database
        self.context = context
        #: Default per-query resource guard (restarted at each query); a
        #: per-call ``guard=`` argument overrides it.
        self.guard = guard
        #: With no SEO context, evaluate semantic atoms as exact string
        #: matches instead of raising (degraded mode; see
        #: :class:`~repro.core.conditions.ExactFallbackContext`).
        self.exact_fallback = exact_fallback
        #: Bounded, thread-safe LRU over :class:`CompiledPlan` entries,
        #: keyed by pattern structure, condition and evaluation context.
        #: Hit/miss/eviction counters are emitted as
        #: ``executor.plan_cache.*`` metrics by the cache itself.
        self._plan_cache = LruCache(
            DEFAULT_PLAN_CACHE_SIZE, metric_prefix="executor.plan_cache"
        )
        #: Bumped by :meth:`set_context` whenever the SEO changes; part of
        #: every plan-cache key, so plans compiled against a previous SEO
        #: become unreachable (and age out of the LRU) instead of being
        #: replayed with stale term expansions.
        self._context_epoch = 0
        #: Memoised cross-side join probes (document-key sets plus the
        #: cold probe's guard ticks, replayed on a hit), keyed by
        #: collection generations + probe spec + SEO; stale generations
        #: simply miss.  Guarded and unguarded joins share it.
        self._cross_probe_cache = LruCache(
            32, metric_prefix="planner.cross_probe.memo"
        )
        #: Filter indexes over a hash join's right-side values (see
        #: :func:`~repro.similarity.candidates.bipartite_index`), keyed
        #: by SEO + the value set itself.
        self._join_index_cache = LruCache(
            32, metric_prefix="planner.cross_probe.index"
        )
        #: Tracing + sink configuration; the shared no-op instance by
        #: default, so an uninstrumented executor allocates no spans and
        #: writes no files.
        self.observability = (
            observability if observability is not None else NULL_OBSERVABILITY
        )

    # -- plan cache ---------------------------------------------------------

    @property
    def plan_cache_hits(self) -> int:
        return self._plan_cache.hits

    @property
    def plan_cache_misses(self) -> int:
        return self._plan_cache.misses

    def set_context(
        self,
        context: Optional[SeoConditionContext],
        seo_changed: bool = True,
    ) -> None:
        """Swap the SEO context in place, keeping the executor warm.

        The system's incremental build path reuses one executor across
        builds so the compiled-plan and cross-probe caches survive
        mutations.  ``seo_changed=False`` (the no-op rebuild: nothing in
        any SEO moved) keeps every cache entry live; otherwise the
        context epoch advances — plans rewritten against the old SEO
        miss and recompile, and memoised cross probes (keyed partly by
        ``id(seo)``, which a recycled object id could collide with) are
        dropped outright.
        """
        self.context = context
        if seo_changed:
            self._context_epoch += 1
            self._cross_probe_cache.clear()
            self._join_index_cache.clear()

    def _plan(self, pattern: PatternTree, join: bool) -> Tuple[CompiledPlan, bool]:
        """The compiled plan for ``pattern`` and whether the cache had it.

        Rewrites the condition through the SEO, compiles one XPath and
        one probe spec per side, and compiles the verify program — all
        once per (pattern, evaluation context), then served from the
        cache.  ``join`` splits the pattern into its two product sides.
        """
        context = self._evaluation_context()
        structure = tuple(
            (label, pattern.node(label).parent, pattern.node(label).edge)
            for label in pattern.labels()
        )
        key = (
            "join" if join else "pattern",
            structure,
            repr(pattern.condition),
            self._context_epoch,
            context,
        )
        plan = self._plan_cache.get(key)
        if plan is not None:
            return plan, True
        original = pattern.condition
        if self.context is not None:
            condition = rewrite_condition(original, self.context)
        else:
            condition = original
        cross = hash_atom = None
        if join:
            sides = join_side_patterns(pattern, condition)
            left_labels, right_labels = (set(side.labels()) for side in sides)
            xpaths = tuple(compile_pattern_to_xpath(side) for side in sides)
            # The probe specs come from the *original* side conjuncts —
            # verification evaluates those, not the rewritten ones.
            specs = tuple(
                build_plan_spec(
                    side,
                    _side_condition(original, labels),
                    self.context,
                    self.exact_fallback,
                )
                for side, labels in zip(sides, (left_labels, right_labels))
            )
            prunable = not (
                self.context is None
                and not self.exact_fallback
                and has_semantic_atom(original)
            )
            if prunable:
                cross = find_cross_probe(
                    original, left_labels, right_labels, self.context,
                    self.exact_fallback,
                )
            if self.context is not None:
                hash_atom = _cross_similarity_atom(original, left_labels, right_labels)
        else:
            xpaths = (compile_pattern_to_xpath(pattern, condition),)
            specs = (
                build_plan_spec(pattern, original, self.context, self.exact_fallback),
            )
            prunable = specs[0].prunable
        # Verify with the original condition, not the rewritten one (they
        # differ only under an SEO context): semantic atoms evaluate
        # through the SEO index, which is cheaper than the expanded
        # exact-match disjunction.  The copy keeps the cached program
        # independent of the caller's (mutable) pattern object.
        verified = PatternTree(original)
        _copy_structure(pattern, verified)
        plan = CompiledPlan(
            condition,
            xpaths,
            specs,
            prunable,
            tax_batch.VerifyProgram.compile(verified, context),
            cross,
            hash_atom,
        )
        self._plan_cache.put(key, plan)
        return plan, False

    @staticmethod
    def _side_lines(plan: CompiledPlan) -> List[str]:
        """The plan's index probes, one per line (join sides prefixed)."""
        if len(plan.specs) == 1:
            return list(plan.specs[0].describe())
        return [
            f"{name}: {line}"
            for name, spec in zip(("left", "right"), plan.specs)
            for line in spec.describe()
        ]

    def _evaluation_context(self):
        from ..tax.conditions import DEFAULT_CONTEXT

        if self.context is not None:
            return self.context
        if self.exact_fallback:
            from .conditions import EXACT_FALLBACK_CONTEXT

            return EXACT_FALLBACK_CONTEXT
        return DEFAULT_CONTEXT

    def _start_guard(self, guard: Optional[ResourceGuard]) -> Optional[ResourceGuard]:
        """Resolve the effective guard for one query and restart its clock."""
        guard = guard if guard is not None else self.guard
        if guard is not None:
            guard.start()
        return guard

    def _fetch(
        self,
        collection_name: str,
        xpath: str,
        guard: Optional[ResourceGuard],
        doc_keys: Optional[Set[str]],
    ) -> List[tax_batch.Entry]:
        """The XPath prefilter's candidates, as ``(columns, row)`` entries.

        Every query :func:`compile_pattern_to_xpath` generates lies in
        the columnar subset; one that does not is a compiler bug, and
        raises rather than silently running somewhere slower.
        """
        entries = self.database.xpath_rows(
            collection_name, xpath, guard=guard, document_keys=doc_keys
        )
        if entries is None:
            raise QueryExecutionError(
                f"generated XPath {xpath!r} is outside the columnar subset"
            )
        return entries

    def _accesses(self) -> int:
        return self.context.ontology_accesses if self.context is not None else 0

    def _finish_query(
        self,
        kind: str,
        query: str,
        tracer,
        guard: Optional[ResourceGuard],
        report: ExecutionReport,
        plan_lines: Optional[List[str]] = None,
    ) -> ExecutionReport:
        """Attach the trace to the report and publish metrics + events.

        Called after the root span has closed; root attributes are set
        directly so the finished tree carries the query-level summary
        (guard accounting, result counts, cache/index flags).
        """
        context = current_request()
        if context is not None:
            report.request_id = context.request_id
        if tracer.root is not None:
            attributes = tracer.root.attributes
            if guard is not None:
                attributes["guard_steps"] = guard.steps
                attributes["guard_stages"] = guard.stage_steps
            attributes["results"] = len(report.results)
            attributes["candidates"] = report.candidates
            attributes["plan_cache_hit"] = report.plan_cache_hit
            attributes["index_used"] = report.index_used
            if context is not None:
                attributes["request_id"] = context.request_id
        report.trace = tracer.finish()
        WINDOWS.observe(
            context.query_class if context is not None and context.query_class
            else kind,
            report.total_seconds,
        )
        METRICS.counter("executor.queries").inc()
        METRICS.counter(f"executor.queries.{kind}").inc()
        if report.degraded:
            METRICS.counter("executor.queries.degraded").inc()
        METRICS.histogram("executor.seconds").observe(report.total_seconds)
        METRICS.histogram("executor.rewrite_seconds").observe(report.rewrite_seconds)
        METRICS.histogram("executor.planner_seconds").observe(report.planner_seconds)
        METRICS.histogram("executor.xpath_seconds").observe(report.xpath_seconds)
        METRICS.histogram("executor.convert_seconds").observe(report.convert_seconds)
        METRICS.histogram(
            "executor.candidates", bounds=DEFAULT_COUNT_BUCKETS
        ).observe(report.candidates)
        METRICS.counter("executor.docs_scanned").inc(report.docs_scanned)
        METRICS.counter("executor.docs_pruned").inc(report.docs_pruned)
        METRICS.counter("executor.ontology_accesses").inc(report.ontology_accesses)
        if self.observability.record_query(
            kind,
            query=query,
            total_seconds=report.total_seconds,
            trace=report.trace,
            plan_lines=plan_lines,
            extra={
                "results": len(report.results),
                "candidates": report.candidates,
                "docs_scanned": report.docs_scanned,
                "docs_total": report.docs_total,
                "degraded": report.degraded,
            },
        ):
            METRICS.counter("executor.slow_queries").inc()
        return report

    def explain(self, pattern: PatternTree) -> "QueryPlan":
        """The query plan without executing it: rewrite + compiled XPath.

        Useful for debugging recall problems: the plan shows exactly which
        exact-match disjuncts the SEO expanded each semantic atom into.
        It is the cached plan the pipeline itself runs.
        """
        started = time.perf_counter()
        root_children = (
            pattern.children(pattern.root) if len(pattern) > 1 else []
        )
        is_join = bool(
            len(root_children) == 2
            and pattern.condition.labels()
            and pattern.root not in pattern.condition.labels()
        )
        plan, _ = self._plan(pattern, join=is_join)
        if plan.prunable:
            index_plan = self._side_lines(plan)
        else:
            index_plan = ["full scan (semantic atoms require an SEO context)"]
        if plan.cross is not None:
            index_plan.append(
                f"cross: {plan.cross.kind}(node[{plan.cross.left_label}] "
                f"<-> node[{plan.cross.right_label}])"
            )
        index_plan.append(describe_verify_strategy(join=is_join))
        return QueryPlan(
            original=repr(pattern.condition),
            rewritten=repr(plan.condition),
            xpath_queries=list(plan.xpaths),
            rewrite_seconds=time.perf_counter() - started,
            index_plan=index_plan,
        )

    def selection(
        self,
        collection_name: str,
        pattern: PatternTree,
        sl_labels: Iterable[int] = (),
        guard: Optional[ResourceGuard] = None,
    ) -> ExecutionReport:
        """Execute a selection query: rewrite -> plan -> XPath -> verify."""
        sl = list(sl_labels)
        return self._run(
            "selection",
            [collection_name],
            pattern,
            guard,
            lambda plan, entries, guard, tracer: (
                tax_batch.selection_batched(entries[0], plan.program, sl, guard),
                {},
            ),
            {"collection": collection_name},
        )

    def projection(
        self,
        collection_name: str,
        pattern: PatternTree,
        pl: Sequence[tax_algebra.ProjectionEntry],
        guard: Optional[ResourceGuard] = None,
    ) -> ExecutionReport:
        """Execute a projection query through the same pipeline."""
        return self._run(
            "projection",
            [collection_name],
            pattern,
            guard,
            lambda plan, entries, guard, tracer: (
                tax_batch.projection_batched(entries[0], plan.program, pl, guard),
                {},
            ),
            {"collection": collection_name},
        )

    def join(
        self,
        left_collection: str,
        right_collection: str,
        pattern: PatternTree,
        sl_labels: Iterable[int] = (),
        guard: Optional[ResourceGuard] = None,
    ) -> ExecutionReport:
        """Execute a join: per-side XPath prefilter, then product+selection.

        The pattern's root must be the product root (tag
        ``tax_prod_root``) with exactly two child subtrees, the left one
        matching the left collection (Example 13's Figure 14 shape).
        Cross-side conditions (e.g. ``title:1 ~ title:2``) are evaluated in
        the verification phase.
        """
        sl = list(sl_labels)
        return self._run(
            "join",
            [left_collection, right_collection],
            pattern,
            guard,
            lambda plan, entries, guard, tracer: self._join_verify(
                plan, entries, sl, guard, tracer
            ),
            {"left": left_collection, "right": right_collection},
        )

    def _run(
        self,
        kind: str,
        collections: Sequence[str],
        pattern: PatternTree,
        guard: Optional[ResourceGuard],
        verify: Callable[..., Tuple[List[XmlNode], Dict[str, int]]],
        attributes: Dict[str, str],
    ) -> ExecutionReport:
        """The one pipeline: rewrite -> plan -> xpath -> verify -> report.

        ``collections`` names one collection per plan side.  ``verify``
        is the operator's verify step: ``verify(plan, entries, guard,
        tracer)`` gets every side's candidate entries and returns
        ``(results, counts)``, where ``counts`` are extra report fields
        (the join's pair counters), also recorded on the verify span.
        """
        guard = self._start_guard(guard)
        accesses_before = self._accesses()
        tracer = self.observability.tracer()

        with tracer.trace(f"query.{kind}", **attributes):
            started = time.perf_counter()
            with tracer.span("rewrite"):
                plan, cache_hit = self._plan(pattern, join=kind == "join")
                tracer.annotate(plan_cache_hit=cache_hit)
            rewrite_seconds = time.perf_counter() - started

            with _stage(tracer, guard, "plan") as plan_stage:
                doc_keys, docs_total, docs_scanned = self._prune(
                    collections, plan, guard
                )
                index_used = any(keys is not None for keys in doc_keys)
                tracer.annotate(
                    docs_total=docs_total,
                    docs_scanned=docs_scanned,
                    index_used=index_used,
                )

            # One side fetches in the stage span itself; a join's two
            # sides each get a child span.
            single = len(collections) == 1
            stage_attributes = {"query": plan.xpaths[0]} if single else {}
            with _stage(tracer, guard, "xpath", **stage_attributes) as xpath_stage:
                entries = []
                for side, name, xpath, keys in zip(
                    ("left", "right"), collections, plan.xpaths, doc_keys
                ):
                    with nullcontext() if single else tracer.span(
                        f"xpath.{side}", query=xpath
                    ):
                        entries.append(self._fetch(name, xpath, guard, keys))
                        tracer.annotate(candidates=len(entries[-1]))

            with _stage(tracer, guard, "verify") as verify_stage:
                results, counts = verify(plan, entries, guard, tracer)
                tracer.annotate(results=len(results), batched=True, **counts)
        candidates = sum(map(len, entries))
        report = ExecutionReport(
            results,
            rewrite_seconds,
            xpath_stage.seconds,
            verify_stage.seconds,
            list(plan.xpaths),
            candidates,
            self._accesses() - accesses_before,
            planner_seconds=plan_stage.seconds,
            docs_total=docs_total,
            docs_scanned=docs_scanned,
            index_used=index_used,
            plan_cache_hit=cache_hit,
            docs_verified=candidates,
            **counts,
        )
        return self._finish_query(
            kind,
            " | ".join(plan.xpaths),
            tracer,
            guard,
            report,
            plan_lines=(
                self._side_lines(plan)
                if self.observability.enabled and index_used
                else None
            ),
        )

    def _prune(
        self,
        collections: Sequence[str],
        plan: CompiledPlan,
        guard: Optional[ResourceGuard],
    ) -> Tuple[List[Optional[Set[str]]], int, int]:
        """(per-side document keys, docs total, docs scanned).

        A side's keys are None when it is scanned whole.  Each prunable
        side intersects its own index probes; a join's cross probe then
        narrows both sides.
        """
        targets = [self.database.get_collection(name) for name in collections]
        doc_keys: List[Optional[Set[str]]] = [None] * len(targets)
        if plan.prunable:
            seo = self.context.seo if self.context is not None else None
            indexes = [target.search_index() for target in targets]
            for side, (spec, index) in enumerate(zip(plan.specs, indexes)):
                if spec.prunable:
                    doc_keys[side] = prune_candidates(spec, index, guard, seo)
            if plan.cross is not None:
                left, right = targets
                cross_keys = prune_join_docs(
                    indexes[0],
                    indexes[1],
                    plan.cross,
                    seo,
                    guard,
                    memo=self._cross_probe_cache,
                    memo_key=(
                        collections[0],
                        left.generation,
                        collections[1],
                        right.generation,
                        plan.cross,
                        id(seo),
                    ),
                )
                doc_keys = [
                    cross if keys is None else keys & cross
                    for keys, cross in zip(doc_keys, cross_keys)
                ]
        docs_scanned = sum(
            len(keys) if keys is not None else len(target)
            for keys, target in zip(doc_keys, targets)
        )
        return doc_keys, sum(map(len, targets)), docs_scanned

    def _join_verify(
        self,
        plan: CompiledPlan,
        entries: Sequence[List[tax_batch.Entry]],
        sl: List[int],
        guard: Optional[ResourceGuard],
        tracer,
    ) -> Tuple[List[XmlNode], Dict[str, int]]:
        """The join's verify step: candidate pairs, then their product.

        With a cross-side ``~`` conjunct the hash join keeps only the
        pairs that can satisfy it; otherwise every pair is probed.
        """
        left, right = entries
        if plan.hash_atom is not None:
            with tracer.span("verify.hash_join"):
                pair_filter = self._similarity_join_pairs(
                    [cols.nodes[row] for cols, row in left],
                    [cols.nodes[row] for cols, row in right],
                    plan.hash_atom,
                    plan.program.pattern.condition,
                    guard,
                )
                tracer.annotate(pairs=len(pair_filter))
            pairs = sorted(pair_filter)
            if guard is not None and pairs:
                guard.tick_each(len(pairs), "join product")
        else:
            # The unfiltered product is charged before any of it exists:
            # the step budget rejects a blow-up before it is enumerated.
            if guard is not None:
                guard.tick(len(left) * len(right), what="join product")
            pairs = [(i, j) for i in range(len(left)) for j in range(len(right))]
        results, pairs_materialized = tax_batch.join_pairs_batched(
            left, right, pairs, plan.program, sl, guard
        )
        return results, {
            "pairs_probed": len(pairs),
            "pairs_materialized": pairs_materialized,
        }

    def _similarity_join_pairs(
        self,
        left_candidates: Sequence[XmlNode],
        right_candidates: Sequence[XmlNode],
        atom,
        condition: Condition,
        guard: Optional[ResourceGuard] = None,
    ) -> Set[Tuple[int, int]]:
        """Candidate pairs that can satisfy a cross-side ``~`` conjunct.

        Values known to the SEO go through ``seo.similar`` directly
        (fused terms may be "similar" at arbitrary string distance, so
        no distance filter may prune them); values outside it are joined
        by :func:`~repro.similarity.candidates.similar_pairs` — length
        and bigram-count filters first, the measure on the survivors.
        Sound: a pair is dropped only when *no* value pair can satisfy
        the atom.
        """
        assert self.context is not None
        seo = self.context.seo
        tags = required_tags(condition)

        def values_of(candidate: XmlNode, label: int) -> List[str]:
            restriction = tags.get(label)
            return [
                node.text
                for node in candidate.iter()
                if restriction is None or node.tag in restriction
            ]

        left_label = next(iter(atom.left.labels()))
        right_label = next(iter(atom.right.labels()))

        #: value -> candidate indices holding it, per side and SEO status.
        known_right: Dict[str, List[int]] = {}
        unknown_right: Dict[str, List[int]] = {}
        for j, candidate in enumerate(right_candidates):
            for value in values_of(candidate, right_label):
                side = known_right if value in seo else unknown_right
                side.setdefault(value, []).append(j)

        pairs: Set[Tuple[int, int]] = set()
        unknown_left: Dict[str, List[int]] = {}
        for i, candidate in enumerate(left_candidates):
            if guard is not None:
                guard.tick(what="similarity hash join")
            for value in values_of(candidate, left_label):
                partners = [known_right]
                if value in seo:
                    partners.append(unknown_right)
                else:
                    unknown_left.setdefault(value, []).append(i)
                for side in partners:
                    for other, holders in side.items():
                        if seo.similar(value, other):
                            pairs.update((i, j) for j in holders)
        # The right side of a join is the same value set request after
        # request (filters usually sit on the left), and its index is a
        # pure function of that set: keep it, keyed by content.
        index_key = (id(seo), frozenset(unknown_right))
        index = self._join_index_cache.get(index_key)
        if index is None:
            index = bipartite_index(list(unknown_right), seo.measure, seo.epsilon)
            self._join_index_cache.put(index_key, index)
        matches, _stats = similar_pairs(
            unknown_left, index, seo.measure, guard, what="similarity hash join"
        )
        for value, other in matches:
            pairs.update(
                (i, j) for i in unknown_left[value] for j in unknown_right[other]
            )
        return pairs


def _cross_similarity_atom(
    condition: Condition, left_labels: Set[int], right_labels: Set[int]
):
    """The first top-level ``~`` conjunct relating content across sides.

    Returns None when the condition has no such conjunct (then the join
    must fall back to the full product).  Both operands must be single
    node-content terms, one per side; the atom orientation is normalised
    so its left term references the left side.
    """
    from .conditions import SimilarTo

    def conjuncts(node: Condition):
        if isinstance(node, And):
            for operand in node.operands:
                yield from conjuncts(operand)
        else:
            yield node

    for atom in conjuncts(condition):
        if not isinstance(atom, SimilarTo):
            continue
        if not isinstance(atom.left, NodeContent) or not isinstance(
            atom.right, NodeContent
        ):
            continue
        left_side = atom.left.labels()
        right_side = atom.right.labels()
        if left_side <= left_labels and right_side <= right_labels:
            return atom
        if left_side <= right_labels and right_side <= left_labels:
            return SimilarTo(atom.right, atom.left)
    return None


def _copy_structure(source: PatternTree, target: PatternTree) -> None:
    """Copy the node/edge structure of ``source`` into the empty ``target``.

    Labels are added in the source's insertion order, which is parent-first
    by :class:`PatternTree`'s construction invariant.
    """
    for label in source.labels():
        node = source.node(label)
        if node.parent is None:
            target.add_node(label)
        else:
            target.add_node(label, parent=node.parent, edge=node.edge)
