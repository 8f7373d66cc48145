"""The Query Executor — component (3) of the TOSS architecture.

Section 6 describes the prototype's execution pipeline, whose three timed
phases all experiments report:

(i)   parse the pattern tree and **rewrite** it into XPath queries, with
      semantic conditions expanded through the precomputed SEO;
(ii)  **execute** the XPath queries on the Xindice system (here:
      :class:`repro.xmldb.Database`);
(iii) **parse the results** returned and convert them to the form defined
      by TAX (witness trees), verifying the full condition.

The paper's XPath is a sound prefilter — every fragment it pushes is
implied by the condition, so it never drops a true answer — and the
paper-faithful :class:`~repro.core.reference.ReferenceExecutor` writes
and runs it on the tree engine.  This executor's pipeline neither runs
nor writes it (:meth:`QueryExecutor.explain` imports the writer,
:func:`~repro.core.reference.prefilter_xpaths`): phase (i) compiles the
verify program and the index probes from the original condition and
records the SEO expansions they read; phase (ii) fetches the pattern
root's candidate rows from the index-kept documents' columns, and the
compiled verify program alone decides every answer in phase (iii), so
conditions XPath cannot express
(cross-node similarity, typed comparisons, negation) are answered
exactly.  When the index probes decide every conjunct of a selection
(:func:`~repro.core.planner.exact_tags`), a candidate whose document
holds one row of each pattern tag is booked without a scan: the probes
already decided it.  That witness, the root row and the answer's dedupe
hash are a booking record on the document's columns, built by the first
request that keeps the document and read by the fetch and verify of
every later one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, dataclass, field, fields, replace
from types import SimpleNamespace
from typing import AbstractSet, Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import QueryExecutionError
from ..guard import ResourceGuard
from ..lru import LruCache
from ..obs import NULL_OBSERVABILITY, Observability
from ..obs.context import current_request
from ..obs.metrics import DEFAULT_COUNT_BUCKETS, REGISTRY as METRICS
from ..tax import algebra as tax_algebra
from ..tax import batch as tax_batch
from ..tax.conditions import (
    DEFAULT_CONTEXT,
    UNDECIDED,
    And,
    Condition,
    ConditionContext,
    TrueCondition,
)
from ..tax.pattern import PatternTree
from ..xmldb.columnar import DocumentColumns
from ..xmldb.database import Database
from ..xmldb.model import XmlNode
from .conditions import SeoConditionContext, expansions_read, rewrite_condition
from .planner import (
    CrossMatch,
    CrossProbe,
    PlanSpec,
    build_plan_spec,
    describe_verify_strategy,
    exact_tags,
    find_cross_probes,
    prune_candidates,
    prune_join_docs,
)


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
    dataclass machinery still records it as a field).  A selection or
    join answer arrives as a :class:`~repro.tax.batch.ResultRows` of row
    references: :attr:`result_count` and :meth:`result_texts` read it
    without building a tree, and the first ``.results`` access
    materialises the trees.  A report rebuilt from a wire payload holds
    the serialized XML texts and re-parses them only on first access.
    The served path — worker encode, parent transport and bookkeeping —
    never touches ``.results``, so it builds no result tree and parses
    nothing; :meth:`result_texts` is the wire form.
    """

    results: List[XmlNode]
    rewrite_seconds: float
    xpath_seconds: float
    convert_seconds: float
    #: The XPath the execution ran, one per side: the reference
    #: executor's; production runs and writes none.
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
    #: Documents in the queried collection(s) / actually fetched from.
    docs_total: int = 0
    docs_scanned: int = 0
    #: True when index pruning restricted the fetch.
    index_used: bool = False
    #: True when the compiled plan came from the executor's plan cache.
    plan_cache_hit: bool = False
    #: Candidates run through embedding verification (every fetched
    #: row but those an index-exact selection booked unscanned; for
    #: joins, both sides' counts).
    docs_verified: int = 0
    #: Join verification work: candidate pairs verified over their
    #: factored virtual product (a pair crosses its two side entries'
    #: root-child match lists, each listed once per join; no product
    #: tree is built), and the pairs a surviving answer came from (with
    #: the root outside SL, those with any witness).  Both stay 0
    #: for selections/projections (and on the reference executor, which
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
        """Number of results, without forcing a parse or a materialisation."""
        if self._results is not None:
            return len(self._results)
        return len(self._result_texts or ())

    def result_texts(self) -> List[str]:
        """The results as serialized XML strings (cached).

        For a report rebuilt from a wire payload this is the payload's
        own text list — byte-identical to what the worker serialized —
        and costs no parse; row references read their columns' text
        memo; any other trees are serialized once.
        """
        if self._result_texts is None:
            results = self._results
            if isinstance(results, tax_batch.ResultRows):
                self._result_texts = results.texts()
            else:
                from ..xmldb.serializer import serialize

                self._result_texts = [serialize(node) for node in results]
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
    results = self._results
    if results is None:
        from ..xmldb.parser import parse_fragment

        results = self._results = [
            parse_fragment(text) for text in (self._result_texts or ())
        ]
    if isinstance(results, tax_batch.ResultRows):
        return results.trees()
    return results


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
    conjuncts of ``condition`` that mention only that side.  A side's
    candidates are the rows its pattern embeds at, root bound to the
    row; :func:`~repro.core.reference.prefilter_xpaths` turns the side
    (with the rewritten conjuncts) into its prefilter text.
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

    Built once per pattern, operator shape and context kind by
    :meth:`QueryExecutor._plan` and kept in the plan cache; every stage
    of the pipeline, and :meth:`QueryExecutor.explain`, reads it.  A
    selection or projection has one side, a join two (left, right).
    The verify program and the fetchers bind the live context.  It holds
    no rewritten condition and no XPath text: no stage reads them
    (``explain`` writes both on demand).
    """

    #: Per side: the index-probe spec.
    specs: Tuple[PlanSpec, ...]
    #: Per side: the fetch's candidate rows of one document's columns —
    #: the root rows of a selection, the anchored rows of a join side.
    fetchers: Tuple[Callable[[DocumentColumns], Sequence[int]], ...]
    #: False when no side may be pruned: semantic atoms the context
    #: cannot expand (plain TAX) must reach verification (and raise) on
    #: every document.
    prunable: bool
    #: The verify stage, compiled from the *original* condition.
    program: tax_batch.VerifyProgram
    #: Join only: the cross-side pre-join probe (the first cross
    #: conjunct), and the first ``~`` cross conjunct's probe, whose term
    #: pairs filter the verify stage's candidate pairs (often the same).
    cross: Optional[CrossProbe] = None
    similar: Optional[CrossProbe] = None
    #: Index-exact plans only (:func:`~repro.core.planner.exact_tags`):
    #: the pattern's tags, root first.  A selection books the root row
    #: of a document holding one row of each without scanning it.
    exact_tags: Optional[Tuple[str, ...]] = None


@dataclass(eq=False)
class _PlanEntry:
    """A plan-cache entry: the plan as no context binds it, and what it read.

    ``plan`` carries no verify program and no fetchers; ``verified`` and
    ``sides`` are the patterns they are compiled from, and ``reads`` the
    context's expansions the compile consumed (:func:`~repro.core.
    conditions.expansions_read`).  ``bound`` is the plan compiled for the
    executor's context of the time, with that context:
    :meth:`QueryExecutor.set_context` clears it.
    """

    plan: CompiledPlan
    verified: PatternTree
    sides: Tuple[PatternTree, ...]
    reads: Tuple[object, ...]
    bound: Optional[Tuple[ConditionContext, CompiledPlan]] = None


class QueryExecutor:
    """Runs TOSS (or plain TAX) pattern queries against the database.

    ``context`` is the evaluation context, as for the reference executor:
    an :class:`~repro.core.conditions.SeoConditionContext` for TOSS, the
    exact-match fallback of degraded mode, or None for plain TAX
    (:data:`~repro.tax.conditions.DEFAULT_CONTEXT`).  Every stage asks it
    what it needs: the values a semantic atom lets the index probe, how a
    cross ``~`` probes, the SEO and ontology accesses, and whether the
    answers are degraded.
    """

    def __init__(
        self,
        database: Database,
        context: Optional[ConditionContext] = None,
        guard: Optional[ResourceGuard] = None,
        observability: Optional[Observability] = None,
    ) -> None:
        self.database = database
        self.context = context if context is not None else DEFAULT_CONTEXT
        #: Default per-query resource guard (restarted at each query); a
        #: per-call ``guard=`` argument overrides it.
        self.guard = guard
        #: Bounded, thread-safe LRU over :class:`_PlanEntry` objects,
        #: keyed by operator, pattern structure, condition and the
        #: context's kind — not by the context: an entry outlives SEO
        #: swaps while its reads stay equal (:meth:`_plan`).
        #: Hit/miss/eviction counters are emitted as
        #: ``executor.plan_cache.*`` metrics by the cache itself.
        self._plan_cache = LruCache(
            DEFAULT_PLAN_CACHE_SIZE, metric_prefix="executor.plan_cache"
        )
        #: Memoised cross-side join probes (document-key sets and matched
        #: term pairs, plus the cold probe's guard ticks, replayed on a
        #: hit), keyed by both sides' indexes and generations + probe spec
        #: + SEO; stale generations simply miss.  Guarded and unguarded
        #: joins share it.
        self._cross_probe_cache = LruCache(
            32, metric_prefix="planner.cross_probe.memo"
        )
        #: Memoised off-ontology residues of ``~`` probes (the indexed
        #: terms under a tag set that the SEO does not hold), keyed by
        #: the collection's index and generation, the SEO and the tags;
        #: stale generations simply miss.
        self._residue_cache = LruCache(32, metric_prefix="planner.residue")
        #: Tracing + sink configuration; the shared no-op instance by
        #: default, so an uninstrumented executor allocates no spans and
        #: writes no files.
        self.observability = (
            observability if observability is not None else NULL_OBSERVABILITY
        )

    # -- plan cache ---------------------------------------------------------

    def set_context(self, context: ConditionContext, seo_changed: bool = True) -> None:
        """Swap the evaluation context in place, keeping the executor warm.

        The system's incremental build path reuses one executor across
        builds, so the plan cache survives writes: a plan is keyed by
        what the query is, and a lookup under a new SEO reuses it when
        the expansions it read are unchanged (:meth:`_plan`).  What binds
        a context — each plan's verify program and fetchers — is dropped
        here when the context object changes, so no cached plan keeps a
        superseded SEO alive; the first hit after the swap recompiles
        it.  ``seo_changed=False`` (the no-op rebuild: nothing in any SEO
        moved) keeps the cross-probe and residue memos; otherwise they
        are dropped outright (they are keyed partly by ``id(seo)``,
        which a recycled object id could collide with).  A plan never
        crosses context kinds (the exact fallback, plain TAX): the kind
        is part of its key.
        """
        if context is not self.context:
            for entry in self._plan_cache.values():
                entry.bound = None
        self.context = context
        if seo_changed:
            self._cross_probe_cache.clear()
            self._residue_cache.clear()

    def _plan(self, pattern: PatternTree, join: bool) -> Tuple[CompiledPlan, bool]:
        """The compiled plan for ``pattern`` and whether the cache had it.

        Compiles the verify program and per side one probe spec and one
        fetcher, and records the context's expansions they read — once
        per (operator, pattern, context kind), then served from the
        cache.  ``join`` splits the pattern into its two product sides.

        A cached plan not yet bound to the current context is checked
        first: its SEO reads are recomputed (memo lookups on a carried
        SEO) and, when equal, only the verify program and fetchers are
        compiled for the context (``executor.plan_cache.revalidated``).
        Reads that moved recompile the whole plan
        (``executor.plan_cache.stale``; not reported as a hit).
        """
        context = self.context
        structure = tuple(
            (label, pattern.node(label).parent, pattern.node(label).edge)
            for label in pattern.labels()
        )
        key = (
            "join" if join else "pattern",
            structure,
            repr(pattern.condition),
            type(context),
        )
        original = pattern.condition
        entry = self._plan_cache.get(key)
        bound = entry.bound if entry is not None else None
        if bound is not None and bound[0] is context:
            return bound[1], True
        # What a plan compiled now reads of the context; raises
        # ConditionError where the SEO rewrite would.
        reads = expansions_read(original, context)
        if entry is not None:
            if reads == entry.reads:
                METRICS.counter("executor.plan_cache.revalidated").inc()
                return self._bind(entry), True
            METRICS.counter("executor.plan_cache.stale").inc()
        # Verify with the original condition: the evaluator decides every
        # semantic atom.  The copy keeps the cached program independent
        # of the caller's (mutable) pattern object.
        verified = PatternTree(original)
        _copy_structure(pattern, verified)
        cross = similar = exact = None
        sides: Tuple[PatternTree, ...] = ()
        # Semantic atoms the context cannot expand (plain TAX) must reach
        # verification, and raise, on every document.
        prunable = UNDECIDED not in reads
        if join:
            sides = tuple(join_side_patterns(pattern, original))
            left_labels, right_labels = (set(side.labels()) for side in sides)
            # The probe specs and the side fetch come from the *original*
            # side conjuncts: verification evaluates those.
            specs = tuple(
                build_plan_spec(side, side.condition, context) for side in sides
            )
            if prunable:
                probes = find_cross_probes(original, left_labels, right_labels, context)
                cross = probes[0] if probes else None
                similar = next((p for p in probes if p.kind == "similar"), None)
        else:
            specs = (build_plan_spec(pattern, original, context),)
            exact = exact_tags(pattern, original, specs[0], context)
        unbound = CompiledPlan(
            specs,
            (),
            prunable,
            None,  # type: ignore[arg-type]  # bound per context by _bind
            cross,
            similar,
            exact,
        )
        entry = _PlanEntry(unbound, verified, sides, reads)
        plan = self._bind(entry)
        self._plan_cache.put(key, entry)
        return plan, False

    def _bind(self, entry: _PlanEntry) -> CompiledPlan:
        """``entry``'s plan with its verify program and fetchers compiled
        against the current evaluation context (and kept on the entry
        until the next :meth:`set_context`)."""
        context = self.context
        program = tax_batch.VerifyProgram.compile(entry.verified, context)
        if entry.sides:
            fetchers = tuple(
                tax_batch.VerifyProgram.compile(side, context).anchored_rows
                for side in entry.sides
            )
        else:
            fetchers = (program.root_rows,)
        plan = replace(entry.plan, program=program, fetchers=fetchers)
        entry.bound = (context, plan)
        return plan

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

    def _start_guard(self, guard: Optional[ResourceGuard]) -> Optional[ResourceGuard]:
        """Resolve the effective guard for one query and restart its clock."""
        guard = guard if guard is not None else self.guard
        if guard is not None:
            guard.start()
        return guard

    def _finish_query(
        self,
        kind: str,
        query: Optional[str],
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
            attributes["results"] = report.result_count
            attributes["candidates"] = report.candidates
            attributes["plan_cache_hit"] = report.plan_cache_hit
            attributes["index_used"] = report.index_used
            if context is not None:
                attributes["request_id"] = context.request_id
        report.trace = tracer.finish()
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
                "results": report.result_count,
                "candidates": report.candidates,
                "docs_scanned": report.docs_scanned,
                "docs_total": report.docs_total,
                "degraded": report.degraded,
            },
        ):
            METRICS.counter("executor.slow_queries").inc()
        return report

    def explain(self, pattern: PatternTree, join: bool) -> "QueryPlan":
        """The query plan without executing it: rewrite + prefilter XPath.

        Useful for debugging recall problems: the plan shows exactly which
        exact-match disjuncts the SEO expanded each semantic atom into.
        ``join`` is the operator, as for :meth:`_plan`: a join plans its
        two product sides.  The index lines describe the cached plan the
        pipeline itself runs; the rewrite and the XPath text (the
        reference executor's prefilter) are written here, on demand.
        """
        from .reference import prefilter_xpaths  # the oracle's writer

        started = time.perf_counter()
        plan, _ = self._plan(pattern, join)
        if plan.prunable:
            index_plan = self._side_lines(plan)
        else:
            index_plan = ["full scan (semantic atoms require an SEO context)"]
        if plan.cross is not None:
            index_plan.append(
                f"cross: {plan.cross.kind}(node[{plan.cross.left_label}] "
                f"<-> node[{plan.cross.right_label}])"
            )
        index_plan.append(describe_verify_strategy(join, plan.exact_tags))
        original = pattern.condition
        rewritten = (
            rewrite_condition(original, self.context)
            if isinstance(self.context, SeoConditionContext)
            else original
        )
        return QueryPlan(
            original=repr(original),
            rewritten=repr(rewritten),
            xpath_queries=prefilter_xpaths(pattern, self.context, join),
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
            lambda plan, entries, guard, tracer, _pairs: (
                tax_batch.selection_batched(
                    entries[0], plan.program, sl, guard, plan.exact_tags
                ),
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
            lambda plan, entries, guard, tracer, _pairs: (
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
        """Execute a join: per-side candidate fetch, then product+selection.

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
            lambda plan, entries, guard, tracer, term_pairs: self._join_verify(
                plan, entries, term_pairs, sl, guard, tracer
            ),
            {"left": left_collection, "right": right_collection},
        )

    def _run(
        self,
        kind: str,
        collections: Sequence[str],
        pattern: PatternTree,
        guard: Optional[ResourceGuard],
        verify: Callable[..., Tuple[Sequence[XmlNode], Dict[str, int]]],
        attributes: Dict[str, str],
    ) -> ExecutionReport:
        """The one pipeline: rewrite -> plan -> xpath -> verify -> report.

        ``collections`` names one collection per plan side.  ``verify``
        is the operator's verify step: ``verify(plan, entries, guard,
        tracer, term_pairs)`` gets every side's candidate entries and the
        plan stage's term pairs (see :meth:`_prune`) and returns
        ``(results, counts)``, where ``counts`` are extra report fields
        (the join's pair counters), also recorded on the verify span.
        """
        guard = self._start_guard(guard)
        accesses_before = self.context.ontology_accesses
        tracer = self.observability.tracer()

        with tracer.trace(f"query.{kind}", **attributes):
            started = time.perf_counter()
            with tracer.span("rewrite"):
                plan, cache_hit = self._plan(pattern, join=kind == "join")
                tracer.annotate(plan_cache_hit=cache_hit)
            rewrite_seconds = time.perf_counter() - started

            with _stage(tracer, guard, "plan") as plan_stage:
                doc_keys, docs_total, docs_scanned, term_pairs = self._prune(
                    collections, plan, guard
                )
                index_used = any(keys is not None for keys in doc_keys)
                tracer.annotate(
                    docs_total=docs_total,
                    docs_scanned=docs_scanned,
                    index_used=index_used,
                )

            # The fetch.  The stage keeps the paper's name but runs no
            # XPath.  One side fetches in the stage span itself; a join's
            # two sides each get a child span.
            single = len(collections) == 1
            # An index-exact plan's fetch reads the root row of a booked
            # document off its booking record.
            booking = plan.program.shape if plan.exact_tags is not None else None
            with _stage(tracer, guard, "xpath") as xpath_stage:
                entries = []
                for side, name, rows_of, keys in zip(
                    ("left", "right"), collections, plan.fetchers, doc_keys
                ):
                    with nullcontext() if single else tracer.span(f"xpath.{side}"):
                        walks = tax_batch.match_memo_misses()
                        entries.append(
                            self.database.get_collection(name).fetch(
                                rows_of, guard, keys, booking
                            )
                        )
                        tracer.annotate(candidates=len(entries[-1]))
                        if not single:
                            # Documents whose side embeddings were walked
                            # here rather than read from the columns' memo.
                            tracer.annotate(
                                match_memo_misses=tax_batch.match_memo_misses() - walks
                            )

            with _stage(tracer, guard, "verify") as verify_stage:
                results, counts = verify(plan, entries, guard, tracer, term_pairs)
                # Result trees the stage built (0 while answers stay rows),
                # candidates an index-exact plan booked without a scan, and
                # the booking records built for documents met first here.
                if isinstance(results, tax_batch.ResultRows):
                    built, booked, recorded = (
                        results.built, results.booked, results.recorded
                    )
                else:
                    built, booked, recorded = len(results), 0, 0
                tracer.annotate(
                    results=len(results),
                    materialized=built,
                    exact=booked,
                    booking_records=recorded,
                    batched=True,
                    **counts,
                )
        candidates = sum(map(len, entries))
        report = ExecutionReport(
            results,
            rewrite_seconds,
            xpath_stage.seconds,
            verify_stage.seconds,
            candidates=candidates,
            ontology_accesses=self.context.ontology_accesses - accesses_before,
            degraded=self.context.degraded,
            planner_seconds=plan_stage.seconds,
            docs_total=docs_total,
            docs_scanned=docs_scanned,
            index_used=index_used,
            plan_cache_hit=cache_hit,
            docs_verified=candidates - booked,
            **counts,
        )
        return self._finish_query(
            kind,
            repr(pattern.condition) if self.observability.enabled else None,
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
    ) -> Tuple[
        List[Optional[AbstractSet[str]]],
        int,
        int,
        Optional[Mapping[str, AbstractSet[str]]],
    ]:
        """(per-side document keys, docs total, docs scanned, term pairs).

        A side's keys are None when it is scanned whole.  Each prunable
        side intersects its own index probes; a join's cross probe then
        narrows both sides.  The term pairs (left term -> right terms,
        None without a ``~`` cross conjunct) are what the plan's
        ``similar`` probe matched: the join's pair filter.  When an
        ``=`` cross conjunct came first, the ``~`` conjunct's probe runs
        as well, memoised and charged like the first, and narrows
        nothing.
        """
        targets = [self.database.get_collection(name) for name in collections]
        doc_keys: List[Optional[AbstractSet[str]]] = [None] * len(targets)
        term_pairs = None
        if plan.prunable:
            seo = self.context.seo
            indexes = [target.search_index(guard=guard) for target in targets]
            for side, (spec, index) in enumerate(zip(plan.specs, indexes)):
                if spec.prunable:
                    doc_keys[side] = prune_candidates(
                        spec,
                        index,
                        guard,
                        seo,
                        memo=self._residue_cache,
                        # The index, not the collection's name: a dropped
                        # and re-created collection restarts its
                        # generation count.
                        memo_key=(index, targets[side].generation, id(seo)),
                    )
            matches: Dict[CrossProbe, CrossMatch] = {}
            for probe in (plan.cross, plan.similar):
                if probe is None or probe in matches:
                    continue
                left, right = targets
                matches[probe] = prune_join_docs(
                    indexes[0],
                    indexes[1],
                    probe,
                    seo,
                    guard,
                    memo=self._cross_probe_cache,
                    # The indexes, not the names: a dropped and re-created
                    # collection restarts its generation count.
                    memo_key=(
                        indexes[0],
                        left.generation,
                        indexes[1],
                        right.generation,
                        probe,
                        id(seo),
                    ),
                )
            if plan.cross is not None:
                match = matches[plan.cross]
                doc_keys = [
                    docs if keys is None else keys & docs
                    for keys, docs in zip(doc_keys, (match.left_docs, match.right_docs))
                ]
            if plan.similar is not None:
                term_pairs = matches[plan.similar].pairs
        docs_scanned = sum(
            len(keys) if keys is not None else len(target)
            for keys, target in zip(doc_keys, targets)
        )
        return doc_keys, sum(map(len, targets)), docs_scanned, term_pairs

    def _join_verify(
        self,
        plan: CompiledPlan,
        entries: Sequence[List[tax_batch.Entry]],
        term_pairs: Optional[Mapping[str, AbstractSet[str]]],
        sl: List[int],
        guard: Optional[ResourceGuard],
        tracer,
    ) -> Tuple[Sequence[XmlNode], Dict[str, int]]:
        """The join's verify step: candidate pairs, then their product.

        With a cross-side ``~`` conjunct the hash join keeps only the
        pairs its probe's term pairs admit; otherwise every pair is
        probed.
        """
        left, right = entries
        if plan.similar is not None:
            with tracer.span("verify.hash_join"):
                pairs = sorted(
                    _similar_candidate_pairs(left, right, plan.similar, term_pairs, guard)
                )
                tracer.annotate(pairs=len(pairs))
            if guard is not None and pairs:
                guard.tick_each(len(pairs), "join product")
        else:
            # The unfiltered product is charged before any of it exists:
            # the step budget rejects a blow-up before it is enumerated.
            if guard is not None:
                guard.tick(len(left) * len(right), what="join product")
            pairs = [(i, j) for i in range(len(left)) for j in range(len(right))]
        walks = tax_batch.match_memo_misses()
        results, pairs_materialized, side_scans = tax_batch.join_pairs_batched(
            left, right, pairs, plan.program, sl, guard
        )
        # Pairs whose side entries could hold a whole match were scanned
        # per side as well: 0 when every match heads at the product root.
        # Side entries whose group lists were built here, not read from
        # the columns' memo: 0 on a repeated join.
        tracer.annotate(
            side_scans=side_scans,
            match_memo_misses=tax_batch.match_memo_misses() - walks,
        )
        return results, {
            "pairs_probed": len(pairs),
            "pairs_materialized": pairs_materialized,
        }


def _similar_candidate_pairs(
    left: Sequence[tax_batch.Entry],
    right: Sequence[tax_batch.Entry],
    probe: CrossProbe,
    term_pairs: Mapping[str, AbstractSet[str]],
    guard: Optional[ResourceGuard],
) -> Set[Tuple[int, int]]:
    """Candidate pairs that can satisfy the cross-side ``~`` conjunct.

    A candidate's values are the texts of its subtree's rows under the
    probe's tags (all rows when the label has no tag restriction), so
    they are indexed terms of its document.  The probe matched every
    such left term to every right term ``seo.similar`` accepts, so a pair
    is dropped only when *no* value pair can satisfy the atom.  The
    measure ran, and was charged, in the probe: the guard is charged one
    ``similarity hash join`` step per left candidate.
    """

    def values_of(entry: tax_batch.Entry, tags: Optional[AbstractSet[str]]) -> Set[str]:
        cols, row = entry
        texts, row_tags = cols.texts, cols.tags
        return {
            texts[r]
            for r in range(row, cols.end[row])
            if tags is None or row_tags[r] in tags
        }

    holders: Dict[str, List[int]] = {}
    for j, entry in enumerate(right):
        for value in values_of(entry, probe.right_tags):
            holders.setdefault(value, []).append(j)
    pairs: Set[Tuple[int, int]] = set()
    for i, entry in enumerate(left):
        if guard is not None:
            guard.tick(what="similarity hash join")
        for value in values_of(entry, probe.left_tags):
            for other in term_pairs.get(value, ()):
                pairs.update((i, j) for j in holders.get(other, ()))
    return pairs


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
