"""The TOSS system facade — Figure 8's three components wired together.

:class:`TossSystem` owns a :class:`~repro.xmldb.Database` (the Xindice
substitute), runs the **Ontology Maker** on every registered instance,
auto-derives cross-source interoperation constraints (shared terms and
lexicon synonyms — the paper's "WordNet ... lead[s] to a set of
interoperation constraints"), lets the DBA add explicit constraints, runs
the **Similarity Enhancer** (canonical fusion + SEA) at :meth:`build`
time, and exposes the **Query Executor** plus the in-memory
:class:`~repro.core.algebra.TossAlgebra`.

Typical session::

    system = TossSystem(measure="levenshtein", epsilon=3.0)
    system.add_instance("dblp", dblp_xml)
    system.add_instance("sigmod", sigmod_xml)
    system.add_constraint("booktitle:dblp = conference:sigmod")
    system.build()
    report = system.select("dblp", pattern, sl_labels=[1])
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..errors import DeltaRefused, ReproError, TossError
from ..guard import ResourceGuard
from ..obs import NULL_OBSERVABILITY, Observability
from ..obs.metrics import REGISTRY as METRICS
from ..ontology.constraints import (
    EqualityConstraint,
    InteroperationConstraint,
    ScopedTerm,
    parse_constraint,
)
from ..ontology.fusion import extend_fusion, retract_fusion
from ..ontology.hierarchy import Hierarchy, Ontology
from ..ontology.lexicon import Lexicon
from ..ontology.maker import CombinedExtraction, OntologyMaker, RelationDelta
from ..similarity.cache import SimilarityGraphCache
from ..similarity.incremental import EpsilonGraphCache
from ..similarity.measures import StringSimilarityMeasure, get_measure
from ..similarity.seo import SeoBuildStats, SimilarityEnhancedOntology
from .build_report import BuildReport, RelationBuild
from ..tax import algebra as tax_algebra
from ..tax.pattern import PatternTree
from ..xmldb.database import Database
from ..xmldb.model import XmlNode
from .algebra import TossAlgebra
from .conditions import SeoConditionContext, TypingFunction, default_typing
from .executor import ExecutionReport, QueryExecutor
from .reference import ReferenceExecutor
from .instance import OntologyExtendedInstance
from .types import TypeSystem, default_type_system

DocumentInput = Union[str, XmlNode]

#: Relations the extraction/build pipeline maintains incrementally.
_RELATIONS = (Ontology.ISA, Ontology.PART_OF)


@dataclass(frozen=True)
class MutationReceipt:
    """What one write did to the system — the observable mutation contract.

    Every mutating call (:meth:`TossSystem.add_instance`,
    :meth:`~TossSystem.add_documents`, :meth:`~TossSystem.replace_documents`,
    :meth:`~TossSystem.remove_documents`) returns one of these instead of
    silently invalidating the built SEO: the caller sees which collection
    generations the write spans, which ontology terms it introduced or
    retired, and whether the next :meth:`~TossSystem.build` can run
    incrementally.  The same facts are emitted as a ``system.mutation``
    observability event.
    """

    source: str
    operation: str
    generation_before: int
    generation_after: int
    documents_added: Tuple[str, ...] = ()
    documents_removed: Tuple[str, ...] = ()
    terms_added: FrozenSet[str] = frozenset()
    terms_removed: FrozenSet[str] = frozenset()
    #: Whether the next build can consume this write as a delta (False
    #: forces a full re-fuse for the affected relations; the similarity
    #: graph still replays its cached verdicts either way).
    incremental: bool = True
    #: Why the write fell off the delta path (None while ``incremental``):
    #: ``"dropped-edge-live"`` (a surviving document lists an edge the
    #: extraction's cycle pass dropped, so a removal had to re-extract),
    #: ``"rule-bearing-maker"`` (DBA rules are not replayable) or
    #: ``"external-ontology"`` (the instance's ontology was supplied).
    fallback_reason: Optional[str] = None
    #: The updated instance (new object; previous snapshots are unchanged).
    instance: "OntologyExtendedInstance" = None  # type: ignore[assignment]

    @property
    def generations_advanced(self) -> int:
        return self.generation_after - self.generation_before


@dataclass
class _RelationState:
    """Last successful build of one relation, kept for delta maintenance."""

    epsilon: float
    mode: str
    constraints: List[InteroperationConstraint]
    seo: SimilarityEnhancedOntology
    graph_cache: EpsilonGraphCache
    chain_depth: int = 0


class TossSystem:
    """End-to-end TOSS: database + ontologies + SEO + query execution."""

    def __init__(
        self,
        measure: "str | StringSimilarityMeasure" = "levenshtein",
        epsilon: float = 3.0,
        maker: Optional[OntologyMaker] = None,
        type_system: Optional[TypeSystem] = None,
        typing: TypingFunction = default_typing,
        max_document_bytes: Optional[int] = None,
        guard: Optional[ResourceGuard] = None,
        cache_dir: Optional[str] = None,
        observability: Optional[Observability] = None,
    ) -> None:
        self.measure = get_measure(measure) if isinstance(measure, str) else measure
        self.epsilon = epsilon
        self.maker = maker if maker is not None else OntologyMaker()
        self.type_system = type_system if type_system is not None else default_type_system()
        self.typing = typing
        if max_document_bytes is None:
            self.database = Database()
        else:
            self.database = Database(max_document_bytes)
        self.instances: Dict[str, OntologyExtendedInstance] = {}
        self._constraints: Dict[str, List[InteroperationConstraint]] = {}
        self.context: Optional[SeoConditionContext] = None
        self.executor: Optional[QueryExecutor] = None
        self.build_seconds: float = 0.0
        #: Default resource guard for builds and queries (None = unbounded).
        self.guard = guard
        #: True when the last build failed and queries run in exact-match
        #: fallback mode (see :meth:`build` with ``on_failure="degrade"``).
        self.degraded: bool = False
        #: The exception that forced degradation, for diagnostics.
        self.build_error: Optional[ReproError] = None
        #: Persistent similarity-graph cache (None = caching disabled).
        self.seo_cache: Optional[SimilarityGraphCache] = (
            SimilarityGraphCache(cache_dir) if cache_dir else None
        )
        #: :class:`~repro.core.build_report.BuildReport` of the last build.
        self.build_report: Optional[BuildReport] = None
        #: Tracing + sink configuration, threaded into every executor this
        #: system creates and into :meth:`build`'s trace.  The shared
        #: no-op instance by default.
        self.observability = (
            observability if observability is not None else NULL_OBSERVABILITY
        )
        #: Replayable extraction state per source (absent for sources with
        #: externally supplied ontologies or rule-bearing makers).
        self._sources: Dict[str, CombinedExtraction] = {}
        #: Next document auto-key suffix per source; survives removals so
        #: keys are never reissued.
        self._doc_counters: Dict[str, int] = {}
        #: Per-source, per-relation deltas accumulated since the last
        #: successful build — what :meth:`build` turns into fusion/SEA
        #: deltas instead of a rebuild.
        self._pending: Dict[str, Dict[str, RelationDelta]] = {}
        #: Relations whose pending state cannot be expressed as a delta,
        #: with the :attr:`MutationReceipt.fallback_reason` of the write
        #: that made it so: the next build re-fuses them from scratch.
        self._poisoned: Dict[str, str] = {}
        #: Per-relation state of the last successful build.
        self._relation_state: Dict[str, _RelationState] = {}

    # -- administration ---------------------------------------------------------

    def set_observability(self, observability: Observability) -> None:
        """Swap the tracing/sink configuration, including on a loaded system.

        :func:`~repro.core.persistence.load_system` constructs the
        executor before the caller can pass ``observability=``, so the
        CLI (``db trace``, ``query --load``) attaches it afterwards.
        """
        self.observability = observability
        if self.executor is not None:
            self.executor.observability = observability

    @staticmethod
    def _ontology_terms(ontology: Ontology) -> FrozenSet[str]:
        terms: Set[str] = set()
        for relation in _RELATIONS:
            terms.update(str(term) for term in ontology[relation].terms)
        return frozenset(terms)

    def _record_pending(self, name: str, deltas: Dict[str, RelationDelta]) -> None:
        per_source = self._pending.setdefault(name, {})
        for relation, delta in deltas.items():
            slot = per_source.get(relation)
            if slot is None:
                per_source[relation] = delta
            else:
                slot.absorb(delta)

    def _poison(self, reason: str) -> None:
        """Mark every relation as needing a from-scratch fuse next build."""
        for relation in _RELATIONS:
            self._poisoned.setdefault(relation, reason)
        self._pending.clear()

    def _emit_mutation(self, receipt: MutationReceipt) -> MutationReceipt:
        METRICS.counter("system.mutations").inc()
        self.observability.record_event(
            "system.mutation",
            source=receipt.source,
            operation=receipt.operation,
            generation_before=receipt.generation_before,
            generation_after=receipt.generation_after,
            documents_added=len(receipt.documents_added),
            documents_removed=len(receipt.documents_removed),
            terms_added=len(receipt.terms_added),
            terms_removed=len(receipt.terms_removed),
            incremental=receipt.incremental,
            fallback_reason=receipt.fallback_reason,
        )
        self.context = None  # queries must rebuild (incrementally) first
        return receipt

    def _next_keys(self, name: str, count: int) -> List[str]:
        """Fresh document keys; the counter never reissues a removed key."""
        collection = self.database.get_collection(name)
        counter = self._doc_counters.get(name, len(collection))
        keys: List[str] = []
        for _ in range(count):
            while f"{name}-{counter}" in collection:
                counter += 1
            keys.append(f"{name}-{counter}")
            counter += 1
        self._doc_counters[name] = counter
        return keys

    def add_instance(
        self,
        name: str,
        documents: "DocumentInput | Sequence[DocumentInput]",
        ontology: Optional[Ontology] = None,
    ) -> MutationReceipt:
        """Register a source: store its documents, build (or take) its ontology.

        Returns a :class:`MutationReceipt`; the new instance is
        ``receipt.instance``.
        """
        if name in self.instances:
            raise TossError(f"instance {name!r} is already registered")
        if isinstance(documents, (str, XmlNode)):
            documents = [documents]
        collection = self.database.create_collection(name)
        generation_before = collection.generation
        roots: List[XmlNode] = []
        keys: List[str] = []
        for index, document in enumerate(documents):
            key = f"{name}-{index}"
            roots.append(collection.add_document(key, document))
            keys.append(key)
        self._doc_counters[name] = len(roots)
        fallback_reason = None
        terms_added: FrozenSet[str]
        if ontology is not None:
            fallback_reason = "external-ontology"
        else:
            state = CombinedExtraction(self.maker)
            if state.supported:
                deltas = state.extend(roots)
                ontology = state.ontology
                self._sources[name] = state
                self._record_pending(name, deltas)
                terms_added = frozenset(
                    term for delta in deltas.values() for term in delta.added_terms
                )
            else:
                ontology = self.maker.make_combined(roots)
                fallback_reason = "rule-bearing-maker"
        if fallback_reason is not None:
            terms_added = self._ontology_terms(ontology)
            self._poison(fallback_reason)
        instance = OntologyExtendedInstance(name, roots, ontology, self.typing)
        self.instances[name] = instance
        return self._emit_mutation(
            MutationReceipt(
                source=name,
                operation="add_instance",
                generation_before=generation_before,
                generation_after=collection.generation,
                documents_added=tuple(keys),
                terms_added=terms_added,
                incremental=fallback_reason is None,
                fallback_reason=fallback_reason,
                instance=instance,
            )
        )

    def restore_instance(self, name: str) -> None:
        """Register an already stored collection as an instance (the load path).

        The instance's ontology is extracted on first use — the next
        :meth:`build` or write — with the :attr:`maker` then in place,
        into the same replayable extraction state :meth:`add_instance`
        keeps, so the first write after a load is a delta like any other.
        """
        roots = self.database.get_collection(name).roots()

        def extract() -> Ontology:
            state = CombinedExtraction(self.maker)
            if not state.supported:  # rule-bearing maker: not replayable
                return self.maker.make_combined(roots)
            state.extend(roots)
            self._sources[name] = state
            return state.ontology

        self.instances[name] = OntologyExtendedInstance(
            name, roots, extract, self.typing
        )

    def _source_state(
        self, name: str
    ) -> Tuple[Optional[CombinedExtraction], Optional[str]]:
        """The replayable extraction state for ``name``, rebuilding if lost.

        Returns ``(state, fallback_reason)``.  A rebuilt state replays
        the instance's current documents; if the result disagrees with
        the instance's ontology — it carried an external one — the
        pending deltas are poisoned so the next build re-fuses
        (``"external-ontology"``), and the source converts to extracted
        ontologies from here on (the behaviour appends always had).  A
        rule-bearing maker has no replayable state at all.
        """
        ontology = self.instances[name].ontology  # a restored instance extracts here
        state = self._sources.get(name)
        if state is not None:
            return state, None
        state = CombinedExtraction(self.maker)
        if not state.supported:
            return None, "rule-bearing-maker"
        state.extend(list(self.instances[name].trees))
        self._sources[name] = state
        if state.ontology != ontology:
            self._poison("external-ontology")
            return state, "external-ontology"
        return state, None

    def _write(self, name: str, operation: str, apply) -> MutationReceipt:
        """One write to an existing instance, priced by what it touches.

        ``apply(collection)`` performs the storage mutation and returns
        ``(retracted roots, extended roots, keys added, keys removed)``.
        The instance's combined ontology then follows as a delta: the
        retracted documents' own edges are withdrawn from the replayable
        extraction state and the new documents' edges folded in
        (identical to re-extracting the survivors, see
        :class:`~repro.ontology.maker.CombinedExtraction`), and both
        deltas are queued for the next :meth:`build`.  Only when the
        state cannot follow does the write re-extract the source
        (:meth:`_reextract`), and the receipt says why.
        """
        if name not in self.instances:
            raise TossError(f"no instance named {name!r}; use add_instance")
        collection = self.database.get_collection(name)
        generation_before = collection.generation
        state, fallback_reason = self._source_state(name)
        retracted, extended, keys_added, keys_removed = apply(collection)
        net = RelationDelta()  # of every relation: the receipt's terms
        if state is not None:
            try:
                steps = [state.retract(retracted)] if retracted else []
            except DeltaRefused as refused:
                state, fallback_reason = None, refused.reason
            else:
                if extended:
                    steps.append(state.extend(extended))
                for deltas in steps:
                    self._record_pending(name, deltas)
                    for delta in deltas.values():
                        net.absorb(delta)
        if state is None:
            return self._reextract(
                name,
                operation,
                generation_before,
                keys_added,
                keys_removed,
                fallback_reason,
            )
        updated = OntologyExtendedInstance(
            name, collection.roots(), state.ontology, self.typing
        )
        self.instances[name] = updated
        return self._emit_mutation(
            MutationReceipt(
                source=name,
                operation=operation,
                generation_before=generation_before,
                generation_after=collection.generation,
                documents_added=keys_added,
                documents_removed=keys_removed,
                terms_added=frozenset(net.added_terms),
                terms_removed=frozenset(net.removed_terms),
                incremental=fallback_reason is None,
                fallback_reason=fallback_reason,
                instance=updated,
            )
        )

    def _reextract(
        self,
        name: str,
        operation: str,
        generation_before: int,
        documents_added: Tuple[str, ...],
        documents_removed: Tuple[str, ...],
        fallback_reason: str,
    ) -> MutationReceipt:
        """Rebuild a source's ontology from its surviving documents.

        The fallback of :meth:`_write`, reached only with a recorded
        ``fallback_reason``: the extraction state could not follow the
        write, so the source is re-extracted and the pending deltas are
        poisoned (the next build re-fuses — the similarity graph still
        replays every cached verdict, so even this path stays far below
        a cold build).
        """
        METRICS.counter("system.mutations.reextracted").inc()
        instance = self.instances[name]
        collection = self.database.get_collection(name)
        before_terms = self._ontology_terms(instance.ontology)
        roots = collection.roots()
        state = CombinedExtraction(self.maker)
        if state.supported:
            state.extend(roots)
            ontology = state.ontology
            self._sources[name] = state
        else:
            ontology = self.maker.make_combined(roots)
            self._sources.pop(name, None)
        self._poison(fallback_reason)
        after_terms = self._ontology_terms(ontology)
        updated = OntologyExtendedInstance(name, roots, ontology, self.typing)
        self.instances[name] = updated
        return self._emit_mutation(
            MutationReceipt(
                source=name,
                operation=operation,
                generation_before=generation_before,
                generation_after=collection.generation,
                documents_added=documents_added,
                documents_removed=documents_removed,
                terms_added=after_terms - before_terms,
                terms_removed=before_terms - after_terms,
                incremental=False,
                fallback_reason=fallback_reason,
                instance=updated,
            )
        )

    def add_documents(
        self,
        name: str,
        documents: "DocumentInput | Sequence[DocumentInput]",
    ) -> MutationReceipt:
        """Append documents to an existing instance.

        The built SEO is invalidated and the extraction delta queued for
        the next :meth:`build`, which consumes it incrementally instead
        of starting over (see :meth:`_write`).  Returns a
        :class:`MutationReceipt`; the updated instance is
        ``receipt.instance``.
        """
        if isinstance(documents, (str, XmlNode)):
            documents = [documents]

        def apply(collection):
            keys = self._next_keys(name, len(documents))
            added = [
                collection.add_document(key, document)
                for key, document in zip(keys, documents)
            ]
            return [], added, tuple(keys), ()

        return self._write(name, "add_documents", apply)

    def replace_documents(
        self,
        name: str,
        documents: Mapping[str, DocumentInput],
    ) -> MutationReceipt:
        """Overwrite documents of an existing instance by key.

        Unknown keys are created.  Replaced documents move to the end of
        the collection's scan order (the storage semantics of
        :meth:`~repro.xmldb.collection.Collection.replace_document`).
        One receipt covers the withdrawal of the old trees and the
        arrival of the new ones (see :meth:`_write`).
        """

        def apply(collection):
            replaced: List[str] = []
            created: List[str] = []
            old_roots: List[XmlNode] = []
            new_roots: List[XmlNode] = []
            for key, document in documents.items():
                if key in collection:
                    replaced.append(key)
                    old_roots.append(collection.get_document(key))
                else:
                    created.append(key)
                new_roots.append(collection.replace_document(key, document))
            return old_roots, new_roots, tuple(created), tuple(replaced)

        return self._write(name, "replace_documents", apply)

    def remove_documents(
        self,
        name: str,
        keys: Iterable[str],
    ) -> MutationReceipt:
        """Remove documents of an existing instance by key (see :meth:`_write`)."""

        def apply(collection):
            removed = tuple(keys)
            old_roots = [collection.get_document(key) for key in removed]
            for key in removed:
                collection.remove_document(key)
            return old_roots, [], (), removed

        return self._write(name, "remove_documents", apply)

    def add_constraint(
        self,
        constraint: "str | InteroperationConstraint",
        relation: str = Ontology.ISA,
    ) -> InteroperationConstraint:
        """Add a DBA interoperation constraint for one relation."""
        if isinstance(constraint, str):
            constraint = parse_constraint(constraint)
        self._constraints.setdefault(relation, []).append(constraint)
        self.context = None
        return constraint

    # -- the Similarity Enhancer --------------------------------------------------

    def _auto_constraints(
        self, relation: str, hierarchies: Mapping[str, Hierarchy]
    ) -> List[InteroperationConstraint]:
        """Cross-source equalities from shared terms and lexicon synonyms."""
        constraints: List[InteroperationConstraint] = []
        lexicon: Lexicon = self.maker.lexicon
        names = list(hierarchies)
        for first, second in itertools.combinations(names, 2):
            terms_first = hierarchies[first].terms
            terms_second = hierarchies[second].terms
            for term in terms_first:
                if term in terms_second:
                    constraints.append(
                        EqualityConstraint(
                            ScopedTerm(term, first), ScopedTerm(term, second)
                        )
                    )
                for synonym in lexicon.synonyms(str(term)):
                    if synonym != term and synonym in terms_second:
                        constraints.append(
                            EqualityConstraint(
                                ScopedTerm(term, first), ScopedTerm(synonym, second)
                            )
                        )
        return constraints

    def build(
        self,
        epsilon: Optional[float] = None,
        relations: Iterable[str] = (Ontology.ISA, Ontology.PART_OF),
        mode: str = "order-safe",
        guard: Optional[ResourceGuard] = None,
        on_failure: str = "raise",
        use_cache: bool = True,
    ) -> Optional[SeoConditionContext]:
        """Fuse all instance ontologies and similarity-enhance them.

        This is the precomputation step of Section 6 ("we precompute an
        SEO during integration"); its wall-clock cost is recorded in
        :attr:`build_seconds`.  Must be re-run after adding instances or
        constraints; queries before :meth:`build` raise.

        ``mode`` defaults to SEA's always-consistent ``"order-safe"``
        policy (similar terms merge only when they play the same
        structural role); pass ``"strict"`` for Figure-12-verbatim
        behaviour, which may raise
        :class:`~repro.errors.SimilarityInconsistencyError` (Definition 9).

        ``guard`` (default: the system's guard) bounds the SEO
        precomputation with a deadline / step budget.  ``on_failure``
        selects what happens when the build raises a
        :class:`~repro.errors.ReproError` (inconsistency, bad constraint,
        guard timeout...): ``"raise"`` propagates it; ``"degrade"``
        records it in :attr:`build_error`, flips :attr:`degraded` and
        wires an exact-match fallback executor — similarity queries keep
        working with plain TAX semantics and their
        :class:`~repro.core.executor.ExecutionReport` carries
        ``degraded=True``.  Returns None when degraded.

        ``use_cache=False`` bypasses the persistent similarity-graph
        cache for this build only.  The full outcome lands in
        :attr:`build_report`.

        **Incremental maintenance.**  After mutations whose receipts say
        ``incremental=True`` — adds, replacements and removals alike —
        each relation consumes its accumulated, netted deltas instead of
        starting over: the previous build's fusion follows the leaves
        that came and went, the previous enhancement is patched in
        place, and — when nothing changed at all for a relation — the
        previous SEO object is reused outright (the rungs are listed on
        :meth:`_build_relation`).  The result is **identical** (same
        cliques, closures, serialised bytes) to a from-scratch build; the
        property suite asserts it.  A changed epsilon/mode/constraint
        set, a write with a ``fallback_reason``, or a delta that is not
        leaf-only falls back to the full path for the affected relations.
        :class:`~repro.core.build_report.RelationBuild` records which
        rung ran and why (``rung``/``rung_reason``/``chain_depth``).
        """
        if on_failure not in ("raise", "degrade"):
            raise ValueError(
                f"on_failure must be 'raise' or 'degrade', got {on_failure!r}"
            )
        if not self.instances:
            raise TossError("register at least one instance before build()")
        if epsilon is not None:
            self.epsilon = epsilon
        guard = guard if guard is not None else self.guard
        cache = self.seo_cache if use_cache else None
        report = BuildReport(
            measure=self.measure.name or type(self.measure).__name__,
            epsilon=self.epsilon,
            mode=mode,
            cache_used=cache is not None,
        )
        self.build_report = report
        tracer = self.observability.tracer()
        started = time.perf_counter()
        seos: Dict[str, SimilarityEnhancedOntology] = {}
        previous_seos: Dict[str, SimilarityEnhancedOntology] = {}
        try:
            with tracer.trace("build", mode=mode):
                if guard is not None:
                    guard.start()
                for relation in relations:
                    with tracer.span(f"relation.{relation}"):
                        hierarchies = {
                            name: instance.ontology[relation]
                            for name, instance in self.instances.items()
                        }
                        constraints = self._auto_constraints(relation, hierarchies)
                        constraints.extend(self._constraints.get(relation, ()))
                        previous = self._relation_state.get(relation)
                        if previous is not None:
                            previous_seos[relation] = previous.seo
                        built, graph_cache, chain_depth = self._build_relation(
                            relation,
                            hierarchies,
                            constraints,
                            mode,
                            guard,
                            cache,
                            report,
                            tracer,
                        )
                        seos[relation] = built
                        self._relation_state[relation] = _RelationState(
                            epsilon=self.epsilon,
                            mode=mode,
                            constraints=constraints,
                            seo=built,
                            graph_cache=graph_cache,
                            chain_depth=chain_depth,
                        )
                        # This relation is now current: drain its deltas so a
                        # later failure in another relation doesn't replay them.
                        for per_source in self._pending.values():
                            per_source.pop(relation, None)
                        self._poisoned.pop(relation, None)
        except ReproError as exc:
            self.build_seconds = time.perf_counter() - started
            report.build_seconds = self.build_seconds
            report.degraded = True
            report.error = str(exc)
            self._finish_build(report, tracer, guard)
            if on_failure == "raise":
                raise
            self.degrade(exc)
            return None
        self.build_seconds = time.perf_counter() - started
        report.build_seconds = self.build_seconds
        self._finish_build(report, tracer, guard)
        return self.install_seos(
            seos,
            seo_changed=any(
                previous_seos.get(relation) is not seo
                for relation, seo in seos.items()
            ),
        )

    def install_seos(
        self,
        seos: Dict[str, SimilarityEnhancedOntology],
        seo_changed: bool = True,
    ) -> SeoConditionContext:
        """Serve ``seos``: the one place an SEO set becomes the query context.

        A build, :func:`~repro.core.persistence.load_system` and a
        worker replaying a :class:`~repro.serving.snapshot.SnapshotDelta`
        all land here.  ``seo_changed=False`` (every relation kept its
        previous SEO object) keeps the current context, so its memos
        (probe caches, subtype memo) stay warm.  The executor is reused
        copy-on-write — compiled plans, probe memos and the cross-probe
        cache invalidate per context epoch instead of being discarded
        wholesale — unless there is none yet or it is the exact-match
        fallback.  Clears :attr:`degraded`.
        """
        if self.context is None or seo_changed:
            isa_seo = seos.get(Ontology.ISA)
            if isa_seo is None:
                raise TossError("no isa SEO to serve")
            self.context = SeoConditionContext(
                isa_seo,
                seos=seos,
                type_system=self.type_system,
                typing=self.typing,
            )
        if self.executor is not None and not self.executor.exact_fallback:
            self.executor.set_context(self.context, seo_changed=seo_changed)
        else:
            self.executor = QueryExecutor(
                self.database,
                self.context,
                guard=self.guard,
                observability=self.observability,
            )
        self.degraded = False
        self.build_error = None
        return self.context

    def degrade(self, error: Optional[ReproError] = None) -> None:
        """Serve exact matches only: drop the context and wire the
        exact-match fallback executor (queries keep working with plain
        TAX semantics and report ``degraded=True``).  ``error`` is what
        forced it, kept in :attr:`build_error`."""
        self.context = None
        self.degraded = True
        self.build_error = error
        self.executor = QueryExecutor(
            self.database,
            None,
            guard=self.guard,
            exact_fallback=True,
            observability=self.observability,
        )

    def _build_relation(
        self,
        relation: str,
        hierarchies: Mapping[str, Hierarchy],
        constraints: List[InteroperationConstraint],
        mode: str,
        guard: Optional[ResourceGuard],
        cache: Optional[SimilarityGraphCache],
        report: BuildReport,
        tracer,
    ) -> Tuple[SimilarityEnhancedOntology, EpsilonGraphCache, int]:
        """Build one relation's SEO on the cheapest rung the deltas allow.

        Cheapest first (the rung that ran and, off the two cheap ones,
        the precondition that failed land in
        :class:`~repro.core.build_report.RelationBuild` and on the
        relation's trace span):

        1. **reuse** — not poisoned, same epsilon/mode/constraints, and
           the pending deltas for this relation net out to nothing: the
           previous SEO *is* the from-scratch result; return it.
        2. **patch** — the pending deltas only withdraw and hang leaves, so
           the previous fusion follows them
           (:func:`~repro.ontology.fusion.retract_fusion` then
           :func:`~repro.ontology.fusion.extend_fusion`, no condensation)
           and the previous enhancement is patched in place
           (:func:`~repro.similarity.sea.extend_enhancement`).
           The persistent on-disk cache is bypassed (content keys would
           miss anyway, and storing every generation would bloat it).
        3. **delta** — SEA runs, replaying the rep-level verdict cache
           and verifying only pairs involving new representatives: over
           the followed fusion when just the enhancement patch was
           refused, else over a from-scratch fusion.
        4. **full** — everything else (no verdicts to replay).
        """
        prev = self._relation_state.get(relation)
        if prev is None:
            reason: Optional[str] = "first-build"
        elif relation in self._poisoned:
            reason = self._poisoned[relation]
        elif prev.epsilon != self.epsilon:
            reason = "epsilon-changed"
        elif prev.mode != mode:
            reason = "mode-changed"
        elif prev.constraints != constraints:
            reason = "constraints-changed"
        else:
            reason = None
        if reason is None:
            pending = {
                name: per_source[relation]
                for name, per_source in self._pending.items()
                if relation in per_source and not per_source[relation].empty
            }
            if not pending:
                report.relations.append(
                    RelationBuild(
                        relation=relation,
                        incremental=True,
                        fusion_incremental=True,
                        chain_depth=prev.chain_depth,
                        rung="reuse",
                    )
                )
                tracer.annotate(rung="reuse")
                return prev.seo, prev.graph_cache, prev.chain_depth
            try:
                followed = extend_fusion(
                    retract_fusion(
                        prev.seo.fusion,
                        {name: delta.removed_terms for name, delta in pending.items()},
                        {name: delta.removed_edges for name, delta in pending.items()},
                        constraints,
                    ),
                    {name: delta.added_edges for name, delta in pending.items()},
                    {name: delta.added_nodes for name, delta in pending.items()},
                )
            except DeltaRefused as refused:
                reason = refused.reason
            else:
                chain_depth = prev.chain_depth + 1
                built = SimilarityEnhancedOntology.build(
                    hierarchies,
                    self.measure,
                    self.epsilon,
                    constraints,
                    mode=mode,
                    guard=guard,
                    cache=None,
                    fusion=followed,
                    graph_cache=prev.graph_cache,
                    previous=prev.seo,
                )
                built.build_stats.chain_depth = chain_depth
                self._report_relation(relation, built.build_stats, None, report, tracer)
                return built, prev.graph_cache, chain_depth
        graph_cache = (
            prev.graph_cache
            if prev is not None and prev.epsilon == self.epsilon
            else EpsilonGraphCache()
        )
        built = SimilarityEnhancedOntology.build(
            hierarchies,
            self.measure,
            self.epsilon,
            constraints,
            mode=mode,
            guard=guard,
            cache=cache,
            graph_cache=graph_cache,
        )
        self._report_relation(relation, built.build_stats, reason, report, tracer)
        return built, graph_cache, 0

    @staticmethod
    def _report_relation(
        relation: str,
        stats: SeoBuildStats,
        reason: Optional[str],
        report: BuildReport,
        tracer,
    ) -> None:
        """Book one relation's build on the report and its trace span."""
        entry = RelationBuild.from_stats(relation, stats, reason)
        report.relations.append(entry)
        tracer.annotate(
            rung=entry.rung, rung_reason=entry.rung_reason, cache_hit=stats.cache_hit
        )

    def _finish_build(
        self,
        report: BuildReport,
        tracer,
        guard: Optional[ResourceGuard],
    ) -> None:
        """Attach the build trace to the report; publish metrics + events."""
        if tracer.root is not None:
            if guard is not None:
                tracer.root.attributes["guard_steps"] = guard.steps
                tracer.root.attributes["guard_stages"] = guard.stage_steps
            tracer.root.attributes["degraded"] = report.degraded
        report.trace = tracer.finish()
        METRICS.counter("build.runs").inc()
        if report.degraded:
            METRICS.counter("build.degraded").inc()
        METRICS.histogram("build.seconds").observe(report.build_seconds)
        self.observability.record_query(
            "build",
            total_seconds=report.build_seconds,
            trace=report.trace,
            extra={
                "measure": report.measure,
                "epsilon": report.epsilon,
                "mode": report.mode,
                "degraded": report.degraded,
                "cache_hits": report.cache_hits,
            },
        )

    @property
    def seo(self) -> SimilarityEnhancedOntology:
        """The built isa SEO (raises if :meth:`build` has not run)."""
        return self._require_context().seo

    def _require_context(self) -> SeoConditionContext:
        if self.context is None:
            if self.degraded:
                raise TossError(
                    "the SEO build failed and the system is degraded to exact "
                    f"matching; similarity features are unavailable "
                    f"(cause: {self.build_error})"
                )
            raise TossError("call build() before querying")
        return self.context

    def _query_executor(self) -> Tuple[QueryExecutor, bool]:
        """The executor to run a query with, plus the degraded flag.

        In degraded mode (the SEO build failed with ``on_failure=
        "degrade"``) queries run through the exact-match fallback executor
        instead of raising; reports are stamped ``degraded=True``.
        """
        if self.executor is not None and (self.context is not None or self.degraded):
            return self.executor, self.degraded
        raise TossError("call build() before querying")

    def ontology_size(self) -> int:
        """Distinct term count of the built isa SEO (the paper's metric)."""
        return self.seo.term_count()

    @property
    def seo_chain_depths(self) -> Dict[str, int]:
        """Per-relation incremental chain depth (0 = last build was full)."""
        return {
            relation: state.chain_depth
            for relation, state in self._relation_state.items()
        }

    def collection_generations(self) -> Dict[str, int]:
        """Per-collection write generation (monotone mutation counter)."""
        return {
            name: self.database.get_collection(name).generation
            for name in self.instances
        }

    # -- the Query Executor ------------------------------------------------------------

    def select(
        self,
        collection: str,
        pattern: PatternTree,
        sl_labels: Iterable[int] = (),
    ) -> ExecutionReport:
        """TOSS selection through the XPath-rewriting executor."""
        executor, degraded = self._query_executor()
        report = executor.selection(collection, pattern, sl_labels)
        report.degraded = degraded
        return report

    def project(
        self,
        collection: str,
        pattern: PatternTree,
        pl: Sequence[tax_algebra.ProjectionEntry],
    ) -> ExecutionReport:
        """TOSS projection through the executor."""
        executor, degraded = self._query_executor()
        report = executor.projection(collection, pattern, pl)
        report.degraded = degraded
        return report

    def join(
        self,
        left_collection: str,
        right_collection: str,
        pattern: PatternTree,
        sl_labels: Iterable[int] = (),
    ) -> ExecutionReport:
        """TOSS join through the executor."""
        executor, degraded = self._query_executor()
        report = executor.join(
            left_collection, right_collection, pattern, sl_labels
        )
        report.degraded = degraded
        return report

    def query(
        self,
        collection: str,
        text: str,
        sl_variables: Iterable[str] = (),
        right_collection: Optional[str] = None,
    ) -> ExecutionReport:
        """Run a query written in the textual query language.

        Single-element queries run as selections (the element's full
        subtree is returned); two-element queries run as joins and need
        ``right_collection``.  ``sl_variables`` names additional
        ``$variables`` whose subtrees should be inflated.

        >>> system.query("dblp", 'inproceedings(author ~ "J. Ullman")')
        ... # doctest: +SKIP
        """
        from .parser import parse_query

        parsed = parse_query(text)
        sl_labels = list(parsed.roots) + [
            parsed.label(variable) for variable in sl_variables
        ]
        if len(parsed.roots) == 1:
            return self.select(collection, parsed.pattern, sl_labels)
        if len(parsed.roots) == 2:
            if right_collection is None:
                raise TossError(
                    "a two-element query is a join; pass right_collection="
                )
            return self.join(
                collection, right_collection, parsed.pattern, sl_labels
            )
        raise TossError("queries must have one or two top-level elements")

    def tax_executor(self) -> QueryExecutor:
        """A plain-TAX executor over the same database (the baseline)."""
        return QueryExecutor(self.database, context=None)

    def reference_executor(self) -> ReferenceExecutor:
        """The paper-faithful oracle over the same database and SEO."""
        return ReferenceExecutor(self.database, self._require_context())

    def algebra(self) -> TossAlgebra:
        """The in-memory TOSS algebra bound to the built context."""
        return TossAlgebra(self._require_context())

    def __repr__(self) -> str:
        built = "built" if self.context is not None else "not built"
        return (
            f"TossSystem({len(self.instances)} instances, "
            f"measure={self.measure.name or type(self.measure).__name__}, "
            f"epsilon={self.epsilon}, {built})"
        )
