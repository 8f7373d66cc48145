"""Index-aware candidate pruning for the Query Executor.

The scan pipeline runs the compiled XPath prefilter over *every* document
and hands the matches to TAX verification.  This module derives, from the
pattern tree and its **original** condition, a set of index probes whose
conjunction is a *necessary* condition for a document to contribute a
verified result:

* **tag probes** — each label whose tag is constrained by the condition
  must appear in the document;
* **edge probes** — a ``pc``/``ad`` pattern edge between two
  tag-constrained labels requires the corresponding adjacent/ordered tag
  pair on some root-to-leaf path;
* **value probes** — each top-level content conjunct (equality,
  one-label ``Or`` of equalities, or a constant-sided semantic atom
  expanded through the SEO *against the index*) requires the document to
  contain one of the admissible values under the admissible tags.

Soundness is argued against *verified* results, not XPath candidates: a
verified embedding satisfies every top-level conjunct through exact
``node.text``/``node.tag`` facts (or, for ``~``, the SEO's similarity
including its edit-distance fallback), and the postings record exactly
those facts.  A probed document set therefore contains every document
any verified result comes from, and running the same XPath restricted to
it — in collection order — returns results identical to the full scan.
The XPath *candidate count* may legally shrink: XPath's ``. = 'v'``
compares subtree string-values, which verification does not.

Whenever an atom is not indexable it is simply skipped (the probe set
gets weaker, never wrong); when the whole condition cannot be pruned
safely — notably semantic atoms with no SEO context, where the scan path
must raise — :func:`build_plan_spec` refuses and the executor falls back
to the full scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from ..errors import ConditionError
from ..guard import ResourceGuard, TickRecorder, replay_ticks
from ..lru import LruCache
from ..obs.metrics import REGISTRY as METRICS
from ..obs.trace import current_tracer
from ..similarity.candidates import BlockStats, bipartite_index, similar_pairs
from ..similarity.seo import SimilarityEnhancedOntology
from ..tax.conditions import (
    And,
    Comparison,
    Condition,
    Constant,
    NodeContent,
    Not,
    Or,
    required_tags,
)
from ..tax.pattern import AD, PatternTree
from ..xmldb.index import CollectionSearchIndex
from .conditions import SeoConditionContext, SimilarTo, _SemanticAtom, _expansion_for

#: Skip pair probes whose tag-restriction product explodes.
MAX_PAIR_COMBINATIONS = 16


@dataclass(frozen=True)
class ValuesProbe:
    """One content conjunct: the document must hold one of ``values``.

    ``tags`` restricts which element tags may carry the value (None: any);
    ``similar_to`` marks a ``~`` atom's constant, for which the probe is
    augmented at prune time with indexed terms outside the ontology that
    the similarity measure accepts (the SEO's distance fallback).
    """

    label: int
    tags: Optional[FrozenSet[str]]
    values: FrozenSet[str]
    similar_to: Optional[str] = None


@dataclass(frozen=True)
class CrossProbe:
    """A join's cross-side content conjunct, probed document-to-document.

    ``kind`` is ``"similar"`` (SEO semantics) or ``"equal"`` (plain string
    equality); the tag sets restrict which elements' values participate
    on each side.
    """

    kind: str
    left_label: int
    right_label: int
    left_tags: Optional[FrozenSet[str]]
    right_tags: Optional[FrozenSet[str]]


@dataclass
class PlanSpec:
    """The pruning plan for one pattern (or one join side)."""

    prunable: bool
    reason: str = ""
    tag_probes: List[FrozenSet[str]] = field(default_factory=list)
    pc_probes: List[FrozenSet[Tuple[str, str]]] = field(default_factory=list)
    ad_probes: List[FrozenSet[Tuple[str, str]]] = field(default_factory=list)
    value_probes: List[ValuesProbe] = field(default_factory=list)

    def describe(self) -> List[str]:
        """Human-readable probe summary for ``explain``."""
        if not self.prunable:
            return [f"full scan ({self.reason})"]
        lines: List[str] = []
        for tags in self.tag_probes:
            lines.append(f"tag in {{{', '.join(sorted(tags))}}}")
        for pairs in self.pc_probes:
            rendered = ", ".join(f"{p}/{c}" for p, c in sorted(pairs))
            lines.append(f"pc pair in {{{rendered}}}")
        for pairs in self.ad_probes:
            rendered = ", ".join(f"{a}//{d}" for a, d in sorted(pairs))
            lines.append(f"ad pair in {{{rendered}}}")
        for probe in self.value_probes:
            where = (
                f"under {{{', '.join(sorted(probe.tags))}}}"
                if probe.tags
                else "anywhere"
            )
            extra = (
                f" + terms within epsilon of {probe.similar_to!r}"
                if probe.similar_to is not None
                else ""
            )
            lines.append(
                f"node[{probe.label}] {where}: one of {len(probe.values)} "
                f"indexed value(s){extra}"
            )
        if not lines:
            lines.append("no indexable probes (index restricts nothing)")
        return lines


def describe_verify_strategy(join: bool = False) -> str:
    """One ``explain`` line naming the verification strategy: the
    set-oriented columnar scan and, for joins, late product
    materialisation.  A resource guard never changes it, only what is
    charged."""
    if join:
        return "verify: set-oriented batch over columns, late-materialized products"
    return "verify: set-oriented batch over columnar rows"


def has_semantic_atom(condition: Condition) -> bool:
    """True when any ``~``/ontology atom occurs anywhere in the condition."""
    if isinstance(condition, _SemanticAtom):
        return True
    if isinstance(condition, (And, Or)):
        return any(has_semantic_atom(op) for op in condition.operands)
    if isinstance(condition, Not):
        return has_semantic_atom(condition.operand)
    return False


def _conjuncts(condition: Condition):
    if isinstance(condition, And):
        for operand in condition.operands:
            yield from _conjuncts(operand)
    else:
        yield condition


def _content_equality(atom: Comparison) -> Optional[Tuple[int, str]]:
    """(label, value) for ``content = constant`` in either orientation."""
    if atom.op != "=":
        return None
    left, right = atom.left, atom.right
    if isinstance(left, NodeContent) and isinstance(right, Constant):
        return (left.label, right.value)
    if isinstance(right, NodeContent) and isinstance(left, Constant):
        return (right.label, left.value)
    return None


def _exact_fallback_values(atom: _SemanticAtom) -> Optional[FrozenSet[str]]:
    """The degraded-mode value set of a constant-sided semantic atom.

    Under :class:`~repro.core.conditions.ExactFallbackContext` every
    semantic operator collapses to string equality except ``instance_of``
    which is always false — the empty probe, pruning to no documents,
    exactly as the scan path verifies to no results.
    """
    from .conditions import InstanceOf

    if not isinstance(atom.right, Constant):
        return None
    if isinstance(atom, InstanceOf):
        return frozenset()
    return frozenset({atom.right.value})


def build_plan_spec(
    pattern: PatternTree,
    condition: Condition,
    context: Optional[SeoConditionContext],
    exact_fallback: bool,
) -> PlanSpec:
    """Derive index probes from a pattern and its *original* condition.

    Returns a non-prunable spec when pruning could change observable
    behaviour: with no SEO context and no exact fallback, a semantic atom
    makes the scan path raise — an empty pruned set would silently mask
    that, so the planner steps aside.
    """
    if context is None and not exact_fallback and has_semantic_atom(condition):
        return PlanSpec(
            prunable=False,
            reason="semantic atoms require an SEO context",
        )

    tags = required_tags(condition)
    spec = PlanSpec(prunable=True)

    for label in pattern.labels():
        restriction = tags.get(label)
        if restriction:
            spec.tag_probes.append(frozenset(restriction))
        node = pattern.node(label)
        if node.parent is None:
            continue
        parent_restriction = tags.get(node.parent)
        if not restriction or not parent_restriction:
            continue
        if len(restriction) * len(parent_restriction) > MAX_PAIR_COMBINATIONS:
            continue
        pairs = frozenset(
            (parent_tag, child_tag)
            for parent_tag in parent_restriction
            for child_tag in restriction
        )
        if node.edge == AD:
            spec.ad_probes.append(pairs)
        else:
            spec.pc_probes.append(pairs)

    for conjunct in _conjuncts(condition):
        if isinstance(conjunct, Comparison):
            pair = _content_equality(conjunct)
            if pair is not None:
                label, value = pair
                spec.value_probes.append(
                    ValuesProbe(label, _tags_of(tags, label), frozenset({value}))
                )
            continue
        if isinstance(conjunct, Or):
            probe = _or_equality_probe(conjunct, tags)
            if probe is not None:
                spec.value_probes.append(probe)
            continue
        if isinstance(conjunct, _SemanticAtom):
            if not isinstance(conjunct.left, NodeContent):
                continue  # tag-side atoms are left to verification
            label = conjunct.left.label
            if context is not None:
                try:
                    expansion = _expansion_for(conjunct, context)
                except ConditionError:
                    continue  # e.g. part_of with no attached SEO
                if expansion is None:
                    continue  # node-to-node atom: no constant to expand
                spec.value_probes.append(
                    ValuesProbe(
                        label,
                        _tags_of(tags, label),
                        expansion,
                        similar_to=(
                            conjunct.right.value
                            if isinstance(conjunct, SimilarTo)
                            else None
                        ),
                    )
                )
            elif exact_fallback:
                values = _exact_fallback_values(conjunct)
                if values is not None:
                    spec.value_probes.append(
                        ValuesProbe(label, _tags_of(tags, label), values)
                    )
            continue
        # Anything else (negation, typed/numeric comparisons, contains,
        # mixed disjunctions) is not probed: skipping only weakens pruning.

    return spec


def _tags_of(tags: Dict[int, Set[str]], label: int) -> Optional[FrozenSet[str]]:
    restriction = tags.get(label)
    return frozenset(restriction) if restriction else None


def _or_equality_probe(
    disjunction: Or, tags: Dict[int, Set[str]]
) -> Optional[ValuesProbe]:
    """A union probe for ``Or`` of content equalities over one label."""
    values: Set[str] = set()
    labels: Set[int] = set()
    for operand in disjunction.operands:
        if not isinstance(operand, Comparison):
            return None
        pair = _content_equality(operand)
        if pair is None:
            return None
        labels.add(pair[0])
        values.add(pair[1])
    if len(labels) != 1:
        return None
    label = labels.pop()
    return ValuesProbe(label, _tags_of(tags, label), frozenset(values))


def prune_candidates(
    spec: PlanSpec,
    index: CollectionSearchIndex,
    guard: Optional[ResourceGuard] = None,
    seo: Optional[SimilarityEnhancedOntology] = None,
) -> Set[str]:
    """Intersect the spec's probes over the index into a document set.

    Every postings entry decoded counts against the guard's step budget
    (``what="index probe"``), so guarded queries stay bounded on the fast
    path too.  ``seo`` enables the ``~`` distance augmentation; without
    it, ``similar_to`` probes use only their expansion values.
    """
    docs: Set[str] = set(index.documents)
    tracer = current_tracer()
    probes_run = 0

    def tick(steps: int) -> None:
        if guard is not None:
            guard.tick(steps, what="index probe")

    with tracer.span("planner.prune", docs_in=len(docs)):
        for tag_set in spec.tag_probes:
            if not docs:
                break
            matched = index.docs_with_any_tag(tag_set)
            tick(1 + len(tag_set))
            probes_run += 1
            METRICS.counter("planner.probes.tag").inc()
            docs &= matched
        for pairs in spec.pc_probes:
            if not docs:
                break
            tick(1 + len(pairs))
            probes_run += 1
            METRICS.counter("planner.probes.pc").inc()
            docs &= index.docs_with_pc_pair(pairs)
        for pairs in spec.ad_probes:
            if not docs:
                break
            tick(1 + len(pairs))
            probes_run += 1
            METRICS.counter("planner.probes.ad").inc()
            docs &= index.docs_with_ad_pair(pairs)

        for probe in spec.value_probes:
            if not docs:
                break
            matched: Set[str] = set()
            probes_run += 1
            METRICS.counter("planner.probes.value").inc()
            for value in probe.values:
                hits = index.docs_with_term(value, probe.tags)
                tick(1 + len(hits))
                matched |= hits
            if probe.similar_to is not None and seo is not None:
                # The SEO's similarity falls back to bounded edit distance
                # when either operand is outside the ontology, so terms the
                # expansion cannot enumerate may still verify: scan every
                # indexed term not already covered and not in the ontology.
                METRICS.counter("planner.probes.distance_scan").inc()
                constant = probe.similar_to
                epsilon = seo.epsilon
                measure = seo.measure
                for term, term_docs in index.terms_with_tags(probe.tags).items():
                    if term in probe.values or term in seo:
                        continue
                    tick(1)
                    if measure.bounded_distance(term, constant, epsilon) <= epsilon:
                        matched |= term_docs
            docs &= matched
        tracer.annotate(docs_out=len(docs), probes=probes_run)

    return docs


# ---------------------------------------------------------------------------
# Cross-side join pruning
# ---------------------------------------------------------------------------


def find_cross_probe(
    condition: Condition,
    left_labels: Set[int],
    right_labels: Set[int],
    context: Optional[SeoConditionContext],
    exact_fallback: bool,
) -> Optional[CrossProbe]:
    """The first top-level cross-side content conjunct, as a probe.

    ``~`` needs an SEO to probe (under exact fallback it degrades to
    equality, matching the degraded verification); plain ``=`` works in
    any mode.  Returns None when no such conjunct exists — per-side
    pruning still applies, only the cross-side step is skipped.
    """
    tags = required_tags(condition)
    for atom in _conjuncts(condition):
        is_similar = isinstance(atom, SimilarTo)
        is_equal = isinstance(atom, Comparison) and atom.op == "="
        if not is_similar and not is_equal:
            continue
        if not isinstance(atom.left, NodeContent) or not isinstance(
            atom.right, NodeContent
        ):
            continue
        if is_similar and context is None and not exact_fallback:
            continue
        kind = "similar" if is_similar and context is not None else "equal"
        left_label, right_label = atom.left.label, atom.right.label
        if left_label in right_labels and right_label in left_labels:
            left_label, right_label = right_label, left_label
        if left_label not in left_labels or right_label not in right_labels:
            continue
        return CrossProbe(
            kind=kind,
            left_label=left_label,
            right_label=right_label,
            left_tags=_tags_of(tags, left_label),
            right_tags=_tags_of(tags, right_label),
        )
    return None


def prune_join_docs(
    left_index: CollectionSearchIndex,
    right_index: CollectionSearchIndex,
    probe: CrossProbe,
    seo: Optional[SimilarityEnhancedOntology],
    guard: Optional[ResourceGuard] = None,
    memo: Optional[LruCache] = None,
    memo_key: Optional[Hashable] = None,
) -> Tuple[Set[str], Set[str]]:
    """Documents on each side that can participate in the cross conjunct.

    Works over *distinct terms* rather than candidate pairs, at index
    granularity, before any XPath runs.  A document survives iff one of
    its indexed values (under the probe's tags) has a partner on the
    other side; the semantics mirror ``seo.similar`` exactly (shared
    node for known pairs, bounded edit distance otherwise), so every
    verifiable pair's documents survive.  Terms outside the ontology go
    through :func:`~repro.similarity.candidates.similar_pairs`, so the
    measure runs on the pairs that survive the length and bigram-count
    filters, not on every length-compatible pair.

    The probe is a pure function of the two indexes, the probe spec and
    the SEO, so with ``memo`` the result is kept under ``memo_key``
    together with the guard ticks the cold probe charged; a hit replays
    them (:func:`~repro.guard.replay_ticks`), which leaves a guard
    exactly where the cold probe would — including the step it trips on.
    """
    tracer = current_tracer()
    METRICS.counter("planner.probes.cross").inc()
    with tracer.span("planner.cross_probe", kind=probe.kind):
        cached = memo.get(memo_key) if memo is not None else None
        if cached is not None:
            left_docs, right_docs, runs = cached
            if guard is not None:
                replay_ticks(guard, runs)
            stats = BlockStats()
        else:
            ticks = TickRecorder(guard)
            left_docs, right_docs, stats = _cross_probe(
                left_index, right_index, probe, seo, ticks
            )
            if memo is not None:
                memo.put(memo_key, (left_docs, right_docs, ticks.runs))
        METRICS.counter("planner.cross_probe.pairs").inc(stats.length_compatible)
        METRICS.counter("planner.cross_probe.verified").inc(stats.candidates)
        tracer.annotate(
            memo_hit=cached is not None,
            pairs=stats.length_compatible,
            verified=stats.candidates,
        )
    # Copies: callers intersect the sets in place.
    return set(left_docs), set(right_docs)


def _cross_probe(
    left_index: CollectionSearchIndex,
    right_index: CollectionSearchIndex,
    probe: CrossProbe,
    seo: Optional[SimilarityEnhancedOntology],
    ticks: TickRecorder,
) -> Tuple[Set[str], Set[str], BlockStats]:
    """The cold cross probe: (left documents, right documents, counts)."""
    left_terms = left_index.terms_with_tags(probe.left_tags)
    right_terms = right_index.terms_with_tags(probe.right_tags)
    tick = ticks.tick
    tick(len(left_terms) + len(right_terms), "index probe")

    left_docs: Set[str] = set()
    right_docs: Set[str] = set()

    def keep(term: str, other: str) -> None:
        left_docs.update(left_terms[term])
        right_docs.update(right_terms[other])

    if probe.kind == "equal":
        for term in left_terms:
            tick(1, "index probe")
            if term in right_terms:
                keep(term, term)
        return left_docs, right_docs, BlockStats()

    assert seo is not None
    known_right = [term for term in right_terms if term in seo]
    unknown_left: List[str] = []
    for term in left_terms:
        if term in seo:
            # Fused SEO terms can be similar at arbitrary distance, so
            # known terms consult the ontology against every partner.
            for other in right_terms:
                tick(1, "index probe")
                if seo.similar(term, other):
                    keep(term, other)
            continue
        unknown_left.append(term)
        for other in known_right:
            tick(1, "index probe")
            if seo.similar(term, other):
                keep(term, other)
    unknown_right = [term for term in right_terms if term not in seo]
    matches, stats = similar_pairs(
        unknown_left,
        bipartite_index(unknown_right, seo.measure, seo.epsilon),
        seo.measure,
        ticks,
        what="index probe",
    )
    for term, other in matches:
        keep(term, other)
    return left_docs, right_docs, stats
