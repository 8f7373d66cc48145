"""Index-aware candidate pruning for the Query Executor.

Without pruning, the executor's fetch hands the pattern root's rows of
*every* document to TAX verification.  This module derives, from the
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

Soundness is argued against *verified* results: a verified embedding
satisfies every top-level conjunct through exact ``node.text``/
``node.tag`` facts (or, for ``~``, the SEO's similarity including its
edit-distance fallback), and the postings record exactly those facts.
A probed document set therefore contains every document any verified
result comes from, and fetching only it — in collection order — returns
results identical to the full scan.

Whenever an atom is not indexable it is simply skipped (the probe set
gets weaker, never wrong); when the whole condition cannot be pruned
safely — a semantic atom the context cannot expand (plain TAX), where
the scan path must raise — :func:`build_plan_spec` refuses and the
executor falls back to the full scan.

Sometimes the probes are also *sufficient*: :func:`exact_tags` proves,
once per plan, that a selection's probes decide every conjunct, so a
kept document holding one row of each pattern tag answers through its
root row without verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..guard import ResourceGuard, TickRecorder, replay_ticks
from ..lru import LruCache
from ..obs.metrics import REGISTRY as METRICS
from ..obs.trace import current_tracer
from ..similarity.candidates import BlockStats, bipartite_index, similar_pairs
from ..similarity.seo import SimilarityEnhancedOntology
from ..tax.conditions import (
    UNDECIDED,
    And,
    Comparison,
    Condition,
    ConditionContext,
    Constant,
    NodeContent,
    Not,
    Or,
    _tag_equality,
    required_tags,
)
from ..tax.pattern import AD, PatternTree
from ..xmldb.index import CollectionSearchIndex
from .conditions import SimilarTo, _SemanticAtom, expansions_read

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


class CrossMatch(NamedTuple):
    """What a cross probe found: each side's documents and the term pairs.

    ``pairs`` maps every left term (under the probe's left tags) that has
    a partner to the right terms it matches.  All three may be shared
    with the memo: treat them as read-only.
    """

    left_docs: FrozenSet[str]
    right_docs: FrozenSet[str]
    pairs: Mapping[str, FrozenSet[str]]


@dataclass
class PlanSpec:
    """The pruning plan for one pattern (or one join side)."""

    prunable: bool
    reason: str = ""
    tag_probes: List[FrozenSet[str]] = field(default_factory=list)
    pc_probes: List[FrozenSet[Tuple[str, str]]] = field(default_factory=list)
    ad_probes: List[FrozenSet[Tuple[str, str]]] = field(default_factory=list)
    value_probes: List[ValuesProbe] = field(default_factory=list)

    @cached_property
    def structure(self) -> Tuple[Tuple[str, FrozenSet], ...]:
        """The structural probes in intersection order: tag, then pc,
        then ad (:meth:`~repro.xmldb.index.CollectionSearchIndex.structure`)."""
        return (
            tuple(("tag", entries) for entries in self.tag_probes)
            + tuple(("pc", entries) for entries in self.pc_probes)
            + tuple(("ad", entries) for entries in self.ad_probes)
        )

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


def describe_verify_strategy(
    join: bool = False, exact: Optional[Tuple[str, ...]] = None
) -> str:
    """One ``explain`` line naming the verification strategy: the
    set-oriented columnar scan, for joins late product materialisation,
    and for an index-exact selection (:func:`exact_tags`) the booking of
    a witnessed document's root row.  A resource guard never changes it,
    only what is charged."""
    if join:
        return "verify: set-oriented batch over columns, late-materialized products"
    if exact is not None:
        return (
            f"verify: index-exact, a document with one row per tag in "
            f"{{{', '.join(exact)}}} books its root row unscanned; "
            f"any other candidate runs the set-oriented batch over columnar rows"
        )
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


def build_plan_spec(
    pattern: PatternTree,
    condition: Condition,
    context: ConditionContext,
) -> PlanSpec:
    """Derive index probes from a pattern and its *original* condition.

    Returns a non-prunable spec when pruning could change observable
    behaviour: a semantic atom whose expansion the context cannot say
    (plain TAX) makes the scan path raise — an empty pruned set would
    silently mask that, so the planner steps aside.  Raises
    :class:`~repro.errors.ConditionError` where the SEO rewrite would.
    """
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
        # Each semantic atom is asked once: a top-level one for its probe
        # values, a nested one (no probe) only whether the context can say.
        if isinstance(conjunct, _SemanticAtom):
            values = context.expansion(conjunct)
            undecided = values is UNDECIDED
        else:
            values = None
            undecided = has_semantic_atom(conjunct) and UNDECIDED in expansions_read(
                conjunct, context
            )
        if undecided:
            return PlanSpec(
                prunable=False,
                reason="semantic atoms require an SEO context",
            )
        if isinstance(conjunct, Or):
            probe = _or_equality_probe(conjunct, tags)
            if probe is not None:
                spec.value_probes.append(probe)
            continue
        if values is not None and isinstance(conjunct.left, NodeContent):
            # A constant-sided atom over content (tag-side atoms are
            # left to verification).
            label = conjunct.left.label
            spec.value_probes.append(
                ValuesProbe(
                    label,
                    _tags_of(tags, label),
                    values,
                    similar_to=(
                        conjunct.right.value
                        if isinstance(conjunct, SimilarTo)
                        and context.similar_probe == "similar"
                        else None
                    ),
                )
            )
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


def exact_tags(
    pattern: PatternTree,
    condition: Condition,
    spec: PlanSpec,
    context: ConditionContext,
) -> Optional[Tuple[str, ...]]:
    """The pattern's tags, root first, when ``spec`` decides a selection.

    Holds when every label is restricted to exactly one tag, the tags are
    pairwise distinct, every ``pc`` / ``ad`` edge has its pair probe, and
    every top-level conjunct is a tag equality, a content equality (or a
    one-label or-chain of them) or a constant-sided ``below`` /
    ``subtype_of`` / ``instance_of`` / ``above`` / ``part_of`` under a
    context that is not degraded — each has a value probe whose term set
    is exactly what the evaluator accepts.  Anything else (``~``, whose
    probe adds a distance scan, ``Not``, ordering, typed and ``contains``
    atoms, cross-label atoms) returns None.

    What it proves: in a kept document holding *one* row of each tag,
    the facts the probes intersected are facts about those rows, so they
    form the only embedding and its root row is the answer.  The
    document-level witness is the caller's (:func:`repro.tax.batch.
    selection_batched`): a document with two root-tag rows passes the
    probes through one of them and may not be answered through the other.
    """
    if not spec.prunable:
        return None
    restrictions = required_tags(condition)
    tags: Dict[int, str] = {}
    # Root first: labels are in insertion order, which is parent-first.
    for label in pattern.labels():
        restriction = restrictions.get(label)
        if restriction is None or len(restriction) != 1:
            return None
        (tags[label],) = restriction
        node = pattern.node(label)
        if node.parent is None:
            continue
        pair = frozenset({(tags[node.parent], tags[label])})
        if pair not in (spec.ad_probes if node.edge == AD else spec.pc_probes):
            return None
    if len(set(tags.values())) != len(tags):
        return None
    if not condition.labels() <= tags.keys():
        return None  # verify raises on a label the pattern does not bind
    for conjunct in _conjuncts(condition):
        if not _probe_decides(conjunct, restrictions, context):
            return None
    return tuple(tags.values())


def _probe_decides(
    conjunct: Condition,
    tags: Dict[int, Set[str]],
    context: ConditionContext,
) -> bool:
    """True when a value or tag probe accepts exactly what ``conjunct`` does.

    A degraded context's answers stand in for semantic ones: its semantic
    atoms are always verified, never booked."""
    if isinstance(conjunct, Comparison):
        return conjunct.op == "=" and (
            _tag_equality(conjunct) is not None
            or _content_equality(conjunct) is not None
        )
    if isinstance(conjunct, Or):
        return _or_equality_probe(conjunct, tags) is not None
    if (
        context.degraded
        or not isinstance(conjunct, _SemanticAtom)
        or isinstance(conjunct, SimilarTo)
        or not isinstance(conjunct.left, NodeContent)
    ):
        return False
    return context.expansion(conjunct) is not None


def prune_candidates(
    spec: PlanSpec,
    index: CollectionSearchIndex,
    guard: Optional[ResourceGuard] = None,
    seo: Optional[SimilarityEnhancedOntology] = None,
    memo: Optional[LruCache] = None,
    memo_key: Hashable = None,
) -> AbstractSet[str]:
    """Intersect the spec's probes over the index into a document set.

    Every postings entry decoded counts against the guard's step budget
    (``what="index probe"``), so guarded queries stay bounded on the fast
    path too.  ``seo`` enables the ``~`` distance augmentation; without
    it, ``similar_to`` probes use only their expansion values.

    Two memos keep a repeated probe from walking the collection.  The
    structural intersection lives in the index (:meth:`~repro.xmldb.
    index.CollectionSearchIndex.structure`: the tag, then pc, then ad
    probes intersect from every indexed document, stopping at the
    first empty intersection), and with ``memo`` the off-ontology
    residue a ``~`` probe scans is kept under ``memo_key`` plus the
    probe's tags (:func:`_residue`).
    Both charge the guard exactly what the walk they replace charged.
    The returned set may be shared with a memo: treat it as read-only.
    """
    tracer = current_tracer()

    def tick(steps: int) -> None:
        if guard is not None:
            guard.tick(steps, what="index probe")

    with tracer.span("planner.prune", docs_in=len(index)):
        docs, probes_run, structure_hit = index.structure(spec.structure)
        for kind, entries in spec.structure[:probes_run]:
            tick(1 + len(entries))
            METRICS.counter(f"planner.probes.{kind}").inc()
        residue_terms = 0

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
                # indexed term outside the ontology not already covered.
                METRICS.counter("planner.probes.distance_scan").inc()
                constant = probe.similar_to
                epsilon = seo.epsilon
                measure = seo.measure
                for term, term_docs in _residue(index, probe.tags, seo, memo, memo_key):
                    if term in probe.values:
                        continue
                    tick(1)
                    residue_terms += 1
                    if measure.bounded_distance(term, constant, epsilon) <= epsilon:
                        matched |= term_docs
            docs = docs & matched
        tracer.annotate(
            docs_out=len(docs),
            probes=probes_run,
            residue_terms=residue_terms,
            structure_memo_hit=structure_hit,
        )

    return docs


def _residue(
    index: CollectionSearchIndex,
    tags: Optional[FrozenSet[str]],
    seo: SimilarityEnhancedOntology,
    memo: Optional[LruCache],
    memo_key: Hashable,
) -> Sequence[Tuple[str, FrozenSet[str]]]:
    """The indexed ``(term, documents)`` pairs under ``tags`` outside the
    SEO, in index order: what a ``~`` probe's distance scan examines.

    Memoised in ``memo`` under ``(memo_key, tags)`` when given; the
    caller's ``memo_key`` names everything else the residue depends on.
    """
    key = (memo_key, tags)
    residue = memo.get(key) if memo is not None else None
    if residue is None:
        residue = tuple(
            (term, docs)
            for term, docs in index.terms_with_tags(tags).items()
            if term not in seo
        )
        if memo is not None:
            memo.put(key, residue)
    return residue


# ---------------------------------------------------------------------------
# Cross-side join pruning
# ---------------------------------------------------------------------------


def find_cross_probes(
    condition: Condition,
    left_labels: Set[int],
    right_labels: Set[int],
    context: ConditionContext,
) -> Tuple[CrossProbe, ...]:
    """Every top-level cross-side content conjunct, as a probe, in order.

    ``~`` probes as the context's :attr:`~repro.tax.conditions.
    ConditionContext.similar_probe` says (``"equal"`` under the exact
    fallback, matching the degraded verification; not at all under plain
    TAX); plain ``=`` works in any context.  Empty when no such conjunct
    exists — per-side pruning still applies, only the cross-side step is
    skipped.
    """
    tags = required_tags(condition)
    probes: List[CrossProbe] = []
    for atom in _conjuncts(condition):
        is_similar = isinstance(atom, SimilarTo)
        is_equal = isinstance(atom, Comparison) and atom.op == "="
        if not is_similar and not is_equal:
            continue
        if not isinstance(atom.left, NodeContent) or not isinstance(
            atom.right, NodeContent
        ):
            continue
        kind = context.similar_probe if is_similar else "equal"
        if kind is None:
            continue
        left_label, right_label = atom.left.label, atom.right.label
        if left_label in right_labels and right_label in left_labels:
            left_label, right_label = right_label, left_label
        if left_label not in left_labels or right_label not in right_labels:
            continue
        probes.append(
            CrossProbe(
                kind=kind,
                left_label=left_label,
                right_label=right_label,
                left_tags=_tags_of(tags, left_label),
                right_tags=_tags_of(tags, right_label),
            )
        )
    return tuple(probes)


def prune_join_docs(
    left_index: CollectionSearchIndex,
    right_index: CollectionSearchIndex,
    probe: CrossProbe,
    seo: Optional[SimilarityEnhancedOntology],
    guard: Optional[ResourceGuard] = None,
    memo: Optional[LruCache] = None,
    memo_key: Optional[Hashable] = None,
) -> CrossMatch:
    """Documents on each side that can participate in the cross conjunct,
    and the matched term pairs behind them.

    Works over *distinct terms* rather than candidate pairs, at index
    granularity, before any candidate is fetched.  A document survives
    iff one of its indexed values (under the probe's tags) has a partner
    on the other side; the semantics mirror ``seo.similar`` exactly (shared
    node for known pairs, bounded edit distance otherwise), so every
    verifiable pair's documents survive, and every term pair ``seo.similar``
    accepts is in ``pairs`` — the join's pair filter reads it.  Terms
    outside the ontology go through :func:`~repro.similarity.candidates.
    similar_pairs`, so the measure runs on the pairs that survive the
    length and bigram-count filters, not on every length-compatible pair.

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
            match, runs = cached
            if guard is not None:
                replay_ticks(guard, runs)
            stats = BlockStats()
        else:
            ticks = TickRecorder(guard)
            match, stats = _cross_probe(left_index, right_index, probe, seo, ticks)
            if memo is not None:
                memo.put(memo_key, (match, ticks.runs))
        METRICS.counter("planner.cross_probe.pairs").inc(stats.length_compatible)
        METRICS.counter("planner.cross_probe.verified").inc(stats.candidates)
        tracer.annotate(
            memo_hit=cached is not None,
            pairs=stats.length_compatible,
            verified=stats.candidates,
        )
    return match


def _cross_probe(
    left_index: CollectionSearchIndex,
    right_index: CollectionSearchIndex,
    probe: CrossProbe,
    seo: Optional[SimilarityEnhancedOntology],
    ticks: TickRecorder,
) -> Tuple[CrossMatch, BlockStats]:
    """The cold cross probe: (what it matched, counts)."""
    left_terms = left_index.terms_with_tags(probe.left_tags)
    right_terms = right_index.terms_with_tags(probe.right_tags)
    ticks.tick(len(left_terms) + len(right_terms), "index probe")
    pairs, stats = _term_pairs(left_terms, right_terms, probe, seo, ticks)
    left_docs: Set[str] = set()
    for term in pairs:
        left_docs |= left_terms[term]
    right_docs: Set[str] = set()
    for other in set().union(*pairs.values()):
        right_docs |= right_terms[other]
    frozen = {term: frozenset(others) for term, others in pairs.items()}
    return CrossMatch(frozenset(left_docs), frozenset(right_docs), frozen), stats


def _term_pairs(
    left_terms: Mapping[str, FrozenSet[str]],
    right_terms: Mapping[str, FrozenSet[str]],
    probe: CrossProbe,
    seo: Optional[SimilarityEnhancedOntology],
    ticks: TickRecorder,
) -> Tuple[Dict[str, Set[str]], BlockStats]:
    """Each left term with a partner -> the right terms it matches."""
    tick = ticks.tick
    pairs: Dict[str, Set[str]] = {}
    if probe.kind == "equal":
        for term in left_terms:
            tick(1, "index probe")
            if term in right_terms:
                pairs[term] = {term}
        return pairs, BlockStats()

    def keep(term: str, other: str) -> None:
        pairs.setdefault(term, set()).add(other)

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
    return pairs, stats
