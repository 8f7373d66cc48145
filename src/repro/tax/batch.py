"""Set-oriented (batched) verification over columnar document arrays.

The per-candidate verify path re-enumerates pattern embeddings with
:func:`repro.tax.embedding.find_embeddings`, which walks
:class:`~repro.xmldb.model.XmlNode` trees and rebuilds per-tree tag
buckets for every candidate.  This module runs the *same* backtracking
search over a collection's cached
:class:`~repro.xmldb.columnar.DocumentColumns` instead: candidate pools
become interval lookups on prebuilt per-tag row lists, set-semantics
dedupe runs on cached subtree keys *before* any output tree exists, and
join verification decides candidate pairs over the two sides' columns
without building product trees.  An answer that is a source subtree (or
the product of two) stays a row reference in a :class:`ResultRows`
until a caller reads it: its text comes from the columns' per-row text
memo, and a tree is materialised only when one is asked for.

Equivalence contract (the property suite pins it): for every entry, the
batched enumeration visits candidate rows in exactly the order
``find_embeddings`` visits the corresponding nodes and calls the
condition evaluator at exactly the same points — so verdicts, result
sequences and ontology-access counts are bit-identical to the
per-candidate path.  The one exception: an entry an index-exact
selection books (:func:`selection_batched`'s ``exact_tags``) is not
enumerated, so it calls no evaluator and asks the ontology nothing.  The
structural walks a join repeats — a side's embeddings in a document, a
side entry's group lists — are memoised on the document's columns per
pattern shape (:func:`_structural_matches`), and the evaluator replays
over them at the same points, in the same order; it leaves out the tag
atoms the candidate pools already enforce, which can only pass.  A
resource guard is charged by these operators themselves, a chunk of
candidates per call, at exactly the one-candidate-at-a-time price
(:class:`_Verification`); guarded and unguarded queries run the same
code.

An entry is ``(columns, row)``; ``columns.nodes[row]`` is the candidate
node itself, so evaluators see the *original* document nodes.  All three
operators run one :class:`VerifyProgram`, compiled once per cached plan;
the same program picks the executor's candidate rows
(:meth:`VerifyProgram.root_rows`, :meth:`VerifyProgram.anchored_rows`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..guard import CHECK_INTERVAL, ResourceGuard
from ..obs.metrics import REGISTRY as METRICS
from ..xmldb.columnar import DocumentColumns
from ..xmldb.model import XmlNode
from ..xmldb.serializer import serialize
from .algebra import PRODUCT_ROOT_TAG, ConditionEvaluator
from .compile import (
    BatchStep,
    _always_true,
    _uses_base_compare,
    compile_batch_steps,
    compile_condition,
    without_pool_tags,
)
from .conditions import ConditionContext, required_tags
from .embedding import Embedding, witness_tree
from .pattern import PC, PatternTree

#: A batched-verify candidate: row ``row`` of a document's columns.
Entry = Tuple[DocumentColumns, int]

#: The shared stand-in for a product root during virtual-product
#: enumeration.  Conditions only ever read ``tag``/``content`` of bound
#: nodes, and a freshly built product root always has tag
#: ``tax_prod_root`` and empty content — one instance serves every pair.
_VIRTUAL_ROOT = XmlNode(PRODUCT_ROOT_TAG)

#: One answer of a verify stage: ``(columns, row)`` is a source subtree,
#: ``(lcols, l_row, rcols, r_row)`` the product of two, and an
#: :class:`XmlNode` a witness tree the stage had to build.
ResultRef = Union[
    Tuple[DocumentColumns, int],
    Tuple[DocumentColumns, int, DocumentColumns, int],
    XmlNode,
]

_PRODUCT_OPEN = f"<{PRODUCT_ROOT_TAG}>"
_PRODUCT_CLOSE = f"</{PRODUCT_ROOT_TAG}>"


class ResultRows(Sequence[XmlNode]):
    """A verify stage's answers, kept as row references until read.

    :meth:`texts` is the wire form: every answer's compact serialisation,
    read from the columns' per-row text memo without building a tree (a
    product's text is its root's tags around the two sides' texts).  The
    first index or iteration materialises every answer once — numbered
    exactly as an eager copy (a subtree from pre 0; a product root over
    both subtrees) — and keeps the trees, bumping
    ``tax.results.materialized`` by the number it built.
    """

    __slots__ = ("_refs", "_trees", "built", "booked", "recorded")

    def __init__(
        self, refs: List[ResultRef], built: int = 0, booked: int = 0, recorded: int = 0
    ) -> None:
        self._refs = refs
        self._trees: Optional[List[XmlNode]] = None
        #: How many answers exist as trees: the witnesses the verify
        #: stage built, or all of them once materialised.
        self.built = built
        #: Candidates an index-exact selection booked without a scan.
        self.booked = booked
        #: Booking records the selection built (documents it met first).
        self.recorded = recorded

    def __len__(self) -> int:
        return len(self._refs)

    def __getitem__(self, index):
        return self.trees()[index]

    def __iter__(self) -> Iterator[XmlNode]:
        return iter(self.trees())

    def texts(self) -> List[str]:
        """Every answer's compact serialisation; materialises nothing."""
        texts: List[str] = []
        append = texts.append
        for ref in self._refs:
            if type(ref) is not tuple:
                append(serialize(ref))
            elif len(ref) == 2:
                # The columns' text memo inline: a hit calls no function.
                cols, row = ref
                text = cols.subtree_texts.get(row)
                append(cols.subtree_text(row) if text is None else text)
            else:
                lcols, l_row, rcols, r_row = ref
                append(
                    _PRODUCT_OPEN
                    + lcols.subtree_text(l_row)
                    + rcols.subtree_text(r_row)
                    + _PRODUCT_CLOSE
                )
        return texts

    def trees(self) -> List[XmlNode]:
        """The answers as trees, materialised on the first call."""
        if self._trees is None:
            trees: List[XmlNode] = []
            for ref in self._refs:
                if type(ref) is not tuple:
                    trees.append(ref)
                elif len(ref) == 2:
                    trees.append(ref[0].materialize(ref[1]))
                else:
                    trees.append(_materialize_product(*ref))
            self._trees = trees
            METRICS.counter("tax.results.materialized").inc(len(trees) - self.built)
            self.built = len(trees)
        return self._trees


class _Verification:
    """One verify stage: its guard accounting and its set-semantics results.

    The guard contract is one ``"result verification"`` step per
    candidate (document or probed pair), taken before the candidate's
    work, and the result cap checked after every candidate against the
    running total of each candidate's *own* distinct results.
    :meth:`candidates` keeps it at one guard call per chunk of
    :data:`~repro.guard.CHECK_INTERVAL` (the deadline's stride): a chunk
    never reaches past the step budget, so it is charged in arrears —
    when it ends, or when the result cap trips inside it — and a spent
    budget raises before the next candidate's work, on the same step
    with the same message as single ticks.  Nothing else ticks during
    verification, so the arrears are unobservable.

    Results are kept on first occurrence of their canonical key —
    exactly :func:`~repro.tax.tree.dedupe` over every candidate's output.
    A canonical key is a deep tuple, and a tuple does not cache its
    hash, so :attr:`seen` maps a key's hash to the first key with that
    hash: a booked candidate (:func:`selection_batched`) brings its
    hash from its booking record, and keys compare in full only when
    their hashes are equal.  A later key equal in hash but not in value
    goes to :attr:`clashes`.
    """

    __slots__ = ("guard", "cap", "count", "started", "seen", "clashes", "out")

    def __init__(self, guard: Optional[ResourceGuard]) -> None:
        self.guard = guard
        self.cap = guard.max_results if guard is not None else None
        self.count = 0
        #: Candidates handed out since the last charge.
        self.started = 0
        self.seen: Dict[int, Tuple] = {}
        self.clashes: Set[Tuple] = set()
        self.out: List = []

    def candidates(self, items: Sequence) -> Iterable:
        """``items`` in order, each charged one verification step."""
        return items if self.guard is None else self._charged(items)

    def _charged(self, items: Sequence) -> Iterable:
        guard = self.guard
        start, total = 0, len(items)
        while start < total:
            room = CHECK_INTERVAL
            if guard.max_steps is not None:
                room = min(room, guard.max_steps - guard.steps)
                if room <= 0:
                    guard.tick(1, "result verification")  # raises: budget spent
            for item in items[start : start + room]:
                self.started += 1
                yield item
            self._charge()
            start += room

    def _charge(self) -> None:
        started, self.started = self.started, 0
        self.guard.tick(started, "result verification")

    def over_cap(self) -> None:
        """Raise the result cap's error (called once ``count > cap``)."""
        self._charge()
        self.guard.check_results(self.count, "query verification")

    def clash(self, key: Tuple) -> bool:
        """Whether ``key``, whose hash an unequal earlier key holds in
        :attr:`seen`, is new."""
        clashes = self.clashes
        if key in clashes:
            return False
        clashes.add(key)
        return True

    def fresh(self, key: Tuple) -> bool:
        """Whether ``key`` occurs for the first time; records it."""
        digest = hash(key)
        seen = self.seen
        prior = seen.get(digest)
        if prior is None:
            seen[digest] = key
            return True
        return prior != key and self.clash(key)

    def candidate_done(self, keyed: Sequence[Tuple[Tuple, object]]) -> None:
        """Book one candidate's ``(canonical key, result)`` pairs."""
        out, fresh = self.out, self.fresh
        if len(keyed) == 1:
            key, result = keyed[0]
            if fresh(key):
                out.append(result)
            self.count += 1
        else:
            own: Set[Tuple] = set()
            for key, result in keyed:
                own.add(key)
                if fresh(key):
                    out.append(result)
            self.count += len(own)
        if self.cap is not None and self.count > self.cap:
            self.over_cap()


# ---------------------------------------------------------------------------
# The verify program
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyProgram:
    """A pattern lowered once for the batched operators.

    Holds the validated pattern (witness assembly reads it), its flat
    step program, the compiled condition evaluator and what the scans
    derive from the steps.  Built by :meth:`compile` once per cached
    query plan and evaluation context; the operators only read it.
    """

    pattern: PatternTree
    steps: Tuple[BatchStep, ...]
    evaluator: ConditionEvaluator
    #: :func:`_root_prune` of the steps.
    root_prune: Tuple
    #: :func:`_is_star` of the steps: scans cross per-root child pools.
    star: bool
    #: :func:`_root_groups` of the steps: the join's factored product.
    groups: Tuple[Tuple[BatchStep, ...], ...]
    #: Each step's ``(label, parent, edge, tags_tuple)`` — everything the
    #: structural walks read — written out once: the key of the columns'
    #: match memo and booking records.  A string caches its hash, so a
    #: per-document memo lookup does not rehash the nested steps.
    shape: str

    @classmethod
    def compile(
        cls, pattern: PatternTree, context: ConditionContext
    ) -> "VerifyProgram":
        """Lower ``pattern`` and compile its condition against ``context``.

        Raises :class:`~repro.errors.ConditionError` for a condition the
        compiler does not know — there is no interpreted fallback.  Under
        the base ``compare`` the evaluator leaves out the tag atoms the
        steps' pools enforce (:func:`~repro.tax.compile.without_pool_tags`):
        every binding a scan produces passes them.
        """
        pattern.validate()
        steps = tuple(compile_batch_steps(pattern, required_tags(pattern.condition)))
        condition = pattern.condition
        if _uses_base_compare(context):
            condition = without_pool_tags(condition, set(pattern.labels()))
        return cls(
            pattern,
            steps,
            compile_condition(condition, context),
            _root_prune(steps),
            _is_star(steps),
            _root_groups(steps),
            repr(tuple(step[:4] for step in steps)),
        )

    def scan(
        self,
        cols: DocumentColumns,
        lo: int,
        hi: int,
        binding: Dict[int, XmlNode],
        rows: Dict[int, int],
        emit: Callable[[], None],
    ) -> None:
        """Call ``emit`` for every satisfying embedding in rows ``[lo, hi)``."""
        if self.star:
            _scan_star(self, cols, lo, hi, binding, rows, emit)
        else:
            _scan(self, cols, _root_pool(self, cols, lo, hi), binding, rows, emit)

    def root_rows(self, cols: DocumentColumns) -> Sequence[int]:
        """The document's rows the pattern root may bind to, ascending.

        The selection fetch: the rows of the root's tag restriction, or,
        for an unrestricted root, the rows :func:`_root_pool`'s child-tag
        prune keeps.  Every embedding's root image is one of them.
        """
        rows = _root_pool(self, cols, 0, len(cols.nodes))
        tags = self.steps[0][3]
        return sorted(rows) if tags is not None and len(tags) > 1 else rows

    def anchored_rows(self, cols: DocumentColumns) -> List[int]:
        """The rows at which the pattern embeds with its root bound to
        the row, ascending — a join side's exact fetch.

        The document's structural embeddings are walked once per pattern
        shape (:func:`_structural_matches`); the evaluator replays over
        them in the scan's order, so it fires at exactly the bindings,
        in exactly the order, a scan of the document fires it.
        """
        matches = _structural_matches(self, cols, None)
        evaluator = self.evaluator
        if evaluator is _always_true:
            return sorted([root for root, _embeddings in matches])
        binding: Dict[int, XmlNode] = {}
        found: List[int] = []
        for root, embeddings in matches:
            hit = False
            for binds in embeddings:
                binding.update(binds)
                if evaluator(binding):
                    hit = True
            if hit:
                found.append(root)
        return sorted(found)


# ---------------------------------------------------------------------------
# Columnar embedding enumeration (single document subtree)
# ---------------------------------------------------------------------------


def _root_prune(steps: Sequence[BatchStep]) -> Tuple:
    """Structural constraints an *unrestricted* root candidate must meet.

    Every pc child step of the root with a tag restriction demands that
    a complete match's root image has at least one child carrying one of
    those tags.  A candidate without one contributes zero complete
    matches — the evaluator never fires on it — so dropping it from the
    root pool is observably identical to scanning it.  Returns ``()``
    when the root is tag-restricted (the per-tag pool is already
    narrow) or no child step constrains it.
    """
    root_label = steps[0][0]
    if steps[0][3] is not None:
        return ()
    return tuple(
        (tags_tuple, tags_set)
        for _label, parent, edge, tags_tuple, tags_set in steps[1:]
        if parent == root_label and edge == PC and tags_tuple is not None
    )


def _is_star(steps: Sequence[BatchStep]) -> bool:
    """True when every non-root step is a pc child of the root."""
    root_label = steps[0][0]
    return all(
        parent == root_label and edge == PC
        for _label, parent, edge, _tt, _ts in steps[1:]
    )


def _root_groups(steps: Sequence[BatchStep]) -> Tuple[Tuple[BatchStep, ...], ...]:
    """The root's child subtrees, each the contiguous run of steps it
    owns in preorder (its head, a child step of the root, first)."""
    root_label = steps[0][0]
    groups: List[List[BatchStep]] = []
    for step in steps[1:]:
        if step[1] == root_label:
            groups.append([step])
        else:
            groups[-1].append(step)
    return tuple(map(tuple, groups))


def _pruned_rows(
    cols: DocumentColumns, lo: int, hi: int, constraints: Tuple
) -> List[int]:
    """Rows of ``[lo, hi)`` satisfying every child-tag constraint, ascending."""
    first_tuple, _first_set = constraints[0]
    if len(first_tuple) == 1:
        rows = cols.rows_with_child_tag(first_tuple[0], lo, hi)
    else:
        merged: List[int] = []
        for tag in first_tuple:
            merged.extend(cols.rows_with_child_tag(tag, lo, hi))
        rows = sorted(set(merged))
    rest = constraints[1:]
    if not rest:
        return rows
    children = cols.children
    tags_col = cols.tags
    out: List[int] = []
    for row in rows:
        child_rows = children[row]
        satisfied = True
        for _tags_tuple, tags_set in rest:
            for child in child_rows:
                if tags_col[child] in tags_set:
                    break
            else:
                satisfied = False
                break
        if satisfied:
            out.append(row)
    return out


def _tagged_rows(
    cols: DocumentColumns, lo: int, hi: int, tags_tuple: Tuple, tags_set: Set[str]
) -> List[int]:
    """Rows of ``[lo, hi)`` carrying one of the tags, in document order."""
    if len(tags_tuple) == 1:
        return cols.tag_rows_in(tags_tuple[0], lo, hi)
    tags_col = cols.tags
    return [x for x in range(lo, hi) if tags_col[x] in tags_set]


def _root_pool(
    program: VerifyProgram, cols: DocumentColumns, lo: int, hi: int
) -> Iterable[int]:
    """The root step's candidate rows in ``[lo, hi)``.

    Per-tag row lists concatenated in restriction-set iteration order, or
    the whole preorder interval when unrestricted, structurally pruned
    through ``program.root_prune`` (see :func:`_root_prune`).
    """
    tags_tuple = program.steps[0][3]
    if tags_tuple is None:
        if program.root_prune:
            return _pruned_rows(cols, lo, hi, program.root_prune)
        return range(lo, hi)
    if len(tags_tuple) == 1:
        return cols.tag_rows_in(tags_tuple[0], lo, hi)
    pool: List[int] = []
    for tag in tags_tuple:
        pool.extend(cols.tag_rows_in(tag, lo, hi))
    return pool


def _scan(
    program: VerifyProgram,
    cols: DocumentColumns,
    pool: Iterable[int],
    binding: Dict[int, XmlNode],
    rows: Dict[int, int],
    emit: Callable[[], None],
) -> None:
    """Backtrack over one document with the root at each row of ``pool``.

    Mirrors ``find_embeddings``'s candidate pools step for step: the
    root pool is :func:`_root_pool` (or one tag's share of it), pc pools
    are the anchor's child rows, ad pools are the anchor's descendant
    interval — all in the same sequence the tree walk produces, so the
    evaluator fires at identical points.
    """
    steps, evaluator = program.steps, program.evaluator
    root_label = steps[0][0]
    nodes = cols.nodes
    for row in pool:
        rows[root_label] = row
        binding[root_label] = nodes[row]
        _extend(steps, 1, cols, binding, rows, evaluator, emit)


def _extend(
    steps: Sequence[BatchStep],
    idx: int,
    cols: DocumentColumns,
    binding: Dict[int, XmlNode],
    rows: Dict[int, int],
    evaluator: ConditionEvaluator,
    emit: Callable[[], None],
) -> None:
    """:func:`_scan`'s backtracking below the root, from step ``idx``."""
    if idx == len(steps):
        if evaluator(binding):
            emit()
        return
    label, parent, edge, tags_tuple, tags_set = steps[idx]
    pool: Iterable[int]
    anchor = rows[parent]
    if edge == PC:
        child_rows = cols.children[anchor]
        if tags_set is None:
            pool = child_rows
        else:
            tags_col = cols.tags
            pool = [c for c in child_rows if tags_col[c] in tags_set]
    elif tags_tuple is None:
        pool = range(anchor + 1, cols.end[anchor])
    else:
        pool = _tagged_rows(cols, anchor + 1, cols.end[anchor], tags_tuple, tags_set)
    # No trailing unbind: every label is rebound before the evaluator or
    # emit can observe the binding (a complete match binds all labels),
    # so stale entries between iterations and entries are unobservable.
    nodes = cols.nodes
    next_idx = idx + 1
    for row in pool:
        rows[label] = row
        binding[label] = nodes[row]
        _extend(steps, next_idx, cols, binding, rows, evaluator, emit)


def _scan_star(
    program: VerifyProgram,
    cols: DocumentColumns,
    lo: int,
    hi: int,
    binding: Dict[int, XmlNode],
    rows: Dict[int, int],
    emit: Callable[[], None],
) -> None:
    """:func:`_scan` specialised for star patterns (root + pc children).

    Every child pool depends only on the bound root, so the pools are
    built once per root candidate and crossed with ``itertools.product``
    — which enumerates combinations in exactly the nested order the
    generic backtracker produces, firing the evaluator at the same
    points.  Saves the per-level recursion and the re-derivation of
    later siblings' pools for every earlier sibling candidate.
    """
    steps, evaluator = program.steps, program.evaluator
    root_label = steps[0][0]
    child_steps = steps[1:]
    child_labels = [step[0] for step in child_steps]
    nodes = cols.nodes
    tags_col = cols.tags
    children = cols.children
    iproduct = itertools.product
    for root_row in _root_pool(program, cols, lo, hi):
        child_rows = children[root_row]
        pools: Optional[List[List[int]]] = []
        for _label, _parent, _edge, _tt, tags_set in child_steps:
            pool = (
                child_rows
                if tags_set is None
                else [c for c in child_rows if tags_col[c] in tags_set]
            )
            if not pool:
                pools = None
                break
            pools.append(pool)
        if pools is None:
            continue
        rows[root_label] = root_row
        binding[root_label] = nodes[root_row]
        for combo in iproduct(*pools):
            for label, row in zip(child_labels, combo):
                rows[label] = row
                binding[label] = nodes[row]
            if evaluator(binding):
                emit()


# ---------------------------------------------------------------------------
# Structural matches, walked once per document version and pattern shape
# ---------------------------------------------------------------------------

#: Structural walks (match-memo misses) this process has run.
_walks = 0


def match_memo_misses() -> int:
    """How many structural walks this process has run so far; a stage's
    span reports the difference across it (``match_memo_misses``)."""
    return _walks


def _structural_matches(
    program: VerifyProgram, cols: DocumentColumns, key: Optional[Tuple[int, int]]
):
    """The one accessor of the columns' structural-match memo.

    A structural match depends on the document and the steps' shape
    alone, never on the evaluator or the request, so it is kept on the
    columns (:meth:`~repro.xmldb.columnar.DocumentColumns.match_memo`)
    under ``program.shape``; a replaced document gets new columns, so
    nothing is invalidated.  ``key`` None asks for the document's
    embeddings — ``[(root row, [binds, ...]), ...]`` in scan order, each
    ``binds`` the embedding's ``(label, node)`` pairs, roots without one
    left out — walked with the evaluator always true.  ``(rank, row)``
    asks for a side entry's join lists: its :func:`_group_lists` (None
    when the root pool has no product root) and :func:`_side_rooted`.
    Each miss is one walk (:func:`match_memo_misses`).
    """
    global _walks
    memo = cols.match_memo(program.shape)
    found = memo.get(key)
    if found is not None:
        return found
    _walks += 1
    if key is None:
        labels = [step[0] for step in program.steps]
        root_label = labels[0]
        rows: Dict[int, int] = {}
        binding: Dict[int, XmlNode] = {}
        grouped: Dict[int, List[Tuple]] = {}

        def collect() -> None:
            grouped.setdefault(rows[root_label], []).append(
                tuple([(label, binding[label]) for label in labels])
            )

        structure = replace(program, evaluator=_always_true)
        structure.scan(cols, 0, len(cols.nodes), binding, rows, collect)
        found = list(grouped.items())
    else:
        rank, row = key
        root_tags = program.steps[0][3]
        factored = root_tags is None or PRODUCT_ROOT_TAG in root_tags
        found = (
            _group_lists(program, cols, row, rank) if factored else None,
            _side_rooted(program, cols, row),
        )
    memo[key] = found
    return found


# ---------------------------------------------------------------------------
# Batched selection / projection
# ---------------------------------------------------------------------------


def selection_batched(
    entries: Sequence[Entry],
    program: VerifyProgram,
    sl_labels: Iterable[int],
    guard: Optional[ResourceGuard] = None,
    exact_tags: Optional[Sequence[str]] = None,
) -> Sequence[XmlNode]:
    """``tax.algebra.selection`` over batched-verify entries.

    Produces the identical result sequence ``selection([nodes...])``
    would, but enumerates embeddings over columns.  On the
    root-inflating fast path every answer is a source subtree: it is
    deduped on cached subtree keys and returned as a row reference
    (:class:`ResultRows`) — no witness is copied unless a caller reads
    the trees.  ``guard`` is charged per entry (see
    :class:`_Verification`).

    ``exact_tags`` is an index-exact plan's tags (see
    :func:`repro.core.planner.exact_tags`; the entries must come from
    the documents its probes kept).  On the fast path a candidate whose
    document holds exactly one row of each is booked as the answer
    without a scan — charged, capped and deduped like a scanned one;
    every other candidate is scanned.  Whether a document holds them is
    a fact of its columns: its booking record (:func:`_booking_record`)
    is built on the first candidate of the document and read by every
    later request, fetch included, so a memo hit costs a dictionary
    lookup and dedupes on the record's hash.  ``ResultRows.booked``
    counts the booked candidates, ``ResultRows.recorded`` the records
    this call built.
    """
    sl = list(sl_labels)
    pattern = program.pattern
    root_label = pattern.root
    scan = program.scan
    results = _Verification(guard)
    # The binding/row dicts and the emit closures are shared across
    # entries — every label is rebound before an emit can observe them.
    rows: Dict[int, int] = {}
    binding: Dict[int, XmlNode] = {}
    if root_label in sl:
        # Root-inflating fast path (the paper's Figure 16 shape): one
        # witness per distinct root image — the image's whole subtree —
        # deduped by subtree key (a copy's canonical key equals its
        # source's, so dedupe without the copy is exact).
        found: Dict[int, None] = {}
        booked = recorded = 0

        def emit() -> None:
            found[rows[root_label]] = None

        shape = program.shape if exact_tags is not None else None
        seen, out, cap = results.seen, results.out, results.cap
        for entry in results.candidates(entries):
            cols, item = entry
            if shape is not None:
                record = cols.bookings.get(shape, _UNBOOKED)
                if record is _UNBOOKED:
                    record = _booking_record(cols, shape, exact_tags)
                    recorded += 1
                if record is not None and record[0] == item:
                    # Booked: results.candidate_done([(key, entry)])
                    # inlined, the key's hash read off the record, so a
                    # memo hit calls no function.
                    booked += 1
                    _row, digest, key = record
                    prior = seen.get(digest)
                    if prior is None:
                        seen[digest] = key
                        out.append(entry)
                    elif prior != key and results.clash(key):
                        out.append(entry)
                    results.count += 1
                    if cap is not None and results.count > cap:
                        results.over_cap()
                    continue
            scan(cols, item, cols.end[item], binding, rows, emit)
            results.candidate_done(
                [(cols.subtree_key(row), (cols, row)) for row in found]
            )
            found.clear()
        _count_exact(exact_tags, len(entries), booked)
        return ResultRows(out, booked=booked, recorded=recorded)
    witnesses: List[XmlNode] = []

    def emit_witness() -> None:
        witnesses.append(witness_tree(Embedding(pattern, dict(binding)), sl))

    for cols, item in results.candidates(entries):
        scan(cols, item, cols.end[item], binding, rows, emit_witness)
        results.candidate_done([(w.canonical_key(), w) for w in witnesses])
        witnesses.clear()
    _count_exact(exact_tags, len(entries), 0)
    return results.out


#: :func:`selection_batched`'s stand-in for a document with no booking
#: record yet under the plan's shape (None is a built, failing record).
_UNBOOKED = object()


def _booking_record(
    cols: DocumentColumns, shape: str, tags: Sequence[str]
) -> Optional[Tuple[int, int, Tuple]]:
    """Build and keep the document's booking record under ``shape``.

    The index-exact witness is that the document holds one row of each
    of ``tags`` (root first); the record is then ``(root row, hash of
    the row's subtree key, the key)``, else None.  Both depend on the
    document alone, so they are built once per document version and
    shape (:meth:`~repro.xmldb.columnar.DocumentColumns.book`).
    """
    tag_rows = cols.tag_rows
    record = None
    for tag in tags:
        if len(tag_rows.get(tag, ())) != 1:
            break
    else:
        row = tag_rows[tags[0]][0]
        key = cols.subtree_key(row)
        record = (row, hash(key), key)
    cols.book(shape, record)
    return record


def _count_exact(exact_tags: Optional[Sequence[str]], candidates: int, booked: int) -> None:
    """An index-exact plan's candidates, booked and scanned: the scanned
    ones fell off the bookkeeping (witness failed, or root not in SL)."""
    if exact_tags is not None:
        METRICS.counter("tax.verify.exact").inc(booked)
        METRICS.counter("tax.verify.exact_scanned").inc(candidates - booked)


def projection_batched(
    entries: Sequence[Entry],
    program: VerifyProgram,
    pl: Sequence,
    guard: Optional[ResourceGuard] = None,
) -> List[XmlNode]:
    """``tax.algebra.projection`` over batched-verify entries (``guard``
    as in :func:`selection_batched`)."""
    from .embedding import assemble_forest

    pl_entries: List[Tuple[int, bool]] = [
        entry if isinstance(entry, tuple) else (entry, False) for entry in pl
    ]
    scan = program.scan
    results = _Verification(guard)
    rows: Dict[int, int] = {}
    binding: Dict[int, XmlNode] = {}
    matched: Set[XmlNode] = set()

    def emit() -> None:
        for label, keep_subtree in pl_entries:
            image = binding.get(label)
            if image is None:
                continue
            matched.add(image)
            if keep_subtree:
                matched.update(image.descendants())

    for cols, item in results.candidates(entries):
        scan(cols, item, cols.end[item], binding, rows, emit)
        forest = assemble_forest(matched) if matched else ()
        results.candidate_done([(tree.canonical_key(), tree) for tree in forest])
        matched.clear()
    return results.out


# ---------------------------------------------------------------------------
# Late-materialised join verification (virtual products)
# ---------------------------------------------------------------------------


#: One root-child group's match inside a side entry: its steps'
#: ``(label, node)`` bindings and ``(label, (rank, row))`` positions.
#: A position on a virtual product is rank 0 for its root (bound to
#: :data:`_VIRTUAL_ROOT`), 1 for a left row, 2 for a right row, so
#: positions sort in the product tree's preorder.
_GroupMatch = Tuple[Tuple[Tuple[int, XmlNode], ...], Tuple[Tuple[int, Tuple[int, int]], ...]]


def _group_lists(
    program: VerifyProgram, cols: DocumentColumns, row: int, rank: int
) -> List[List[_GroupMatch]]:
    """Every root-child group's structural matches inside one side entry.

    With the pattern root on the product root, a group binds wholly
    inside one side: a ``pc`` head binds the side's entry row, an ``ad``
    head any row of the entry's interval carrying the head's tags, and
    the rest of the group backtracks below its head.  Each list is the
    side's share of the group's candidates in backtracking order — the
    lexicographic order of their ``(rank, row)`` positions — and
    depends on the entry and the steps' shape alone, so it is built once
    per document version and shape (:func:`_structural_matches`), not
    once per join.
    """
    nodes, tags_col = cols.nodes, cols.tags
    end = cols.end[row]
    rows: Dict[int, int] = {}
    binding: Dict[int, XmlNode] = {}
    lists: List[List[_GroupMatch]] = []

    def collect() -> None:
        matches.append((
            tuple([(label, binding[label]) for label in labels]),
            tuple([(label, (rank, rows[label])) for label in labels]),
        ))

    for group in program.groups:
        head_label, _parent, edge, tags_tuple, tags_set = group[0]
        heads: Sequence[int]
        if edge == PC:
            heads = [row] if tags_set is None or tags_col[row] in tags_set else ()
        elif tags_tuple is None:
            heads = range(row, end)
        else:
            heads = _tagged_rows(cols, row, end, tags_tuple, tags_set)
        matches: List[_GroupMatch] = []
        if heads:
            labels = [step[0] for step in group]
            for head in heads:
                rows[head_label] = head
                binding[head_label] = nodes[head]
                _extend(group, 1, cols, binding, rows, _always_true, collect)
        lists.append(matches)
    return lists


def _side_rooted(program: VerifyProgram, cols: DocumentColumns, row: int) -> bool:
    """Whether a match may lie wholly inside one side entry.

    Its root binds a row of the entry and every root-child group's head
    a row strictly below that, so each head's tags must occur strictly
    inside the entry's interval.  False proves a scan of the entry would
    call no evaluator.
    """
    end = cols.end[row]
    for group in program.groups:
        tags_tuple = group[0][3]
        if tags_tuple is None:
            if end - row < 2:
                return False
        elif not any(cols.tag_rows_in(tag, row + 1, end) for tag in tags_tuple):
            return False
    return True


def _materialize_product(
    lcols: DocumentColumns, l_row: int, rcols: DocumentColumns, r_row: int
) -> XmlNode:
    """The full product tree of a passing pair, numbered like
    ``product_tree``'s output renumbered from zero (root pre 0, left
    subtree pre 1..L, right subtree pre L+1..L+R)."""
    left_size = lcols.end[l_row] - l_row
    right_size = rcols.end[r_row] - r_row
    root = XmlNode(PRODUCT_ROOT_TAG)
    root.pre = 0
    root.post = left_size + right_size
    root.depth = 0
    lcols.materialize(l_row, pre_base=1, post_base=0, depth_base=1, parent=root)
    rcols.materialize(
        r_row,
        pre_base=1 + left_size,
        post_base=left_size,
        depth_base=1,
        parent=root,
    )
    return root


def _ref_key(ref: Tuple) -> Tuple:
    """Canonical key of the tree a subtree or product reference stands for."""
    if len(ref) == 2:
        return ref[0].subtree_key(ref[1])
    lcols, l_row, rcols, r_row = ref
    return (
        PRODUCT_ROOT_TAG,
        "",
        (),
        (lcols.subtree_key(l_row), rcols.subtree_key(r_row)),
    )


def _top_ref(
    lcols: DocumentColumns,
    l_row: int,
    rcols: DocumentColumns,
    r_row: int,
    rank: int,
    row: int,
) -> Tuple:
    """The reference a top position's witness (its whole subtree) is."""
    if rank == 1:
        return (lcols, row)
    if rank == 2:
        return (rcols, row)
    return (lcols, l_row, rcols, r_row)


def _side_roots(pattern: PatternTree, sl: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The labels under the pattern root, when there are two and both are
    in ``sl`` (the textual join's shape), else None.

    An embedding binding them to the pair's two entry rows (the root
    then binds the product root: the only common ancestor) selects every
    product node, so its witness is the whole product tree.
    """
    children = pattern.children(pattern.root)
    if len(children) == 2 and all(child.label in sl for child in children):
        return children[0].label, children[1].label
    return None


def _assemble_product_witness(
    lcols: DocumentColumns,
    l_row: int,
    rcols: DocumentColumns,
    r_row: int,
    positions: Dict[int, Tuple[int, int]],
    sl: Sequence[int],
) -> XmlNode:
    """The witness tree of one virtual-product embedding.

    Replays :func:`~repro.tax.embedding.assemble_forest` over ``(rank,
    row)`` positions instead of product-tree nodes: sorting positions
    rank-major *is* product document order (root, left subtree, right
    subtree), and strict ancestry is the root over everything plus the
    same-side interval test — so the assembled tree is node-for-node the
    one ``witness_tree`` builds from a materialised product.
    """
    selected: Set[Tuple[int, int]] = set(positions.values())
    for label in sl:
        position = positions.get(label)
        if position is None:
            continue
        rank, row = position
        if rank == 0:
            selected.update((1, x) for x in range(l_row, lcols.end[l_row]))
            selected.update((2, y) for y in range(r_row, rcols.end[r_row]))
        else:
            side = lcols if rank == 1 else rcols
            selected.update((rank, x) for x in range(row + 1, side.end[row]))

    def is_ancestor(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
        a_rank, a_row = a
        if a_rank == 0:
            return b != a
        b_rank, b_row = b
        if a_rank != b_rank:
            return False
        side = lcols if a_rank == 1 else rcols
        return a_row < b_row < side.end[a_row]

    roots: List[XmlNode] = []
    stack: List[Tuple[int, int]] = []
    clones: Dict[Tuple[int, int], XmlNode] = {}
    for position in sorted(selected):
        while stack and not is_ancestor(stack[-1], position):
            stack.pop()
        rank, row = position
        if rank == 0:
            clone = XmlNode(PRODUCT_ROOT_TAG)
        else:
            node = (lcols if rank == 1 else rcols).nodes[row]
            clone = XmlNode(node.tag, node.text, node.attributes)
        clones[position] = clone
        if stack:
            clones[stack[-1]].append(clone)
        else:
            roots.append(clone)
        stack.append(position)
    assert len(roots) == 1, "witness assembly produced a forest"
    return roots[0].renumber()


def join_pairs_batched(
    left: Sequence[Entry],
    right: Sequence[Entry],
    pairs: Sequence[Tuple[int, int]],
    program: VerifyProgram,
    sl_labels: Iterable[int],
    guard: Optional[ResourceGuard] = None,
) -> Tuple[ResultRows, int, int]:
    """Late-materialised join over candidate pairs.

    Equivalent to building the product tree of every pair (in the given
    pair order) and running ``selection`` over all of them at once —
    but no product tree is ever built.  The product is factored.  With
    the pattern root on the product root, a pair crosses its two
    entries' :func:`_group_lists` (read from the columns' match memo,
    :func:`_structural_matches`); with the root on a side row the match
    is that side's own, found by :func:`_scan` over the entry where
    :func:`_side_rooted` allows one.
    Both run in the root pool's order (per tag of a multi-tag root: the
    product root, left rows, right rows), so the evaluator sees exactly
    the bindings, in exactly the order, a materialised product shows it.

    A witness that is a whole subtree or a whole product — the root in
    SL, or both side roots bound to the pair's entries with both in SL —
    is deduped by key and returned as a reference (:class:`ResultRows`);
    any other witness is assembled directly from its virtual positions.
    Returns ``(results, pairs_materialized, side_scans)``: the pairs a
    surviving answer came from (root in SL), else the pairs with at
    least one witness; and the (pair, side entry) couples a side-rooted
    scan ran on.  ``guard`` is charged per pair (see
    :class:`_Verification`).
    """
    sl = list(sl_labels)
    root_label = program.pattern.root
    side_roots = _side_roots(program.pattern, sl)
    evaluator = program.evaluator
    results = _Verification(guard)
    root_tags = program.steps[0][3]
    # The root pool as (rank, tag) runs, rank 0 being the product root.
    order = [
        (rank, tag)
        for tag in ((None,) if root_tags is None else root_tags)
        for rank in ((0, 1, 2) if tag in (None, PRODUCT_ROOT_TAG) else (1, 2))
    ]
    # The binding/position/row dicts and the emit closures are shared
    # across pairs — every label is rebound before an emit can observe
    # the dicts.
    binding: Dict[int, XmlNode] = {}
    positions: Dict[int, Tuple[int, int]] = {}
    rows: Dict[int, int] = {}
    inflate_root = root_label in sl
    #: Per pair: distinct top positions (root in SL), else the
    #: ``(canonical key, witness)`` of every embedding.
    found: Dict[Tuple[int, int], None] = {}
    witnesses: List[Tuple[Tuple, ResultRef]] = []
    contributing = side_scans = 0
    lcols = rcols = None
    l_row = r_row = 0

    def emit() -> None:
        found[positions[root_label]] = None

    def emit_witness() -> None:
        # Reads the current pair's sides from the enclosing loop.
        if side_roots is not None:
            first, second = positions[side_roots[0]], positions[side_roots[1]]
            left_top, right_top = (1, l_row), (2, r_row)
            if (first == left_top and second == right_top) or (
                first == right_top and second == left_top
            ):
                product = (lcols, l_row, rcols, r_row)
                witnesses.append((_ref_key(product), product))
                return
        witness = _assemble_product_witness(lcols, l_row, rcols, r_row, positions, sl)
        witnesses.append((witness.canonical_key(), witness))

    target = emit if inflate_root else emit_witness

    def side_emit() -> None:
        # A side-rooted match: its rows are positions on the current side.
        for label, row in rows.items():
            positions[label] = (rank, row)
        target()

    iproduct = itertools.product
    for i, j in results.candidates(pairs):
        lcols, l_row = left[i]
        rcols, r_row = right[j]
        l_lists, l_rooted = _structural_matches(program, lcols, (1, l_row))
        r_lists, r_rooted = _structural_matches(program, rcols, (2, r_row))
        side_scans += l_rooted + r_rooted
        for rank, tag in order:
            if rank == 0:
                binding[root_label] = _VIRTUAL_ROOT
                positions[root_label] = (0, 0)
                for combo in iproduct(*[a + b for a, b in zip(l_lists, r_lists)]):
                    for binds, _places in combo:
                        binding.update(binds)
                    if evaluator(binding):
                        for _binds, places in combo:
                            positions.update(places)
                        target()
            elif l_rooted if rank == 1 else r_rooted:
                cols, row = (lcols, l_row) if rank == 1 else (rcols, r_row)
                end = cols.end[row]
                pool = (
                    _root_pool(program, cols, row, end)
                    if tag is None
                    else cols.tag_rows_in(tag, row, end)
                )
                _scan(program, cols, pool, binding, rows, side_emit)
        if inflate_root:
            # One entry per distinct top position, tagged with its pair.
            tops = [_top_ref(lcols, l_row, rcols, r_row, *top) for top in found]
            results.candidate_done([(_ref_key(ref), (i, j, ref)) for ref in tops])
            found.clear()
        else:
            # One witness per embedding: the whole product for the
            # textual join, else (e.g. the paper's Figure 16(b) join
            # keeps only the two title subtrees) assembled from positions.
            contributing += bool(witnesses)
            results.candidate_done(witnesses)
            witnesses.clear()
    if not inflate_root:
        built = sum(1 for ref in results.out if type(ref) is not tuple)
        return ResultRows(results.out, built), contributing, side_scans
    answered_pairs = {(i, j) for i, j, _ref in results.out}
    return ResultRows([ref for _i, _j, ref in results.out]), len(answered_pairs), side_scans


__all__ = [
    "Entry",
    "ResultRows",
    "VerifyProgram",
    "selection_batched",
    "projection_batched",
    "join_pairs_batched",
    "match_memo_misses",
]
