"""Set-oriented (batched) verification over columnar document arrays.

The per-candidate verify path re-enumerates pattern embeddings with
:func:`repro.tax.embedding.find_embeddings`, which walks
:class:`~repro.xmldb.model.XmlNode` trees and rebuilds per-tree tag
buckets for every candidate.  This module runs the *same* backtracking
search over a collection's cached
:class:`~repro.xmldb.columnar.DocumentColumns` instead: candidate pools
become interval lookups on prebuilt per-tag row lists, set-semantics
dedupe runs on cached subtree keys *before* any output tree exists, and
join verification decides candidate pairs over the two sides' columns —
``copy_numbered``-style product materialisation happens only for pairs
that produced a witness (late materialisation).

Equivalence contract (the property suite pins it): for every entry, the
batched enumeration visits candidate rows in exactly the order
``find_embeddings`` visits the corresponding nodes and calls the
condition evaluator at exactly the same points — so verdicts, result
sequences and ontology-access counts are bit-identical to the
per-candidate path.  A resource guard is charged by these operators
themselves, a chunk of candidates per call, at exactly the
one-candidate-at-a-time price (:class:`_Verification`); guarded and
unguarded queries run the same code.

An entry is ``(columns, row)``; ``columns.nodes[row]`` is the candidate
node itself, so evaluators see the *original* document nodes.  All three
operators run one :class:`VerifyProgram`, compiled once per cached plan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..guard import CHECK_INTERVAL, ResourceGuard
from ..xmldb.columnar import DocumentColumns
from ..xmldb.model import XmlNode
from .algebra import PRODUCT_ROOT_TAG, ConditionEvaluator
from .compile import BatchStep, compile_batch_steps, compile_condition
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
    """

    __slots__ = ("guard", "cap", "count", "started", "seen", "out")

    def __init__(self, guard: Optional[ResourceGuard]) -> None:
        self.guard = guard
        self.cap = guard.max_results if guard is not None else None
        self.count = 0
        #: Candidates handed out since the last charge.
        self.started = 0
        self.seen: Set[Tuple] = set()
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

    def candidate_done(self, keyed: Sequence[Tuple[Tuple, object]]) -> None:
        """Book one candidate's ``(canonical key, result)`` pairs."""
        seen, out = self.seen, self.out
        if len(keyed) == 1:
            key, result = keyed[0]
            if key not in seen:
                seen.add(key)
                out.append(result)
            self.count += 1
        else:
            own: Set[Tuple] = set()
            for key, result in keyed:
                own.add(key)
                if key not in seen:
                    seen.add(key)
                    out.append(result)
            self.count += len(own)
        if self.cap is not None and self.count > self.cap:
            self._charge()
            self.guard.check_results(self.count, "query verification")


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

    @classmethod
    def compile(
        cls, pattern: PatternTree, context: ConditionContext
    ) -> "VerifyProgram":
        """Lower ``pattern`` and compile its condition against ``context``.

        Raises :class:`~repro.errors.ConditionError` for a condition the
        compiler does not know — there is no interpreted fallback.
        """
        pattern.validate()
        steps = tuple(compile_batch_steps(pattern, required_tags(pattern.condition)))
        return cls(
            pattern,
            steps,
            compile_condition(pattern.condition, context),
            _root_prune(steps),
            _is_star(steps),
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
            _scan(self, cols, lo, hi, binding, rows, emit)


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
    lo: int,
    hi: int,
    binding: Dict[int, XmlNode],
    rows: Dict[int, int],
    emit: Callable[[], None],
) -> None:
    """Backtrack over the subtree rows ``[lo, hi)`` of one document.

    Mirrors ``find_embeddings``'s candidate pools step for step: the
    root pool is :func:`_root_pool`, pc pools are the anchor's child
    rows, ad pools are the anchor's descendant interval — all in the
    same sequence the tree walk produces, so the evaluator fires at
    identical points.
    """
    steps, evaluator = program.steps, program.evaluator
    root_label = steps[0][0]
    nodes = cols.nodes
    for row in _root_pool(program, cols, lo, hi):
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
# Batched selection / projection
# ---------------------------------------------------------------------------


def selection_batched(
    entries: Sequence[Entry],
    program: VerifyProgram,
    sl_labels: Iterable[int],
    guard: Optional[ResourceGuard] = None,
) -> List[XmlNode]:
    """``tax.algebra.selection`` over batched-verify entries.

    Produces the identical result sequence ``selection([nodes...])``
    would, but enumerates embeddings over columns and — on the
    root-inflating fast path — dedupes on cached subtree keys
    before materialising any witness.  ``guard`` is charged per entry
    (see :class:`_Verification`).
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
        # witness per distinct root image, deduped by subtree key before
        # the copy is ever made (a copy's canonical key equals its
        # source's, so pre-copy dedupe is exact).
        found: Dict[int, None] = {}

        def emit() -> None:
            found[rows[root_label]] = None

        for cols, item in results.candidates(entries):
            scan(cols, item, cols.end[item], binding, rows, emit)
            results.candidate_done(
                [(cols.subtree_key(row), (cols, row)) for row in found]
            )
            found.clear()
        return [cols.materialize(top) for cols, top in results.out]
    witnesses: List[XmlNode] = []

    def emit_witness() -> None:
        witnesses.append(witness_tree(Embedding(pattern, dict(binding)), sl))

    for cols, item in results.candidates(entries):
        scan(cols, item, cols.end[item], binding, rows, emit_witness)
        results.candidate_done([(w.canonical_key(), w) for w in witnesses])
        witnesses.clear()
    return results.out


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


def _product_scan(
    program: VerifyProgram,
    idx: int,
    lcols: DocumentColumns,
    l_lo: int,
    l_hi: int,
    rcols: DocumentColumns,
    r_lo: int,
    r_hi: int,
    binding: Dict[int, XmlNode],
    positions: Dict[int, Tuple[int, int]],
    emit: Callable[[], None],
    memo: Dict,
) -> None:
    """Backtrack over the *virtual* product of two candidate subtrees.

    A product tree's preorder is: synthetic root, then the left subtree,
    then the right subtree.  Positions are ``(rank, row)`` pairs — rank
    0 is the synthetic root (bound to the shared stand-in node), rank 1
    a left-side row, rank 2 a right-side row — and every candidate pool
    below reproduces, in order, exactly the node sequence
    ``find_embeddings`` would walk on a materialised product tree.  No
    tree is built; the evaluator reads the two sides' original nodes.

    ``memo`` (shared across a join's pairs) caches side-local pools:
    a pool anchored at a side row depends only on that side's columns
    and the anchor, so entries repeated across many pairs build each
    pool once.  Pools are read-only; sharing the lists is safe.
    """
    steps = program.steps
    if idx == len(steps):
        if program.evaluator(binding):
            emit()
        return
    label, parent, edge, tags_tuple, tags_set = steps[idx]
    pool: Iterable[Tuple[int, int]]
    if parent is None:
        root_prune = program.root_prune
        if tags_tuple is not None:
            pool = []
            for tag in tags_tuple:
                if tag == PRODUCT_ROOT_TAG:
                    pool.append((0, 0))
                pool.extend(
                    (1, x) for x in lcols.tag_rows_in(tag, l_lo, l_hi)
                )
                pool.extend(
                    (2, y) for y in rcols.tag_rows_in(tag, r_lo, r_hi)
                )
        elif root_prune:
            # Structurally pruned root pool: the product root's children
            # are exactly the two side roots, side rows prune through
            # their per-tag parent lists.  Same subset-preserving order
            # as the unpruned chain.
            left_tag = lcols.tags[l_lo]
            right_tag = rcols.tags[r_lo]
            pool = (
                [(0, 0)]
                if all(
                    left_tag in tags_set or right_tag in tags_set
                    for _tt, tags_set in root_prune
                )
                else []
            )
            for part in _side_parts(
                memo, "prune", (lcols, l_lo, l_hi, rcols, r_lo, r_hi),
                _pruned_rows, root_prune,
            ):
                pool.extend(part)
        else:
            pool = itertools.chain(
                ((0, 0),),
                ((1, x) for x in range(l_lo, l_hi)),
                ((2, y) for y in range(r_lo, r_hi)),
            )
    else:
        rank, anchor = positions[parent]
        if rank == 0 and edge == PC:
            pool = []
            if tags_set is None or lcols.tags[l_lo] in tags_set:
                pool.append((1, l_lo))
            if tags_set is None or rcols.tags[r_lo] in tags_set:
                pool.append((2, r_lo))
        elif rank == 0:
            # Anchor is the product root: its descendants are both whole
            # sides, left first (document order of the product tree).
            if tags_tuple is None:
                pool = itertools.chain(
                    ((1, x) for x in range(l_lo, l_hi)),
                    ((2, y) for y in range(r_lo, r_hi)),
                )
            else:
                # Keyed apart from the side-anchored pools below: under
                # the root a side's own root row is a descendant, under
                # that row it is not.
                left_part, right_part = _side_parts(
                    memo, ("root", idx), (lcols, l_lo, l_hi, rcols, r_lo, r_hi),
                    _tagged_rows, tags_tuple, tags_set,
                )
                if left_part and right_part:
                    pool = left_part + right_part
                else:
                    pool = left_part or right_part
        else:
            side_cols = lcols if rank == 1 else rcols
            key = (idx, rank, anchor, id(side_cols))
            pool = memo.get(key)
            if pool is None:
                rows: Iterable[int]
                if edge == PC:
                    rows = side_cols.children[anchor]
                    if tags_set is not None:
                        tags_col = side_cols.tags
                        rows = [c for c in rows if tags_col[c] in tags_set]
                elif tags_tuple is None:
                    rows = range(anchor + 1, side_cols.end[anchor])
                else:
                    rows = _tagged_rows(
                        side_cols, anchor + 1, side_cols.end[anchor],
                        tags_tuple, tags_set,
                    )
                pool = memo[key] = [(rank, x) for x in rows]
    next_idx = idx + 1
    for position in pool:
        positions[label] = position
        rank, row = position
        if rank == 0:
            binding[label] = _VIRTUAL_ROOT
        elif rank == 1:
            binding[label] = lcols.nodes[row]
        else:
            binding[label] = rcols.nodes[row]
        _product_scan(
            program, next_idx, lcols, l_lo, l_hi, rcols, r_lo, r_hi,
            binding, positions, emit, memo,
        )


def _side_parts(memo: Dict, key, sides: Tuple, rows_of: Callable, *args) -> List[List]:
    """The left and the right ``(rank, row)`` part of one product pool.

    ``rows_of(cols, lo, hi, *args)`` lists one side's rows.  A part
    depends only on its own side's columns and interval, so each is
    memoised per side entry and shared by every pair that repeats it.
    """
    lcols, l_lo, l_hi, rcols, r_lo, r_hi = sides
    parts = []
    for rank, cols, lo, hi in ((1, lcols, l_lo, l_hi), (2, rcols, r_lo, r_hi)):
        side_key = (key, rank, lo, id(cols))
        part = memo.get(side_key)
        if part is None:
            part = memo[side_key] = [(rank, x) for x in rows_of(cols, lo, hi, *args)]
        parts.append(part)
    return parts


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


def _product_top_key(
    lcols: DocumentColumns,
    l_row: int,
    rcols: DocumentColumns,
    r_row: int,
    rank: int,
    row: int,
) -> Tuple:
    """Canonical key of the witness a top position would materialise."""
    if rank == 1:
        return lcols.subtree_key(row)
    if rank == 2:
        return rcols.subtree_key(row)
    return (
        PRODUCT_ROOT_TAG,
        "",
        (),
        (lcols.subtree_key(l_row), rcols.subtree_key(r_row)),
    )


def _materialize_top(
    lcols: DocumentColumns,
    l_row: int,
    rcols: DocumentColumns,
    r_row: int,
    rank: int,
    row: int,
) -> XmlNode:
    if rank == 1:
        return lcols.materialize(row)
    if rank == 2:
        return rcols.materialize(row)
    return _materialize_product(lcols, l_row, rcols, r_row)


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
) -> Tuple[List[XmlNode], int]:
    """Late-materialised join over candidate pairs.

    Equivalent to building the product tree of every pair (in the given
    pair order) and running ``selection`` over all of them at once —
    but no product tree is ever built: with the root in SL a product is
    materialised only for pairs whose witness survives dedupe, and
    otherwise each passing embedding's witness is assembled directly
    from its virtual positions.  Returns ``(results,
    pairs_materialized)``.  ``guard`` is charged per pair (see
    :class:`_Verification`).
    """
    sl = list(sl_labels)
    root_label = program.pattern.root
    results = _Verification(guard)
    # The binding/position dicts, the pool memo and the emit closures
    # are shared across pairs — every label is rebound before an emit
    # can observe the dicts.
    binding: Dict[int, XmlNode] = {}
    positions: Dict[int, Tuple[int, int]] = {}
    memo: Dict = {}
    inflate_root = root_label in sl
    #: Per pair: distinct top positions (root in SL), else the witnesses.
    found: Dict[Tuple[int, int], None] = {}
    witnesses: List[XmlNode] = []
    contributing = 0
    lcols = rcols = None
    l_row = r_row = 0

    def emit() -> None:
        found[positions[root_label]] = None

    def emit_witness() -> None:
        # Reads the current pair's sides from the enclosing loop.
        witnesses.append(
            _assemble_product_witness(lcols, l_row, rcols, r_row, positions, sl)
        )

    for i, j in results.candidates(pairs):
        lcols, l_row = left[i]
        rcols, r_row = right[j]
        _product_scan(
            program, 0, lcols, l_row, lcols.end[l_row],
            rcols, r_row, rcols.end[r_row],
            binding, positions, emit if inflate_root else emit_witness, memo,
        )
        if inflate_root:
            # One entry per distinct top position — pair indices stand
            # in for the distinct object identities fresh product
            # copies would have had.
            results.candidate_done(
                [
                    (
                        _product_top_key(lcols, l_row, rcols, r_row, rank, row),
                        (i, j, rank, row),
                    )
                    for rank, row in found
                ]
            )
            found.clear()
        else:
            # General witnesses (e.g. the paper's Figure 16(b) join
            # keeps only the two title subtrees): one per embedding,
            # assembled from positions.
            contributing += bool(witnesses)
            results.candidate_done([(w.canonical_key(), w) for w in witnesses])
            witnesses.clear()
    if not inflate_root:
        return results.out, contributing
    out: List[XmlNode] = []
    materialized_pairs: Set[Tuple[int, int]] = set()
    for i, j, rank, row in results.out:
        lcols, l_row = left[i]
        rcols, r_row = right[j]
        materialized_pairs.add((i, j))
        out.append(_materialize_top(lcols, l_row, rcols, r_row, rank, row))
    return out, len(materialized_pairs)


__all__ = [
    "Entry",
    "VerifyProgram",
    "selection_batched",
    "projection_batched",
    "join_pairs_batched",
]
