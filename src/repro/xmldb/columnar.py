"""Columnar document arrays: one document flattened into preorder rows.

The tree model (:class:`~repro.xmldb.model.XmlNode`) is walked node by
node; the query executor's candidate fetch and batched verification
(:mod:`repro.tax.batch`) work on these flat arrays instead.
:class:`DocumentColumns` is built once per stored document and cached by
its collection; a candidate is a ``(columns, row)`` pair, and
``columns.nodes[row]`` is the stored node itself.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from ..guard import ResourceGuard, paced
from .model import XmlNode, _object_ids
from .serializer import serialize

#: How many pattern shapes' structural matches, and how many shapes'
#: booking records, one document's columns keep
#: (:meth:`DocumentColumns.match_memo`, :meth:`DocumentColumns.book`); the
#: oldest shape is dropped first.  A served workload's join texts share a
#: handful of shapes, and its broad selections another.
MATCH_MEMO_SHAPES = 8


class DocumentColumns:
    """Flat preorder arrays for one document tree.

    ``row`` indexes are preorder positions (equal to ``node.pre`` on a
    renumbered root).  ``end[row]`` is one past the node's subtree, so
    the strict descendants of ``row`` are exactly rows
    ``row+1 .. end[row]-1`` — the classic interval encoding.  Tags are
    interned, so the verifier's tag tests are mostly pointer comparisons.
    """

    __slots__ = (
        "root",
        "nodes",
        "tags",
        "texts",
        "attrs",
        "children",
        "parents",
        "end",
        "depth",
        "tag_rows",
        "_subtree_keys",
        "bookings",
        "subtree_texts",
        "_parent_rows",
        "_matches",
    )

    def __init__(self, root: XmlNode, guard: Optional[ResourceGuard] = None) -> None:
        # The walks check ``guard``'s deadline every few thousand nodes
        # (:func:`~repro.guard.paced`): a guarded query waits on the build.
        intern = sys.intern
        nodes: List[XmlNode] = list(paced(root.iter(), guard, "column build"))
        count = len(nodes)
        row_of: Dict[int, int] = {id(node): row for row, node in enumerate(nodes)}
        tags: List[str] = [intern(node.tag) for node in nodes]
        texts: List[str] = [node.text for node in nodes]
        children: List[List[int]] = [
            [row_of[id(child)] for child in node.children]
            for node in paced(nodes, guard, "column build")
        ]
        end: List[int] = [0] * count
        for row in range(count - 1, -1, -1):
            child_rows = children[row]
            end[row] = end[child_rows[-1]] if child_rows else row + 1
        depth: List[int] = [0] * count
        parents: List[int] = [-1] * count
        for row in paced(range(count), guard, "column build"):
            row_depth = depth[row] + 1
            for child in children[row]:
                depth[child] = row_depth
                parents[child] = row
        tag_rows: Dict[str, List[int]] = {}
        for row, tag in enumerate(tags):
            tag_rows.setdefault(tag, []).append(row)
        self.root = root
        self.nodes = nodes
        self.tags = tags
        self.texts = texts
        self.attrs = [node.attributes or None for node in nodes]
        self.children = children
        self.parents = parents
        self.end = end
        self.depth = depth
        self.tag_rows = tag_rows
        #: Canonical subtree keys, cached per row (repeated queries over
        #: a cached column set dedupe without re-walking the sources).
        self._subtree_keys: Dict[int, Tuple] = {}
        #: Per index-exact pattern shape, the document's booking record:
        #: ``(root row, hash of its subtree key, the key)``, or None when
        #: the document does not hold one row of each of the shape's tags
        #: (see :meth:`book`).
        self.bookings: Dict[str, Optional[Tuple[int, int, Tuple]]] = {}
        #: Compact serialisations of answered subtrees, cached per row
        #: (:meth:`subtree_text` fills it; ``ResultRows.texts`` reads it).
        self.subtree_texts: Dict[int, str] = {}
        #: Per-tag sorted parent rows (rows with >=1 child of the tag),
        #: built on first use — the batched verifier's structural prune.
        self._parent_rows: Dict[str, List[int]] = {}
        #: Per pattern shape, the structural matches the batched verifier
        #: found in this document (see :meth:`match_memo`).
        self._matches: Dict[str, Dict] = {}

    def tag_rows_in(self, tag: str, lo: int, hi: int) -> List[int]:
        """Rows with ``tag`` in the half-open row interval ``[lo, hi)``.

        Two bisects on the per-tag sorted row list — the batched
        verifier's candidate pools for tag-restricted pattern nodes.
        """
        rows = self.tag_rows.get(tag)
        if rows is None:
            return []
        start = bisect_left(rows, lo)
        stop = bisect_left(rows, hi, start)
        return rows[start:stop]

    def rows_with_child_tag(self, tag: str, lo: int, hi: int) -> List[int]:
        """Rows in ``[lo, hi)`` that have at least one ``tag`` child.

        A row with no such child cannot anchor a pc step requiring that
        tag, so it can never head a complete structural match — the
        batched verifier prunes unrestricted root pools through this
        before any backtracking starts.  Per-tag parent rows are derived
        from ``tag_rows`` once and bisected per call.
        """
        rows = self._parent_rows.get(tag)
        if rows is None:
            parents = self.parents
            seen = {parents[row] for row in self.tag_rows.get(tag, ())}
            seen.discard(-1)
            rows = sorted(seen)
            self._parent_rows[tag] = rows
        start = bisect_left(rows, lo)
        stop = bisect_left(rows, hi, start)
        return rows[start:stop]

    def match_memo(self, shape: str) -> Dict:
        """The structural-match memo of one pattern shape, created empty
        on first use.

        :mod:`repro.tax.batch` keeps there what it walked of this
        document for the shape (a join side's embeddings, a side entry's
        group lists), so a repeated join walks nothing.  At most
        :data:`MATCH_MEMO_SHAPES` shapes are kept, the oldest dropped
        first.  The memo lives and dies with these columns (a mutation
        replaces them).
        """
        matches = self._matches
        memo = matches.get(shape)
        if memo is None:
            if len(matches) >= MATCH_MEMO_SHAPES:
                del matches[next(iter(matches))]
            memo = matches[shape] = {}
        return memo

    def book(self, shape: str, record: Optional[Tuple[int, int, Tuple]]) -> None:
        """Keep ``record`` as this document's booking under ``shape``.

        :func:`repro.tax.batch.selection_batched` builds the record the
        first time an index-exact plan of the shape keeps the document;
        every later fetch and verify reads it from :attr:`bookings`.
        Like the match memo, at most :data:`MATCH_MEMO_SHAPES` shapes are
        kept, the oldest dropped first, and the records live and die with
        these columns: a write replaces them, so it invalidates nothing.
        """
        bookings = self.bookings
        if len(bookings) >= MATCH_MEMO_SHAPES:
            del bookings[next(iter(bookings))]
        bookings[shape] = record

    def subtree_key(self, row: int) -> Tuple:
        """:meth:`XmlNode.canonical_key` of the subtree at ``row``, cached.

        A copy of the subtree has the same canonical key as the source,
        so set-semantics dedupe can run on these *before* any output
        tree is materialised — and the cache makes repeated queries pay
        nothing for dedupe at all.
        """
        key = self._subtree_keys.get(row)
        if key is None:
            key = self.nodes[row].canonical_key()
            self._subtree_keys[row] = key
        return key

    def subtree_text(self, row: int) -> str:
        """Compact :func:`~repro.xmldb.serializer.serialize` of the subtree
        at ``row``, cached.

        The rule :meth:`subtree_key` relies on holds for text too: a
        copy serialises to its source's bytes.  So a result that is a
        source subtree goes on the wire without ever being copied, and a
        repeated answer costs one dictionary lookup.  The memo lives and
        dies with these columns (a mutation replaces them).
        """
        text = self.subtree_texts.get(row)
        if text is None:
            text = self.subtree_texts[row] = serialize(self.nodes[row])
        return text

    def materialize(
        self,
        row: int,
        pre_base: int = 0,
        post_base: int = 0,
        depth_base: int = 0,
        parent: Optional[XmlNode] = None,
    ) -> XmlNode:
        """A fresh copy of the subtree at ``row``, numbered as it builds.

        Produces exactly what ``nodes[row].copy_numbered(...)`` would —
        same tags/texts/attributes, same pre/post/depth (the classic
        identities ``pre = row - root_row`` and ``post = pre + size - 1
        - depth`` hold on any preorder interval) — but iteratively, with
        a parent stack instead of per-node recursion.  The ``*_base``
        offsets and ``parent`` let the join path number a product root
        plus two materialised subtrees as one tree, mirroring
        ``tax_algebra.product_tree``.
        """
        tags = self.tags
        texts = self.texts
        attrs = self.attrs
        end = self.end
        depths = self.depth
        # pre/post/depth are affine in the columns, so fold the bases
        # and the root's row/depth into three per-call constants:
        #   pre   = pre_off + x            (pre_off = pre_base - row)
        #   post  = post_off + end[x] - rel (post_off = post_base - row - 1)
        #   depth = depth_off + depths[x]  (depth_off = depth_base - depths[row])
        pre_off = pre_base - row
        post_off = post_base - row - 1
        depth_off = depth_base - depths[row]
        base_depth = depths[row]
        object_ids = _object_ids
        new = XmlNode.__new__
        stack: List[XmlNode] = []
        root_clone: Optional[XmlNode] = None
        for x in range(row, end[row]):
            clone: XmlNode = new(XmlNode)
            clone.tag = tags[x]
            clone.text = texts[x]
            attributes = attrs[x]
            clone.attributes = dict(attributes) if attributes else {}
            clone.children = []
            clone.parent = None
            rel = depths[x] - base_depth
            clone.pre = pre_off + x
            clone.post = post_off + end[x] - rel
            clone.depth = depth_off + depths[x]
            clone.object_id = next(object_ids)
            if len(stack) > rel:
                del stack[rel:]
            if stack:
                above = stack[-1]
                clone.parent = above
                above.children.append(clone)
            else:
                root_clone = clone
            stack.append(clone)
        assert root_clone is not None
        if parent is not None:
            root_clone.parent = parent
            parent.children.append(root_clone)
        return root_clone
