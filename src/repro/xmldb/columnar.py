"""Columnar document arrays and a compiled XPath scan over them.

The AST engine (:mod:`repro.xmldb.xpath.engine`) dispatches on node
types for every evaluation step — correct and general, but the per-node
cost dominates collection scans.  This module flattens a document into
parallel preorder arrays once (:class:`DocumentColumns`) and compiles
the *hot subset* of XPath — absolute child-axis paths with value and
existence predicates, exactly the shape
:func:`repro.core.executor.compile_pattern_to_xpath` emits — into
closures over those arrays.

Equivalence contract: for a supported expression, the compiled scan's
rows index the very same node list (same objects, same order) as
``XPathQuery.select`` returns.  Anything outside the subset makes
:func:`compile_columnar_rows` return None and the caller falls back to
the AST engine, so coverage gaps cost speed, never correctness.  The
scans themselves never tick a resource guard; the collection scan
that drives them charges it per document scanned and per row produced
(:meth:`repro.xmldb.collection.Collection.xpath_rows`).
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Optional, Tuple

from .model import XmlNode, _object_ids
from .xpath import ast
from .xpath.engine import _compare_atomic

#: A compiled predicate: does the node at ``row`` satisfy it?
RowPredicate = Callable[["DocumentColumns", int], bool]
#: A compiled relative path: rows reachable from ``row``, ascending.
RowsFunction = Callable[["DocumentColumns", int], List[int]]
#: A compiled query: the matching rows of a document, document order —
#: the executor's batched verifier consumes these directly.
ColumnarRows = Callable[["DocumentColumns"], List[int]]


class DocumentColumns:
    """Flat preorder arrays for one document tree.

    ``row`` indexes are preorder positions (equal to ``node.pre`` on a
    renumbered root).  ``end[row]`` is one past the node's subtree, so
    the strict descendants of ``row`` are exactly rows
    ``row+1 .. end[row]-1`` — the classic interval encoding.  Tags and
    string-values are interned so the equality probes the compiled
    predicates run degrade to pointer comparisons in the common case.
    """

    __slots__ = (
        "root",
        "nodes",
        "tags",
        "texts",
        "attrs",
        "svalues",
        "children",
        "parents",
        "end",
        "depth",
        "tag_rows",
        "_subtree_keys",
        "_parent_rows",
    )

    def __init__(self, root: XmlNode) -> None:
        intern = sys.intern
        nodes: List[XmlNode] = list(root.iter())
        count = len(nodes)
        row_of: Dict[int, int] = {id(node): row for row, node in enumerate(nodes)}
        tags: List[str] = [intern(node.tag) for node in nodes]
        texts: List[str] = [node.text for node in nodes]
        children: List[List[int]] = [
            [row_of[id(child)] for child in node.children] for node in nodes
        ]
        end: List[int] = [0] * count
        svalues: List[str] = [""] * count
        for row in range(count - 1, -1, -1):
            child_rows = children[row]
            end[row] = end[child_rows[-1]] if child_rows else row + 1
            parts = [texts[row]] if texts[row] else []
            parts.extend(svalues[child] for child in child_rows if svalues[child])
            svalues[row] = intern(" ".join(parts))
        depth: List[int] = [0] * count
        parents: List[int] = [-1] * count
        for row in range(count):
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
        self.svalues = svalues
        self.children = children
        self.parents = parents
        self.end = end
        self.depth = depth
        self.tag_rows = tag_rows
        #: Canonical subtree keys, cached per row (repeated queries over
        #: a cached column set dedupe without re-walking the sources).
        self._subtree_keys: Dict[int, Tuple] = {}
        #: Per-tag sorted parent rows (rows with >=1 child of the tag),
        #: built on first use — the batched verifier's structural prune.
        self._parent_rows: Dict[str, List[int]] = {}

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


# ---------------------------------------------------------------------------
# Step application over row sets
# ---------------------------------------------------------------------------


def _tag_rows_of(cols: DocumentColumns, name: str) -> List[int]:
    if name == "*":
        return range(len(cols.nodes))  # type: ignore[return-value]
    return cols.tag_rows.get(name, ())  # type: ignore[return-value]


def _child_rows(cols: DocumentColumns, sources: List[int], name: str) -> List[int]:
    """CHILD-axis rows of ``sources`` matching ``name`` (sorted, unique)."""
    out: List[int] = []
    tags = cols.tags
    for row in sources:
        if name == "*":
            out.extend(cols.children[row])
        else:
            out.extend(child for child in cols.children[row] if tags[child] is name or tags[child] == name)
    if len(sources) > 1:
        out = sorted(set(out))
    return out


def _descendant_child_rows(cols: DocumentColumns, sources: List[int], name: str) -> List[int]:
    """Rows matching ``name`` strictly below any source (``//`` join)."""
    out: List[int] = []
    end = cols.end
    if name == "*":
        for row in sources:
            out.extend(range(row + 1, end[row]))
    else:
        rows = cols.tag_rows.get(name)
        if rows is None:
            return []
        for row in sources:
            lo = bisect_right(rows, row)
            hi = bisect_left(rows, end[row], lo)
            out.extend(rows[lo:hi])
    if len(sources) > 1:
        out = sorted(set(out))
    return out


# ---------------------------------------------------------------------------
# Predicate compilation
# ---------------------------------------------------------------------------


def _compile_steps(
    steps: Tuple[ast.Step, ...], joins: Tuple[bool, ...], absolute: bool
) -> Optional[Callable[[DocumentColumns, List[int]], List[int]]]:
    """Compile a step sequence into rows->rows, or None if unsupported.

    For an absolute path the input rows are ignored and evaluation
    starts at the document point (so ``//tag`` covers the root too, as
    in the engine); a relative path starts from the given context rows.
    """
    compiled: List[Tuple[ast.Step, bool, Optional[str], Optional[RowPredicate]]] = []
    for step, deep in zip(steps, joins):
        if step.axis == ast.SELF and isinstance(step.test, ast.AnyNodeTest):
            name = None  # identity step ('.')
        elif step.axis == ast.CHILD and isinstance(step.test, ast.NameTest):
            name = sys.intern(step.test.name)
        else:
            return None
        predicates: List[RowPredicate] = []
        for predicate in step.predicates:
            row_predicate = _compile_predicate(predicate)
            if row_predicate is None:
                return None
            predicates.append(row_predicate)
        # Fuse the step's predicate chain into one short-circuit test —
        # same left-to-right and-semantics, one filtering pass per step
        # instead of one list rebuild per predicate.
        fused: Optional[RowPredicate]
        if not predicates:
            fused = None
        elif len(predicates) == 1:
            fused = predicates[0]
        else:
            chain = tuple(predicates)

            def fused(
                cols: DocumentColumns, row: int, _chain=chain
            ) -> bool:
                for part in _chain:
                    if not part(cols, row):
                        return False
                return True

        compiled.append((step, deep, name, fused))

    def apply(cols: DocumentColumns, rows: List[int]) -> List[int]:
        first = True
        for _step, deep, name, predicate in compiled:
            if name is None:  # self::node()
                if deep:
                    # './/.' — descendant-or-self of every row.
                    expanded: List[int] = []
                    for row in rows:
                        expanded.extend(range(row, cols.end[row]))
                    rows = sorted(set(expanded)) if len(rows) > 1 else expanded
            elif absolute and first:
                rows = (
                    list(_tag_rows_of(cols, name))
                    if deep
                    else ([0] if name == "*" or cols.tags[0] == name else [])
                )
            elif deep:
                rows = _descendant_child_rows(cols, rows, name)
            else:
                rows = _child_rows(cols, rows, name)
            first = False
            if predicate is not None:
                rows = [row for row in rows if predicate(cols, row)]
        return rows

    return apply


def _compile_relative_rows(path: ast.LocationPath) -> Optional[RowsFunction]:
    if path.absolute or not path.steps:
        return None
    apply = _compile_steps(path.steps, path.descendant_joins, absolute=False)
    if apply is None:
        return None

    def rows_from(cols: DocumentColumns, row: int) -> List[int]:
        return apply(cols, [row])

    return rows_from


def _is_self_path(expr: ast.Expr) -> bool:
    """True for the bare context-node path ``.`` (no predicates)."""
    return (
        isinstance(expr, ast.LocationPath)
        and not expr.absolute
        and len(expr.steps) == 1
        and expr.steps[0].axis == ast.SELF
        and isinstance(expr.steps[0].test, ast.AnyNodeTest)
        and not expr.steps[0].predicates
        and not expr.descendant_joins[0]
    )


#: Operand kinds for compiled comparisons.
_CONST = "const"  # a literal string or number
_ATOM = "atom"  # per-row atomic value (string or float)
_SET = "set"  # per-row node-set, materialised as its string-values


def _compile_operand(expr: ast.Expr) -> Optional[Tuple[str, object]]:
    if isinstance(expr, ast.Literal):
        return (_CONST, sys.intern(expr.value))
    if isinstance(expr, ast.Number):
        return (_CONST, expr.value)
    if isinstance(expr, ast.LocationPath):
        if _is_self_path(expr):
            return (_ATOM, lambda cols, row: cols.svalues[row])
        rows_from = _compile_relative_rows(expr)
        if rows_from is None:
            return None

        def svalues_from(cols: DocumentColumns, row: int, _rows=rows_from) -> List[str]:
            svalues = cols.svalues
            return [svalues[r] for r in _rows(cols, row)]

        return (_SET, svalues_from)
    if isinstance(expr, ast.FunctionCall):
        if expr.name == "number" and len(expr.args) <= 1:
            if not expr.args or _is_self_path(expr.args[0]):
                # number(.) == to_number(context node's string-value).
                def number_of(cols: DocumentColumns, row: int) -> float:
                    try:
                        return float(cols.svalues[row].strip())
                    except ValueError:
                        return float("nan")

                return (_ATOM, number_of)
            argument = _compile_operand(expr.args[0])
            if argument is not None and argument[0] == _SET:
                # number(node-set) converts the first node's string-value
                # (an empty set becomes NaN), per to_number(to_string(..)).
                def number_of_set(
                    cols: DocumentColumns, row: int, _get=argument[1]
                ) -> float:
                    values = _get(cols, row)
                    try:
                        return float(values[0].strip()) if values else float("nan")
                    except ValueError:
                        return float("nan")

                return (_ATOM, number_of_set)
            return None
        if expr.name == "string" and (not expr.args or _is_self_path(expr.args[0])):
            return (_ATOM, lambda cols, row: cols.svalues[row])
        if expr.name == "name" and not expr.args:
            return (_ATOM, lambda cols, row: cols.tags[row])
    return None


def _flatten_or(expr: ast.Expr, leaves: List[ast.Expr]) -> None:
    if isinstance(expr, ast.BinaryOp) and expr.op == "or":
        _flatten_or(expr.left, leaves)
        _flatten_or(expr.right, leaves)
    else:
        leaves.append(expr)


def _membership_literal(leaf: ast.Expr) -> Optional[str]:
    """The literal of a ``. = 'x'`` / ``'x' = .`` leaf, else None."""
    if not (isinstance(leaf, ast.BinaryOp) and leaf.op == "="):
        return None
    left, right = leaf.left, leaf.right
    if _is_self_path(left) and isinstance(right, ast.Literal):
        return right.value
    if _is_self_path(right) and isinstance(left, ast.Literal):
        return left.value
    return None


def _compile_comparison(expr: ast.BinaryOp) -> Optional[RowPredicate]:
    left = _compile_operand(expr.left)
    right = _compile_operand(expr.right)
    if left is None or right is None:
        return None
    op = expr.op
    left_kind, left_value = left
    right_kind, right_value = right

    def side(kind: str, value: object, cols: DocumentColumns, row: int) -> object:
        if kind == _CONST:
            return value
        return value(cols, row)  # type: ignore[operator]

    if left_kind != _SET and right_kind != _SET:
        # Fast path for the dominant '. = literal' probe: base equality
        # on interned strings instead of the generic coercion ladder.
        if (
            op in ("=", "!=")
            and left_kind == _ATOM
            and right_kind == _CONST
            and isinstance(right_value, str)
        ):
            wanted = op == "="

            def equality(cols: DocumentColumns, row: int, _get=left_value) -> bool:
                return (_get(cols, row) == right_value) is wanted

            return equality

        def atomic(cols: DocumentColumns, row: int) -> bool:
            return _compare_atomic(
                op,
                side(left_kind, left_value, cols, row),
                side(right_kind, right_value, cols, row),
            )

        return atomic

    def setwise(cols: DocumentColumns, row: int) -> bool:
        lhs = side(left_kind, left_value, cols, row)
        rhs = side(right_kind, right_value, cols, row)
        if left_kind == _SET and right_kind == _SET:
            return any(_compare_atomic(op, lv, rv) for lv in lhs for rv in rhs)
        if left_kind == _SET:
            return any(_compare_atomic(op, lv, rhs) for lv in lhs)
        return any(_compare_atomic(op, lhs, rv) for rv in rhs)

    return setwise


def _compile_predicate(expr: ast.Expr) -> Optional[RowPredicate]:
    """Compile a predicate to a row test, or None if unsupported.

    Numbers are rejected on purpose: a numeric predicate is positional
    in XPath and the row pipeline has no position context.
    """
    if isinstance(expr, ast.BinaryOp):
        if expr.op == "or":
            leaves: List[ast.Expr] = []
            _flatten_or(expr, leaves)
            literals = [_membership_literal(leaf) for leaf in leaves]
            if all(literal is not None for literal in literals) and len(literals) > 1:
                # '(. = 'a' or . = 'b' or ...)' — the shape SEO expansion
                # emits, sometimes dozens wide: one hash probe instead of
                # a short-circuit chain.
                wanted = frozenset(literals)  # type: ignore[arg-type]

                def membership(cols: DocumentColumns, row: int) -> bool:
                    return cols.svalues[row] in wanted

                return membership
            left = _compile_predicate(expr.left)
            right = _compile_predicate(expr.right)
            if left is None or right is None:
                return None
            return lambda cols, row: left(cols, row) or right(cols, row)
        if expr.op == "and":
            left = _compile_predicate(expr.left)
            right = _compile_predicate(expr.right)
            if left is None or right is None:
                return None
            return lambda cols, row: left(cols, row) and right(cols, row)
        if expr.op in ("=", "!=", "<", "<=", ">", ">="):
            return _compile_comparison(expr)
        return None
    if isinstance(expr, ast.LocationPath):
        if (
            not expr.absolute
            and len(expr.steps) == 1
            and expr.steps[0].axis == ast.CHILD
            and isinstance(expr.steps[0].test, ast.NameTest)
            and not expr.steps[0].predicates
            and not expr.descendant_joins[0]
        ):
            # '[tag]' — the existence probes the pattern compiler emits
            # for every pattern child.  A direct any() over the child
            # rows skips the generic rows-pipeline allocation.
            name = sys.intern(expr.steps[0].test.name)
            if name == "*":
                return lambda cols, row: bool(cols.children[row])

            def has_child(cols: DocumentColumns, row: int) -> bool:
                tags = cols.tags
                for child in cols.children[row]:
                    if tags[child] is name or tags[child] == name:
                        return True
                return False

            return has_child
        rows_from = _compile_relative_rows(expr)
        if rows_from is None:
            return None
        return lambda cols, row: bool(rows_from(cols, row))
    if isinstance(expr, ast.FunctionCall):
        if expr.name == "not" and len(expr.args) == 1:
            inner = _compile_predicate(expr.args[0])
            if inner is None:
                return None
            return lambda cols, row: not inner(cols, row)
        if expr.name == "true" and not expr.args:
            return lambda cols, row: True
        if expr.name == "false" and not expr.args:
            return lambda cols, row: False
    return None


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def compile_columnar_rows(expression: ast.Expr) -> Optional[ColumnarRows]:
    """Compile an XPath AST into a row-returning columnar scan, or None.

    Supported: absolute location paths whose steps are child-axis name
    tests (with ``//`` joins) carrying value/existence predicates — the
    shape the executor's pattern-to-XPath compiler emits.  Everything
    else returns None and must run on the AST engine.  The result is the
    matching *row* list — the executor's batched verifier feeds
    ``(columns, row)`` pairs straight into set-oriented verification
    without materialising candidate node lists first.
    """
    if not isinstance(expression, ast.LocationPath):
        return None
    if not expression.absolute or not expression.steps:
        return None
    apply = _compile_steps(
        expression.steps, expression.descendant_joins, absolute=True
    )
    if apply is None:
        return None

    def rows(cols: DocumentColumns) -> List[int]:
        return apply(cols, [])

    return rows
