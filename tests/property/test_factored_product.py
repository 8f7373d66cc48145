"""Property: the factored virtual product == TAX selection over products.

``join_pairs_batched`` never builds a product tree.  With the pattern
root on the product root it crosses the two side entries' root-child
group lists; with the root on a side row it scans that side alone.  On
small side documents whose same-tag rows nest (an ``a`` inside an
``a``, a side row tagged ``tax_prod_root``) and random join patterns —
the root restricted to ``tax_prod_root``, unrestricted, or restricted to
``{tax_prod_root, a}``; root children on ``pc`` and ``ad`` edges, with
or without a child of their own; patterns that also embed inside one
side — it must return the result sequence ``selection`` returns over
the materialised ``product_tree`` of every pair, and call its evaluator
on the same bindings, in the same order, as the algebra evaluates the
condition.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tax import batch as tax_batch
from repro.tax.algebra import PRODUCT_ROOT_TAG, product_tree, selection
from repro.tax.conditions import (
    DEFAULT_CONTEXT,
    And,
    Comparison,
    Constant,
    NodeContent,
    NodeTag,
    Or,
    TrueCondition,
)
from repro.tax.embedding import find_matches
from repro.tax.pattern import AD, PC, pattern_of
from repro.xmldb.columnar import DocumentColumns
from repro.xmldb.model import XmlNode
from repro.xmldb.serializer import serialize

ROOT = 0
SIDE_TAGS = st.sampled_from(["a", "a", "b", PRODUCT_ROOT_TAG])
HEAD_TAGS = st.sampled_from(["a", "b", None])
EDGES = st.sampled_from([PC, AD])


@st.composite
def side_documents(draw):
    """1-2 documents of up to 15 rows, and the entries a join side takes
    from them: each document's root, and maybe one inner row."""
    entries = []
    for _ in range(draw(st.integers(1, 2))):

        def make(depth):
            node = XmlNode(draw(SIDE_TAGS), draw(st.sampled_from(["", "x"])))
            if depth < 3:
                for _ in range(draw(st.integers(0, 2))):
                    node.append(make(depth + 1))
            return node

        cols = DocumentColumns(make(0).renumber())
        rows = {0, draw(st.integers(0, len(cols.nodes) - 1))}
        entries.extend((cols, row) for row in sorted(rows))
    return entries


def tag_is(label, tag):
    return Comparison("=", NodeTag(label), Constant(tag))


@st.composite
def join_patterns(draw):
    """``(edges, atoms, sl)`` of a random join pattern rooted at label 0."""
    edges, atoms = [(ROOT, None, PC)], []
    root = draw(st.sampled_from(["product", "free", "multi"]))
    if root == "product":
        atoms.append(tag_is(ROOT, PRODUCT_ROOT_TAG))
    elif root == "multi":
        atoms.append(Or(tag_is(ROOT, PRODUCT_ROOT_TAG), tag_is(ROOT, "a")))
    label = 1
    for _ in range(draw(st.integers(1, 2))):
        # A root child, and maybe one child of its own.
        group = [(label, ROOT)] + ([(label + 1, label)] if draw(st.booleans()) else [])
        for step, parent in group:
            edges.append((step, parent, draw(EDGES)))
            tag = draw(HEAD_TAGS)
            if tag is not None:
                atoms.append(tag_is(step, tag))
        label += len(group)
    if draw(st.booleans()):
        first, second = draw(st.lists(st.integers(1, label - 1), min_size=2, max_size=2))
        atoms.append(Comparison("=", NodeContent(first), NodeContent(second)))
    sl = draw(st.lists(st.integers(0, label - 1), unique=True, max_size=2))
    return edges, atoms, sl


def condition_of(atoms):
    if not atoms:
        return TrueCondition()
    return atoms[0] if len(atoms) == 1 else And(*atoms)


class _Recorded(And):
    """The algebra's condition, recording every binding it evaluates."""

    __slots__ = ("calls", "signature")

    def evaluate(self, binding, context=DEFAULT_CONTEXT):
        self.calls.append(self.signature(binding))
        return super().evaluate(binding, context)


def _side_of(entries, side):
    """id(node) -> (side, id(columns), row) for every row of ``entries``."""
    return {
        id(node): (side, id(cols), row)
        for cols, _row in entries
        for row, node in enumerate(cols.nodes)
    }


@given(left=side_documents(), right=side_documents(), shape=join_patterns())
@settings(max_examples=250, deadline=None)
def test_factored_product_equals_selection_over_products(left, right, shape):
    edges, atoms, sl = shape
    pattern = pattern_of(edges, condition_of(atoms))
    pairs = [(i, j) for i in range(len(left)) for j in range(len(right))]
    products = [
        product_tree(left[i][0].nodes[left[i][1]], right[j][0].nodes[right[j][1]])
        for i, j in pairs
    ]
    expected = selection(products, pattern, sl)

    # The batched side records its evaluator's bindings, positioned by
    # the source row each node is.
    where = {**_side_of(left, "L"), **_side_of(right, "R")}
    batched_calls = []
    program = tax_batch.VerifyProgram.compile(pattern, DEFAULT_CONTEXT)
    evaluator = program.evaluator

    def recording(binding):
        batched_calls.append(
            tuple(
                sorted(
                    (label, ("root",) if node is tax_batch._VIRTUAL_ROOT else where[id(node)])
                    for label, node in binding.items()
                )
            )
        )
        return evaluator(binding)

    program = dataclasses.replace(program, evaluator=recording)
    results, _materialized, _scans = tax_batch.join_pairs_batched(
        left, right, pairs, program, sl
    )
    assert results.texts() == [serialize(tree) for tree in expected]
    assert [tree.canonical_key() for tree in results] == [
        tree.canonical_key() for tree in expected
    ]

    # The algebra's evaluations, product tree by product tree, with each
    # product node mapped back to the source row it copies.
    recorded = _Recorded(TrueCondition(), TrueCondition(), *atoms)
    recorded.calls = []
    reference = pattern_of(edges, recorded)
    for (i, j), tree in zip(pairs, products):
        (lcols, l_row), (rcols, r_row) = left[i], right[j]
        left_size = lcols.end[l_row] - l_row

        def position(node):
            if node.pre == 0:
                return ("root",)
            if node.pre <= left_size:
                return ("L", id(lcols), l_row + node.pre - 1)
            return ("R", id(rcols), r_row + node.pre - 1 - left_size)

        recorded.signature = lambda binding: tuple(
            sorted((label, position(node)) for label, node in binding.items())
        )
        for _match in find_matches(reference, tree):
            pass
    assert batched_calls == recorded.calls
