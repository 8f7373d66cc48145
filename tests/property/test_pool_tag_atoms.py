"""Property: the verify program leaves out only tag atoms its pools enforce.

``required_tags`` turns each top-level ``#n.tag = 'x'`` conjunct (and
each one-label or-chain of them) into the tag restriction of label
``n``'s candidate pool, so :meth:`VerifyProgram.compile` drops those
atoms from the evaluator under the base ``compare``.  Over random
patterns, conditions and documents, the compiled evaluator must agree
with the full condition's on every binding a scan produces, and the
batched selection must answer what TAX selection answers.  An atom on a
label the pattern does not bind is kept (its ``ConditionError`` still
fires), a context that overrides ``compare`` keeps every atom, and a
condition of tag atoms alone compiles to the always-true evaluator.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConditionError
from repro.tax import batch as tax_batch
from repro.tax.algebra import selection
from repro.tax.compile import _always_true, compile_condition
from repro.tax.conditions import (
    DEFAULT_CONTEXT,
    And,
    Comparison,
    ConditionContext,
    Constant,
    NodeContent,
    NodeTag,
    Not,
    Or,
)
from repro.tax.pattern import AD, PC, pattern_of
from repro.xmldb.columnar import DocumentColumns
from repro.xmldb.model import XmlNode
from repro.xmldb.serializer import serialize

TAGS = st.sampled_from(["a", "b", "c"])


def tag_is(label, tag, flipped=False):
    if flipped:
        return Comparison("=", Constant(tag), NodeTag(label))
    return Comparison("=", NodeTag(label), Constant(tag))


@st.composite
def documents(draw):
    def make(depth):
        node = XmlNode(draw(TAGS), draw(st.sampled_from(["", "x", "y"])))
        if depth < 3:
            for _ in range(draw(st.integers(0, 3))):
                node.append(make(depth + 1))
        return node

    return make(0).renumber()


@st.composite
def patterns(draw):
    """A pattern over labels ``0 .. n-1`` and a condition mixing the
    atoms the pools enforce with ones they do not."""
    count = draw(st.integers(1, 4))
    edges = [(0, None, PC)] + [
        (label, draw(st.integers(0, label - 1)), draw(st.sampled_from([PC, AD])))
        for label in range(1, count)
    ]
    labels = st.integers(0, count - 1)

    @st.composite
    def conjunct(draw, nested=True):
        kind = draw(
            st.sampled_from(
                ["tag", "tag", "one-label or", "mixed or", "content", "not", "ne"]
                + (["and"] if nested else [])
            )
        )
        label = draw(labels)
        if kind == "tag":
            return tag_is(label, draw(TAGS), draw(st.booleans()))
        if kind == "one-label or":
            return Or(
                tag_is(label, draw(TAGS)), tag_is(label, draw(TAGS), draw(st.booleans()))
            )
        if kind == "mixed or":
            return Or(tag_is(label, draw(TAGS)), tag_is(draw(labels), draw(TAGS)))
        if kind == "content":
            value = draw(st.sampled_from(["x", "y"]))
            return Comparison("=", NodeContent(label), Constant(value))
        if kind == "not":
            return Not(tag_is(label, draw(TAGS)))
        if kind == "ne":
            return Comparison("!=", NodeTag(label), Constant(draw(TAGS)))
        return And(draw(conjunct(nested=False)), draw(conjunct(nested=False)))

    parts = draw(st.lists(conjunct(), min_size=1, max_size=4))
    return pattern_of(edges, parts[0] if len(parts) == 1 else And(*parts))


@given(pattern=patterns(), root=documents())
@settings(max_examples=300, deadline=None)
def test_the_compiled_evaluator_agrees_on_every_pool_binding(pattern, root):
    program = tax_batch.VerifyProgram.compile(pattern, DEFAULT_CONTEXT)
    full = compile_condition(pattern.condition, DEFAULT_CONTEXT)
    compiled = program.evaluator

    def checked(binding):
        verdict = compiled(binding)
        assert verdict == full(binding)
        return verdict

    cols = DocumentColumns(root)
    dataclasses.replace(program, evaluator=checked).scan(
        cols, 0, len(cols.nodes), {}, {}, lambda: None
    )
    # The answers are TAX selection's over the document's tree.
    results = tax_batch.selection_batched([(cols, 0)], program, [pattern.root])
    expected = selection([root], pattern, [pattern.root])
    assert results.texts() == [serialize(tree) for tree in expected]


def test_a_tag_atom_off_the_pattern_still_raises():
    pattern = pattern_of(
        [(0, None, PC), (1, 0, PC)], And(tag_is(0, "a"), tag_is(9, "a"))
    )
    program = tax_batch.VerifyProgram.compile(pattern, DEFAULT_CONTEXT)
    root = XmlNode("a")
    root.append(XmlNode("b"))
    cols = DocumentColumns(root.renumber())
    with pytest.raises(ConditionError, match="pattern node 9"):
        tax_batch.selection_batched([(cols, 0)], program, [0])


def test_a_context_that_overrides_compare_keeps_its_atoms():
    calls = []

    class Recording(ConditionContext):
        def compare(self, op, left, right):
            calls.append((op, left, right))
            return super().compare(op, left, right)

    pattern = pattern_of(
        [(0, None, PC), (1, 0, PC)], And(tag_is(0, "a"), tag_is(1, "b"))
    )
    program = tax_batch.VerifyProgram.compile(pattern, Recording())
    assert program.evaluator is not _always_true
    root = XmlNode("a")
    root.append(XmlNode("b"))
    cols = DocumentColumns(root.renumber())
    assert len(tax_batch.selection_batched([(cols, 0)], program, [0])) == 1
    assert calls == [("=", "a", "a"), ("=", "b", "b")]


def test_a_condition_of_tag_atoms_alone_compiles_to_always_true():
    pattern = pattern_of(
        [(0, None, PC), (1, 0, AD), (2, 1, PC)],
        And(
            tag_is(0, "a"),
            And(tag_is(1, "b", flipped=True), Or(tag_is(2, "c"), tag_is(2, "a"))),
        ),
    )
    program = tax_batch.VerifyProgram.compile(pattern, DEFAULT_CONTEXT)
    assert program.evaluator is _always_true
