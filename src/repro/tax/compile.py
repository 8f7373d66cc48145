"""One-time compilation of condition trees into evaluation closures.

``Condition.evaluate`` walks the AST for every candidate binding: one
dynamic-dispatch call per node, one ``isinstance``-laden ``resolve`` per
term, re-done for every document the verifier probes.  On the fig-16
workloads that interpretation is a top-three cost.  This module converts
a condition tree *once* (per cached query plan) into a tree of plain
Python closures — after compilation, evaluating a binding is just
nested function calls over dict lookups, with no AST in sight.

Semantics are bit-for-bit those of the interpreter:

* term resolution errors (``no binding for pattern node N``) carry the
  same :class:`~repro.errors.ConditionError` message,
* comparison/semantic-hook calls go through the *same* bound context
  methods, so side effects (``SeoConditionContext.ontology_accesses``)
  and error behaviour are identical,
* ``And``/``Or`` short-circuit in operand order exactly like
  ``all``/``any`` over the interpreted generators.

Extension atoms (the TOSS semantic operators in
:mod:`repro.core.conditions`) register themselves through
:func:`register_condition_compiler`.  There is no interpreted fallback:
a condition class (or term class) nobody registered raises a
:class:`~repro.errors.ConditionError` naming it when the plan is built,
so production verification never walks ``Condition.evaluate`` — that
interpreter runs only in the reference executor.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Type

from ..errors import ConditionError
from .conditions import (
    And,
    Binding,
    Comparison,
    Condition,
    ConditionContext,
    Constant,
    Contains,
    NodeContent,
    NodeTag,
    Not,
    Or,
    Term,
    TrueCondition,
)

#: A compiled condition: binding -> truth, closed over the context.
ConditionEvaluator = Callable[[Binding], bool]

#: A compiled term: binding -> string value.
TermResolver = Callable[[Binding], str]

#: Class-keyed extension compilers.
_Compiler = Callable[
    [Condition, ConditionContext, "Callable[[Condition, ConditionContext], ConditionEvaluator]"],
    ConditionEvaluator,
]
_COMPILERS: Dict[Type[Condition], _Compiler] = {}

#: Sentinel distinguishing "not a constant" from a constant empty string.
_NOT_CONSTANT = object()


def register_condition_compiler(cls: Type[Condition], compiler: _Compiler) -> None:
    """Register a closure compiler for an extension condition class.

    Dispatch is on the *exact* class — a subclass that overrides
    ``evaluate`` is never silently compiled with its parent's semantics;
    :func:`compile_condition` refuses it until it is registered itself.
    """
    _COMPILERS[cls] = compiler


def compile_term(term: Term) -> TermResolver:
    """A resolver closure for ``term`` (exact interpreter semantics)."""
    resolver, _ = _compile_term(term)
    return resolver


def _compile_term(term: Term):
    """(resolver, constant-value-or-sentinel) for a term."""
    kind = type(term)
    if kind is Constant:
        value = term.value

        def constant(binding: Binding, _value=value) -> str:
            return _value

        return constant, value
    if kind is NodeTag:
        label = term.label

        def tag_of(binding: Binding, _label=label) -> str:
            try:
                return binding[_label].tag
            except KeyError:
                raise ConditionError(
                    f"no binding for pattern node {_label}"
                ) from None

        return tag_of, _NOT_CONSTANT
    if kind is NodeContent:
        label = term.label

        def content_of(binding: Binding, _label=label) -> str:
            try:
                return binding[_label].content
            except KeyError:
                raise ConditionError(
                    f"no binding for pattern node {_label}"
                ) from None

        return content_of, _NOT_CONSTANT
    raise ConditionError(f"no compiler for term class {kind.__name__}")


def _uses_base_compare(context: ConditionContext) -> bool:
    """True when ``context`` has not overridden ``compare``.

    Only then may ``=``/``!=`` collapse to native ``==``/``!=`` and
    or-chains to set membership; an overriding context keeps its own
    ``compare`` in the loop.
    """
    return type(context).compare is ConditionContext.compare


def _membership_or(condition: Or, context: ConditionContext) -> Optional[ConditionEvaluator]:
    """``Or(x = c1, x = c2, ...)`` as one resolve + a set probe.

    This is exactly the shape :func:`repro.core.conditions.rewrite_condition`
    emits for SEO expansions — the hottest Or in the system.  Applicable
    only under the base ``compare`` (pure string equality) with every
    disjunct an ``=`` over the *same* non-constant term and a constant.
    """
    if not _uses_base_compare(context):
        return None
    shared_term: Optional[Term] = None
    values = set()
    for operand in condition.operands:
        if type(operand) is not Comparison or operand.op != "=":
            return None
        left, right = operand.left, operand.right
        if type(right) is Constant and type(left) is not Constant:
            term, value = left, right.value
        elif type(left) is Constant and type(right) is not Constant:
            term, value = right, left.value
        else:
            return None
        if shared_term is None:
            shared_term = term
        elif term != shared_term:
            return None
        values.add(value)
    if shared_term is None:
        return None
    resolve = compile_term(shared_term)
    members = frozenset(values)

    def membership(binding: Binding, _resolve=resolve, _members=members) -> bool:
        return _resolve(binding) in _members

    return membership


def _compile_comparison(condition: Comparison, context: ConditionContext) -> ConditionEvaluator:
    left, left_const = _compile_term(condition.left)
    right, right_const = _compile_term(condition.right)
    op = condition.op
    if _uses_base_compare(context) and op in ("=", "!="):
        # Pure string (in)equality: skip the context call entirely.
        if op == "=":
            if right_const is not _NOT_CONSTANT:
                def eq_const(binding: Binding, _l=left, _v=right_const) -> bool:
                    return _l(binding) == _v

                return eq_const
            if left_const is not _NOT_CONSTANT:
                def const_eq(binding: Binding, _r=right, _v=left_const) -> bool:
                    return _v == _r(binding)

                return const_eq

            def eq(binding: Binding, _l=left, _r=right) -> bool:
                return _l(binding) == _r(binding)

            return eq
        if right_const is not _NOT_CONSTANT:
            def ne_const(binding: Binding, _l=left, _v=right_const) -> bool:
                return _l(binding) != _v

            return ne_const

        def ne(binding: Binding, _l=left, _r=right) -> bool:
            return _l(binding) != _r(binding)

        return ne
    compare = context.compare

    def ordered(binding: Binding, _c=compare, _op=op, _l=left, _r=right) -> bool:
        return _c(_op, _l(binding), _r(binding))

    return ordered


def compile_condition(
    condition: Condition, context: ConditionContext
) -> ConditionEvaluator:
    """Compile ``condition`` into a closure over ``context``.

    Raises :class:`~repro.errors.ConditionError` naming the class of any
    condition or term nobody registered a compiler for.
    """
    kind = type(condition)
    if kind is TrueCondition:
        return _always_true
    if kind is Comparison:
        return _compile_comparison(condition, context)
    if kind is Contains:
        left = compile_term(condition.left)
        right = compile_term(condition.right)

        def contains(binding: Binding, _l=left, _r=right) -> bool:
            return _r(binding).lower() in _l(binding).lower()

        return contains
    if kind is And:
        parts = tuple(
            compile_condition(operand, context) for operand in condition.operands
        )
        if len(parts) == 2:
            first, second = parts

            def both(binding: Binding, _a=first, _b=second) -> bool:
                return _a(binding) and _b(binding)

            return both

        def conjunction(binding: Binding, _parts=parts) -> bool:
            for part in _parts:
                if not part(binding):
                    return False
            return True

        return conjunction
    if kind is Or:
        membership = _membership_or(condition, context)
        if membership is not None:
            return membership
        parts = tuple(
            compile_condition(operand, context) for operand in condition.operands
        )

        def disjunction(binding: Binding, _parts=parts) -> bool:
            for part in _parts:
                if part(binding):
                    return True
            return False

        return disjunction
    if kind is Not:
        inner = compile_condition(condition.operand, context)

        def negation(binding: Binding, _inner=inner) -> bool:
            return not _inner(binding)

        return negation
    extension = _COMPILERS.get(kind)
    if extension is None:
        raise ConditionError(f"no compiler for condition class {kind.__name__}")
    return extension(condition, context, compile_condition)


def _always_true(binding: Binding) -> bool:
    return True


# ---------------------------------------------------------------------------
# Pattern lowering for set-oriented (columnar) verification
# ---------------------------------------------------------------------------

#: One step of a columnar verification program:
#: ``(label, parent_label_or_None, edge, tags_tuple, tags_set)`` —
#: ``tags_tuple`` preserves the restriction set's iteration order (the
#: embedder enumerates per-tag pools in that order) and ``tags_set`` is
#: kept for membership filtering; both are None when unrestricted.
BatchStep = tuple


def compile_batch_steps(pattern, restrictions) -> "list[BatchStep]":
    """Lower a (validated) pattern + tag restrictions to a step program.

    The batched verifier (:mod:`repro.tax.batch`) interprets this flat
    program over a document's :class:`~repro.xmldb.columnar.DocumentColumns`
    instead of re-deriving edges and restriction sets per candidate tree.
    Steps follow the pattern's preorder — the same enumeration order
    :func:`repro.tax.embedding.find_embeddings` backtracks in, which is
    what keeps evaluator call sequences (and therefore ontology-access
    counts) bit-identical between the two paths.
    """
    steps = []
    for pattern_node in pattern.preorder():
        tags = restrictions.get(pattern_node.label)
        steps.append(
            (
                pattern_node.label,
                pattern_node.parent,
                pattern_node.edge,
                None if tags is None else tuple(tags),
                tags,
            )
        )
    return steps
