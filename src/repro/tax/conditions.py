"""Selection conditions over pattern-tree nodes.

The TAX condition language: simple conditions ``X op Y`` over terms (a
pattern node's tag or content, or a constant), closed under conjunction,
disjunction and negation.  The TOSS extension (Section 5.1.1) adds the
semantic operators — ``~`` (similarTo), ``instance_of``, ``subtype_of``,
``below``, ``above``, ``part_of`` — whose truth depends on a similarity
enhanced ontology; those atom classes live in :mod:`repro.core.conditions`
but evaluate through the same :class:`ConditionContext` hook object defined
here, so plain TAX evaluation simply runs with the base context (which
rejects semantic operators, exactly TAX's behaviour).
"""

from __future__ import annotations

import abc
from typing import Dict, Mapping, Optional, Set, Union

from ..errors import ConditionError
from ..xmldb.model import XmlNode

#: An embedding restricted to what conditions need: label -> data node.
Binding = Mapping[int, XmlNode]


class ConditionContext:
    """Evaluation hooks for condition atoms.

    The base context implements syntactic comparison only; semantic
    operators raise :class:`ConditionError`, which is precisely TAX: "TAX
    does not use any notion of similarity between search terms".  The TOSS
    context (:class:`repro.core.conditions.SeoConditionContext`) overrides
    the hooks with ontology- and similarity-aware behaviour.
    """

    def compare(self, op: str, left: str, right: str) -> bool:
        """``=, !=, <, <=, >, >=`` with numeric coercion when possible."""
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        try:
            left_value: Union[float, str] = float(left)
            right_value: Union[float, str] = float(right)
        except ValueError:
            left_value, right_value = left, right
        if op == "<":
            return left_value < right_value
        if op == "<=":
            return left_value <= right_value
        if op == ">":
            return left_value > right_value
        if op == ">=":
            return left_value >= right_value
        raise ConditionError(f"unknown comparison operator {op!r}")

    # -- semantic hooks (TOSS overrides these) --------------------------------

    def similar(self, left: str, right: str) -> bool:
        raise ConditionError(
            "the ~ (similarTo) operator needs an ontology context; "
            "plain TAX supports exact comparison only"
        )

    def instance_of(self, left: str, right: str) -> bool:
        raise ConditionError("instance_of needs an ontology context")

    def subtype_of(self, left: str, right: str) -> bool:
        raise ConditionError("subtype_of needs an ontology context")

    def below(self, left: str, right: str) -> bool:
        raise ConditionError("below needs an ontology context")

    def above(self, left: str, right: str) -> bool:
        raise ConditionError("above needs an ontology context")

    def part_of(self, left: str, right: str) -> bool:
        raise ConditionError("part_of needs an ontology context")


#: Module-level default so callers can omit the context for plain TAX.
DEFAULT_CONTEXT = ConditionContext()


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term(abc.ABC):
    """A term of a simple condition: node attribute or constant."""

    __slots__ = ()

    @abc.abstractmethod
    def resolve(self, binding: Binding) -> str:
        """The term's string value under an embedding."""

    def labels(self) -> Set[int]:
        """Pattern labels this term references (empty for constants)."""
        return set()


class NodeTag(Term):
    """``#label.tag`` — the tag of the data node bound to ``label``."""

    __slots__ = ("label",)

    def __init__(self, label: int) -> None:
        self.label = label

    def resolve(self, binding: Binding) -> str:
        try:
            return binding[self.label].tag
        except KeyError:
            raise ConditionError(f"no binding for pattern node {self.label}") from None

    def labels(self) -> Set[int]:
        return {self.label}

    def __repr__(self) -> str:
        return f"#{self.label}.tag"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NodeTag) and other.label == self.label

    def __hash__(self) -> int:
        return hash(("tag", self.label))


class NodeContent(Term):
    """``#label.content`` — the content of the bound data node."""

    __slots__ = ("label",)

    def __init__(self, label: int) -> None:
        self.label = label

    def resolve(self, binding: Binding) -> str:
        try:
            return binding[self.label].content
        except KeyError:
            raise ConditionError(f"no binding for pattern node {self.label}") from None

    def labels(self) -> Set[int]:
        return {self.label}

    def __repr__(self) -> str:
        return f"#{self.label}.content"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NodeContent) and other.label == self.label

    def __hash__(self) -> int:
        return hash(("content", self.label))


class Constant(Term):
    """A literal string (optionally carrying a type name, used by TOSS)."""

    __slots__ = ("value", "type_name")

    def __init__(self, value: str, type_name: Optional[str] = None) -> None:
        self.value = value
        self.type_name = type_name

    def resolve(self, binding: Binding) -> str:
        return self.value

    def __repr__(self) -> str:
        if self.type_name:
            return f"{self.value!r}:{self.type_name}"
        return repr(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and other.value == self.value
            and other.type_name == self.type_name
        )

    def __hash__(self) -> int:
        return hash(("const", self.value, self.type_name))


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------


class Condition(abc.ABC):
    """A selection condition; evaluated against a binding and a context."""

    __slots__ = ()

    @abc.abstractmethod
    def evaluate(self, binding: Binding, context: ConditionContext = DEFAULT_CONTEXT) -> bool:
        """Truth of the condition under the embedding ``binding``."""

    @abc.abstractmethod
    def labels(self) -> Set[int]:
        """All pattern labels referenced anywhere in the condition."""

    def __and__(self, other: "Condition") -> "Condition":
        return And(self, other)

    def __or__(self, other: "Condition") -> "Condition":
        return Or(self, other)

    def __invert__(self) -> "Condition":
        return Not(self)


class TrueCondition(Condition):
    """The vacuous condition (used by default on pattern trees)."""

    __slots__ = ()

    def evaluate(self, binding: Binding, context: ConditionContext = DEFAULT_CONTEXT) -> bool:
        return True

    def labels(self) -> Set[int]:
        return set()

    def __repr__(self) -> str:
        return "TRUE"


class Comparison(Condition):
    """A simple condition ``X op Y`` with a syntactic operator."""

    OPS = ("=", "!=", "<", "<=", ">", ">=")

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Term, right: Term) -> None:
        if op not in self.OPS:
            raise ConditionError(f"unsupported operator {op!r}; use one of {self.OPS}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, binding: Binding, context: ConditionContext = DEFAULT_CONTEXT) -> bool:
        return context.compare(self.op, self.left.resolve(binding), self.right.resolve(binding))

    def labels(self) -> Set[int]:
        return self.left.labels() | self.right.labels()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Contains(Condition):
    """Substring containment — the TAX fallback for semantic operators.

    The experiments in Section 6 replace each isa condition by "contains"
    when running plain TAX; this atom is that replacement.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term) -> None:
        self.left = left
        self.right = right

    def evaluate(self, binding: Binding, context: ConditionContext = DEFAULT_CONTEXT) -> bool:
        return self.right.resolve(binding).lower() in self.left.resolve(binding).lower()

    def labels(self) -> Set[int]:
        return self.left.labels() | self.right.labels()

    def __repr__(self) -> str:
        return f"contains({self.left!r}, {self.right!r})"


class And(Condition):
    """Conjunction of two or more conditions."""

    __slots__ = ("operands",)

    def __init__(self, *operands: Condition) -> None:
        if len(operands) < 2:
            raise ConditionError("And requires at least two operands")
        self.operands = tuple(operands)

    def evaluate(self, binding: Binding, context: ConditionContext = DEFAULT_CONTEXT) -> bool:
        return all(operand.evaluate(binding, context) for operand in self.operands)

    def labels(self) -> Set[int]:
        result: Set[int] = set()
        for operand in self.operands:
            result |= operand.labels()
        return result

    def __repr__(self) -> str:
        return "(" + " AND ".join(repr(o) for o in self.operands) + ")"


class Or(Condition):
    """Disjunction of two or more conditions."""

    __slots__ = ("operands",)

    def __init__(self, *operands: Condition) -> None:
        if len(operands) < 2:
            raise ConditionError("Or requires at least two operands")
        self.operands = tuple(operands)

    def evaluate(self, binding: Binding, context: ConditionContext = DEFAULT_CONTEXT) -> bool:
        return any(operand.evaluate(binding, context) for operand in self.operands)

    def labels(self) -> Set[int]:
        result: Set[int] = set()
        for operand in self.operands:
            result |= operand.labels()
        return result

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(o) for o in self.operands) + ")"


class Not(Condition):
    """Negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Condition) -> None:
        self.operand = operand

    def evaluate(self, binding: Binding, context: ConditionContext = DEFAULT_CONTEXT) -> bool:
        return not self.operand.evaluate(binding, context)

    def labels(self) -> Set[int]:
        return self.operand.labels()

    def __repr__(self) -> str:
        return f"NOT {self.operand!r}"


# ---------------------------------------------------------------------------
# Static analysis for embedding pruning
# ---------------------------------------------------------------------------


def required_tags(condition: Condition) -> Dict[int, Set[str]]:
    """Per-label tag restrictions implied by the condition.

    Walks the positive conjunctive structure of the condition and collects
    ``#n.tag = 'x'`` atoms (and disjunctions of them over the same label)
    into ``{n: {'x', ...}}``.  The embedding engine uses this to restrict
    candidate data nodes via the tag index.  Sound but not complete: atoms
    under Not or mixed Or contribute nothing.
    """
    restrictions: Dict[int, Set[str]] = {}

    def merge(label: int, tags: Set[str]) -> None:
        if label in restrictions:
            restrictions[label] &= tags
        else:
            restrictions[label] = set(tags)

    def visit(node: Condition) -> None:
        if isinstance(node, And):
            for operand in node.operands:
                visit(operand)
            return
        if isinstance(node, Comparison) and node.op == "=":
            pair = _tag_equality(node)
            if pair is not None:
                merge(pair[0], {pair[1]})
            return
        if isinstance(node, Or):
            per_label: Dict[int, Set[str]] = {}
            for operand in node.operands:
                if not isinstance(operand, Comparison) or operand.op != "=":
                    return  # a non-tag disjunct defeats the restriction
                pair = _tag_equality(operand)
                if pair is None:
                    return
                per_label.setdefault(pair[0], set()).add(pair[1])
            if len(per_label) == 1:
                label, tags = next(iter(per_label.items()))
                merge(label, tags)

    visit(condition)
    return restrictions


def _tag_equality(atom: Comparison) -> "Optional[tuple]":
    left, right = atom.left, atom.right
    if isinstance(left, NodeTag) and isinstance(right, Constant):
        return (left.label, right.value)
    if isinstance(right, NodeTag) and isinstance(left, Constant):
        return (right.label, left.value)
    return None
