"""The extended condition language of Section 5.1.1.

Simple conditions are ``X op Y`` with ``op`` drawn from ``=, !=, <, <=, >,
>=`` (now typed, with conversion through the least common supertype), the
similarity operator ``~`` and the ontology operators ``instance_of``,
``subtype_of`` (aliased ``isa``), ``below``, ``above`` and ``part_of``.
Satisfaction is relative to an SEO: the :class:`SeoConditionContext`
carries the similarity enhanced ontology (per relation) and the type
system, and plugs into the TAX evaluator's
:class:`~repro.tax.conditions.ConditionContext` hooks, so every TAX
operator transparently becomes a TOSS operator when run with it.

:func:`rewrite_condition` is the query-rewriting half of the paper's Query
Executor: semantic atoms over a constant are expanded into disjunctions of
exact matches via the SEO ("transforms a user query into a query that
takes ontological information into account").
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from ..errors import ConditionError, IllTypedConditionError
from ..ontology.hierarchy import Ontology
from ..similarity.seo import SimilarityEnhancedOntology
from ..tax.compile import compile_term, register_condition_compiler
from ..tax.conditions import (
    DEFAULT_CONTEXT,
    And,
    Binding,
    Comparison,
    Condition,
    ConditionContext,
    Constant,
    NodeContent,
    NodeTag,
    Not,
    Or,
    Term,
    TrueCondition,
)
from ..xmldb.model import XmlNode
from .types import STRING, TypeSystem, default_type_system

#: t(o, attr): maps a data node and attribute kind ("tag"/"content") to a type.
TypingFunction = Callable[[XmlNode, str], str]


def default_typing(node: XmlNode, attribute: str) -> str:
    """The Section 5 default: attribute types are the node's tag.

    "Consider o.tag = author ... extended with the ontology,
    t(o, tag) = author" — tags and contents are typed by the tag term,
    which the ontology orders below broader concepts.  Types unknown to
    the type system degrade to ``string`` during comparisons.
    """
    return node.tag


class SeoConditionContext(ConditionContext):
    """Evaluation context carrying SEOs (per relation) and the type system.

    Parameters
    ----------
    seo:
        The isa-relation SEO (the paper's default: "we will assume that
        the set Sigma equals {isa}").
    seos:
        Optional extra relation SEOs, e.g. ``{"part-of": ...}`` for the
        ``part_of`` operator.
    type_system:
        Conversion functions and the type hierarchy; defaults to
        :func:`default_type_system`.
    typing:
        The instance typing ``t(o, attr)``; defaults to tag-typing.
    """

    similar_probe = "similar"

    def __init__(
        self,
        seo: SimilarityEnhancedOntology,
        seos: Optional[Mapping[str, SimilarityEnhancedOntology]] = None,
        type_system: Optional[TypeSystem] = None,
        typing: TypingFunction = default_typing,
    ) -> None:
        self.seo = seo
        self.seos: Dict[str, SimilarityEnhancedOntology] = dict(seos or {})
        self.seos.setdefault(Ontology.ISA, seo)
        self.type_system = type_system if type_system is not None else default_type_system()
        self.typing = typing
        #: How often the ontology was consulted (Section 6 attributes the
        #: growing TOSS-TAX gap to "more accesses to the ontology").
        self.ontology_accesses = 0

    def relation_seo(self, relation: str) -> SimilarityEnhancedOntology:
        try:
            return self.seos[relation]
        except KeyError:
            raise ConditionError(
                f"no SEO is attached for the {relation!r} relation"
            ) from None

    # -- semantic hooks -------------------------------------------------------

    def similar(self, left: str, right: str) -> bool:
        self.ontology_accesses += 1
        return self.seo.similar(left, right)

    def instance_of(self, left: str, right: str) -> bool:
        """X instance_of Y: X sits strictly below Y (as a value of it)."""
        self.ontology_accesses += 1
        return left != right and left in self.seo.expand_below(right)

    def subtype_of(self, left: str, right: str) -> bool:
        """X subtype_of Y: X <= Y in the enhanced order (reflexive)."""
        self.ontology_accesses += 1
        return left == right or left in self.seo.expand_below(right)

    def below(self, left: str, right: str) -> bool:
        """X below Y = X instance_of Y or X subtype_of Y (Section 5.1.1)."""
        return self.subtype_of(left, right)

    def above(self, left: str, right: str) -> bool:
        """X above Y = Y below X."""
        return self.below(right, left)

    def part_of(self, left: str, right: str) -> bool:
        self.ontology_accesses += 1
        seo = self.relation_seo(Ontology.PART_OF)
        if left == right:
            return True
        return left in seo.expand_below(right)

    def expansion(self, atom: Condition) -> Optional[FrozenSet[str]]:
        """The SEO expansion of a semantic atom's constant side (None for
        a node-to-node atom); raises :class:`ConditionError` for a
        relation with no attached SEO."""
        if not isinstance(atom.right, Constant):
            return None
        constant = atom.right.value
        if isinstance(atom, SimilarTo):
            return self.seo.expand_similar(constant)
        if isinstance(atom, (Below, SubtypeOf, InstanceOf)):
            terms = self.seo.expand_below(constant)
            if isinstance(atom, InstanceOf):
                terms = frozenset(terms - {constant})
            return terms
        if isinstance(atom, Above):
            return self.seo.expand_above(constant)
        if isinstance(atom, PartOf):
            return self.relation_seo(Ontology.PART_OF).expand_below(constant)
        return None

    # -- typing ----------------------------------------------------------------

    def term_type(self, term: Term, binding: Binding) -> str:
        """``type(X)^h`` of Section 5.1.1."""
        if isinstance(term, Constant):
            return term.type_name if term.type_name is not None else STRING
        if isinstance(term, NodeTag):
            return self.typing(binding[term.label], "tag")
        if isinstance(term, NodeContent):
            return self.typing(binding[term.label], "content")
        return STRING

    def _registered_type(self, type_name: str) -> str:
        """Map ontology-level types outside the type system to ``string``."""
        return type_name if self.type_system.has_type(type_name) else STRING

    def typed_compare(self, op: str, left: Term, right: Term, binding: Binding) -> bool:
        """Well-typed comparison with conversion to the least common supertype.

        Raises :class:`IllTypedConditionError` when no least common
        supertype exists or a required conversion function is missing.
        """
        left_type = self._registered_type(self.term_type(left, binding))
        right_type = self._registered_type(self.term_type(right, binding))
        supertype = self.type_system.least_common_supertype(left_type, right_type)
        if supertype is None:
            raise IllTypedConditionError(
                f"no least common supertype for {left_type!r} and {right_type!r}"
            )
        for source in (left_type, right_type):
            if not self.type_system.can_convert(source, supertype):
                raise IllTypedConditionError(
                    f"no conversion function {source} -> {supertype}; "
                    f"the comparison is not well-typed"
                )
        left_value = self.type_system.convert(
            self.type_system.parse_value(left.resolve(binding), left_type),
            left_type,
            supertype,
        )
        right_value = self.type_system.convert(
            self.type_system.parse_value(right.resolve(binding), right_type),
            right_type,
            supertype,
        )
        return _apply_op(op, left_value, right_value)


class ExactFallbackContext(ConditionContext):
    """Degraded-mode evaluation: semantic operators become exact matching.

    When the SEO build fails or times out, :class:`~repro.core.system.
    TossSystem` keeps answering queries through this context instead of
    raising — ``~`` and the ontology operators degrade to plain string
    equality (the TAX baseline), ``instance_of`` (strictly below) to
    False, and typed comparisons to the base syntactic comparison.
    Results are sound but not similarity-complete; execution reports
    carry ``degraded=True`` so callers can tell.
    """

    degraded = True
    similar_probe = "equal"

    def similar(self, left: str, right: str) -> bool:
        return left == right

    def instance_of(self, left: str, right: str) -> bool:
        return False

    def subtype_of(self, left: str, right: str) -> bool:
        return left == right

    def below(self, left: str, right: str) -> bool:
        return left == right

    def above(self, left: str, right: str) -> bool:
        return left == right

    def part_of(self, left: str, right: str) -> bool:
        return left == right

    def expansion(self, atom: Condition) -> Optional[FrozenSet[str]]:
        """The constant itself, which the equality stand-in accepts; the
        empty set for ``instance_of``, which accepts nothing."""
        if not isinstance(atom.right, Constant):
            return None
        if isinstance(atom, InstanceOf):
            return frozenset()
        return frozenset({atom.right.value})


#: Shared stateless instance of the degraded-mode context.
EXACT_FALLBACK_CONTEXT = ExactFallbackContext()


def _apply_op(op: str, left: object, right: object) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    try:
        if op == "<":
            return left < right  # type: ignore[operator]
        if op == "<=":
            return left <= right  # type: ignore[operator]
        if op == ">":
            return left > right  # type: ignore[operator]
        if op == ">=":
            return left >= right  # type: ignore[operator]
    except TypeError as exc:
        raise IllTypedConditionError(
            f"values {left!r} and {right!r} are not comparable with {op!r}"
        ) from exc
    raise ConditionError(f"unknown comparison operator {op!r}")


# ---------------------------------------------------------------------------
# Extended atoms
# ---------------------------------------------------------------------------


class TypedComparison(Condition):
    """``X op Y`` with least-common-supertype conversion semantics.

    The context's ``typed_compare`` decides it: the base context's is the
    plain syntactic comparison (plain TAX has no types beyond strings).
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Term, right: Term) -> None:
        if op not in Comparison.OPS:
            raise ConditionError(f"unsupported operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, binding: Binding, context: ConditionContext = DEFAULT_CONTEXT) -> bool:
        return context.typed_compare(self.op, self.left, self.right, binding)

    def labels(self) -> Set[int]:
        return self.left.labels() | self.right.labels()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op}:typed {self.right!r})"


class _SemanticAtom(Condition):
    """Shared shape of the ontology/similarity operators."""

    HOOK = ""  # ConditionContext method name
    SYMBOL = ""

    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term) -> None:
        self.left = left
        self.right = right

    def evaluate(self, binding: Binding, context: ConditionContext = DEFAULT_CONTEXT) -> bool:
        hook = getattr(context, self.HOOK)
        return hook(self.left.resolve(binding), self.right.resolve(binding))

    def labels(self) -> Set[int]:
        return self.left.labels() | self.right.labels()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.SYMBOL} {self.right!r})"


class SimilarTo(_SemanticAtom):
    """``X ~ Y`` — true iff an SEO node contains both operand strings."""

    HOOK = "similar"
    SYMBOL = "~"

    __slots__ = ()


class InstanceOf(_SemanticAtom):
    """``X instance_of Y`` — X is a value strictly below the type Y."""

    HOOK = "instance_of"
    SYMBOL = "instance_of"

    __slots__ = ()


class SubtypeOf(_SemanticAtom):
    """``X subtype_of Y`` — X <= Y in the enhanced isa order."""

    HOOK = "subtype_of"
    SYMBOL = "subtype_of"

    __slots__ = ()


class Isa(SubtypeOf):
    """Alias: the paper writes both ``isa`` and ``subtype_of``."""

    SYMBOL = "isa"

    __slots__ = ()


class Below(_SemanticAtom):
    """``X below Y`` = instance_of or subtype_of."""

    HOOK = "below"
    SYMBOL = "below"

    __slots__ = ()


class Above(_SemanticAtom):
    """``X above Y`` = Y below X."""

    HOOK = "above"
    SYMBOL = "above"

    __slots__ = ()


class PartOf(_SemanticAtom):
    """``X part_of Y`` through the part-of relation's SEO (Example 12)."""

    HOOK = "part_of"
    SYMBOL = "part_of"

    __slots__ = ()


# ---------------------------------------------------------------------------
# Closure compilation (see repro.tax.compile)
# ---------------------------------------------------------------------------


def _compile_typed_comparison(condition, context, recurse):
    """TypedComparison: bind the context's ``typed_compare`` once."""

    def typed(
        binding,
        _tc=context.typed_compare,
        _op=condition.op,
        _l=condition.left,
        _r=condition.right,
    ):
        return _tc(_op, _l, _r, binding)

    return typed


def _compile_semantic_atom(condition, context, recurse):
    """Semantic atoms: resolve the context hook once; same call thereafter.

    Going through the *bound* hook keeps side effects identical to the
    interpreter — ``SeoConditionContext.ontology_accesses`` ticks the
    same number of times, and the base context raises the same
    :class:`~repro.errors.ConditionError`.
    """
    hook = getattr(context, type(condition).HOOK)
    left = compile_term(condition.left)
    right = compile_term(condition.right)

    def semantic(binding, _hook=hook, _l=left, _r=right):
        return _hook(_l(binding), _r(binding))

    return semantic


register_condition_compiler(TypedComparison, _compile_typed_comparison)
for _atom_class in (SimilarTo, InstanceOf, SubtypeOf, Isa, Below, Above, PartOf):
    register_condition_compiler(_atom_class, _compile_semantic_atom)
del _atom_class


# ---------------------------------------------------------------------------
# Query rewriting (the executor's expansion step)
# ---------------------------------------------------------------------------


def rewrite_condition(
    condition: Condition,
    context: SeoConditionContext,
    expand_similar: bool = True,
) -> Condition:
    """Expand semantic atoms into exact-match disjunctions via the SEO.

    Atoms whose right operand is a constant are replaced by
    ``Or(left = t1, left = t2, ...)`` over the SEO expansion of the
    constant; all other nodes are rebuilt unchanged.  The result is a
    plain TAX condition (evaluable without an ontology and compilable to
    XPath).

    For ``below`` / ``above`` / ``isa`` / ``instance_of`` / ``part_of``
    the expansion is exactly the set of values the evaluator accepts, so
    the rewrite means what the atom means.  A ``~`` expansion is
    narrower: :meth:`SimilarityEnhancedOntology.similar
    <repro.similarity.seo.SimilarityEnhancedOntology.similar>` compares a
    value outside the SEO by raw distance, and no finite disjunction over
    SEO terms says that.  The evaluator decides ``~``; with
    ``expand_similar=False`` constant-sided ``~`` atoms are kept as they
    are (the form a sound XPath prefilter is compiled from).
    """
    if isinstance(condition, _SemanticAtom):
        if not expand_similar and isinstance(condition, SimilarTo):
            return condition
        expansion = context.expansion(condition)
        if expansion is None:
            return condition  # node-to-node semantic atom: leave for runtime
        atoms = [
            Comparison("=", condition.left, Constant(term))
            for term in sorted(expansion)
        ]
        if not atoms:
            return Not(TrueCondition())
        if len(atoms) == 1:
            return atoms[0]
        return Or(*atoms)
    if isinstance(condition, And):
        return And(
            *[
                rewrite_condition(op, context, expand_similar)
                for op in condition.operands
            ]
        )
    if isinstance(condition, Or):
        return Or(
            *[
                rewrite_condition(op, context, expand_similar)
                for op in condition.operands
            ]
        )
    if isinstance(condition, Not):
        return Not(rewrite_condition(condition.operand, context, expand_similar))
    return condition


def expansions_read(condition: Condition, context: ConditionContext) -> Tuple[object, ...]:
    """What a plan compiled from ``condition`` read of the context.

    The :meth:`~repro.tax.conditions.ConditionContext.expansion` of every
    semantic atom, in the order :func:`rewrite_condition` visits them.
    The index probes and the exactness proof see the SEO only through
    these sets, so under another SEO a plan whose reads are equal is the
    plan a fresh compile would build.  Raises
    :class:`~repro.errors.ConditionError` where the rewrite would.
    """
    reads: List[object] = []

    def visit(node: Condition) -> None:
        if isinstance(node, _SemanticAtom):
            reads.append(context.expansion(node))
        elif isinstance(node, (And, Or)):
            for operand in node.operands:
                visit(operand)
        elif isinstance(node, Not):
            visit(node.operand)

    visit(condition)
    return tuple(reads)
