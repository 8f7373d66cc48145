"""Property: compiled condition evaluators equal the interpreter, exactly.

:mod:`repro.tax.compile` turns a condition tree into closures once per
cached plan; its whole contract is invisibility.  For any condition tree
— comparisons, Contains, And/Or/Not nesting, or-chains eligible for the
membership fast path, typed comparisons and every TOSS semantic atom
(``~``, ``instance_of``, ``subtype_of``, ``isa``, ``below``, ``above``,
``part_of``) — the compiled form must return the same truth value, raise
the same :class:`~repro.errors.ConditionError` (same message) for unbound
labels or missing relations, and drive the same number of ontology
accesses through the context.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conditions import (
    Above,
    Below,
    InstanceOf,
    Isa,
    PartOf,
    SeoConditionContext,
    SimilarTo,
    SubtypeOf,
    TypedComparison,
)
from repro.errors import ConditionError
from repro.ontology import Hierarchy
from repro.similarity.measures import Levenshtein
from repro.similarity.seo import SimilarityEnhancedOntology
from repro.tax.compile import compile_condition
from repro.tax.conditions import (
    And,
    Comparison,
    Constant,
    Contains,
    NodeContent,
    NodeTag,
    Not,
    Or,
    TrueCondition,
)
from repro.xmldb.model import build

# Near-miss values (edit distance 1-2) so similarity atoms flip between
# true and false across the sampled epsilons.
TITLES = ["alpha", "alphq", "aleph", "beta", "betta", "gamma", ""]
VENUES = ["SIGMOD", "SIGM0D", "VLDB", "KDD"]

HIERARCHY = Hierarchy(
    [
        ("SIGMOD", "database conference"),
        ("VLDB", "database conference"),
        ("KDD", "data mining conference"),
        ("alpha", "greek letter"),
        ("beta", "greek letter"),
    ]
)

_SEO = {}


def _seo(epsilon):
    if epsilon not in _SEO:
        _SEO[epsilon] = SimilarityEnhancedOntology.for_hierarchy(
            HIERARCHY, Levenshtein(), epsilon
        )
    return _SEO[epsilon]


def _binding(title, venue):
    book = build("book", build("title", title), build("venue", venue))
    return {1: book, 2: book.children[0], 3: book.children[1]}


#: Bound labels plus one never-bound label (9) so resolution errors are
#: generated and must match across both paths.
LABELS = [1, 2, 3, 9]

values = st.sampled_from(
    TITLES + VENUES + ["database conference", "greek letter", "book"]
)
terms = st.one_of(
    values.map(Constant),
    st.sampled_from(LABELS).map(NodeTag),
    st.sampled_from(LABELS).map(NodeContent),
)

ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
comparisons = st.one_of(
    st.builds(Comparison, ops, terms, terms),
    st.builds(TypedComparison, ops, terms, terms),
)
semantic_atoms = st.builds(
    lambda cls, left, right: cls(left, right),
    st.sampled_from(
        [SimilarTo, Below, Above, InstanceOf, SubtypeOf, Isa, PartOf]
    ),
    terms,
    terms,
)
#: The rewrite-emitted shape the membership fast path targets:
#: Or(x = c1, x = c2, ...) over one shared term.
or_chains = st.builds(
    lambda term, consts: Or(
        *[Comparison("=", term, Constant(value)) for value in consts]
    ),
    st.one_of(st.sampled_from(LABELS).map(NodeContent), st.sampled_from(LABELS).map(NodeTag)),
    st.lists(values, min_size=2, max_size=4),
)
atoms = st.one_of(
    comparisons,
    semantic_atoms,
    or_chains,
    st.builds(Contains, terms, terms),
    st.just(TrueCondition()),
)

conditions = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda ops: And(*ops)),
        st.lists(inner, min_size=2, max_size=3).map(lambda ops: Or(*ops)),
        inner.map(Not),
    ),
    max_leaves=8,
)


#: What either path may raise: ConditionError for unbound labels and
#: missing relations, and — a typed comparison looks up an unbound
#: label's node to type it before resolving it — KeyError.
RAISED = (ConditionError, KeyError)


def _evaluate(condition, binding, context):
    """(verdict, ontology-access delta) or ("raised", class, message)."""
    before = getattr(context, "ontology_accesses", 0)
    try:
        verdict = condition.evaluate(binding, context)
    except RAISED as exc:
        return ("raised", type(exc).__name__, str(exc))
    return (verdict, getattr(context, "ontology_accesses", 0) - before)


def _evaluate_compiled(condition, binding, context):
    before = getattr(context, "ontology_accesses", 0)
    try:
        verdict = compile_condition(condition, context)(binding)
    except RAISED as exc:
        return ("raised", type(exc).__name__, str(exc))
    return (verdict, getattr(context, "ontology_accesses", 0) - before)


@given(
    condition=conditions,
    title=st.sampled_from(TITLES),
    venue=st.sampled_from(VENUES),
    epsilon=st.sampled_from([1.0, 2.0]),
)
@settings(max_examples=300, deadline=None)
def test_compiled_equals_interpreted(condition, title, venue, epsilon):
    binding = _binding(title, venue)
    # Separate contexts per path so the ontology-access counters are
    # independently attributable; they share one prebuilt SEO.
    interpreted_ctx = SeoConditionContext(_seo(epsilon))
    compiled_ctx = SeoConditionContext(_seo(epsilon))
    interpreted = _evaluate(condition, binding, interpreted_ctx)
    compiled = _evaluate_compiled(condition, binding, compiled_ctx)
    assert compiled == interpreted, (
        f"compiled {compiled!r} != interpreted {interpreted!r} "
        f"for {condition!r}"
    )


@given(
    condition=conditions,
    title=st.sampled_from(TITLES),
    venue=st.sampled_from(VENUES),
)
@settings(max_examples=150, deadline=None)
def test_compiled_equals_interpreted_without_seo(condition, title, venue):
    # No SEO context at all: semantic atoms raise through the default
    # context hooks; compiled closures must surface the identical error.
    from repro.tax.conditions import DEFAULT_CONTEXT, ConditionContext

    binding = _binding(title, venue)
    interpreted = _evaluate(condition, binding, DEFAULT_CONTEXT)
    compiled = _evaluate_compiled(condition, binding, ConditionContext())
    assert compiled[:1] == interpreted[:1] and compiled == interpreted


def test_unbound_label_message_is_identical():
    condition = Comparison("=", NodeContent(9), Constant("x"))
    context = SeoConditionContext(_seo(2.0))
    binding = _binding("alpha", "SIGMOD")
    interpreted = _evaluate(condition, binding, context)
    compiled = _evaluate_compiled(condition, binding, context)
    assert interpreted[0] == "raised"
    assert compiled == interpreted
    assert "no binding for pattern node 9" in interpreted[2]


def test_missing_relation_seo_message_is_identical():
    condition = PartOf(NodeContent(2), Constant("engine"))
    context = SeoConditionContext(_seo(2.0))  # no part-of SEO attached
    binding = _binding("alpha", "SIGMOD")
    interpreted = _evaluate(condition, binding, context)
    compiled = _evaluate_compiled(condition, binding, context)
    assert interpreted[0] == "raised"
    assert compiled == interpreted


def test_membership_or_counts_no_ontology_accesses():
    # The or-chain fast path must not change observable context traffic:
    # plain equality chains never touched the ontology when interpreted.
    chain = Or(
        Comparison("=", NodeContent(2), Constant("alpha")),
        Comparison("=", NodeContent(2), Constant("beta")),
    )
    context = SeoConditionContext(_seo(2.0))
    binding = _binding("alpha", "SIGMOD")
    assert _evaluate_compiled(chain, binding, context) == (True, 0)
