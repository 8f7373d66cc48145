"""Unit tests for the TOSS extended condition language (Section 5.1.1)."""

import pytest

from repro.errors import ConditionError, IllTypedConditionError
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
    default_typing,
    rewrite_condition,
)
from repro.core.types import default_type_system
from repro.ontology import Hierarchy, Ontology
from repro.similarity.measures import Levenshtein
from repro.similarity.seo import SimilarityEnhancedOntology
from repro.tax.conditions import (
    And,
    Comparison,
    ConditionContext,
    Constant,
    NodeContent,
    NodeTag,
    Not,
    Or,
)
from repro.xmldb.model import build


@pytest.fixture
def seo():
    hierarchy = Hierarchy(
        [
            ("J. Smith", "author"),
            ("J. Smyth", "author"),
            ("author", "person"),
            ("SIGMOD Conference", "database conference"),
            ("VLDB", "database conference"),
            ("database conference", "conference"),
        ]
    )
    return SimilarityEnhancedOntology.for_hierarchy(hierarchy, Levenshtein(), 1.0)


@pytest.fixture
def part_of_seo():
    hierarchy = Hierarchy(
        [("US Census Bureau", "us government"), ("us government", "government")]
    )
    return SimilarityEnhancedOntology.for_hierarchy(hierarchy, Levenshtein(), 0.0)


@pytest.fixture
def context(seo, part_of_seo):
    return SeoConditionContext(seo, seos={"part-of": part_of_seo})


@pytest.fixture
def binding():
    paper = build(
        "inproceedings",
        build("author", "J. Smith"),
        build("booktitle", "SIGMOD Conference"),
        build("year", "1999"),
    )
    paper.renumber()
    return {
        1: paper,
        2: paper.children[0],
        3: paper.children[1],
        4: paper.children[2],
    }


class TestSemanticHooks:
    def test_similar(self, context):
        assert context.similar("J. Smith", "J. Smyth")
        assert not context.similar("J. Smith", "VLDB")

    def test_subtype_of_reflexive(self, context):
        assert context.subtype_of("author", "author")
        assert context.subtype_of("VLDB", "conference")

    def test_instance_of_strict(self, context):
        assert context.instance_of("J. Smith", "author")
        assert not context.instance_of("author", "author")

    def test_below_above(self, context):
        assert context.below("VLDB", "conference")
        assert context.above("conference", "VLDB")
        assert not context.below("conference", "VLDB")

    def test_part_of_uses_other_seo(self, context):
        assert context.part_of("US Census Bureau", "us government")
        assert not context.part_of("J. Smith", "us government")

    def test_part_of_missing_relation(self, seo):
        bare = SeoConditionContext(seo, seos={})
        with pytest.raises(ConditionError):
            bare.part_of("a", "b")


class TestAtoms:
    def test_similar_to_atom(self, context, binding):
        atom = SimilarTo(NodeContent(2), Constant("J. Smyth"))
        assert atom.evaluate(binding, context)

    def test_below_atom(self, context, binding):
        atom = Below(NodeContent(3), Constant("conference"))
        assert atom.evaluate(binding, context)

    def test_above_atom(self, context, binding):
        atom = Above(Constant("conference"), NodeContent(3))
        assert atom.evaluate(binding, context)

    def test_isa_is_subtype_alias(self, context, binding):
        assert issubclass(Isa, SubtypeOf)
        atom = Isa(NodeContent(3), Constant("database conference"))
        assert atom.evaluate(binding, context)

    def test_instance_of_atom(self, context, binding):
        atom = InstanceOf(NodeContent(2), Constant("author"))
        assert atom.evaluate(binding, context)

    def test_part_of_atom(self, context):
        node = build("affiliation", "US Census Bureau")
        node.renumber()
        atom = PartOf(NodeContent(1), Constant("us government"))
        assert atom.evaluate({1: node}, context)

    def test_atoms_fail_on_plain_tax_context(self, binding):
        atom = SimilarTo(NodeContent(2), Constant("J. Smyth"))
        with pytest.raises(ConditionError):
            atom.evaluate(binding, ConditionContext())

    def test_labels(self):
        atom = SimilarTo(NodeContent(2), NodeContent(4))
        assert atom.labels() == {2, 4}


class TestTypedComparison:
    def test_year_compares_numerically(self, context, binding):
        # "1999" as year vs "02000" as year: numeric, not lexicographic.
        atom = TypedComparison("<=", NodeContent(4), Constant("02000", "year"))
        assert atom.evaluate(binding, context)

    def test_ontology_types_degrade_to_string(self, context, binding):
        atom = TypedComparison("=", NodeContent(2), Constant("J. Smith"))
        assert atom.evaluate(binding, context)

    def test_cross_unit_comparison(self, context):
        node = build("width", "25")
        node.renumber()

        def typing(n, attr):
            return "length_mm" if attr == "content" else default_typing(n, attr)

        ctx = SeoConditionContext(
            context.seo, type_system=default_type_system(), typing=typing
        )
        atom = TypedComparison("<=", NodeContent(1), Constant("3", "length_cm"))
        assert atom.evaluate({1: node}, ctx)
        atom = TypedComparison(">", NodeContent(1), Constant("2", "length_cm"))
        assert atom.evaluate({1: node}, ctx)

    def test_ill_typed_raises(self, context):
        node = build("width", "25")
        node.renumber()

        def typing(n, attr):
            return "length_mm" if attr == "content" else default_typing(n, attr)

        ctx = SeoConditionContext(
            context.seo, type_system=default_type_system(), typing=typing
        )
        # length vs currency meet at string, but "25" parses under both...
        # use an unparseable domain value instead:
        atom = TypedComparison("<=", NodeContent(1), Constant("not-number", "usd"))
        with pytest.raises((IllTypedConditionError, Exception)):
            atom.evaluate({1: node}, ctx)

    def test_plain_context_falls_back_to_syntactic(self, binding):
        atom = TypedComparison("=", NodeContent(4), Constant("1999"))
        assert atom.evaluate(binding, ConditionContext())

    def test_invalid_operator(self):
        with pytest.raises(ConditionError):
            TypedComparison("like", NodeTag(1), Constant("x"))


class TestRewrite:
    def test_similar_to_constant_expands(self, context):
        atom = SimilarTo(NodeContent(2), Constant("J. Smith"))
        rewritten = rewrite_condition(atom, context)
        assert isinstance(rewritten, Or)
        values = {op.right.value for op in rewritten.operands}
        assert values == {"J. Smith", "J. Smyth"}

    def test_below_expands_to_descendant_terms(self, context):
        atom = Below(NodeContent(3), Constant("database conference"))
        rewritten = rewrite_condition(atom, context)
        values = {op.right.value for op in rewritten.operands}
        assert {"SIGMOD Conference", "VLDB", "database conference"} <= values

    def test_instance_of_excludes_the_term_itself(self, context):
        atom = InstanceOf(NodeContent(3), Constant("database conference"))
        rewritten = rewrite_condition(atom, context)
        values = {op.right.value for op in rewritten.operands}
        assert "database conference" not in values

    def test_node_to_node_atom_left_alone(self, context):
        atom = SimilarTo(NodeContent(2), NodeContent(3))
        assert rewrite_condition(atom, context) is atom

    def test_rewrite_preserves_structure(self, context):
        condition = And(
            Comparison("=", NodeTag(1), Constant("inproceedings")),
            Not(SimilarTo(NodeContent(2), Constant("J. Smith"))),
        )
        rewritten = rewrite_condition(condition, context)
        assert isinstance(rewritten, And)
        assert isinstance(rewritten.operands[1], Not)

    def test_rewritten_condition_equivalent_under_context(self, context, binding):
        original = SimilarTo(NodeContent(2), Constant("J. Smyth"))
        rewritten = rewrite_condition(original, context)
        assert original.evaluate(binding, context) == rewritten.evaluate(
            binding, ConditionContext()
        )

    def test_singleton_expansion_becomes_plain_comparison(self, context):
        atom = SimilarTo(NodeContent(2), Constant("VLDB"))
        rewritten = rewrite_condition(atom, context)
        assert isinstance(rewritten, Comparison)


class TestQueryKeyedMemosAreBounded:
    """A long-lived worker sees an endless stream of query constants; the
    memos keyed by them hold a bounded number of entries (``subtype_of``
    keeps none: it asks ``seo.expand_below`` directly, and the expansion
    memo keeps known terms only)."""

    def test_never_repeating_terms_keep_the_memos_at_their_bound(self, context, seo):
        from repro.obs.metrics import REGISTRY as METRICS
        from repro.similarity.seo import SIMILAR_MEMO_SIZE

        similar_evictions = METRICS.counter("seo.similar_memo.evictions").value
        overflow = 100
        for serial in range(SIMILAR_MEMO_SIZE + overflow):
            term = f"unseen term {serial}"
            assert not context.subtype_of(term, "author")
            assert not seo.similar(term, "J. Smith")
            assert seo.expand_below(term) == seo.expand_above(term) == {term}
            assert seo.expand_similar(term) == {term}
        assert len(seo._similar_cache) == SIMILAR_MEMO_SIZE
        # Two unknown-term entries (a verdict, an expansion) per term.
        assert (
            METRICS.counter("seo.similar_memo.evictions").value
            == similar_evictions + SIMILAR_MEMO_SIZE + 2 * overflow
        )
        assert not any(term.startswith("unseen") for _, term in seo._expansion_cache)
        assert seo.expand_similar("J. Smith") == {"J. Smith", "J. Smyth"}
        assert ("similar", "J. Smith") in seo._expansion_cache
        assert context.subtype_of("J. Smith", "person")
        assert context.subtype_of("J. Smith", "person")
