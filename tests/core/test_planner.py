"""Unit tests for the index-aware query planner and the plan cache."""

import pytest

from repro.core.conditions import (
    InstanceOf,
    SeoConditionContext,
    SimilarTo,
)
from repro.core.executor import (
    DEFAULT_PLAN_CACHE_SIZE,
    MAX_OR_ALTERNATIVES,
    QueryExecutor,
    compile_pattern_to_xpath,
)
from repro.core.planner import (
    ValuesProbe,
    build_plan_spec,
    find_cross_probes,
    has_semantic_atom,
    prune_candidates,
)
from repro.core.reference import ReferenceExecutor
from repro.errors import ConditionError, ResourceExhaustedError
from repro.guard import ResourceGuard
from repro.ontology import Hierarchy
from repro.similarity.measures import Levenshtein
from repro.similarity.seo import SimilarityEnhancedOntology
from repro.tax.conditions import (
    And,
    Comparison,
    Constant,
    NodeContent,
    NodeTag,
    Or,
)
from repro.tax.pattern import AD, PC, pattern_of
from repro.xmldb.database import Database

from tests.oracle import assert_matches_reference

DOCS = {
    "a": """
    <dblp>
      <inproceedings key="p1">
        <author>J. Smith</author>
        <title>Paper One</title>
        <booktitle>SIGMOD Conference</booktitle>
      </inproceedings>
    </dblp>
    """,
    "b": """
    <dblp>
      <inproceedings key="p2">
        <author>J. Smythe</author>
        <title>Paper Two</title>
        <booktitle>VLDB</booktitle>
      </inproceedings>
    </dblp>
    """,
    "c": """
    <dblp>
      <inproceedings key="p3">
        <author>A. Different</author>
        <title>Paper Three</title>
        <booktitle>TCS</booktitle>
      </inproceedings>
    </dblp>
    """,
}


@pytest.fixture
def database():
    db = Database()
    col = db.create_collection("dblp")
    for key, text in DOCS.items():
        col.add_document(key, text)
    return db


@pytest.fixture
def context():
    hierarchy = Hierarchy(
        [
            ("J. Smith", "author"),
            ("SIGMOD Conference", "database conference"),
            ("VLDB", "database conference"),
        ]
    )
    seo = SimilarityEnhancedOntology.for_hierarchy(hierarchy, Levenshtein(), 2.0)
    return SeoConditionContext(seo)


def _author_pattern(atom):
    pattern = pattern_of([(1, None, PC), (2, 1, PC)])
    pattern.condition = And(
        Comparison("=", NodeTag(1), Constant("inproceedings")),
        Comparison("=", NodeTag(2), Constant("author")),
        atom,
    )
    return pattern


class TestPlanSpec:
    def test_equality_and_structure_probes(self, context):
        pattern = _author_pattern(
            Comparison("=", NodeContent(2), Constant("J. Smith"))
        )
        spec = build_plan_spec(pattern, pattern.condition, context, False)
        assert spec.prunable
        assert frozenset({"inproceedings"}) in spec.tag_probes
        assert frozenset({("inproceedings", "author")}) in spec.pc_probes
        [probe] = spec.value_probes
        assert probe == ValuesProbe(
            2, frozenset({"author"}), frozenset({"J. Smith"})
        )

    def test_ad_edge_produces_ad_probe(self, context):
        pattern = pattern_of([(1, None, PC), (2, 1, AD)])
        pattern.condition = And(
            Comparison("=", NodeTag(1), Constant("dblp")),
            Comparison("=", NodeTag(2), Constant("title")),
        )
        spec = build_plan_spec(pattern, pattern.condition, context, False)
        assert frozenset({("dblp", "title")}) in spec.ad_probes
        assert not spec.pc_probes

    def test_or_of_equalities_becomes_union_probe(self, context):
        pattern = _author_pattern(
            Or(
                Comparison("=", NodeContent(2), Constant("J. Smith")),
                Comparison("=", NodeContent(2), Constant("J. Smythe")),
            )
        )
        spec = build_plan_spec(pattern, pattern.condition, context, False)
        [probe] = spec.value_probes
        assert probe.values == frozenset({"J. Smith", "J. Smythe"})

    def test_similar_to_expands_and_keeps_probe_constant(self, context):
        pattern = _author_pattern(
            SimilarTo(NodeContent(2), Constant("J. Smith"))
        )
        spec = build_plan_spec(pattern, pattern.condition, context, False)
        [probe] = spec.value_probes
        assert "J. Smith" in probe.values
        assert probe.similar_to == "J. Smith"

    def test_semantic_atom_without_context_refuses_to_prune(self):
        pattern = _author_pattern(
            SimilarTo(NodeContent(2), Constant("J. Smith"))
        )
        assert has_semantic_atom(pattern.condition)
        spec = build_plan_spec(pattern, pattern.condition, None, False)
        assert not spec.prunable
        assert "SEO context" in spec.reason

    def test_exact_fallback_instance_of_probes_nothing(self, database):
        # Under ExactFallbackContext, instance_of is always False: the
        # probe is the empty set, so the whole collection prunes away —
        # exactly matching the scan path's empty answer.
        pattern = _author_pattern(
            InstanceOf(NodeContent(2), Constant("author"))
        )
        spec = build_plan_spec(pattern, pattern.condition, None, True)
        [probe] = spec.value_probes
        assert probe.values == frozenset()
        index = database.get_collection("dblp").search_index()
        assert prune_candidates(spec, index) == set()


class TestPruneCandidates:
    def test_equality_prunes_to_matching_documents(self, database, context):
        pattern = _author_pattern(
            Comparison("=", NodeContent(2), Constant("J. Smith"))
        )
        spec = build_plan_spec(pattern, pattern.condition, context, False)
        index = database.get_collection("dblp").search_index()
        assert prune_candidates(
            spec, index, seo=context.seo
        ) == {"a"}

    def test_similarity_augments_with_off_ontology_terms(self, database, context):
        # "J. Smythe" is in no ontology but within edit distance 2 of the
        # constant: verification would accept it, so pruning must keep it.
        pattern = _author_pattern(
            SimilarTo(NodeContent(2), Constant("J. Smith"))
        )
        spec = build_plan_spec(pattern, pattern.condition, context, False)
        index = database.get_collection("dblp").search_index()
        kept = prune_candidates(spec, index, seo=context.seo)
        assert kept == {"a", "b"}

    def test_index_probes_tick_the_guard(self, database, context):
        pattern = _author_pattern(
            Comparison("=", NodeContent(2), Constant("J. Smith"))
        )
        spec = build_plan_spec(pattern, pattern.condition, context, False)
        index = database.get_collection("dblp").search_index()
        guard = ResourceGuard(max_steps=1000)
        prune_candidates(spec, index, guard=guard, seo=context.seo)
        assert guard.steps > 0
        with pytest.raises(ResourceExhaustedError):
            prune_candidates(
                spec, index, guard=ResourceGuard(max_steps=1), seo=context.seo
            )


class TestCrossProbe:
    def test_node_to_node_similarity_is_found(self, context):
        condition = And(
            Comparison("=", NodeTag(2), Constant("title")),
            Comparison("=", NodeTag(5), Constant("title")),
            SimilarTo(NodeContent(2), NodeContent(5)),
        )
        (probe,) = find_cross_probes(condition, {1, 2}, {4, 5}, context, False)
        assert probe.kind == "similar"
        assert (probe.left_label, probe.right_label) == (2, 5)

    def test_orientation_is_normalised(self, context):
        condition = SimilarTo(NodeContent(5), NodeContent(2))
        (probe,) = find_cross_probes(condition, {1, 2}, {4, 5}, context, False)
        assert (probe.left_label, probe.right_label) == (2, 5)

    def test_no_context_no_fallback_gives_no_similarity_probe(self):
        condition = SimilarTo(NodeContent(2), NodeContent(5))
        assert find_cross_probes(condition, {1, 2}, {4, 5}, None, False) == ()


class TestExecutorIntegration:
    def test_indexed_equals_scan_and_reports_pruning(self, database, context):
        pattern = _author_pattern(
            SimilarTo(NodeContent(2), Constant("J. Smith"))
        )
        report = QueryExecutor(database, context).selection(
            "dblp", pattern, sl_labels=[1]
        )
        scan = ReferenceExecutor(database, context).selection(
            "dblp", pattern, sl_labels=[1]
        )
        # Results only: the oracle's XPath does not push the ~ expansion,
        # so it also asks the SEO about p3's author in document "c",
        # which the index prunes before production fetches it.
        assert_matches_reference(report, scan, accesses=False)
        assert report.results

        assert report.index_used
        assert report.docs_total == 3
        assert report.docs_scanned == 2  # "c" pruned
        assert report.docs_pruned == 1

    def test_unprunable_plan_scans_every_document(self, database):
        # Semantic atoms with no SEO context: the planner refuses to
        # prune (the query must raise from verification, as a scan would).
        pattern = _author_pattern(SimilarTo(NodeContent(2), Constant("J. Smith")))
        executor = QueryExecutor(database, None)
        assert executor.explain(pattern).index_plan[0].startswith("full scan")
        guard = ResourceGuard()
        with pytest.raises(ConditionError):
            executor.selection("dblp", pattern, sl_labels=[1], guard=guard)
        # All three documents were fetched, one candidate row each.
        assert guard.stage_steps == {"xpath evaluation": 6}

    def test_plan_cache_hits_on_repeat(self, database, context):
        pattern = _author_pattern(
            Comparison("=", NodeContent(2), Constant("J. Smith"))
        )
        executor = QueryExecutor(database, context)
        first = executor.selection("dblp", pattern, sl_labels=[1])
        second = executor.selection("dblp", pattern, sl_labels=[1])
        assert not first.plan_cache_hit
        assert second.plan_cache_hit
        assert executor._plan_cache.hits == 1

    def test_plan_cache_evicts_least_recently_used(self, database, context):
        patterns = [
            _author_pattern(Comparison("=", NodeContent(2), Constant(f"v{i}")))
            for i in range(DEFAULT_PLAN_CACHE_SIZE + 1)
        ]
        executor = QueryExecutor(database, context)

        def hit(pattern):
            return executor.selection("dblp", pattern, sl_labels=[1]).plan_cache_hit

        assert not any(hit(pattern) for pattern in patterns[:-1])
        assert hit(patterns[0])  # now the most recently used plan
        # One pattern past capacity evicts the least recently used plan,
        # the second one streamed, not the first.
        assert not hit(patterns[-1])
        assert hit(patterns[0])
        assert not hit(patterns[1])
        assert executor._plan_cache.hits == 2
        assert executor._plan_cache.misses == DEFAULT_PLAN_CACHE_SIZE + 2

    def test_explain_shows_index_plan(self, database, context):
        pattern = _author_pattern(
            SimilarTo(NodeContent(2), Constant("J. Smith"))
        )
        plan = str(QueryExecutor(database, context).explain(pattern))
        assert "index    : tag in {inproceedings}" in plan
        assert "pc pair in {inproceedings/author}" in plan
        assert "terms within epsilon of 'J. Smith'" in plan


class TestOrAlternativeCap:
    def _wide_pattern(self, width):
        return _author_pattern(
            Or(
                *(
                    Comparison("=", NodeContent(2), Constant(f"value-{i}"))
                    for i in range(width)
                ),
                Comparison("=", NodeContent(2), Constant("J. Smith")),
            )
        )

    def test_narrow_or_compiles_value_predicates(self):
        pattern = self._wide_pattern(2)
        assert "text() = 'J. Smith'" in compile_pattern_to_xpath(pattern)

    def test_wide_or_is_capped_out_of_the_xpath(self):
        pattern = self._wide_pattern(MAX_OR_ALTERNATIVES + 1)
        assert "text() = " not in compile_pattern_to_xpath(pattern)

    def test_capped_or_still_answers_correctly(self, database, context):
        pattern = self._wide_pattern(MAX_OR_ALTERNATIVES + 1)
        executor = QueryExecutor(database, context)
        report = executor.selection("dblp", pattern, sl_labels=[1])
        keys = {tree.attributes.get("key") for tree in report.results}
        assert keys == {"p1"}
