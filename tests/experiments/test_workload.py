"""Unit tests for the experiment workload builders."""

import pytest

from repro.core.conditions import Below, SimilarTo
from repro.data import generate_corpus, render_dblp
from repro.experiments.workload import (
    build_epsilon_selection_pattern,
    build_join_pattern,
    build_scalability_pattern,
    build_selection_workload,
    build_system,
)
from repro.tax.conditions import And, Comparison, Constant, Contains


@pytest.fixture(scope="module")
def corpus():
    corpus = generate_corpus(100, seed=1)
    render_dblp(corpus, seed=1)  # records surfaces
    return corpus


class TestSelectionWorkload:
    def test_twelve_queries(self, corpus):
        queries = build_selection_workload(corpus, 12, seed=1)
        assert len(queries) == 12
        assert [q.query_id for q in queries] == [f"Q{i:02d}" for i in range(1, 13)]

    def test_query_shape_one_isa_one_similar_three_tags(self, corpus):
        for query in build_selection_workload(corpus, 12, seed=1):
            operands = query.toss_pattern.condition.operands
            assert sum(isinstance(op, SimilarTo) for op in operands) == 1
            assert sum(isinstance(op, Below) for op in operands) == 1
            assert sum(isinstance(op, Comparison) for op in operands) == 3

    def test_tax_degradation(self, corpus):
        for query in build_selection_workload(corpus, 12, seed=1):
            operands = query.tax_pattern.condition.operands
            assert sum(isinstance(op, Contains) for op in operands) == 1
            assert sum(isinstance(op, Comparison) for op in operands) == 4
            assert not any(isinstance(op, (SimilarTo, Below)) for op in operands)

    def test_ground_truth_nonempty(self, corpus):
        for query in build_selection_workload(corpus, 12, seed=1):
            assert query.relevant

    def test_surface_is_recorded_form(self, corpus):
        for query in build_selection_workload(corpus, 12, seed=1):
            assert corpus.entities_for_surface(query.author_surface)

    def test_includes_rare_author_queries(self, corpus):
        queries = build_selection_workload(corpus, 12, seed=1)
        sizes = [len(q.relevant) for q in queries]
        assert min(sizes) <= 3, "some queries must have tiny answer sets"
        assert max(sizes) >= 5, "some queries must have large answer sets"


class TestScalabilityPatterns:
    def test_selection_pattern_shape(self):
        pattern = build_scalability_pattern()
        operands = pattern.condition.operands
        assert sum(isinstance(op, Below) for op in operands) == 2
        assert sum(isinstance(op, Comparison) for op in operands) == 4

    def test_tax_fallback_swaps_isa_for_exact(self):
        pattern = build_scalability_pattern(tax_fallback=True)
        operands = pattern.condition.operands
        assert not any(isinstance(op, Below) for op in operands)
        assert sum(isinstance(op, Comparison) for op in operands) == 6

    def test_join_pattern_shape(self):
        pattern = build_join_pattern()
        operands = pattern.condition.operands
        assert sum(isinstance(op, SimilarTo) for op in operands) == 1
        assert sum(isinstance(op, Comparison) for op in operands) == 5
        assert len(pattern.children(pattern.root)) == 2

    def test_join_tax_fallback(self):
        pattern = build_join_pattern(tax_fallback=True)
        assert not any(
            isinstance(op, SimilarTo) for op in pattern.condition.operands
        )

    def test_epsilon_selection_pattern_targets_top_author(self):
        corpus = generate_corpus(50, seed=9)
        pattern = build_epsilon_selection_pattern(corpus)
        similar = [
            op for op in pattern.condition.operands if isinstance(op, SimilarTo)
        ]
        assert len(similar) == 1
        target = similar[0].right
        assert isinstance(target, Constant)
        canonicals = {a.canonical for a in corpus.authors.values()}
        assert target.value in canonicals


class TestBuildSystem:
    def test_build_system_ready_to_query(self, corpus):
        dblp = render_dblp(corpus, seed=1)
        system = build_system(corpus, [dblp], epsilon=2.0)
        assert system.context is not None
        assert system.ontology_size() > 50

    def test_ontology_cap_controls_size(self, corpus):
        dblp = render_dblp(corpus, seed=1)
        small = build_system(corpus, [dblp], 2.0, max_content_terms=10)
        large = build_system(corpus, [dblp], 2.0, max_content_terms=None)
        assert small.ontology_size() < large.ontology_size()
