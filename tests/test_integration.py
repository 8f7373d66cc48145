"""Cross-module integration tests: the full pipeline on generated corpora."""

import pytest

from repro.core.parser import parse_query
from repro.core.quality import QualityReport
from repro.data import generate_corpus, render_dblp, render_sigmod_pages
from repro.experiments.runner import returned_paper_keys
from repro.experiments.workload import build_selection_workload, build_system
from repro.similarity.persistence import dump_seo, load_seo


@pytest.fixture(scope="module")
def world():
    corpus = generate_corpus(120, seed=21)
    dblp = render_dblp(corpus, seed=21)
    pages = render_sigmod_pages(corpus, seed=21)
    system = build_system(corpus, [dblp], 3.0, sigmod_documents=pages)
    return corpus, dblp, pages, system


class TestAnswerContainment:
    def test_toss_answers_contain_tax_answers(self, world):
        """Monotonicity: TOSS's rewriting only widens the answer set."""
        corpus, dblp, pages, system = world
        tax = system.tax_executor()
        for query in build_selection_workload(corpus, 8, seed=21):
            toss_keys = returned_paper_keys(
                system.select("dblp", query.toss_pattern, query.sl_labels).results
            )
            # TAX baseline with the *TOSS* pattern's exact core: compare
            # against the degraded pattern instead (its answers must be a
            # subset of TOSS's when the contains-condition target matches
            # venue surfaces TOSS also accepts).
            tax_keys = returned_paper_keys(
                tax.selection("dblp", query.tax_pattern, query.sl_labels).results
            )
            # Exact author matches are always within epsilon of themselves.
            assert tax_keys - toss_keys == frozenset() or query.category not in (
                "conference",
            )

    def test_epsilon_monotonicity_end_to_end(self, world):
        corpus, dblp, _, _ = world
        small = build_system(corpus, [dblp], 1.0)
        large = build_system(corpus, [dblp], 4.0)
        for query in build_selection_workload(corpus, 5, seed=3):
            small_keys = returned_paper_keys(
                small.select("dblp", query.toss_pattern, query.sl_labels).results
            )
            large_keys = returned_paper_keys(
                large.select("dblp", query.toss_pattern, query.sl_labels).results
            )
            assert small_keys <= large_keys


class TestDslAgainstHandBuilt:
    def test_dsl_query_equals_manual_pattern(self, world):
        corpus, dblp, pages, system = world
        queries = build_selection_workload(corpus, 3, seed=21)
        query = queries[0]
        text = (
            f'inproceedings(author ~ "{query.author_surface}", '
            f'booktitle below "{query.category}")'
        )
        manual = returned_paper_keys(
            system.select("dblp", query.toss_pattern, query.sl_labels).results
        )
        via_dsl = returned_paper_keys(system.query("dblp", text).results)
        assert via_dsl == manual


class TestPersistenceEndToEnd:
    def test_loaded_seo_gives_same_answers(self, world):
        corpus, dblp, pages, system = world
        from repro.core.conditions import SeoConditionContext
        from repro.core.executor import QueryExecutor

        loaded = load_seo(dump_seo(system.seo))
        executor = QueryExecutor(
            system.database, SeoConditionContext(loaded)
        )
        query = build_selection_workload(corpus, 2, seed=21)[0]
        original = returned_paper_keys(
            system.select("dblp", query.toss_pattern, query.sl_labels).results
        )
        reloaded = returned_paper_keys(
            executor.selection("dblp", query.toss_pattern, query.sl_labels).results
        )
        assert original == reloaded


class TestCrossSourceJoin:
    def test_join_recovers_shared_papers(self, world):
        corpus, dblp, pages, system = world
        parsed = parse_query(
            'inproceedings(title $a), //article(title $b) where $a ~ $b'
        )
        report = system.join("dblp", "sigmod", parsed.pattern,
                             sl_labels=[parsed.label("a"), parsed.label("b")])
        sigmod_keys = {
            paper.key for paper in corpus.papers if paper.venue_key == "sigmod"
        }
        # Every SIGMOD paper whose title survived rendering similarly
        # should appear; at minimum the join is non-empty and sound.
        assert report.results
        for tree in report.results:
            titles = [node.text for node in tree.find_all("title")]
            assert len(titles) == 2
            assert system.seo.measure.distance(titles[0], titles[1]) <= 3.0
