"""Unit tests for the paper-faithful reference executor (the test oracle)."""

import ast
import inspect

import pytest

from repro.core import TossSystem
from repro.core import reference as reference_module
from repro.core.conditions import PartOf, SeoConditionContext, SimilarTo
from repro.core.executor import QueryExecutor
from repro.core.reference import ReferenceExecutor
from repro.errors import QueryExecutionError
from repro.ontology.maker import OntologyMaker
from repro.similarity.measures import Levenshtein
from repro.similarity.seo import SimilarityEnhancedOntology
from repro.tax.conditions import And, Comparison, Constant, Contains, NodeContent, NodeTag
from repro.tax.pattern import pattern_of
from repro.xmldb.database import Database

from tests.oracle import assert_matches_reference
from tests.test_paper_examples import DBLP_FIGURE_1, SIGMOD_FIGURE_2


def example_12_pattern():
    """Titles of papers with any part mentioning Microsoft (Example 12)."""
    pattern = pattern_of([(1, None, "pc"), (2, 1, "pc"), (3, 1, "ad")])
    pattern.condition = And(
        Comparison("=", NodeTag(1), Constant("inproceedings")),
        Comparison("=", NodeTag(2), Constant("title")),
        PartOf(NodeTag(3), Constant("inproceedings")),
        Contains(NodeContent(3), Constant("Microsoft")),
    )
    return pattern


def example_13_pattern():
    """DBLP x SIGMOD on similar titles (Example 13, Figure 14)."""
    pattern = pattern_of(
        [(0, None, "pc"), (1, 0, "pc"), (2, 1, "pc"), (3, 0, "ad"), (4, 3, "pc")]
    )
    pattern.condition = And(
        Comparison("=", NodeTag(1), Constant("inproceedings")),
        Comparison("=", NodeTag(2), Constant("title")),
        Comparison("=", NodeTag(3), Constant("article")),
        Comparison("=", NodeTag(4), Constant("title")),
        SimilarTo(NodeContent(2), NodeContent(4)),
    )
    return pattern


@pytest.fixture(scope="module")
def system():
    system = TossSystem(measure="levenshtein", epsilon=3.0)
    system.add_instance("dblp", DBLP_FIGURE_1)
    system.add_instance("sigmod", SIGMOD_FIGURE_2)
    system.add_constraint("booktitle:dblp = conference:sigmod")
    system.build()
    return system


class TestPaperExamples:
    def test_example_12_part_of_projection(self):
        database = Database()
        root = database.create_collection("dblp").add_document("d", DBLP_FIGURE_1)
        ontology = OntologyMaker().make(root)
        context = SeoConditionContext(
            SimilarityEnhancedOntology.for_hierarchy(
                ontology.isa, Levenshtein(), 0.0, mode="order-safe"
            ),
            seos={
                "part-of": SimilarityEnhancedOntology.for_hierarchy(
                    ontology.part_of, Levenshtein(), 0.0, mode="order-safe"
                )
            },
        )
        pattern = example_12_pattern()
        report = ReferenceExecutor(database, context).projection(
            "dblp", pattern, [2]
        )
        assert [tree.text for tree in report.results] == [
            "Materialized View and Index Selection Tool for Microsoft SQL Server 2000"
        ]
        # The part_of atom rewrote into the tags below inproceedings;
        # ``contains`` is left to verification.
        assert report.xpath_queries[0].startswith(
            "//inproceedings[title][.//*[(name() = "
        )
        assert report.candidates == 3
        assert report.ontology_accesses > 0
        assert_matches_reference(
            QueryExecutor(database, context).projection("dblp", pattern, [2]), report
        )

    def test_example_13_similarity_join(self, system):
        pattern = example_13_pattern()
        report = system.reference_executor().join(
            "dblp", "sigmod", pattern, sl_labels=[2, 4]
        )
        assert sorted(tree.find_all("title")[0].text for tree in report.results) == [
            "Materialized View and Index Selection Tool for Microsoft SQL Server 2000",
            "Securing XML Documents",
        ]
        assert report.xpath_queries == ["//inproceedings[title]", "//article[title]"]
        # Product then select: every pair is built and asked about.
        assert report.candidates == 3 + 2
        assert report.ontology_accesses == 3 * 2
        assert_matches_reference(
            system.join("dblp", "sigmod", pattern, sl_labels=[2, 4]),
            report,
            accesses=False,
        )

    def test_report_carries_the_three_timed_phases(self, system):
        report = system.reference_executor().selection(
            "dblp", _inproceedings(), [1]
        )
        assert len(report.results) == 3
        assert min(
            report.rewrite_seconds, report.xpath_seconds, report.convert_seconds
        ) >= 0.0
        assert report.total_seconds == pytest.approx(
            report.rewrite_seconds + report.xpath_seconds + report.convert_seconds
        )


def _inproceedings():
    pattern = pattern_of([(1, None, "pc")])
    pattern.condition = Comparison("=", NodeTag(1), Constant("inproceedings"))
    return pattern


class TestShape:
    def test_plain_tax_without_a_context(self, system):
        pattern = example_13_pattern()
        pattern.condition = And(
            *pattern.condition.operands[:-1],
            Comparison("=", NodeContent(2), NodeContent(4)),
        )
        report = ReferenceExecutor(system.database, None).join(
            "dblp", "sigmod", pattern, sl_labels=[2, 4]
        )
        assert report.results == []  # the trailing periods defeat ``=``
        assert report.ontology_accesses == 0

    def test_join_pattern_needs_two_subtrees(self, system):
        with pytest.raises(QueryExecutionError, match="exactly two subtrees"):
            system.reference_executor().join("dblp", "sigmod", _inproceedings())

    def test_constructor_takes_the_database_and_the_context_only(self):
        parameters = list(inspect.signature(ReferenceExecutor).parameters)
        assert parameters == ["database", "context"]

    def test_imports_nothing_it_is_the_oracle_for(self):
        # tax.batch, tax.compile, xmldb.columnar, core.planner and
        # similarity.candidates; the CI lint job greps for the same
        # thing, this keeps it in tier 1.
        forbidden = {"batch", "compile", "columnar", "planner", "candidates"}
        tree = ast.parse(inspect.getsource(reference_module))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert not forbidden & set(name.split(".")), name
