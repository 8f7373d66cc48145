"""Unit tests for the TossSystem facade (Figure 8 wiring)."""

import pytest

from repro.errors import SimilarityInconsistencyError, TossError
from repro.core.conditions import SimilarTo
from repro.core.system import TossSystem
from repro.ontology.constraints import parse_constraint
from repro.tax.conditions import And, Comparison, Constant, NodeContent, NodeTag
from repro.tax.pattern import pattern_of

DBLP = """
<dblp>
  <inproceedings key="p1">
    <author>J. Smith</author>
    <booktitle>SIGMOD Conference</booktitle>
  </inproceedings>
  <inproceedings key="p2">
    <author>J. Smyth</author>
    <booktitle>VLDB</booktitle>
  </inproceedings>
</dblp>
"""

SIGMOD = """
<ProceedingsPage>
  <conference>ACM SIGMOD International Conference on Management of Data</conference>
  <articles>
    <article key="p1"><author>J. Smith</author></article>
  </articles>
</ProceedingsPage>
"""


def author_pattern(surface):
    pattern = pattern_of([(1, None, "pc"), (2, 1, "pc")])
    pattern.condition = And(
        Comparison("=", NodeTag(1), Constant("inproceedings")),
        Comparison("=", NodeTag(2), Constant("author")),
        SimilarTo(NodeContent(2), Constant(surface)),
    )
    return pattern


class TestAdministration:
    def test_add_instance_builds_ontology(self):
        system = TossSystem()
        instance = system.add_instance("dblp", DBLP).instance
        assert instance.isa.leq("author", "person")
        assert "dblp" in system.database

    def test_duplicate_instance_rejected(self):
        system = TossSystem()
        system.add_instance("dblp", DBLP)
        with pytest.raises(TossError):
            system.add_instance("dblp", DBLP)

    def test_multiple_documents_per_instance(self):
        system = TossSystem()
        system.add_instance("x", [DBLP, DBLP.replace("p1", "p9")])
        assert len(system.database.get_collection("x")) == 2

    def test_measure_by_name_or_object(self):
        from repro.similarity.rules import NameRuleMeasure

        assert TossSystem(measure="jaro").measure.name == "jaro"
        assert isinstance(TossSystem(measure=NameRuleMeasure()).measure, NameRuleMeasure)

    def test_query_before_build_raises(self):
        system = TossSystem()
        system.add_instance("dblp", DBLP)
        with pytest.raises(TossError):
            system.select("dblp", author_pattern("J. Smith"))

    def test_build_without_instances_raises(self):
        with pytest.raises(TossError):
            TossSystem().build()

    def test_adding_instance_invalidates_context(self):
        system = TossSystem()
        system.add_instance("dblp", DBLP)
        system.build()
        system.add_instance("other", SIGMOD)
        with pytest.raises(TossError):
            system.select("dblp", author_pattern("J. Smith"))


class TestBuild:
    def test_build_records_time_and_size(self):
        system = TossSystem(epsilon=1.0)
        system.add_instance("dblp", DBLP)
        system.build()
        assert system.build_seconds > 0
        assert system.ontology_size() > 0

    def test_epsilon_override_at_build(self):
        system = TossSystem(epsilon=0.0)
        system.add_instance("dblp", DBLP)
        system.build(epsilon=1.0)
        assert system.epsilon == 1.0
        assert system.seo.similar("J. Smith", "J. Smyth")

    def test_auto_constraints_fuse_shared_terms(self):
        system = TossSystem(epsilon=0.0)
        system.add_instance("dblp", DBLP)
        system.add_instance("sigmod", SIGMOD)
        system.build()
        # author appears in both schemas; shared-term constraints fuse it,
        # so the fused node carries one "author" string reachable once.
        assert "author" in system.seo

    def test_dba_constraints_applied(self):
        system = TossSystem(epsilon=0.0)
        system.add_instance("dblp", DBLP)
        system.add_instance("sigmod", SIGMOD)
        system.add_constraint("booktitle:dblp = conference:sigmod")
        system.build()
        assert system.seo.leq(
            "SIGMOD Conference", "conference"
        ) or system.seo.leq("SIGMOD Conference", "booktitle")

    def test_constraint_parsing_inline(self):
        system = TossSystem()
        constraint = system.add_constraint("a:dblp != b:sigmod")
        assert str(constraint.left) == "a:dblp"

    def test_strict_mode_can_raise(self):
        system = TossSystem(epsilon=3.0)
        # "article" and "articles" play different structural roles.
        system.add_instance(
            "x", "<articles><article><author>A</author></article></articles>"
        )
        with pytest.raises(SimilarityInconsistencyError):
            system.build(mode="strict")
        system.build(mode="order-safe")  # succeeds

    def test_no_option_selects_a_build_route(self):
        import importlib
        import inspect

        from repro.experiments.workload import build_system
        from repro.similarity.sea import extend_enhancement, sea
        from repro.similarity.seo import SimilarityEnhancedOntology

        removed = {"workers", "candidate_filter", "parallel_threshold", "options"}
        for entry in (
            TossSystem.__init__,
            TossSystem.build,
            sea,
            extend_enhancement,
            SimilarityEnhancedOntology.build,
            build_system,
        ):
            assert not removed & set(inspect.signature(entry).parameters), entry
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.parallel")


class TestQuerying:
    def test_select_and_report(self):
        system = TossSystem(epsilon=1.0)
        system.add_instance("dblp", DBLP)
        system.build()
        report = system.select("dblp", author_pattern("J. Smith"), sl_labels=[1])
        assert {t.attributes["key"] for t in report.results} == {"p1", "p2"}

    def test_project(self):
        system = TossSystem(epsilon=1.0)
        system.add_instance("dblp", DBLP)
        system.build()
        report = system.project("dblp", author_pattern("J. Smith"), [2])
        assert sorted(t.text for t in report.results) == ["J. Smith", "J. Smyth"]

    def test_tax_executor_is_contextless(self):
        system = TossSystem(epsilon=1.0)
        system.add_instance("dblp", DBLP)
        system.build()
        tax = system.tax_executor()
        assert tax.context is None

    def test_algebra_bound_to_context(self):
        system = TossSystem(epsilon=1.0)
        system.add_instance("dblp", DBLP)
        system.build()
        algebra = system.algebra()
        results = algebra.selection(
            system.instances["dblp"], author_pattern("J. Smith"), [1]
        )
        assert len(results) == 2

    def test_repr(self):
        system = TossSystem()
        assert "not built" in repr(system)
