"""Unit tests for incremental document addition."""

import pytest

from repro.errors import TossError
from repro.core.parser import parse_query
from repro.core.system import TossSystem

FIRST = """
<dblp>
  <inproceedings key="p1"><author>J. Smith</author><title>One</title></inproceedings>
</dblp>
"""

SECOND = """
<dblp>
  <inproceedings key="p2"><author>J. Smyth</author><title>Two</title></inproceedings>
</dblp>
"""


class TestAddDocuments:
    def test_appends_and_invalidates(self):
        system = TossSystem(epsilon=1.0)
        system.add_instance("dblp", FIRST)
        system.build()
        system.add_documents("dblp", SECOND)
        # The SEO is stale: querying before rebuild raises.
        parsed = parse_query('inproceedings(author ~ "J. Smith")')
        with pytest.raises(TossError):
            system.select("dblp", parsed.pattern, parsed.roots)

    def test_rebuild_sees_new_terms(self):
        system = TossSystem(epsilon=1.0)
        system.add_instance("dblp", FIRST)
        system.build()
        before = system.ontology_size()
        system.add_documents("dblp", SECOND)
        system.build()
        assert system.ontology_size() > before
        parsed = parse_query('inproceedings(author ~ "J. Smith")')
        report = system.select("dblp", parsed.pattern, parsed.roots)
        assert {t.attributes["key"] for t in report.results} == {"p1", "p2"}

    def test_unknown_instance_rejected(self):
        system = TossSystem()
        with pytest.raises(TossError):
            system.add_documents("nope", FIRST)

    def test_document_keys_do_not_collide(self):
        system = TossSystem(epsilon=0.0)
        system.add_instance("dblp", [FIRST])
        system.add_documents("dblp", [SECOND])
        system.add_documents("dblp", [FIRST.replace("p1", "p3")])
        assert len(system.database.get_collection("dblp")) == 3

    def test_instance_object_replaced_not_mutated(self):
        system = TossSystem(epsilon=0.0)
        original = system.add_instance("dblp", FIRST).instance
        system.add_documents("dblp", SECOND)
        assert len(original.trees) == 1  # caller's snapshot unchanged
        assert len(system.instances["dblp"].trees) == 2


class TestMutationReceipts:
    def test_add_instance_receipt(self):
        system = TossSystem()
        receipt = system.add_instance("dblp", FIRST)
        assert receipt.source == "dblp"
        assert receipt.operation == "add_instance"
        assert receipt.generation_before == 0
        assert receipt.generations_advanced == 1
        assert len(receipt.documents_added) == 1
        assert "author" in receipt.terms_added

    def test_add_documents_receipt_is_incremental(self):
        system = TossSystem()
        system.add_instance("dblp", FIRST)
        receipt = system.add_documents("dblp", SECOND)
        assert receipt.operation == "add_documents"
        assert receipt.incremental
        assert receipt.generations_advanced == 1
        assert receipt.instance is system.instances["dblp"]

    def test_replace_receipt_reports_keys_and_is_a_delta(self):
        system = TossSystem()
        system.add_instance("dblp", FIRST)
        (key,) = system.database.get_collection("dblp").keys()
        receipt = system.replace_documents("dblp", {key: SECOND})
        assert receipt.operation == "replace_documents"
        assert receipt.documents_removed == (key,)
        assert receipt.incremental and receipt.fallback_reason is None
        assert "J. Smyth" in receipt.terms_added
        assert "J. Smith" in receipt.terms_removed

    def test_remove_receipt_retires_terms(self):
        system = TossSystem()
        system.add_instance("dblp", [FIRST, SECOND.replace("title", "journal")])
        keys = list(system.database.get_collection("dblp").keys())
        receipt = system.remove_documents("dblp", (keys[1],))
        assert receipt.operation == "remove_documents"
        assert receipt.documents_removed == (keys[1],)
        assert "journal" in receipt.terms_removed
        assert receipt.incremental and receipt.fallback_reason is None

    def test_replace_with_the_same_terms_nets_out(self):
        system = TossSystem()
        system.add_instance("dblp", [FIRST, SECOND])
        system.build()
        seo = system.seo
        (key, _) = system.database.get_collection("dblp").keys()
        receipt = system.replace_documents("dblp", {key: FIRST})
        assert receipt.terms_added == receipt.terms_removed == frozenset()
        system.build()
        assert system.seo is seo  # nothing came or went: the reuse rung
        assert {r.rung for r in system.build_report.relations} == {"reuse"}

    def test_fallbacks_are_reason_coded(self):
        from repro.obs.metrics import REGISTRY as METRICS
        from repro.ontology.maker import OntologyMaker

        nesting = "<dblp><a><b><a><c/></a></b></a></dblp>"
        system = TossSystem()
        system.add_instance("dblp", [nesting, FIRST, SECOND])
        system.build()
        keys = list(system.database.get_collection("dblp").keys())
        before = METRICS.counter("system.mutations.reextracted").value
        receipt = system.remove_documents("dblp", [keys[2]])
        assert not receipt.incremental
        assert receipt.fallback_reason == "dropped-edge-live"
        assert METRICS.counter("system.mutations.reextracted").value == before + 1
        system.build()
        assert {r.rung_reason for r in system.build_report.relations} == {
            "dropped-edge-live"
        }
        # Removing the nesting document itself takes the dropped edge with it.
        receipt = system.remove_documents("dblp", [keys[0]])
        assert receipt.incremental and receipt.fallback_reason is None

        ruled = TossSystem(maker=OntologyMaker(rules=[("isa", "author", "agent")]))
        assert ruled.add_instance("dblp", FIRST).fallback_reason == "rule-bearing-maker"
        receipt = ruled.add_documents("dblp", SECOND)
        assert not receipt.incremental
        assert receipt.fallback_reason == "rule-bearing-maker"

        external = TossSystem()
        ontology = OntologyMaker(content_tags=()).make_combined([])
        receipt = external.add_instance("dblp", FIRST, ontology=ontology)
        assert receipt.fallback_reason == "external-ontology"
        assert external.add_documents("dblp", SECOND).fallback_reason == "external-ontology"
        assert external.add_documents("dblp", SECOND).fallback_reason is None

    def test_mutation_emits_event_and_counter(self, tmp_path):
        from repro.obs import Observability
        from repro.obs.metrics import REGISTRY as METRICS

        system = TossSystem(observability=Observability(directory=tmp_path))
        system.add_instance("dblp", FIRST)
        before = METRICS.counter("system.mutations").value
        system.add_documents("dblp", SECOND)
        assert METRICS.counter("system.mutations").value == before + 1
        assert system.observability.event_log is not None
        mutation = [
            entry
            for entry in system.observability.event_log.read()
            if entry["event"] == "system.mutation"
        ]
        assert mutation, "no system.mutation event logged"
        assert mutation[-1]["operation"] == "add_documents"
        assert mutation[-1]["source"] == "dblp"
        assert mutation[-1]["incremental"] is True
        assert mutation[-1]["fallback_reason"] is None
