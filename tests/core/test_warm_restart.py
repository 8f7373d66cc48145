"""A restart is warm: the first write or build after a load starts from
the restored SEOs once they are proven current, and says why when not.

Loading derives nothing.  The first write or build afterwards adopts the
served SEOs as the build ladder's state (``patch`` / ``reuse``, rung
reason ``restored``) only when a fresh canonical fusion of the instance
hierarchies equals theirs under the saved maker, constraints, epsilon,
measure and order-safe mode; every other case builds ``full`` / ``delta``
with ``restore-refused:<reason>`` and counts
``system.restore.refused.<reason>``.  Either way the answers equal the
reference executor's and the SEOs a from-scratch build's.
"""

import os

import pytest

from repro.core.parser import parse_query
from repro.core.persistence import load_system, save_system
from repro.core.system import TossSystem
from repro.obs.metrics import REGISTRY
from repro.ontology import Ontology
from repro.ontology.maker import OntologyMaker
from repro.similarity.persistence import dump_seo
from repro.xmldb.serializer import serialize
from repro.xmldb.storage import save_database
from tests.oracle import assert_matches_reference

RELATIONS = (Ontology.ISA, Ontology.PART_OF)
QUERIES = ('inproceedings(author ~ "J. Smith")', 'inproceedings(title = "Fusion")')


def paper(key: str, author: str, title: str = "Fusion") -> str:
    return (
        f'<dblp><inproceedings key="{key}"><author>{author}</author>'
        f"<title>{title}</title></inproceedings></dblp>"
    )


INITIAL = [
    paper("p0", "J. Smith"),
    paper("p1", "J. Smyth", "Indexing"),
    paper("p2", "A. Stone", "Querying"),
]


def counter(name: str) -> int:
    return REGISTRY.counter(name).value


#: A second source for the cross-source constraint case.
ACM = ["<acm><paper><writer>J. Smith</writer><topic>Fusion</topic></paper></acm>"]


def saved(tmp_path, sources=(("dblp", INITIAL),), **build):
    system = TossSystem(epsilon=1.0)
    for name, documents in sources:
        system.add_instance(name, documents)
    system.build(**build)
    root = str(tmp_path / "store")
    save_system(system, root)
    return system, root


def rungs(system):
    return {
        entry.relation: (entry.rung, entry.rung_reason)
        for entry in system.build_report.relations
    }


def assert_current(system, maker=None, constraints=(), mode="order-safe"):
    """Answers match the oracle and SEOs a from-scratch build's."""
    fresh = TossSystem(epsilon=system.epsilon, maker=maker)
    for name in system.instances:
        fresh.add_instance(
            name,
            [
                serialize(root)
                for _key, root in system.database.get_collection(name).documents()
            ],
        )
    for constraint in constraints:
        fresh.add_constraint(constraint)
    fresh.build(mode=mode)
    for relation in RELATIONS:
        assert dump_seo(system.context.seos[relation]) == dump_seo(
            fresh.context.seos[relation]
        )
    for query in QUERIES:
        parsed = parse_query(query)
        assert_matches_reference(
            system.select("dblp", parsed.pattern, parsed.roots),
            system.reference_executor().selection(
                "dblp", parsed.pattern, parsed.roots
            ),
            accesses=False,
        )


def test_load_extracts_nothing_and_derives_no_build_state(tmp_path, monkeypatch):
    _system, root = saved(tmp_path)
    walks = []
    walk = OntologyMaker._walk

    def counting_walk(self, document, lookups):
        walks.append(document)
        return walk(self, document, lookups)

    monkeypatch.setattr(OntologyMaker, "_walk", counting_walk)
    loaded = load_system(root)
    assert walks == []
    assert loaded._sources == {}
    assert loaded._relation_state == {}
    for relation in RELATIONS:
        assert loaded.context.seos[relation].enhancement.context_buckets is None


def test_first_build_after_load_reuses_the_restored_seos(tmp_path):
    _system, root = saved(tmp_path)
    loaded = load_system(root)
    served = dict(loaded.context.seos)
    adopted = counter("system.restore.adopted")
    loaded.build()
    assert rungs(loaded) == {
        relation: ("reuse", "restored") for relation in RELATIONS
    }
    assert counter("system.restore.adopted") == adopted + 2
    assert all(loaded.context.seos[r] is served[r] for r in RELATIONS)
    assert_current(loaded)


def test_first_write_after_load_patches_the_restored_seos(tmp_path):
    _system, root = saved(tmp_path)
    loaded = load_system(root)
    restored_isa = loaded.context.seos[Ontology.ISA]
    loaded.add_documents("dblp", paper("p3", "J. Smithe"))
    loaded.build()
    assert rungs(loaded) == {
        Ontology.ISA: ("patch", "restored"),
        Ontology.PART_OF: ("reuse", "restored"),
    }
    # The patch chain links back to the served SEO, so a refresh ships a patch.
    assert loaded.context.seos[Ontology.ISA].patch[0] is restored_isa
    assert_current(loaded)
    loaded.remove_documents("dblp", ["dblp-0"])
    loaded.build()
    assert rungs(loaded)[Ontology.ISA] == ("patch", None)
    assert_current(loaded)


def test_db_stats_depth_of_a_loaded_patched_store(tmp_path):
    system, root = saved(tmp_path)
    system.add_documents("dblp", paper("p3", "B. Swan"))
    system.build()
    save_system(system, root)
    loaded = load_system(root)
    assert loaded.seo_chain_depths == {Ontology.ISA: 1, Ontology.PART_OF: 0}
    loaded.add_documents("dblp", paper("p4", "B. Swann"))
    loaded.build()
    assert loaded.seo_chain_depths == {Ontology.ISA: 2, Ontology.PART_OF: 0}


def refused(system, reason, relations=RELATIONS):
    for relation in relations:
        rung, rung_reason = rungs(system)[relation]
        assert rung == "full"
        assert rung_reason == f"restore-refused:{reason}"


def test_a_store_saved_with_unbuilt_writes_is_stale(tmp_path):
    system, root = saved(tmp_path)
    system.add_documents("dblp", paper("p3", "J. Smithe"))
    # The documents move on; the SEOs on disk stay those of the last build.
    save_database(system.database, os.path.join(root, "database"))
    loaded = load_system(root)
    before = counter("system.restore.refused.seo-stale")
    loaded.add_documents("dblp", paper("p4", "A. Stane"))
    loaded.build()
    refused(loaded, "seo-stale", relations=(Ontology.ISA,))
    assert counter("system.restore.refused.seo-stale") == before + 1
    assert_current(loaded)


def test_a_maker_swapped_after_load_is_refused(tmp_path):
    _system, root = saved(tmp_path)
    loaded = load_system(root)
    maker = OntologyMaker(content_tags={"author", "title"})
    loaded.maker = maker
    before = counter("system.restore.refused.maker-changed")
    loaded.add_documents("dblp", paper("p3", "J. Smithe"))
    loaded.build()
    refused(loaded, "maker-changed")
    assert counter("system.restore.refused.maker-changed") == before + 2
    assert_current(loaded, maker=maker)


def test_an_equal_maker_swapped_after_load_is_adopted(tmp_path):
    system, root = saved(tmp_path)
    loaded = load_system(root)
    loaded.maker = OntologyMaker.from_dict(system.maker.to_dict())
    loaded.add_documents("dblp", paper("p3", "J. Smithe"))
    loaded.build()
    assert rungs(loaded)[Ontology.ISA] == ("patch", "restored")
    assert_current(loaded)


def test_a_constraint_added_after_load_is_refused(tmp_path):
    _system, root = saved(tmp_path, sources=(("dblp", INITIAL), ("acm", ACM)))
    loaded = load_system(root)
    loaded.add_constraint("author:dblp = writer:acm")
    loaded.add_documents("dblp", paper("p3", "J. Smithe"))
    loaded.build()
    refused(loaded, "constraints-changed", relations=(Ontology.ISA,))
    # The part-of relation's constraints did not move: it is adopted.
    assert rungs(loaded)[Ontology.PART_OF][1].startswith("restored")
    assert_current(loaded, constraints=["author:dblp = writer:acm"])


@pytest.mark.parametrize("write_first", [False, True])
def test_an_epsilon_change_is_refused(tmp_path, write_first):
    _system, root = saved(tmp_path)
    loaded = load_system(root)
    if write_first:
        loaded.epsilon = 2.0
        loaded.add_documents("dblp", paper("p3", "J. Smithe"))
        loaded.build()
    else:
        loaded.build(epsilon=2.0)
    refused(loaded, "epsilon-changed")
    assert_current(loaded)


def test_a_strict_mode_store_is_refused(tmp_path):
    _system, root = saved(tmp_path, mode="strict")
    loaded = load_system(root)
    before = counter("system.restore.refused.strict-mode")
    loaded.add_documents("dblp", paper("p3", "Q. Other"))
    loaded.build(mode="strict")
    refused(loaded, "strict-mode")
    assert counter("system.restore.refused.strict-mode") == before + 2
    assert_current(loaded, mode="strict")
