"""A shrinking write costs what it touches — shown by counts, not timings.

On a 300-paper store, removing and then replacing a paper whose author
nobody shares must walk only the written documents in the Ontology
Maker (never the source), run the distance kernel only inside the
author bucket the new name lands in (and not at all for the removal),
patch the one changed relation's enhancement in place, and ship the
served fleet SEO patches — for nine write, build, refresh rounds in a
row, however the writes are mixed.
"""

import pytest

from repro.core.system import TossSystem
from repro.data import generate_corpus, render_dblp
from repro.data.lexicon_rules import corpus_lexicon
from repro.obs.metrics import REGISTRY
from repro.ontology.maker import OntologyMaker
from repro.serving.snapshot import SystemSnapshot
from repro.similarity.measures import Levenshtein

SEED = 7
PAPERS = 300


def paper(key: str, author: str) -> str:
    return (
        f'<dblp><inproceedings key="{key}"><author>{author}</author>'
        f"<title>Write Path Study {key}</title><pages>1-12</pages>"
        f"<year>2004</year><booktitle>VLDB</booktitle></inproceedings></dblp>"
    )


@pytest.fixture
def counted(monkeypatch):
    """A built 300-paper system plus live counts of maker walks and
    distance-kernel calls."""
    walks = []
    compared = []
    walk = OntologyMaker._walk
    bounded = Levenshtein.bounded_distance

    def counting_walk(self, root, lookups):
        walks.append(root)
        return walk(self, root, lookups)

    def counting_bounded(self, x, y, bound):
        compared.append((x, y))
        return bounded(self, x, y, bound)

    corpus = generate_corpus(PAPERS, seed=SEED)
    system = TossSystem(epsilon=3.0, maker=OntologyMaker(lexicon=corpus_lexicon()))
    system.add_instance(
        "dblp",
        [render_dblp(corpus, seed=SEED, paper_keys=[key]) for key in corpus.paper_keys()],
    )
    system.build()
    # Two papers whose authors no other document carries.
    receipt = system.add_documents(
        "dblp", [paper("w1", "Zubodo Kalipe"), paper("w2", "Gimora Tesavu")]
    )
    system.build()
    monkeypatch.setattr(OntologyMaker, "_walk", counting_walk)
    monkeypatch.setattr(Levenshtein, "bounded_distance", counting_bounded)
    return system, receipt.documents_added, walks, compared


def counter(name: str):
    return REGISTRY.counter(name).value


def test_remove_then_replace_touch_only_what_they_write(counted):
    system, (first, second), walks, compared = counted
    snapshot = SystemSnapshot.capture(system)
    patched = counter("sea.patched_builds")
    reextracted = counter("system.mutations.reextracted")

    removed = system.remove_documents("dblp", [first])
    assert removed.terms_removed == {"Zubodo Kalipe"}
    assert len(walks) == 1  # the removed tree, not the 301 survivors
    system.build()
    assert compared == []  # withdrawing a leaf compares nothing
    rungs = {r.relation: r.rung for r in system.build_report.relations}
    assert rungs == {"isa": "patch", "part-of": "reuse"}
    assert counter("sea.patched_builds") == patched + 1

    del walks[:]
    # One edit away from a name the corpus has: the filters let that pair
    # (and few others) through to the kernel.
    newcomer = min(system.instances["dblp"].isa.descendants("author")) + "x"
    replaced = system.replace_documents("dblp", {second: paper("w2", newcomer)})
    assert replaced.terms_removed == {"Gimora Tesavu"}
    assert replaced.terms_added == {newcomer}
    assert len(walks) == 2  # the old tree and the new one
    system.build()
    authors = system.instances["dblp"].isa.descendants("author")
    assert compared and all(
        newcomer in pair and set(pair) <= authors for pair in compared
    )
    assert len(compared) < len(authors) / 4
    rungs = {r.relation: r.rung for r in system.build_report.relations}
    assert rungs == {"isa": "patch", "part-of": "reuse"}
    assert counter("sea.patched_builds") == patched + 2
    assert counter("system.mutations.reextracted") == reextracted

    delta = snapshot.delta()
    assert set(delta.seos) == {"isa"}
    assert len(delta.seos["isa"]["patches"]) == 2
    assert delta.documents_shipped == 1


def test_nine_write_build_refresh_rounds_ship_no_full_seo(counted):
    system, (first, second), walks, _compared = counted
    snapshot = SystemSnapshot.capture(system)
    reextracted = counter("system.mutations.reextracted")
    writes = [
        lambda: system.add_documents("dblp", paper("w3", "Bapeki Ronudo")),
        lambda: system.replace_documents("dblp", {first: paper("w1", "Zubodo Kalipa")}),
        lambda: system.remove_documents("dblp", [second]),
        lambda: system.add_documents("dblp", paper("w4", "Fenalo Dikuse")),
        lambda: system.replace_documents("dblp", {first: paper("w1", "Lumiso Vadeno")}),
        lambda: system.add_documents("dblp", paper("w5", "Fenalu Dikuse")),
        lambda: system.remove_documents("dblp", [first]),
        lambda: system.add_documents("dblp", paper("w6", "Sogiba Nutame")),
        lambda: system.add_documents("dblp", paper("w7", "Sogibo Nutame")),
    ]
    for write in writes:
        receipt = write()
        assert receipt.incremental
        system.build()
        assert {r.rung for r in system.build_report.relations} == {"patch", "reuse"}
        delta = snapshot.delta()
        assert delta.seos and all("patches" in entry for entry in delta.seos.values())
        snapshot.advance(delta)  # what QueryServer.refresh does
    assert counter("system.mutations.reextracted") == reextracted
    assert len(walks) == 9 + 2  # one tree per write, two for each replace
