"""The cross probe's work is bounded by surviving pairs — shown by counts.

An Example-13 join (DBLP title ``~`` SIGMOD-pages title) faces tens of
thousands of length-compatible title pairs; the length + bigram-count
filter must hand the distance kernel a few hundred of them on a cold
probe, and the guard-honest memo must hand it none on the next request —
guarded or not.  At 3000 papers the compatible pairs (167,262) are past
what a 65,536-entry distance memo could ever hold, which is where the
pre-filter design fell off a cliff; the filtered probe grows with the
matches instead (299 verified against 96 at 1200 papers: 3.1x for 2.5x
the papers).
"""

import pytest

from repro.core.parser import parse_query
from repro.core.system import TossSystem
from repro.data import generate_corpus, render_dblp, render_sigmod_pages
from repro.data.lexicon_rules import corpus_lexicon
from repro.guard import ResourceGuard
from repro.obs import Observability
from repro.obs.metrics import REGISTRY
from repro.ontology.maker import OntologyMaker

from tests.oracle import assert_matches_reference

SEED = 7
JOIN = "inproceedings(title $a), //article(title $b) where $a ~ $b"
COUNTERS = ("planner.cross_probe.pairs", "planner.cross_probe.verified")


def _counts():
    return [REGISTRY.counter(name).value for name in COUNTERS]


@pytest.mark.parametrize(
    "papers,min_pairs,max_verified",
    [(1200, 25_000, 200), (3000, 65_536, 600)],
)
def test_cold_probe_verifies_survivors_and_the_next_request_nothing(
    papers, min_pairs, max_verified
):
    corpus = generate_corpus(papers, seed=SEED)
    system = TossSystem(
        epsilon=3.0,
        maker=OntologyMaker(lexicon=corpus_lexicon()),
        observability=Observability(enabled=True),
    )
    system.add_instance(
        "dblp",
        [render_dblp(corpus, seed=SEED, paper_keys=[key]) for key in corpus.paper_keys()],
    )
    system.add_instance("sigmod", list(render_sigmod_pages(corpus, seed=SEED)))
    system.build()
    memo = system.executor._cross_probe_cache

    def guarded_join():
        system.executor.guard = ResourceGuard(max_steps=50_000_000, max_results=10**6)
        before, hits = _counts(), memo.hits
        report = system.query("dblp", JOIN, right_collection="sigmod")
        pairs, verified = (after - b for after, b in zip(_counts(), before))
        return report, pairs, verified, memo.hits - hits, system.executor.guard

    cold, pairs, verified, hits, cold_guard = guarded_join()
    assert hits == 0 and memo.misses >= 1
    assert pairs > min_pairs
    assert cold.result_count <= verified <= max_verified

    warm, pairs, verified, hits, warm_guard = guarded_join()
    assert (pairs, verified, hits) == (0, 0, 1)
    assert warm.result_texts() == cold.result_texts()
    assert warm_guard.stage_steps == cold_guard.stage_steps
    assert memo.evictions == 0
    # The span says what the counters say.
    assert _probe_span(cold.trace)["attributes"]["memo_hit"] is False
    assert _probe_span(warm.trace)["attributes"] == {
        "kind": "similar", "memo_hit": True, "pairs": 0, "verified": 0,
    }


def test_a_recreated_collection_never_replays_the_old_probe():
    """A dropped and re-created collection restarts its generation count,
    so a memo keyed by collection name would hand the new collection the
    old one's probe; keyed by the search index it misses instead."""
    corpus = generate_corpus(200, seed=SEED)
    sigmod_keys = [paper.key for paper in corpus.papers if paper.venue_key == "sigmod"]
    half = len(sigmod_keys) // 2
    assert half >= 5

    def pages(keys):
        return [render_sigmod_pages(corpus, seed=SEED, paper_keys=[key])[0] for key in keys]

    system = TossSystem(epsilon=3.0, maker=OntologyMaker(lexicon=corpus_lexicon()))
    system.add_instance(
        "dblp",
        [render_dblp(corpus, seed=SEED, paper_keys=[key]) for key in corpus.paper_keys()],
    )
    system.add_instance("sigmod", pages(sigmod_keys[:half]))
    system.build()
    first = system.query("dblp", JOIN, right_collection="sigmod")
    assert first.result_count > 0
    generation = system.database.get_collection("sigmod").generation

    # Same name, same number of writes, other titles.
    system.database.drop_collection("sigmod")
    recreated = system.database.create_collection("sigmod")
    for index, page in enumerate(pages(sigmod_keys[half : 2 * half])):
        recreated.add_document(f"sigmod-{index}", page)
    assert recreated.generation == generation

    report = system.query("dblp", JOIN, right_collection="sigmod")
    parsed = parse_query(JOIN)
    oracle = system.reference_executor().join(
        "dblp", "sigmod", parsed.pattern, parsed.roots
    )
    assert oracle.result_count > 0
    assert_matches_reference(report, oracle, accesses=False)


def _probe_span(span):
    if span["name"] == "planner.cross_probe":
        return span
    for child in span.get("children", ()):
        found = _probe_span(child)
        if found is not None:
            return found
    return None
