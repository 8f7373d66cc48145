"""Compiled plans survive the writes that leave them unchanged.

A plan is keyed by the query, not by the SEO it was compiled against.
After a write and a build, a cached plan whose SEO reads (the expansion
of each constant-sided semantic atom) are unchanged is reused without a
rewrite; one whose reads moved recompiles.  Either way every answer is
the reference executor's, and no cached plan keeps a superseded SEO
alive.
"""

import gc
import weakref

import pytest

from repro.core import executor as executor_module
from repro.core.parser import parse_query
from repro.core.system import TossSystem
from repro.obs.metrics import REGISTRY as METRICS
from repro.similarity.seo import MAX_PATCH_CHAIN

from tests.oracle import assert_matches_reference


def make_doc(author: str, serial: int, booktitle: str = "VLDB") -> str:
    return (
        f'<dblp><inproceedings key="x{serial}">'
        f"<author>{author}</author><title>Paper {serial}</title>"
        f"<booktitle>{booktitle}</booktitle>"
        f"</inproceedings></dblp>"
    )


@pytest.fixture
def system():
    system = TossSystem(epsilon=1.0)
    system.add_instance(
        "dblp",
        [
            make_doc("J. Smith", 0),
            make_doc("J. Smyth", 1, "SIGMOD Conference"),
            make_doc("A. Stone", 2),
        ],
    )
    system.build()
    return system


def checked(system, text):
    """The production answer to ``text``, checked against the oracle (the
    index prunes documents the oracle verifies, so accesses differ)."""
    parsed = parse_query(text)
    report = system.select("dblp", parsed.pattern, parsed.roots)
    assert_matches_reference(
        report,
        system.reference_executor().selection("dblp", parsed.pattern, parsed.roots),
        accesses=False,
    )
    return report


def write(system, author, serial):
    """Add one paper and build; returns its store key."""
    (key,) = system.add_documents("dblp", make_doc(author, serial)).documents_added
    system.build()
    return key


@pytest.fixture
def compiles(monkeypatch):
    """Every probe spec the executor compiles (one per plan side), by
    condition: a plan miss compiles them, a revalidated plan does not."""
    calls = []
    real = executor_module.build_plan_spec

    def counting(pattern, condition, *args, **kwargs):
        calls.append(repr(condition))
        return real(pattern, condition, *args, **kwargs)

    monkeypatch.setattr(executor_module, "build_plan_spec", counting)
    return calls


def test_an_unrelated_write_keeps_the_plan(system, compiles):
    text = 'inproceedings(author ~ "J. Smith")'
    cold = checked(system, text)
    assert not cold.plan_cache_hit and compiles
    revalidated = METRICS.counter("executor.plan_cache.revalidated").value
    seo = system.context.seo

    write(system, "Zyx Qwerty", 10)
    assert system.context.seo is not seo  # a new, patched SEO
    del compiles[:]
    warm = checked(system, text)
    assert warm.plan_cache_hit
    assert compiles == []
    assert METRICS.counter("executor.plan_cache.revalidated").value == revalidated + 1
    assert warm.result_texts() == cold.result_texts()


def test_a_write_near_a_cached_unknown_constant_reaches_the_answer(system):
    text = 'inproceedings(author ~ "Q. Smithers")'
    assert checked(system, text).result_count == 0
    stale = METRICS.counter("executor.plan_cache.stale").value

    write(system, "Q. Smithere", 10)
    report = checked(system, text)
    assert not report.plan_cache_hit
    assert METRICS.counter("executor.plan_cache.stale").value == stale + 1
    assert [text for text in report.result_texts() if 'key="x10"' in text]


def test_a_write_that_moves_a_below_closure_reaches_the_answer(system):
    text = 'inproceedings(author below "person")'
    assert checked(system, text).result_count == 3

    added = write(system, "Zyx Qwerty", 10)
    report = checked(system, text)
    assert report.result_count == 4
    assert not report.plan_cache_hit

    system.remove_documents("dblp", [added])
    system.build()
    assert checked(system, text).result_count == 3


def test_a_cached_plan_does_not_keep_a_superseded_seo_alive(system):
    text = 'inproceedings(author ~ "J. Smith")'
    checked(system, text)
    (key,) = system.executor._plan_cache.keys()
    superseded = weakref.ref(system.context.seo)

    for serial in range(MAX_PATCH_CHAIN + 1):
        write(system, f"Unrelated Author{serial}", 10 + serial)
    gc.collect()
    assert system.executor._plan_cache.keys() == [key]
    assert superseded() is None
    assert checked(system, text).plan_cache_hit
