"""One executor through SEO -> degrade -> build -> degrade.

The executor keeps one evaluation context and swaps it in place: a
cached plan is keyed by the context's kind, so it survives a change of
mode and is served again when its mode comes back, but never under the
other one.  After each step the answers are the reference executor's
under the matching context, and ``explain`` shows the cross ``~``
conjunct probing ``similar`` under the SEO and ``equal`` under the
exact-match fallback.
"""

from repro.core.conditions import EXACT_FALLBACK_CONTEXT
from repro.core.parser import parse_query
from repro.core.reference import ReferenceExecutor
from repro.core.system import TossSystem
from repro.obs.metrics import REGISTRY

from tests.oracle import assert_matches_reference

DBLP = (
    "<dblp>"
    "<inproceedings><author>J. Smith</author><title>Paper One</title></inproceedings>"
    "<inproceedings><author>J. Smyth</author><title>Paper Two</title></inproceedings>"
    "</dblp>"
)
#: "Paper Onf" is one edit from "Paper One": similar, not equal.
SIGMOD = (
    "<ProceedingsPage>"
    "<article><title>Paper Onf</title><author>J. Smith</author></article>"
    "<article><title>Paper Two</title><author>J. Smyth</author></article>"
    "</ProceedingsPage>"
)
SELECT = 'inproceedings(author ~ "J. Smith", title)'
JOIN = "inproceedings(title $a), article(title $b) where $a ~ $b"


def counter(name):
    instrument = REGISTRY.get(name)
    return instrument.value if instrument is not None else 0


def check(system, degraded, plans_cached):
    """Both queries against the oracle of the mode; returns their counts."""
    context = EXACT_FALLBACK_CONTEXT if degraded else system.context
    oracle = ReferenceExecutor(system.database, context)
    assert system.executor.context is context
    counts = []
    for text, join in ((SELECT, False), (JOIN, True)):
        parsed = parse_query(text)
        if join:
            report = system.join("dblp", "sigmod", parsed.pattern, parsed.roots)
            expected = oracle.join("dblp", "sigmod", parsed.pattern, parsed.roots)
        else:
            report = system.select("dblp", parsed.pattern, parsed.roots)
            expected = oracle.selection("dblp", parsed.pattern, parsed.roots)
        # The SEO's index probes skip ontology accesses the oracle makes;
        # the fallback makes none on either side.
        assert_matches_reference(report, expected, accesses=degraded)
        assert report.result_count == expected.result_count
        assert report.degraded is degraded
        assert report.plan_cache_hit is plans_cached, text
        counts.append(report.result_count)
    plan = system.executor.explain(parse_query(JOIN).pattern, join=True)
    kind = "equal" if degraded else "similar"
    assert any(line.startswith(f"cross: {kind}(") for line in plan.index_plan)
    return counts


def test_one_executor_through_every_mode():
    system = TossSystem(epsilon=1.0)
    system.add_instance("dblp", DBLP)
    system.add_instance("sigmod", SIGMOD)
    system.build()
    executor = system.executor

    seo_counts = check(system, degraded=False, plans_cached=False)
    system.degrade()
    # A plan cached under the SEO is not served under the fallback.
    fallback_counts = check(system, degraded=True, plans_cached=False)
    assert fallback_counts != seo_counts  # "Paper Onf" and "J. Smyth" drop out

    revalidated = counter("executor.plan_cache.revalidated")
    system.build()
    # The SEO plans survive the degrade and the install: same reads.
    assert check(system, degraded=False, plans_cached=True) == seo_counts
    system.degrade()
    assert check(system, degraded=True, plans_cached=True) == fallback_counts
    assert counter("executor.plan_cache.revalidated") - revalidated == 4
    assert system.executor is executor
