"""Shared assertions: the production executor against the reference oracle.

:class:`repro.core.reference.ReferenceExecutor` is the paper's
rewrite -> XPath -> algebra pipeline with nothing the production path
accelerates; the suites that used to flip ablation knobs compare
:class:`~repro.core.executor.QueryExecutor` with it instead.
"""

from repro.xmldb.serializer import serialize


def answer(report):
    """A report's result sequence: canonical keys and serialized bytes."""
    return (
        [tree.canonical_key() for tree in report.results],
        [serialize(tree).encode("utf-8") for tree in report.results],
    )


def assert_matches_reference(report, oracle, accesses=True):
    """Same trees, same order, same bytes — and, unless the production
    path legitimately skips work the oracle does, the same number of
    ontology accesses.  Callers pass ``accesses=False`` for a hash-joined
    or index-pruned join, and for an index-exact selection
    (:func:`repro.core.planner.exact_tags`): it books a witnessed
    document's root row without asking the SEO, so it reports 0 accesses
    — such callers assert that 0 themselves."""
    assert answer(report) == answer(oracle)
    # Production writes no XPath; ``explain`` shows the oracle's.
    assert report.xpath_queries == []
    if accesses:
        assert report.ontology_accesses == oracle.ontology_accesses
