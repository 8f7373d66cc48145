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
    path legitimately skips work the oracle does (a hash-joined or
    index-pruned join), the same number of ontology accesses."""
    assert answer(report) == answer(oracle)
    assert report.xpath_queries == oracle.xpath_queries
    if accesses:
        assert report.ontology_accesses == oracle.ontology_accesses
