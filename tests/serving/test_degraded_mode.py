"""A degraded query is booked as degraded, in-process and when served.

After a failed SEO build the system answers through the exact-match
fallback.  The executor sets ``report.degraded`` itself, before it
publishes the query, so the ``executor.queries.degraded`` counter and
the event-log / slow-query ``degraded`` field see it — also in a pool
worker, whose counters reach the parent by the close-time metric delta.
"""

import json

from repro.core.system import TossSystem
from repro.guard import ResourceGuard
from repro.obs import Observability
from repro.obs.metrics import REGISTRY
from repro.serving import QueryServer

from .conftest import make_documents

QUERIES = [
    'paper(author ~ "Author 1")',
    'paper(author = "Author 2", title)',
    'paper(year below "1995")',
]
KINDS = ("selection", "projection", "join")


def degraded_system():
    system = TossSystem(epsilon=2.0)
    system.add_instance("papers", make_documents())
    system.build(guard=ResourceGuard(deadline_seconds=0.0), on_failure="degrade")
    assert system.degraded
    return system


def counter(name):
    instrument = REGISTRY.get(name)
    return instrument.value if instrument is not None else 0


def read_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_in_process_degraded_queries_are_booked(tmp_path):
    system = degraded_system()
    system.set_observability(
        Observability(enabled=True, directory=tmp_path, slow_query_seconds=0.0)
    )
    before = counter("executor.queries.degraded")
    for query in QUERIES:
        assert system.query("papers", query).degraded
    assert counter("executor.queries.degraded") - before == len(QUERIES)
    for name in ("events.jsonl", "slow_queries.jsonl"):
        entries = [
            entry
            for entry in read_lines(tmp_path / name)
            if entry["event"] in KINDS
        ]
        assert len(entries) == len(QUERIES), name
        assert all(entry["degraded"] is True for entry in entries), name


def test_served_degraded_queries_are_booked(tmp_path, monkeypatch):
    # A worker's Observability writes no files, so its record_query
    # extras are copied to a file the fork worker inherits the path of.
    extras = tmp_path / "extras.jsonl"
    record_query = Observability.record_query

    def recording(self, kind, *args, extra=None, **kwargs):
        if kind in KINDS:
            with open(extras, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(extra) + "\n")
        return record_query(self, kind, *args, extra=extra, **kwargs)

    monkeypatch.setattr(Observability, "record_query", recording)
    system = degraded_system()
    # Tracing on: the worker runs each request under an enabled
    # Observability, so the executor publishes it.
    system.set_observability(Observability(enabled=True))
    before = counter("executor.queries.degraded")
    with QueryServer(system, workers=1, default_collection="papers") as server:
        outcomes = server.execute_many(QUERIES)
    assert all(outcome.ok and outcome.report.degraded for outcome in outcomes)
    # Worker totals are exact in the parent once the server has closed.
    assert counter("executor.queries.degraded") - before == len(QUERIES)
    entries = read_lines(extras)
    assert len(entries) == len(QUERIES)
    assert all(entry["degraded"] is True for entry in entries)
