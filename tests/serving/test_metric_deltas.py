"""Worker metric deltas: shipped at most once per interval, exact at close.

A worker ships the metrics it recorded only when its previous shipment
is at least ``METRIC_DELTA_INTERVAL`` old, and once more when it is shut
down.  These tests stretch the interval to an hour, so every shipment
but each incarnation's first is the close-time one: the parent's totals
are then exact after ``close()`` and never exceed the requests answered
when workers are killed under it.  The rolling windows are booked by the
server itself, so they count every answered request exactly once, a
killed worker's included.
"""

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule
from repro.obs.metrics import REGISTRY
from repro.obs.window import WINDOWS
from repro.serving import QueryServer, RetryPolicy
from repro.serving import supervisor

QUERIES = ['paper(author ~ "Author 1")', 'paper(author ~ "Author 2")']
BATCHES = 4
BATCH_SIZE = 5
REQUESTS = BATCHES * BATCH_SIZE

FAST = RetryPolicy(
    retry_backoff_base=0.005,
    retry_backoff_cap=0.02,
    respawn_backoff_base=0.005,
    respawn_backoff_cap=0.02,
    max_crash_rate=None,
)


@pytest.fixture
def hour_interval(monkeypatch):
    monkeypatch.setattr(supervisor, "METRIC_DELTA_INTERVAL", 3600.0)
    REGISTRY.reset()
    WINDOWS.reset()
    yield
    REGISTRY.reset()
    WINDOWS.reset()


def counter(name):
    instrument = REGISTRY.get(name)
    return instrument.value if instrument is not None else 0


def windowed_requests():
    return sum(stats["count"] for stats in WINDOWS.stats(window=60).values())


def serve(server):
    outcomes = []
    for batch in range(BATCHES):
        outcomes.extend(
            server.execute_many(
                [QUERIES[(batch + i) % 2] for i in range(BATCH_SIZE)]
            )
        )
    return outcomes


def test_totals_are_exact_after_close(system, hour_interval):
    server = QueryServer(system, workers=2, default_collection="papers")
    try:
        server.wait_ready()
        outcomes = serve(server)
        assert all(outcome.ok for outcome in outcomes)
        # Both ready workers took a task of the first batch.  Only that
        # first answer of each incarnation asked for a delta, and a delta
        # shipped then holds exactly that one query.
        assert server.pool.stats()["respawns"] == 0
        assert counter("serving.metric_deltas") == 2
        assert counter("executor.queries") == 2
    finally:
        server.close()
    # close() drained every worker's unshipped tail.
    assert counter("executor.queries") == REQUESTS
    assert windowed_requests() == REQUESTS
    assert counter("serving.queries") == REQUESTS


def test_a_killed_worker_never_double_counts(system, hour_interval):
    plan = FaultPlan(rules=(FaultRule(kind=faults.KILL, tasks=(2,)),))
    server = QueryServer(
        system,
        workers=2,
        default_collection="papers",
        policy=FAST,
        fault_plan=plan,
    )
    try:
        outcomes = serve(server)
        respawns = server.pool.stats()["respawns"]
    finally:
        server.close()
    assert all(outcome.ok for outcome in outcomes)
    assert respawns >= 1
    # A killed incarnation loses its unshipped metric tail; nothing is
    # counted twice, whatever the respawns re-ran.
    assert 0 < counter("executor.queries") <= REQUESTS
    # The windows never waited on a shipment: every answer, once.
    assert windowed_requests() == REQUESTS
