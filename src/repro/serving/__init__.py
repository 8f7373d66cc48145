"""Concurrent query serving: a supervised worker pool and batch execution.

The ROADMAP's north star is a system that "serves heavy traffic" — yet
the executor (like the paper's prototype) runs one query at a time in
one process.  This package adds the serving tier on top of the
unchanged execution pipeline:

:class:`~repro.serving.snapshot.SystemSnapshot`
    An immutable capture of a built :class:`~repro.core.system.TossSystem`
    for worker processes — shared copy-on-write under ``fork``; on
    spawn-only platforms a worker boots by replaying the snapshot's
    genesis :class:`~repro.serving.snapshot.SnapshotDelta` (documents +
    SEOs from an empty system), the one state format live workers also
    receive on a refresh.  Snapshots know when they are stale
    (collection generation counters).

:class:`~repro.serving.supervisor.SupervisedWorkerPool`
    The pool of long-lived worker processes, each holding the snapshot
    and answering textual queries (:mod:`repro.serving.pool` is the
    worker side; failures cross the process boundary as typed markers,
    never raw exceptions), under parent-side supervision — crash detection and
    respawn with capped backoff, hard timeouts for hung workers,
    bounded retries, poison-task quarantine and a crash-rate circuit
    breaker (:class:`~repro.serving.supervisor.RetryPolicy` holds the
    knobs).  Deterministic fault injection lives in :mod:`repro.faults`.

:class:`~repro.serving.server.QueryServer` / :func:`execute_many`
    Batch execution with a bounded admission queue, per-query deadlines
    derived from :class:`~repro.guard.ResourceGuard` budgets, worker
    span/metrics merge into the parent's observability, and snapshot
    staleness checks on every submission.

A request is the unit of parallelism: one request is one task on one
worker, and the pool's width is filled by concurrent requests
(``docs/SERVING.md`` records why there is no intra-query parallelism).

Everything here is result-preserving: batch execution returns
bit-identical results, in identical order, to serial execution — the
property suite in ``tests/property/test_serving_equivalence.py`` holds
the layer to that (and the chaos suite in ``tests/chaos/`` holds it
under injected worker crashes).
"""

from .server import (
    GuardSpec,
    QueryOutcome,
    QueryRequest,
    QueryServer,
    execute_many,
)
from .snapshot import SystemSnapshot
from .supervisor import CircuitBreaker, RetryPolicy, SupervisedWorkerPool

__all__ = [
    "CircuitBreaker",
    "GuardSpec",
    "QueryOutcome",
    "QueryRequest",
    "QueryServer",
    "RetryPolicy",
    "SupervisedWorkerPool",
    "SystemSnapshot",
    "execute_many",
]
