"""The query server: batch execution over a persistent worker pool.

:class:`QueryServer` owns one :class:`~repro.serving.snapshot.SystemSnapshot`
and one :class:`~repro.serving.supervisor.SupervisedWorkerPool` for its
whole lifetime —
the system is loaded/built once and every batch after that pays only the
per-query dispatch cost.  Submissions pass three gates before any worker
sees them:

1. **staleness** — the live database's generation signature must still
   match the snapshot's (:class:`~repro.errors.SnapshotStaleError`
   otherwise; :meth:`QueryServer.refresh` re-snapshots);
2. **admission** — a batch larger than ``max_pending`` is rejected with
   :class:`~repro.errors.ServerOverloadedError` before consuming worker
   time, the standard bounded-queue back-pressure discipline;
3. **budget** — every query carries a :class:`GuardSpec` (its own, or
   the server default derived from the system's guard), enforced by a
   fresh :class:`~repro.guard.ResourceGuard` inside the worker.

Batch execution never raises for a query's own failure: each query
yields a :class:`QueryOutcome` carrying either the report or the
reconstructed error, so one poisoned query cannot take down the batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.executor import ExecutionReport
from ..errors import ReproError, ServerOverloadedError, ServingError, SnapshotStaleError
from ..faults import FaultPlan
from ..guard import ResourceGuard
from ..obs.context import RequestContext, new_request_id
from ..obs.metrics import REGISTRY as METRICS
from ..obs.window import WINDOWS
from .pool import reconstruct_failure
from .snapshot import SystemSnapshot
from .supervisor import RetryPolicy, SupervisedWorkerPool

#: Default admission bound for one batch.
DEFAULT_MAX_PENDING = 128


@dataclass(frozen=True)
class GuardSpec:
    """A picklable description of a per-query resource budget."""

    deadline_seconds: Optional[float] = None
    max_steps: Optional[int] = None
    max_results: Optional[int] = None

    @classmethod
    def from_guard(cls, guard: Optional[ResourceGuard]) -> Optional["GuardSpec"]:
        """The spec matching ``guard``'s configured limits (None -> None)."""
        if guard is None:
            return None
        return cls(
            deadline_seconds=guard.deadline_seconds,
            max_steps=guard.max_steps,
            max_results=guard.max_results,
        )

    @property
    def unlimited(self) -> bool:
        return (
            self.deadline_seconds is None
            and self.max_steps is None
            and self.max_results is None
        )

    def build(self) -> Optional[ResourceGuard]:
        """A fresh guard enforcing this spec (None when unlimited)."""
        if self.unlimited:
            return None
        return ResourceGuard(
            deadline_seconds=self.deadline_seconds,
            max_results=self.max_results,
            max_steps=self.max_steps,
        )

    def as_tuple(self) -> Tuple[Optional[float], Optional[int], Optional[int]]:
        """The ``(deadline, max_steps, max_results)`` task-dict form."""
        return (self.deadline_seconds, self.max_steps, self.max_results)


@dataclass(frozen=True)
class QueryRequest:
    """One query submission: the text plus its routing and budget."""

    query: str
    collection: Optional[str] = None
    sl_variables: Tuple[str, ...] = ()
    right_collection: Optional[str] = None
    #: Per-query budget; None inherits the server default.
    guard: Optional[GuardSpec] = None
    #: Tenant label carried into the request context (budget accounting
    #: and log joining; None for single-tenant use).
    tenant: Optional[str] = None
    #: Caller-supplied request id (e.g. from an upstream gateway); the
    #: server mints one when absent.
    request_id: Optional[str] = None


@dataclass
class QueryOutcome:
    """What happened to one query of a batch: a report or an error."""

    request: QueryRequest
    report: Optional[ExecutionReport] = None
    error: Optional[ReproError] = None
    #: Worker-measured execution seconds (0.0 when never dispatched).
    seconds: float = 0.0
    #: The request id the server minted (or echoed) for this query —
    #: the join key for ``db trace --request``.
    request_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def raise_for_error(self) -> "QueryOutcome":
        """Raise the captured error, if any; returns self otherwise."""
        if self.error is not None:
            raise self.error
        return self


class QueryServer:
    """A persistent serving front-end over one built system.

    Parameters
    ----------
    system:
        A built (or explicitly degraded) :class:`~repro.core.system.TossSystem`.
    workers:
        Worker-process count for the pool.
    max_pending:
        Admission bound: the largest batch :meth:`execute_many` accepts.
    default_guard:
        Budget applied to requests that carry none; defaults to the
        system's own guard configuration.
    default_collection:
        Collection for requests that name none (e.g. plain-string
        queries).
    policy:
        :class:`~repro.serving.supervisor.RetryPolicy` for the worker
        pool (retries, backoff, hard timeouts, quarantine, circuit
        breaker).
    fault_plan:
        :class:`~repro.faults.FaultPlan` handed to the worker pool —
        test/benchmark harness only.
    """

    def __init__(
        self,
        system,
        workers: int = 1,
        max_pending: int = DEFAULT_MAX_PENDING,
        default_guard: Optional[GuardSpec] = None,
        default_collection: Optional[str] = None,
        policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if max_pending < 1:
            raise ServingError(f"max_pending must be >= 1, got {max_pending}")
        self.system = system
        self.workers = workers
        self.max_pending = max_pending
        self.default_collection = default_collection
        self.default_guard = (
            default_guard
            if default_guard is not None
            else GuardSpec.from_guard(system.guard)
        )
        self.policy = policy
        self.fault_plan = fault_plan
        self.snapshot = SystemSnapshot.capture(system)
        self.pool = self._make_pool()
        self._closed = False

    def _make_pool(self) -> SupervisedWorkerPool:
        return SupervisedWorkerPool(
            self.snapshot,
            self.workers,
            policy=self.policy,
            fault_plan=self.fault_plan,
        )

    # -- lifecycle ----------------------------------------------------------

    def refresh(self) -> str:
        """Re-sync the pool with the (possibly mutated) system.

        Three outcomes, cheapest first — the returned string names which
        one ran:

        * ``"noop"`` — the snapshot already matches the live generation
          signature; nothing moves.
        * ``"delta"`` — the pool broadcasts a
          :class:`~repro.serving.snapshot.SnapshotDelta` (changed
          documents + changed SEOs only) to the live workers, which
          converge in place; no respawn, no full re-serialization.
        * ``"full"`` — re-capture and a fresh pool: the changelog was
          truncated, a collection vanished, or the system is
          mid-mutation (not yet rebuilt).
        """
        self._ensure_open()
        if not self.snapshot.stale(self.system):
            return "noop"
        delta = self.snapshot.delta(self.system)
        if delta is not None:
            self.pool.apply_delta(delta)
            METRICS.counter("serving.delta_refreshes").inc()
            return "delta"
        old_pool = self.pool
        self.snapshot = SystemSnapshot.capture(self.system)
        self.pool = self._make_pool()
        old_pool.close()
        METRICS.counter("serving.full_refreshes").inc()
        self.system.observability.record_event("serving.full_refresh")
        return "full"

    def wait_ready(self, timeout: float = 30.0) -> int:
        """Block until the whole worker fleet finished spawning.

        Optional pre-warming barrier: execution works as soon as one
        worker is up, but a caller that wants full-fleet steady state
        before taking traffic (or before timing the delta-refresh path)
        waits here.  Returns the number of ready workers.
        """
        self._ensure_open()
        return self.pool.wait_ready(timeout=timeout)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.pool.close()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServingError("the query server is closed")

    def _check_fresh(self) -> None:
        if self.snapshot.stale(self.system):
            raise SnapshotStaleError(
                "the live system changed since the server snapshotted it; "
                "call refresh() to serve the new state"
            )

    # -- execution ----------------------------------------------------------

    def _normalize(
        self, query: Union[str, QueryRequest]
    ) -> QueryRequest:
        if isinstance(query, str):
            query = QueryRequest(query=query)
        if query.collection is None:
            if self.default_collection is None:
                raise ServingError(
                    f"request {query.query!r} names no collection and the "
                    "server has no default_collection"
                )
            query = QueryRequest(
                query=query.query,
                collection=self.default_collection,
                sl_variables=query.sl_variables,
                right_collection=query.right_collection,
                guard=query.guard,
                tenant=query.tenant,
                request_id=query.request_id,
            )
        return query

    def _context(self, request: QueryRequest) -> RequestContext:
        """The request identity dispatched with (and logged for) one query."""
        spec = request.guard if request.guard is not None else self.default_guard
        return RequestContext(
            request_id=request.request_id or new_request_id(),
            tenant=request.tenant,
            # query_class stays None: the executor knows the real kind
            # (selection/projection/join) and buckets the windows itself.
            deadline_seconds=spec.deadline_seconds if spec is not None else None,
        )

    def _task(
        self,
        request: QueryRequest,
        collect_metrics: bool,
        context: Optional[RequestContext] = None,
    ) -> Dict[str, Any]:
        spec = request.guard if request.guard is not None else self.default_guard
        return {
            "query": request.query,
            "collection": request.collection,
            "sl_variables": tuple(request.sl_variables),
            "right_collection": request.right_collection,
            "guard": spec.as_tuple() if spec is not None else None,
            "collect_metrics": collect_metrics,
            "trace": bool(
                self.system.observability.enabled
                and self.system.observability.trace_enabled
            ),
            "request": context.to_wire() if context is not None else None,
        }

    def execute_many(
        self, queries: Iterable[Union[str, QueryRequest]]
    ) -> List[QueryOutcome]:
        """Execute a batch across the pool; one outcome per query, in
        submission order.  Per-query failures are captured in their
        outcome, never raised."""
        self._ensure_open()
        self._check_fresh()
        requests = [self._normalize(query) for query in queries]
        if len(requests) > self.max_pending:
            raise ServerOverloadedError(len(requests), self.max_pending)
        if not requests:
            return []
        collect_metrics = METRICS.enabled
        contexts = [self._context(request) for request in requests]
        observability = self.system.observability
        for request, context in zip(requests, contexts):
            observability.record_event(
                "serving.submit",
                request_id=context.request_id,
                query=request.query,
                **({"tenant": context.tenant} if context.tenant else {}),
            )
        started = time.perf_counter()
        METRICS.gauge("serving.queue_depth").set(len(requests))
        try:
            raw = self.pool.run_batch(
                [
                    self._task(request, collect_metrics, context)
                    for request, context in zip(requests, contexts)
                ]
            )
        finally:
            METRICS.gauge("serving.queue_depth").set(0)
        batch_seconds = time.perf_counter() - started

        outcomes: List[QueryOutcome] = []
        tracer = self.system.observability.tracer()
        with tracer.trace("serving.batch", queries=len(requests), workers=self.workers):
            for index, (request, context, entry) in enumerate(
                zip(requests, contexts, raw)
            ):
                seconds = float(entry.get("seconds", 0.0))
                failure = entry.get("failure")
                if failure is not None:
                    error = reconstruct_failure(
                        failure,
                        worker_pid=entry.get("worker_pid"),
                        query=request.query,
                    )
                    error.request_id = context.request_id
                    outcome = QueryOutcome(
                        request=request,
                        error=error,
                        seconds=seconds,
                        request_id=context.request_id,
                    )
                    # The worker never reached _finish_query, so the
                    # parent books the failure into the rolling windows.
                    WINDOWS.observe(
                        "join" if request.right_collection else "selection",
                        seconds,
                        error=True,
                    )
                else:
                    report = ExecutionReport.from_dict(entry["report"])
                    outcome = QueryOutcome(
                        request=request,
                        report=report,
                        seconds=seconds,
                        request_id=context.request_id,
                    )
                outcomes.append(outcome)
                metrics = entry.get("metrics")
                if metrics:
                    METRICS.absorb(metrics)
                WINDOWS.absorb(entry.get("windows"))
                trace_payload = (
                    entry["report"].get("trace") if failure is None else None
                )
                tracer.record_span(
                    f"query[{index}]",
                    seconds,
                    attributes={
                        "query": request.query,
                        "ok": failure is None,
                        "request_id": context.request_id,
                    },
                    children=[trace_payload] if trace_payload else None,
                )
                METRICS.counter("serving.queries").inc()
                if failure is not None:
                    METRICS.counter("serving.query_errors").inc()
                METRICS.histogram("serving.query_seconds").observe(seconds)
                # One terminal record per request: the timeline's
                # verify/completion entry, carrying the worker's span
                # tree into the slow-query log when slow enough.
                observability.record_query(
                    "serving.query",
                    query=request.query,
                    total_seconds=seconds,
                    trace=trace_payload,
                    extra={
                        "request_id": context.request_id,
                        "ok": failure is None,
                        "attempts": entry.get("attempts", 1),
                        "worker_pid": entry.get("worker_pid"),
                        **({"tenant": context.tenant} if context.tenant else {}),
                    },
                )
        batch_trace = tracer.finish()

        METRICS.counter("serving.batches").inc()
        METRICS.histogram("serving.batch_seconds").observe(batch_seconds)
        self.system.observability.record_query(
            "serving.batch",
            total_seconds=batch_seconds,
            trace=batch_trace,
            extra={
                "queries": len(requests),
                "errors": sum(1 for outcome in outcomes if not outcome.ok),
                "workers": self.workers,
            },
        )
        return outcomes

    def execute(self, query: Union[str, QueryRequest]) -> ExecutionReport:
        """Execute one query and return its report (raising its error):
        :meth:`execute_many` of one request."""
        outcome = self.execute_many([query])[0]
        outcome.raise_for_error()
        return outcome.report

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"QueryServer({self.workers} workers, max_pending="
            f"{self.max_pending}, {self.snapshot.mode} snapshot, {state})"
        )


def execute_many(
    system,
    queries: Sequence[Union[str, QueryRequest]],
    workers: int = 1,
    **server_kwargs: Any,
) -> List[QueryOutcome]:
    """One-shot batch execution: spin up a :class:`QueryServer`, run the
    batch, tear the pool down.  Prefer a long-lived server when issuing
    more than one batch — pool start-up costs more than most queries."""
    with QueryServer(system, workers=workers, **server_kwargs) as server:
        return server.execute_many(queries)
