"""Intra-query parallelism: partition one query's candidate scan.

The verify stage dominates large selections and joins (every candidate
document is run through XPath and witness-tree conversion), and it is
embarrassingly parallel across documents.  This module splits the
**post-planner candidate document set** — the keys that survive index
pruning, in collection insertion order — into contiguous chunks, ships
one chunk per worker as the executor's ``document_keys`` restriction,
and merges the partial :class:`~repro.core.executor.ExecutionReport`
objects back with :meth:`ExecutionReport.merge`.

Identity with serial execution is structural, not statistical:

* the chunks are contiguous slices of the serial scan order, so
  concatenating per-chunk results in chunk order reproduces the serial
  result sequence (joins partition the *left* collection only — the
  product is left-major, so left-contiguous chunks stay order-safe);
* :meth:`ExecutionReport.merge` re-applies the order-preserving dedupe,
  catching duplicates that serial execution would have collapsed across
  a chunk boundary;
* the parent guard is started before planning, each worker receives the
  remaining budget at dispatch, and the workers' consumed steps are
  ticked back into the parent guard — a budget the partitions
  collectively exceed raises exactly like serial execution;
* each chunk runs through the executor's set-oriented verifier:
  candidates arrive as columnar ``(columns, row)`` entries per chunk
  and batch-verify in scan order, one guard tick per candidate — so the merged report's ``docs_verified`` / ``pairs_probed``
  counters sum to the serial run's and the results stay bit-identical.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..core.executor import ExecutionReport
from ..errors import ServingError, SnapshotStaleError, TossError
from ..guard import ResourceGuard
from ..obs.context import current_request
from ..obs.metrics import REGISTRY as METRICS
from ..obs.window import WINDOWS
from ..parallel import absorb_worker_steps, remaining_budget
from .pool import reconstruct_failure
from .supervisor import SupervisedWorkerPool


def partition_document_keys(
    keys: Sequence[str], jobs: int
) -> List[List[str]]:
    """Split ``keys`` into at most ``jobs`` contiguous, balanced chunks.

    Deterministic: the first ``len(keys) % jobs`` chunks get one extra
    key.  Never returns an empty chunk — fewer keys than jobs yields
    fewer chunks.  Concatenating the chunks reproduces ``keys`` exactly.
    """
    if jobs < 1:
        raise ServingError(f"jobs must be >= 1, got {jobs}")
    keys = list(keys)
    jobs = min(jobs, len(keys))
    if jobs <= 1:
        return [keys] if keys else []
    base, extra = divmod(len(keys), jobs)
    chunks: List[List[str]] = []
    start = 0
    for index in range(jobs):
        size = base + (1 if index < extra else 0)
        chunks.append(keys[start : start + size])
        start += size
    return chunks


def _candidate_keys(
    system,
    collection: str,
    query: str,
    right_collection: Optional[str],
    guard: Optional[ResourceGuard],
) -> List[str]:
    """The query's post-planner candidate document keys, in scan order."""
    from ..core.parser import parse_query

    executor, _degraded = system._query_executor()
    parsed = parse_query(query)
    if len(parsed.roots) == 1:
        return executor.candidate_documents(collection, parsed.pattern, guard=guard)
    if len(parsed.roots) == 2:
        if right_collection is None:
            raise TossError("a two-element query is a join; pass right_collection=")
        return executor.join_candidate_documents(
            collection, right_collection, parsed.pattern, guard=guard
        )
    raise TossError("queries must have one or two top-level elements")


def execute_partitioned(
    system,
    pool: SupervisedWorkerPool,
    collection: str,
    query: str,
    sl_variables: Iterable[str] = (),
    right_collection: Optional[str] = None,
    jobs: Optional[int] = None,
    guard: Optional[ResourceGuard] = None,
    on_chunk_failure: str = "raise",
) -> ExecutionReport:
    """Run one textual query with its candidate scan split across ``pool``.

    The parent plans (rewrite + index probes) once to obtain the
    candidate set, partitions it into at most ``jobs`` (default: the
    pool width) contiguous chunks, and executes the chunks concurrently.
    Returns a merged report whose results are bit-identical to — and in
    the same order as — serial execution of the same query.

    With fewer than two non-empty chunks the query simply runs serially
    in-process: partitioning never changes results, only wall-clock.

    ``on_chunk_failure`` picks the failure semantics when a chunk fails
    permanently (all retries exhausted):

    * ``"raise"`` (default) — exact-or-error: the first chunk failure is
      reconstructed and raised, no partial results escape;
    * ``"degrade"`` — partial-result degradation: surviving chunks are
      merged in chunk order into a report with ``degraded=True`` and one
      ``failed_partitions`` entry per lost chunk (partition index,
      document count, error class, message, attempts).  Guard-limit
      failures (timeout/exhausted) still raise — the budget was
      collectively exceeded, degrading would mask it — as does the case
      where *every* chunk failed.
    """
    if on_chunk_failure not in ("raise", "degrade"):
        raise ServingError(
            f"on_chunk_failure must be 'raise' or 'degrade', "
            f"got {on_chunk_failure!r}"
        )
    if pool.snapshot.stale(system):
        raise SnapshotStaleError(
            "the worker pool's snapshot no longer matches the live system; "
            "re-snapshot before partitioned execution"
        )
    jobs = jobs if jobs is not None else pool.workers
    if jobs < 1:
        raise ServingError(f"jobs must be >= 1, got {jobs}")
    guard = guard if guard is not None else system.guard
    if guard is not None:
        guard.start()
    started = time.perf_counter()
    keys = _candidate_keys(system, collection, query, right_collection, guard)
    chunks = partition_document_keys(keys, jobs)
    if len(chunks) < 2:
        report = system.query(
            collection,
            query,
            sl_variables=sl_variables,
            right_collection=right_collection,
            document_keys=chunks[0] if chunks else [],
        )
        return report

    deadline, steps = remaining_budget(guard)
    max_results = guard.max_results if guard is not None else None
    collect_metrics = METRICS.enabled
    trace_workers = bool(
        system.observability.enabled and system.observability.trace_enabled
    )
    # Every chunk carries the originating request's identity (if one is
    # ambient — QueryServer.execute activates it), so per-chunk worker
    # spans and the merged report share the request id.
    context = current_request()
    request_wire = context.to_wire() if context is not None else None
    tasks: List[Dict[str, Any]] = [
        {
            "query": query,
            "collection": collection,
            "sl_variables": tuple(sl_variables),
            "right_collection": right_collection,
            "document_keys": chunk,
            "guard": (deadline, steps, max_results),
            "collect_metrics": collect_metrics,
            "trace": trace_workers,
            "request": request_wire,
        }
        for chunk in chunks
    ]
    outcomes = pool.run_batch(tasks)

    # Guard accounting first: the parent ticks the workers' consumed
    # steps (and hits the collective budget) even when a chunk failed.
    stage_totals: Dict[str, int] = {}
    total_steps = 0
    for outcome in outcomes:
        total_steps += outcome.get("steps", 0)
        for stage, count in outcome.get("stage_steps", {}).items():
            stage_totals[stage] = stage_totals.get(stage, 0) + count
    failed: List[Dict[str, Any]] = []
    for index, outcome in enumerate(outcomes):
        failure = outcome.get("failure")
        if failure is None:
            continue
        exc = reconstruct_failure(
            failure, worker_pid=outcome.get("worker_pid"), query=query
        )
        # Guard trips are never degradable: the budget was collectively
        # exceeded, and returning partial results would mask that.
        if on_chunk_failure != "degrade" or failure[0] in ("timeout", "exhausted"):
            raise exc
        failed.append(
            {
                "partition": index,
                "documents": len(chunks[index]),
                "error": type(exc).__name__,
                "message": str(exc),
                "attempts": outcome.get("attempts", 1),
            }
        )
    if failed and len(failed) == len(outcomes):
        # Nothing survived — a fully empty "partial" result is a lie.
        raise reconstruct_failure(
            outcomes[0]["failure"],
            worker_pid=outcomes[0].get("worker_pid"),
            query=query,
        )
    absorb_worker_steps(guard, stage_totals, total_steps, "partitioned query")

    for outcome in outcomes:
        metrics = outcome.get("metrics")
        if metrics:
            METRICS.absorb(metrics)
        WINDOWS.absorb(outcome.get("windows"))

    partials = [
        ExecutionReport.from_dict(outcome["report"])
        for outcome in outcomes
        if outcome.get("report") is not None
    ]
    merged = ExecutionReport.merge(partials)
    if failed:
        merged.degraded = True
        merged.failed_partitions = failed
        METRICS.counter("serving.degraded_partitions").inc(len(failed))
    if guard is not None:
        guard.check_results(len(merged.results))

    tracer = system.observability.tracer()
    with tracer.trace(
        "query.partitioned",
        collection=collection,
        partitions=len(chunks),
        candidates=len(keys),
        workers=pool.workers,
    ):
        for index, (chunk, outcome) in enumerate(zip(chunks, outcomes)):
            report_payload = outcome.get("report")
            tracer.record_span(
                f"partition[{index}]",
                outcome.get("seconds", 0.0),
                attributes={
                    "documents": len(chunk),
                    **({"failed": True} if report_payload is None else {}),
                },
                children=(
                    [report_payload["trace"]]
                    if report_payload and report_payload.get("trace")
                    else None
                ),
            )
    merged.trace = tracer.finish()

    elapsed = time.perf_counter() - started
    METRICS.counter("serving.partitioned_queries").inc()
    METRICS.counter("serving.partitions").inc(len(chunks))
    METRICS.histogram("serving.partitioned_seconds").observe(elapsed)
    system.observability.record_query(
        "query.partitioned",
        query=query,
        total_seconds=elapsed,
        trace=merged.trace,
        extra={
            "collection": collection,
            "partitions": len(chunks),
            "candidates": len(keys),
            "results": len(merged.results),
            "degraded_partitions": len(failed),
        },
    )
    return merged
