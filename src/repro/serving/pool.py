"""The worker side of serving: answer queries from a snapshot.

A worker process (see :mod:`repro.serving.supervisor`, which owns the
processes) is initialized once with the system snapshot (inherited
copy-on-write under fork, else booted by replaying the snapshot's
genesis :class:`~repro.serving.snapshot.SnapshotDelta` — the same
replay a live worker runs on a refresh) and reused for every query
after that — the per-query cost is one small task dict and one report
dict, never a re-load of the system.

The cross-process discipline:

* exceptions never cross the boundary raw — a worker returns a typed
  failure marker and the parent reconstructs the matching
  :class:`~repro.errors.ReproError` subclass deterministically;
* guards are per task — each task carries its deadline/step/result
  budget and the worker enforces it with a fresh guard;
* observability is plain data — a worker returns its span tree and a
  metrics-registry snapshot (then resets its registry, so consecutive
  snapshots are deltas), and the parent re-attaches/absorbs them.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional

from .. import errors as _errors
from ..errors import (
    PoisonTaskError,
    QueryTimeoutError,
    ReproError,
    ResourceExhaustedError,
    ServingError,
    WorkerCrashError,
)
from ..guard import ResourceGuard
from ..obs import NULL_OBSERVABILITY, Observability
from ..obs.context import RequestContext, activate
from ..obs.metrics import REGISTRY as METRICS
from ..obs.window import WINDOWS
from .snapshot import SnapshotDelta, boot

#: Worker-process state: the booted/inherited system, set by the
#: pool initializer (one system per worker process).
_WORKER: Dict[str, Any] = {"system": None}

#: Parent-side handoff for fork workers: the initializer in a forked child
#: reads the live system from here (inherited through copy-on-write).
_FORK_SYSTEM: Any = None


def _initialize_worker(genesis: Optional[SnapshotDelta]) -> None:
    """Worker initializer: install the snapshot system in this process —
    the parent's, inherited at fork (``genesis`` None), or one booted
    from the snapshot's genesis delta."""
    system = _FORK_SYSTEM if genesis is None else boot(genesis)
    # Workers never write sink files and start from a clean registry:
    # their metrics travel back to the parent as snapshot deltas.
    system.set_observability(NULL_OBSERVABILITY)
    METRICS.reset()
    WINDOWS.reset()
    _WORKER["system"] = system


def _guard_from_task(task: Dict[str, Any]) -> Optional[ResourceGuard]:
    spec = task.get("guard")
    if not spec:
        return None
    deadline, max_steps, max_results = spec
    if deadline is None and max_steps is None and max_results is None:
        return None
    return ResourceGuard(
        deadline_seconds=deadline, max_results=max_results, max_steps=max_steps
    )


def run_query_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: execute one textual query from the snapshot.

    Returns ``{"report": ..., "seconds": ..., "metrics": ...}`` on
    success or a failure marker ``{"failure": (kind, ...), "seconds":
    ...}`` when the guard trips or the query errors.
    """
    system = _WORKER["system"]
    pid = os.getpid()
    if system is None:  # pragma: no cover - initializer always runs first
        return {
            "failure": ("error", "ServingError", "worker not initialized"),
            "worker_pid": pid,
        }
    guard = _guard_from_task(task)
    # Re-activate the request identity the parent minted, so the spans,
    # report and window slots this worker produces join the same
    # cross-process timeline.
    context = RequestContext.from_wire(task.get("request"))
    request_id = context.request_id if context is not None else None
    if task.get("trace"):
        system.set_observability(Observability(enabled=True))
    else:
        system.set_observability(NULL_OBSERVABILITY)
    executor, _degraded = system._query_executor()
    previous_guard = executor.guard
    executor.guard = guard
    started = time.perf_counter()
    try:
        with activate(context):
            report = system.query(
                task["collection"],
                task["query"],
                sl_variables=tuple(task.get("sl_variables", ())),
                right_collection=task.get("right_collection"),
            )
    except QueryTimeoutError as exc:
        return {
            "failure": ("timeout", task["query"], exc.deadline, exc.elapsed),
            "seconds": time.perf_counter() - started,
            "worker_pid": pid,
            "request_id": request_id,
        }
    except ResourceExhaustedError as exc:
        return {
            "failure": ("exhausted", str(exc)),
            "seconds": time.perf_counter() - started,
            "worker_pid": pid,
            "request_id": request_id,
        }
    except ReproError as exc:
        return {
            "failure": ("error", type(exc).__name__, str(exc)),
            "seconds": time.perf_counter() - started,
            "worker_pid": pid,
            "request_id": request_id,
        }
    finally:
        executor.guard = previous_guard
    outcome = {
        # Compact wire form: default-valued scalars omitted, results as
        # serialized text the parent re-parses only if it touches
        # ``.results`` (the batch path never does).
        "report": report.to_dict(include_results=True, compact=True),
        "seconds": time.perf_counter() - started,
        "worker_pid": pid,
        "request_id": request_id,
    }
    if task.get("collect_metrics"):
        outcome["metrics"] = METRICS.snapshot()
        METRICS.reset()
        # Rolling-window slots travel the same delta discipline: ship
        # and clear, so the parent's absorb sees each second once.
        outcome["windows"] = WINDOWS.snapshot(reset=True)
    return outcome


def _attach_context(
    exc: ReproError, worker_pid: Optional[int], query: Optional[str]
) -> ReproError:
    """Pin the originating worker pid and query text onto ``exc``."""
    exc.worker_pid = worker_pid
    exc.worker_query = query
    return exc


def reconstruct_failure(
    failure,
    worker_pid: Optional[int] = None,
    query: Optional[str] = None,
) -> ReproError:
    """The parent-side exception for a worker failure marker.

    Every reconstructed (or wrapped) exception carries the worker pid
    and the query text as ``worker_pid`` / ``worker_query`` attributes,
    and the worker's original message survives verbatim — including for
    :class:`ReproError` subclasses whose ``__init__`` takes several
    arguments or rewrites its message (those are rebuilt without
    invoking the custom initializer).
    """
    kind = failure[0]
    if kind == "timeout":
        return _attach_context(
            QueryTimeoutError(
                f"query {failure[1]!r}", float(failure[2]), float(failure[3])
            ),
            worker_pid,
            query if query is not None else failure[1],
        )
    if kind == "exhausted":
        return _attach_context(
            ResourceExhaustedError(failure[1]), worker_pid, query
        )
    if kind == "crash":
        return _attach_context(
            WorkerCrashError(failure[1], int(failure[2]), failure[3]),
            worker_pid,
            failure[1],
        )
    if kind == "poison":
        return _attach_context(
            PoisonTaskError(failure[1], int(failure[2])), worker_pid, failure[1]
        )
    # Generic: restore the original class by name when it is a known
    # ReproError, preserving the worker's message verbatim; wrap in
    # ServingError only for unknown classes.
    name, message = failure[1], failure[2]
    exc_class = getattr(_errors, name, None)
    exc: Optional[ReproError] = None
    if isinstance(exc_class, type) and issubclass(exc_class, ReproError):
        try:
            candidate = exc_class(message)
            if str(candidate) == message:
                exc = candidate
        except TypeError:
            pass
        if exc is None:
            # Multi-arg or message-rewriting __init__ (e.g.
            # DocumentTooLargeError, HierarchyCycleError): rebuild the
            # instance without running it, so the original message is
            # preserved instead of mangled or replaced by a generic
            # wrapper.  Class-specific attributes are absent — callers
            # needing them must run in-process.
            exc = exc_class.__new__(exc_class)
            Exception.__init__(exc, message)
    if exc is None:
        exc = ServingError(f"worker query failed ({name}): {message}")
    return _attach_context(exc, worker_pid, query)
