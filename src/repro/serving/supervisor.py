"""Supervised worker pool: crash detection, respawn, retries, quarantine.

A plain ``multiprocessing.Pool`` is brittle in exactly the ways serving
cannot afford: a worker SIGKILLed mid-batch (OOM killer, operator)
poisons the shared result pipe and the whole batch errors or hangs, a
worker stuck in native code stalls ``map()`` forever because deadlines
are only enforced *inside* the worker, and one dead process takes every
queued task down with it.

:class:`SupervisedWorkerPool` is the serving tier's one pool, built
on per-worker ``Process`` + request-pipe + response-pipe triples so
each worker's fate is independent and observable.  Nothing is a
``multiprocessing.Queue``: a queue serialises writers through a lock
held by a feeder thread, so a worker SIGKILLed mid-flush leaves the
lock held and a frame half-written — wedging every other worker and,
eventually, the parent's reader — and even a private request queue
costs the parent a feeder thread and a lock per request.  Each pipe of
an incarnation has one writer and one reader, so ``send`` is
synchronous (nothing is buffered behind a death), a worker killed
mid-send surfaces as a clean ``EOFError`` on its response pipe alone, a
request sent to a dead worker raises at once and is booked as its
crash, and no lock outlives its holder.  The one hazard of a
synchronous send — it blocks once a reader that is not reading lets
the 64 KiB buffer fill — is avoided by sending only to a worker that is
reading: tasks to idle ready workers, a snapshot delta to a booting
worker only after its ``ready`` arrives.

Worker metrics stay off the per-request path: a worker keeps
accumulating its metric delta and ships it inside an answer only when
its previous shipment is :data:`METRIC_DELTA_INTERVAL` old, and once
more in answer to the shutdown sentinel, which
:meth:`SupervisedWorkerPool.close` drains — so the parent's totals are
exact after ``close()``, and a SIGKILLed worker loses at most what it
recorded since its last shipment.  The supervisor provides:

* **crash detection & respawn** — one sweep checks every worker's
  liveness whatever the pool is waiting for (a batch, a delta's acks,
  the fleet's handshakes) and dead ones respawn, inside a batch, with
  capped exponential backoff; a worker whose
  spawns keep failing (e.g. snapshot transport corruption) is abandoned
  after a bounded number of consecutive failures rather than respawned
  forever;
* **parent-side hard timeouts** — a worker that exceeds its task's hard
  deadline (derived from the query's guard budget, or the policy
  default) is killed from the parent and its task rescheduled, so a
  hang in the worker can never stall the batch;
* **bounded retries with backoff** — worker death, parent-side kills
  and corrupted responses are *retryable* (TOSS queries are read-only,
  hence idempotent); a task is re-dispatched up to
  :attr:`RetryPolicy.max_retries` times with exponential backoff, and
  typed in-query failures (guard trips, query errors) are returned
  as-is, never retried;
* **poison-task quarantine** — a task that crashes
  :attr:`RetryPolicy.quarantine_after` workers is failed permanently
  with :class:`~repro.errors.PoisonTaskError` instead of grinding the
  pool through respawn cycles;
* **circuit breaker** — batch admission sheds load
  (:class:`~repro.errors.CircuitOpenError`, a
  :class:`~repro.errors.ServerOverloadedError`) while the recent crash
  rate exceeds :attr:`RetryPolicy.max_crash_rate`; after the cooldown
  one batch is admitted half-open and its first crash re-trips.

Recovery is fully observable: crash/retry/respawn/quarantine/trip
counters in :data:`repro.obs.metrics.REGISTRY`, recovery events in the
system's event and slow-query logs, and a supervisor span tree, flushed
by whichever of ``run_batch``, ``apply_delta``, ``wait_ready`` or
``close`` read them.  Fault injection (:mod:`repro.faults`) is honoured by
the worker main loop, so every path above is deterministically
testable.

The dispatch interface is ``run_batch(tasks) -> outcomes in task
order``; :class:`~repro.serving.server.QueryServer` drives it, one task
per request.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import Counter, deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Deque, Dict, List, Optional

from .. import faults as _faults
from ..errors import CircuitOpenError, ServingError
from ..obs.metrics import REGISTRY as METRICS
from . import pool as _pool
from .pool import run_query_task, take_metric_delta
from .snapshot import FORK, SnapshotDelta, SystemSnapshot, apply_snapshot_delta

#: Scheduler wait granularity, seconds.  Responses wake the scheduler
#: immediately; this only bounds how late a liveness/deadline check or a
#: backoff expiry can be noticed.
POLL_INTERVAL = 0.05

#: Least seconds between two metric-delta shipments from one worker
#: incarnation — the refresh period of ``serve --stats``.  A task asks for
#: the worker's delta only when that worker last shipped this long ago;
#: in between the worker keeps accumulating.
METRIC_DELTA_INTERVAL = 1.0

#: Fault-injection sequence number stamped on snapshot-delta broadcasts,
#: distinct from any task index, so chaos plans can target "kill the
#: worker mid-delta-apply" deterministically (``tasks=(DELTA_FAULT_SEQ,)``).
DELTA_FAULT_SEQ = -1

#: Parent-side wall-clock bound on one worker acking a delta broadcast;
#: a worker past it is killed and respawned from the advanced snapshot.
DELTA_APPLY_TIMEOUT = 30.0


def backoff_delay(base: float, cap: float, failures: int) -> float:
    """Capped exponential backoff: ``min(cap, base * 2**failures)``.

    ``failures`` counts *previous* consecutive failures, so the first
    retry waits ``base`` and each further failure doubles the wait up to
    ``cap``.
    """
    if base <= 0.0:
        return 0.0
    return min(cap, base * (2.0 ** max(0, failures)))


@dataclass(frozen=True)
class RetryPolicy:
    """The supervised pool's failure-handling knobs.

    Attributes
    ----------
    max_retries:
        Re-dispatches allowed per task after a retryable failure (worker
        death, parent-side hang kill, corrupted response).  0 fails a
        task on its first crash.
    retry_backoff_base, retry_backoff_cap:
        Exponential backoff bounds between re-dispatches of one task.
    respawn_backoff_base, respawn_backoff_cap:
        Exponential backoff bounds before a dead worker is respawned
        (doubling with the worker's consecutive failures).
    max_spawn_failures:
        Consecutive failed spawns before a worker slot is abandoned.
        When every slot is abandoned, ``run_batch`` raises
        :class:`~repro.errors.ServingError` rather than spin forever.
    hard_timeout:
        Parent-side wall-clock limit per dispatched task, after which
        the worker is killed and the task rescheduled.  ``None`` derives
        the limit from the task's guard deadline
        (``deadline * hard_timeout_grace + 1s``); a task with neither
        runs unbounded.
    hard_timeout_grace:
        Multiplier applied to a task's guard deadline when deriving the
        parent-side limit — the worker's own guard should win the race
        in the healthy case, the parent-side kill is the backstop.
    quarantine_after:
        Worker crashes attributable to the *same task* before it is
        quarantined with :class:`~repro.errors.PoisonTaskError`.
    max_crash_rate:
        Circuit-breaker threshold on the crash fraction of the last
        ``breaker_window`` task completions; ``None`` disables the
        breaker.
    breaker_window, breaker_min_events:
        Sliding-window length and the minimum completions before the
        rate is meaningful.
    breaker_cooldown:
        Seconds the breaker stays open before admitting one half-open
        batch.
    """

    max_retries: int = 2
    retry_backoff_base: float = 0.05
    retry_backoff_cap: float = 2.0
    respawn_backoff_base: float = 0.1
    respawn_backoff_cap: float = 5.0
    max_spawn_failures: int = 5
    hard_timeout: Optional[float] = None
    hard_timeout_grace: float = 2.0
    quarantine_after: int = 3
    max_crash_rate: Optional[float] = 0.8
    breaker_window: int = 16
    breaker_min_events: int = 8
    breaker_cooldown: float = 5.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ServingError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.quarantine_after < 1:
            raise ServingError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )
        if self.max_spawn_failures < 1:
            raise ServingError(
                f"max_spawn_failures must be >= 1, got {self.max_spawn_failures}"
            )
        if self.hard_timeout is not None and self.hard_timeout <= 0:
            raise ServingError(
                f"hard_timeout must be > 0, got {self.hard_timeout}"
            )
        if self.max_crash_rate is not None and not 0.0 < self.max_crash_rate <= 1.0:
            raise ServingError(
                f"max_crash_rate must be in (0, 1], got {self.max_crash_rate}"
            )

    def task_hard_timeout(self, task: Dict[str, Any]) -> Optional[float]:
        """The parent-side kill deadline for one task (None: unbounded)."""
        if self.hard_timeout is not None:
            return self.hard_timeout
        spec = task.get("guard")
        if spec and spec[0] is not None:
            return float(spec[0]) * self.hard_timeout_grace + 1.0
        return None


class CircuitBreaker:
    """Sliding-window crash-rate breaker with cooldown and half-open.

    Tracks the last ``window`` task completions as success/failure bits.
    Once at least ``min_events`` are recorded and the failure fraction
    exceeds ``max_crash_rate``, the breaker *trips*: :meth:`admit`
    raises :class:`~repro.errors.CircuitOpenError` until ``cooldown``
    seconds pass, then admits half-open — the next failure re-trips
    immediately, the next success closes it.
    """

    def __init__(
        self,
        max_crash_rate: Optional[float],
        window: int = 16,
        min_events: int = 8,
        cooldown: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.max_crash_rate = max_crash_rate
        self.min_events = min_events
        self.cooldown = cooldown
        self.trips = 0
        self._events: Deque[bool] = deque(maxlen=max(1, window))
        self._open_until: Optional[float] = None
        self._half_open = False
        self._clock = clock

    @property
    def state(self) -> str:
        if self._open_until is not None and self._clock() < self._open_until:
            return "open"
        if self._half_open or self._open_until is not None:
            return "half-open"
        return "closed"

    def _crash_rate(self) -> float:
        if not self._events:
            return 0.0
        return sum(1 for failed in self._events if failed) / len(self._events)

    def admit(self) -> None:
        """Gate one batch; raises :class:`CircuitOpenError` while open."""
        if self.max_crash_rate is None or self._open_until is None:
            return
        now = self._clock()
        if now < self._open_until:
            raise CircuitOpenError(
                self._crash_rate(), self.max_crash_rate, self._open_until - now
            )
        self._open_until = None
        self._half_open = True

    def record_failure(self) -> None:
        self._events.append(True)
        if self.max_crash_rate is None:
            return
        if self._half_open:
            self._trip()
            return
        if (
            self._open_until is None
            and len(self._events) >= self.min_events
            and self._crash_rate() > self.max_crash_rate
        ):
            self._trip()

    def record_success(self) -> None:
        self._events.append(False)
        self._half_open = False

    def _trip(self) -> None:
        self.trips += 1
        self._open_until = self._clock() + self.cooldown
        self._half_open = False
        METRICS.counter("serving.breaker_trips").inc()


def _supervised_worker_main(
    worker_id: int,
    spawn: int,
    genesis: Optional[SnapshotDelta],
    requests,
    responses,
) -> None:
    """Worker process main loop: handshake, then serve tasks until the
    ``None`` sentinel.

    Fault injection runs here — spawn-scoped injectors before the ready
    handshake (so the supervisor sees a slow or failed spawn), task
    injectors before each execution (so a kill looks exactly like an OOM
    kill: no cleanup, no response).
    """
    def _send(message) -> bool:
        # The response pipe has this worker as its only writer, so a
        # completed send is fully flushed — nothing sits in a feeder
        # thread to be lost (or to wedge a shared lock) if this process
        # is SIGKILLed a moment later.  A broken pipe means the parent
        # is gone or has retired this incarnation: stop serving.
        try:
            responses.send(message)
            return True
        except (BrokenPipeError, OSError):
            return False

    plan = _faults.plan_from_env()
    try:
        _faults.apply_spawn_faults(plan, worker_id, spawn)
        _pool._initialize_worker(genesis)
    except BaseException as exc:  # noqa: BLE001 - must report, then die
        _send(
            (
                "spawn_failed",
                worker_id,
                spawn,
                os.getpid(),
                f"{type(exc).__name__}: {exc}",
            )
        )
        return
    if not _send(("ready", worker_id, spawn, os.getpid())):
        return
    while True:
        try:
            task = requests.recv()
        except (EOFError, OSError):
            return  # the parent retired this incarnation's request pipe
        if task is None:
            # Shutdown: ship the unshipped tail, so the parent's totals
            # are exact once close() has drained this pipe.
            delta = take_metric_delta()
            if delta is not None:
                _send(("metrics", worker_id, spawn, delta))
            return
        seq = task.get("_fault_seq", 0)
        attempt = task.get("_fault_attempt", 0)
        task_plan = _faults.plan_from_task(task)
        delta = task.get("_snapshot_delta")
        if delta is not None:
            # Delta broadcast: fault injection first (a KILL here models
            # death mid-apply — no cleanup, no ack), then converge the
            # local system and ack with the resulting signature check.
            _faults.apply_task_faults(task_plan, seq, attempt)
            try:
                signature = apply_snapshot_delta(_pool._WORKER["system"], delta)
                ok = tuple(signature) == tuple(delta.target_signature)
                detail = (
                    None
                    if ok
                    else "generation signature mismatch after delta apply"
                )
            except BaseException as exc:  # noqa: BLE001 - ack, then die
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            if not _send(("delta_applied", worker_id, spawn, ok, detail)):
                return
            if not ok:
                # The local system may be half-converged: die and let the
                # supervisor respawn this slot from the advanced snapshot.
                return
            continue
        corrupt = _faults.apply_task_faults(task_plan, seq, attempt)
        outcome = run_query_task(task)
        if corrupt:
            outcome = _faults.corrupt_response()
        # The metric delta rides in the answer's own message: it counts
        # exactly when the answer does, never for an attempt that died.
        delta = take_metric_delta() if task.get("collect_metrics") else None
        if not _send(("done", worker_id, spawn, task["_index"], outcome, delta)):
            return


class _Worker:
    """Parent-side state of one supervised worker slot."""

    __slots__ = (
        "worker_id",
        "process",
        "requests",
        "reader",
        "pid",
        "ready",
        "busy_index",
        "kill_at",
        "spawn_count",
        "spawn_started",
        "consecutive_failures",
        "spawn_failures",
        "respawn_at",
        "abandoned",
        "last_request_id",
        "shipped_at",
    )

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.process = None
        #: Parent end of this incarnation's single-writer request pipe.
        self.requests = None
        #: Parent end of this incarnation's single-writer response pipe.
        self.reader = None
        self.pid: Optional[int] = None
        self.ready = False
        self.busy_index: Optional[int] = None
        #: When the parent kills this incarnation: its task's hard
        #: timeout, or the deadline of an outstanding delta ack.
        self.kill_at: Optional[float] = None
        self.spawn_count = -1
        self.spawn_started = 0.0
        #: Consecutive crash-ish events (task crashes, spawn failures);
        #: doubles the respawn backoff, reset by a completed task.
        self.consecutive_failures = 0
        #: Consecutive *spawn* failures; abandons the slot when capped.
        self.spawn_failures = 0
        self.respawn_at: Optional[float] = None
        self.abandoned = False
        #: Request id of the task this slot was serving when it last
        #: died — stamped onto the respawn event, so a respawn joins the
        #: timeline of the request whose crash caused it.
        self.last_request_id: Optional[str] = None
        #: When this incarnation was last asked for its metric delta
        #: (None: never, so its first task asks).
        self.shipped_at: Optional[float] = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class _Run:
    """One ``run_batch`` call's bookkeeping, indexed by task."""

    __slots__ = ("tasks", "outcomes", "attempts", "crashes", "ready_at", "pending", "done")

    def __init__(self, tasks: List[Dict[str, Any]]) -> None:
        total = len(tasks)
        self.tasks = tasks
        self.outcomes: List[Optional[Dict[str, Any]]] = [None] * total
        self.attempts = [0] * total
        self.crashes = [0] * total
        #: Earliest dispatch time per task (its retry backoff).
        self.ready_at = [0.0] * total
        self.pending: Deque[int] = deque(range(total))
        self.done = 0

    def finish(self, index: int, outcome: Dict[str, Any]) -> None:
        self.outcomes[index] = outcome
        self.done += 1


#: Each ``stats()`` count and the ``serving.*`` counter booked with it.
_COUNTERS = {
    "crashes": "serving.worker_crashes",
    "retries": "serving.task_retries",
    "respawns": "serving.worker_respawns",
    "hard_timeouts": "serving.hard_timeouts",
    "quarantined": "serving.quarantined_tasks",
    "spawn_failures": "serving.spawn_failures",
}


class SupervisedWorkerPool:
    """A crash-tolerant pool of query workers over one system snapshot.

    ``snapshot`` / ``workers`` attributes and a
    ``run_batch``/``close``/context-manager surface, with the
    supervision semantics described in the module docstring.

    Every worker message goes through :meth:`_on_message` and every
    liveness check through :meth:`_sweep`, whichever public call is
    waiting, so a respawn or a spawn failure is booked the same during a
    batch, a delta broadcast, :meth:`wait_ready` or :meth:`close`.

    Parameters
    ----------
    snapshot:
        The :class:`~repro.serving.snapshot.SystemSnapshot` workers
        answer from.
    workers:
        Worker-slot count.
    policy:
        :class:`RetryPolicy`; defaults are production-shaped (2 retries,
        quarantine at 3 crashes, breaker at 80% crash rate).
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` stamped onto every
        dispatched task, so live workers honour it regardless of their
        inherited environment.
    """

    def __init__(
        self,
        snapshot: SystemSnapshot,
        workers: int,
        policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[_faults.FaultPlan] = None,
    ) -> None:
        if workers < 1:
            raise ServingError(f"workers must be >= 1, got {workers}")
        self.snapshot = snapshot
        self.workers = workers
        self.policy = policy if policy is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.breaker = CircuitBreaker(
            self.policy.max_crash_rate,
            window=self.policy.breaker_window,
            min_events=self.policy.breaker_min_events,
            cooldown=self.policy.breaker_cooldown,
        )
        start_method = (
            FORK if FORK in multiprocessing.get_all_start_methods() else "spawn"
        )
        self._context = multiprocessing.get_context(start_method)
        self._stats: Dict[str, Any] = dict.fromkeys(_COUNTERS, 0)
        self._stats["respawn_seconds"] = []
        #: Recovery events not yet flushed by :meth:`_record_recovery`.
        self._events: List[Dict[str, Any]] = []
        #: The running batch, where a ``done`` message goes.
        self._run: Optional[_Run] = None
        #: The outstanding delta broadcast: the workers whose
        #: ``delta_applied`` is due (each to its delta task), and how many
        #: applied it.
        self._awaiting: Dict[int, Dict[str, Any]] = {}
        self._applied = 0
        self._closed = False
        self._workers = [_Worker(worker_id) for worker_id in range(workers)]
        for worker in self._workers:
            self._spawn(worker)

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        worker.spawn_count += 1
        worker.respawn_at = None
        worker.spawn_started = time.monotonic()
        worker.shipped_at = None
        tasks, worker.requests = self._context.Pipe(duplex=False)
        worker.reader, writer = self._context.Pipe(duplex=False)
        # A delta-advanced snapshot dropped its genesis; respawns rebuild
        # it from the live system so every new worker comes up at the
        # current generation.
        worker.process = self._context.Process(
            target=_supervised_worker_main,
            args=(
                worker.worker_id,
                worker.spawn_count,
                self.snapshot.genesis(),
                tasks,
                writer,
            ),
            daemon=True,
        )
        # Copy-on-write handoff: a worker without a genesis reads the
        # live system from the module global it inherits at fork.
        _pool._FORK_SYSTEM = self.snapshot.system
        try:
            worker.process.start()
        finally:
            _pool._FORK_SYSTEM = None
        # Drop the parent's copy of the write end: the worker must be
        # the pipe's ONLY writer, so its death (even SIGKILL mid-send)
        # reads as EOF here instead of an indefinite block.  Likewise the
        # worker is the request pipe's only reader, so a send to a dead
        # worker raises instead of filling a buffer nobody drains.
        writer.close()
        tasks.close()
        if worker.spawn_count > 0:
            self._book(None, "respawns")

    def _discard_transport(self, worker: _Worker) -> None:
        """Retire an incarnation's request and response pipes; whatever
        they still hold died with it."""
        for conn in (worker.reader, worker.requests):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        worker.reader = worker.requests = None

    def _kill_worker(self, worker: _Worker) -> None:
        worker.process.terminate()
        worker.process.join(0.5)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(1.0)

    def _mark_dead(self, worker: _Worker, spawn_failure: bool = False) -> None:
        """Retire a dead (or just-killed) worker, which owes no delta ack
        any more, and schedule its respawn (none for an abandoned slot)."""
        worker.process.join(0.1)
        self._discard_transport(worker)
        self._awaiting.pop(worker.worker_id, None)
        worker.ready = False
        worker.busy_index = None
        worker.kill_at = None
        worker.consecutive_failures += 1
        if spawn_failure:
            worker.spawn_failures += 1
            if worker.spawn_failures >= self.policy.max_spawn_failures:
                worker.abandoned = True
                return
        else:
            worker.spawn_failures = 0
        worker.respawn_at = time.monotonic() + backoff_delay(
            self.policy.respawn_backoff_base,
            self.policy.respawn_backoff_cap,
            worker.consecutive_failures - 1,
        )

    def worker_pids(self) -> List[Optional[int]]:
        """Current pid per worker slot (None: not yet ready/abandoned)."""
        return [
            worker.pid if worker.alive else None for worker in self._workers
        ]

    def stats(self) -> Dict[str, Any]:
        """A copy of the recovery counters accumulated so far."""
        stats = dict(self._stats)
        stats["respawn_seconds"] = list(self._stats["respawn_seconds"])
        stats["breaker_trips"] = self.breaker.trips
        stats["breaker_state"] = self.breaker.state
        return stats

    def close(self, timeout: float = 5.0) -> None:
        """Shut every worker down (idempotent): sentinel, drain, bounded
        join, then terminate/kill whatever has not exited.

        A worker answers the sentinel with its unshipped metric delta and
        exits, so reading every response pipe to EOF leaves the parent's
        metric totals exactly what the workers recorded.  The drain and
        the joins share one ``timeout``: a hung worker's tail is given
        up, never waited for past it.  Messages drained here are
        booked like any other; no liveness sweep runs, as every worker is
        meant to exit.
        """
        if self._closed:
            return
        self._closed = True
        started = time.perf_counter()
        for worker in self._workers:
            if worker.alive and worker.requests is not None:
                try:
                    worker.requests.send(None)
                except OSError:
                    pass
        deadline = time.monotonic() + max(0.0, timeout)
        while time.monotonic() < deadline and any(
            worker.reader is not None and not worker.reader.closed
            for worker in self._workers
        ):
            self._next_response()
        for worker in self._workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                self._kill_worker(worker)
            self._discard_transport(worker)
        self._record_recovery(time.perf_counter() - started, 0)

    def __enter__(self) -> "SupervisedWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"SupervisedWorkerPool({self.workers} workers, "
            f"{self.snapshot.mode} snapshot, {state}, "
            f"breaker {self.breaker.state})"
        )

    # -- scheduling ---------------------------------------------------------

    def run_batch(self, tasks: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Execute ``tasks`` across the supervised workers, outcomes in
        task order.

        Never hangs on a dead or stuck worker: crashes and hard-timeout
        kills reschedule the task (bounded by the policy), and a final
        failure surfaces as a typed failure marker in that task's
        outcome, exactly like an in-query failure would.
        """
        if self._closed:
            raise ServingError("the worker pool is closed")
        self.breaker.admit()
        tasks = list(tasks)
        total = len(tasks)
        if not total:
            return []
        run = self._run = _Run(tasks)
        started = time.perf_counter()
        try:
            while run.done < total:
                now = time.monotonic()
                self._respawn_due(now)
                if all(worker.abandoned for worker in self._workers):
                    raise ServingError(
                        "every worker slot is permanently failed "
                        f"(>= {self.policy.max_spawn_failures} consecutive spawn "
                        "failures each); the snapshot cannot be served"
                    )
                self._dispatch(run, now)
                self._next_response()
                self._sweep()
        finally:
            self._run = None
        self._record_recovery(time.perf_counter() - started, total)
        return run.outcomes

    def apply_delta(self, delta: SnapshotDelta) -> Dict[str, int]:
        """Broadcast a :class:`~repro.serving.snapshot.SnapshotDelta` to
        every live worker and wait for their acks.

        Called between batches (``run_batch`` is synchronous, so no task
        is in flight).  The shared snapshot is advanced *first*: any
        worker that fails to apply — crashes mid-apply, acks a signature
        mismatch, or exceeds :data:`DELTA_APPLY_TIMEOUT` — is killed and
        scheduled for respawn, and respawns initialize from the advanced
        snapshot (a fresh fork of the live parent, or a lazily rebuilt
        genesis), so every incarnation converges to the target
        generation no matter how the apply went.  Dead or backing-off
        slots are skipped for the same reason.  A booting worker that
        dies before its ``ready`` is a spawn failure, as anywhere else.

        Returns ``{"applied": n, "respawning": m}``.
        """
        if self._closed:
            raise ServingError("the worker pool is closed")
        self.snapshot.advance(delta)
        task: Dict[str, Any] = {
            "_snapshot_delta": delta,
            "_fault_seq": DELTA_FAULT_SEQ,
            "_fault_attempt": 0,
        }
        if self.fault_plan is not None:
            task["faults"] = self.fault_plan.to_spec()
        started = time.perf_counter()
        deadline = time.monotonic() + DELTA_APPLY_TIMEOUT
        self._applied = 0
        try:
            # Only a reading worker is sent the delta (it can outgrow a
            # pipe buffer): an idle ready one now, a booting one once its
            # "ready" arrives (_on_message).  That one was forked before
            # the advance; replay is idempotent, so it converges too.
            for worker in self._workers:
                if not worker.abandoned and worker.busy_index is None and worker.alive:
                    self._awaiting[worker.worker_id] = task
                    worker.kill_at = deadline
                    if worker.ready:
                        self._send(worker, task)
            respawning = len(self._awaiting)
            while self._awaiting:
                self._next_response()
                self._sweep()
        finally:
            self._awaiting.clear()
        applied = self._applied
        respawning -= applied
        self._record_recovery(time.perf_counter() - started, 0)
        METRICS.counter("serving.delta_applies").inc()
        self.snapshot.system.observability.record_event(
            "serving.delta_applied",
            workers=applied,
            respawning=respawning,
            collections=len(delta.collections),
            documents=delta.documents_shipped,
            seos=len(delta.seos),
        )
        return {"applied": applied, "respawning": respawning}

    def wait_ready(self, timeout: float = 30.0) -> int:
        """Block until every live worker finished its spawn handshake.

        Serving can start before the whole fleet is up — dispatch only
        needs one ready worker — so callers that want steady-state
        behaviour (pre-warmed deploys, benchmarks, tests that measure
        the delta path rather than the spawn tail) use this barrier
        after construction or a full refresh.  Slots that are abandoned
        or backing off are not waited for, and a slot that died is
        booked (as a spawn failure, before its handshake) rather than
        waited for.  Returns the number of ready live workers.
        """
        if self._closed:
            raise ServingError("the worker pool is closed")
        started = time.perf_counter()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and any(
            not worker.abandoned and not worker.ready and worker.respawn_at is None
            for worker in self._workers
        ):
            self._next_response()
            self._sweep()
        self._record_recovery(time.perf_counter() - started, 0)
        return sum(
            1 for worker in self._workers if worker.alive and worker.ready
        )

    @staticmethod
    def _task_request_id(task: Dict[str, Any]) -> Optional[str]:
        """The request id a task dict carries (None pre-request-context)."""
        wire = task.get("request")
        return wire.get("id") if isinstance(wire, dict) else None

    @staticmethod
    def _send(worker: _Worker, task: Dict[str, Any]) -> None:
        try:
            worker.requests.send(task)
        except OSError:
            # The worker's end is gone: it died after the liveness check.
            # Whatever it owes stays booked on it, so the sweep charges
            # the death and reschedules.
            pass

    def _respawn_due(self, now: float) -> None:
        for worker in self._workers:
            if (
                worker.respawn_at is not None
                and now >= worker.respawn_at
                and not worker.alive
            ):
                self._spawn(worker)

    def _dispatch(self, run: _Run, now: float) -> None:
        pending = run.pending
        for worker in self._workers:
            if not pending:
                return
            if worker.busy_index is not None or not worker.ready or not worker.alive:
                continue
            index = None
            for _ in range(len(pending)):
                candidate = pending.popleft()
                if run.ready_at[candidate] <= now:
                    index = candidate
                    break
                pending.append(candidate)
            if index is None:
                return
            task = dict(run.tasks[index])
            task["_index"] = index
            task["_fault_seq"] = index
            task["_fault_attempt"] = run.attempts[index]
            if task.get("collect_metrics"):
                if (
                    worker.shipped_at is not None
                    and now - worker.shipped_at < METRIC_DELTA_INTERVAL
                ):
                    task["collect_metrics"] = False
                else:
                    worker.shipped_at = now
            if self.fault_plan is not None:
                task["faults"] = self.fault_plan.to_spec()
            self._send(worker, task)
            worker.busy_index = index
            timeout = self.policy.task_hard_timeout(run.tasks[index])
            worker.kill_at = now + timeout if timeout is not None else None

    def _next_response(self) -> None:
        """Wait one poll interval for the next worker message and book
        it.  Each incarnation has its own pipe, so nothing a retired one
        sent is ever read."""
        readers = [
            worker.reader
            for worker in self._workers
            if worker.reader is not None and not worker.reader.closed
        ]
        if not readers:
            time.sleep(POLL_INTERVAL)
            return
        for conn in _connection_wait(readers, timeout=POLL_INTERVAL):
            try:
                message = conn.recv()
            except (EOFError, OSError):
                # The worker died (possibly mid-send).  Close the pipe so
                # it stops polling as ready; the sweep books the death
                # once the pipe is drained.
                conn.close()
                continue
            self._on_message(message)
            return

    @staticmethod
    def _absorb(delta) -> None:
        """Fold one worker's metric delta into the parent's registry."""
        METRICS.absorb(delta)
        METRICS.counter("serving.metric_deltas").inc()

    def _on_message(self, message) -> None:
        """Book one worker message, whichever call read it — the one
        place a message's kind is looked at.

        ``done`` goes to the running batch and ``delta_applied`` to the
        outstanding broadcast (one for neither is late, and dropped).
        """
        kind = message[0]
        worker = self._workers[message[1]]
        if kind == "done":
            run, index, outcome = self._run, message[3], message[4]
            if run is None or worker.busy_index != index or run.outcomes[index] is not None:
                # A late response for a task already finalized elsewhere;
                # its delta goes with it, as its retry counts the work.
                return
            if message[5] is not None:
                self._absorb(message[5])
            worker.busy_index = None
            worker.kill_at = None
            worker.consecutive_failures = 0
            if not isinstance(outcome, dict) or (
                "report" not in outcome and "failure" not in outcome
            ):
                self._task_failed(
                    run, index, "transport", "corrupted worker response",
                    worker_killed=False,
                )
                return
            self.breaker.record_success()
            outcome["attempts"] = run.attempts[index] + 1
            run.finish(index, outcome)
        elif kind == "ready":
            worker.ready = True
            worker.pid = message[3]
            worker.spawn_failures = 0
            if worker.spawn_count > 0:
                elapsed = time.monotonic() - worker.spawn_started
                self._stats["respawn_seconds"].append(elapsed)
                METRICS.histogram("serving.respawn_seconds").observe(elapsed)
                self._book(
                    "respawn", None, worker=worker.worker_id, seconds=elapsed,
                    request_id=worker.last_request_id,
                )
                worker.last_request_id = None
            if worker.worker_id in self._awaiting:
                self._send(worker, self._awaiting[worker.worker_id])
        elif kind == "spawn_failed":
            self._spawn_failed(worker, message[4])
        elif kind == "delta_applied":
            if worker.worker_id not in self._awaiting:
                return
            if message[3]:
                del self._awaiting[worker.worker_id]
                self._applied += 1
                worker.kill_at = None
                worker.consecutive_failures = 0
            else:
                # The local system may be half-converged: the worker dies,
                # and its respawn boots from the advanced snapshot.
                self._delta_failed(worker, message[4])
        elif kind == "metrics":
            self._absorb(message[3])  # a worker's shutdown tail

    def _sweep(self) -> None:
        """The one liveness check, whichever call is waiting: book every
        worker that died or is past its ``kill_at``, by what it owed — a
        task, its ``ready``, a delta ack, or nothing.  A death is booked
        once the worker's pipe is drained, after its last words."""
        now = time.monotonic()
        for worker in self._workers:
            if worker.abandoned or worker.respawn_at is not None:
                continue
            hung = worker.process.is_alive()
            if hung:
                if worker.kill_at is None or now < worker.kill_at:
                    continue
                self._kill_worker(worker)
            elif worker.reader is not None and not worker.reader.closed:
                continue
            exitcode = None if hung else worker.process.exitcode
            index = worker.busy_index
            if index is not None:
                task = self._run.tasks[index]
                worker.last_request_id = self._task_request_id(task)
                if hung:
                    event, stat, reason = "hard_timeout", "hard_timeouts", "hung"
                    detail = (
                        f"exceeded the {self.policy.task_hard_timeout(task):.1f}s "
                        "parent-side hard timeout and was killed"
                    )
                else:
                    event, stat, reason = "crash", None, "worker_died"
                    detail = f"pid {worker.pid} exited with {exitcode} mid-query"
                self._book(
                    event, stat, worker=worker.worker_id, pid=worker.pid,
                    task=index, exitcode=exitcode,
                    request_id=worker.last_request_id,
                )
                self._mark_dead(worker)
                self._task_failed(self._run, index, reason, detail, worker_killed=True)
            elif hung:
                self._delta_failed(worker, "delta apply timed out")
            elif not worker.ready:
                self._spawn_failed(
                    worker, f"exited with {exitcode} before the ready handshake"
                )
            elif worker.worker_id in self._awaiting:
                self._delta_failed(
                    worker,
                    f"pid {worker.pid} died applying the delta (exitcode {exitcode})",
                )
            else:
                # Idle worker died between tasks: respawn, no task harmed.
                self._book(
                    "idle_crash", None, worker=worker.worker_id,
                    pid=worker.pid, exitcode=exitcode,
                )
                self._mark_dead(worker)

    def _spawn_failed(self, worker: _Worker, detail: str) -> None:
        self._book("spawn_failed", "spawn_failures", worker=worker.worker_id, detail=detail)
        self._mark_dead(worker, spawn_failure=True)

    def _delta_failed(self, worker: _Worker, detail: Optional[str]) -> None:
        METRICS.counter("serving.delta_apply_failures").inc()
        self._book("delta_apply_failed", None, worker=worker.worker_id, detail=detail)
        self._kill_worker(worker)
        self._mark_dead(worker)

    def _task_failed(
        self, run: _Run, index: int, reason: str, detail: str, worker_killed: bool
    ) -> None:
        """Retry, quarantine or finalize one failed dispatch."""
        run.attempts[index] += 1
        if worker_killed:
            run.crashes[index] += 1
        self._book(None, "crashes")
        self.breaker.record_failure()
        query = run.tasks[index].get("query", "")
        request_id = self._task_request_id(run.tasks[index])
        if run.crashes[index] >= self.policy.quarantine_after:
            self._book(
                "quarantine", "quarantined", task=index, query=query,
                request_id=request_id,
            )
            failure: tuple = ("poison", query, run.crashes[index])
        elif run.attempts[index] > self.policy.max_retries:
            failure = ("crash", query, run.attempts[index], f"{reason}: {detail}")
        else:
            delay = backoff_delay(
                self.policy.retry_backoff_base,
                self.policy.retry_backoff_cap,
                run.attempts[index] - 1,
            )
            self._book(
                "retry", "retries", task=index, attempt=run.attempts[index],
                delay=delay, reason=reason, request_id=request_id,
            )
            run.ready_at[index] = time.monotonic() + delay
            run.pending.append(index)
            return
        run.finish(
            index,
            {"failure": failure, "seconds": 0.0, "attempts": run.attempts[index]},
        )

    def _book(self, event: Optional[str], stat: Optional[str], **fields) -> None:
        """Book one recovery fact once: its ``stats()`` count with the
        ``serving.*`` counter of :data:`_COUNTERS`, and its event (None
        fields dropped) for the next :meth:`_record_recovery`."""
        if stat is not None:
            self._stats[stat] += 1
            METRICS.counter(_COUNTERS[stat]).inc()
        if event is not None:
            entry: Dict[str, Any] = {"event": event}
            entry.update((key, value) for key, value in fields.items() if value is not None)
            self._events.append(entry)

    def _record_recovery(self, seconds: float, total: int) -> None:
        """Flush the booked recovery events through the observability
        stack: an event-log entry each, plus a supervisor span tree and a
        slow-query entry for the call (``total`` tasks) that read them."""
        events, self._events = self._events, []
        if not events:
            return
        observability = self.snapshot.system.observability
        tracer = observability.tracer()
        with tracer.trace("serving.supervisor", events=len(events), tasks=total):
            for event in events:
                fields = {key: value for key, value in event.items() if key != "event"}
                observability.record_event(f"serving.{event['event']}", **fields)
                tracer.record_span(
                    f"recovery.{event['event']}",
                    float(fields.pop("seconds", 0.0)),
                    attributes=fields,
                )
        counts = Counter(event["event"] for event in events)
        observability.record_query(
            "serving.recovery",
            total_seconds=seconds,
            trace=tracer.finish(),
            extra={
                "tasks": total,
                "crashes": counts["crash"],
                "hard_timeouts": counts["hard_timeout"],
                "retries": counts["retry"],
                "respawns": counts["respawn"],
                "quarantined": counts["quarantine"],
            },
        )
