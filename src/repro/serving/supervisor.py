"""Supervised worker pool: crash detection, respawn, retries, quarantine.

A plain ``multiprocessing.Pool`` is brittle in exactly the ways serving
cannot afford: a worker SIGKILLed mid-batch (OOM killer, operator)
poisons the shared result pipe and the whole batch errors or hangs, a
worker stuck in native code stalls ``map()`` forever because deadlines
are only enforced *inside* the worker, and one dead process takes every
queued task down with it.

:class:`SupervisedWorkerPool` is the serving tier's one pool, built
on per-worker ``Process`` + request-queue + response-pipe triples so
each worker's fate is independent and observable.  Responses
deliberately do **not** share a queue: a shared
``multiprocessing.Queue`` serialises writers through a shared lock held
by each worker's feeder thread, so a worker SIGKILLed mid-flush leaves
the lock held and a frame half-written — wedging every other worker
and, eventually, the parent's reader.  With one single-writer pipe per
worker incarnation, ``send`` is synchronous (nothing is buffered behind
the worker's death), a kill mid-send surfaces to the parent as a clean
``EOFError`` on that pipe alone, and no lock outlives its holder.  The
supervisor provides:

* **crash detection & respawn** — the supervisor watches every worker's
  liveness (readiness handshake, ``is_alive`` checks while busy) and
  respawns dead ones with capped exponential backoff; a worker whose
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
counters in :data:`repro.obs.metrics.REGISTRY`, a supervisor span tree
per recovered batch, and recovery events in the system's event and
slow-query logs.  Fault injection (:mod:`repro.faults`) is honoured by
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
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Deque, Dict, List, Optional

from .. import faults as _faults
from ..errors import CircuitOpenError, ServingError
from ..obs.metrics import REGISTRY as METRICS
from . import pool as _pool
from .pool import run_query_task
from .snapshot import FORK, SnapshotDelta, SystemSnapshot, apply_snapshot_delta

#: Scheduler wait granularity, seconds.  Responses wake the scheduler
#: immediately; this only bounds how late a liveness/deadline check or a
#: backoff expiry can be noticed.
POLL_INTERVAL = 0.05

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
        task = requests.get()
        if task is None:
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
        if not _send(("done", worker_id, spawn, task["_index"], outcome)):
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
    )

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.process = None
        self.requests = None
        #: Parent end of this incarnation's single-writer response pipe.
        self.reader = None
        self.pid: Optional[int] = None
        self.ready = False
        self.busy_index: Optional[int] = None
        self.kill_at: Optional[float] = None
        self.spawn_count = -1
        self.spawn_started: Optional[float] = None
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

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def dispatchable(self) -> bool:
        return (
            not self.abandoned
            and self.ready
            and self.busy_index is None
            and self.alive
        )


class SupervisedWorkerPool:
    """A crash-tolerant pool of query workers over one system snapshot.

    ``snapshot`` / ``workers`` attributes and a
    ``run_batch``/``close``/context-manager surface, with the
    supervision semantics described in the module docstring.

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
        self._stats: Dict[str, Any] = {
            "crashes": 0,
            "retries": 0,
            "respawns": 0,
            "hard_timeouts": 0,
            "quarantined": 0,
            "spawn_failures": 0,
            "respawn_seconds": [],
        }
        self._closed = False
        self._workers = [_Worker(worker_id) for worker_id in range(workers)]
        for worker in self._workers:
            self._spawn(worker)

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        worker.spawn_count += 1
        worker.ready = False
        worker.busy_index = None
        worker.kill_at = None
        worker.respawn_at = None
        worker.spawn_started = time.monotonic()
        self._discard_transport(worker)
        worker.requests = self._context.Queue()
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
                worker.requests,
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
        # reads as EOF here instead of an indefinite block.
        writer.close()
        if worker.spawn_count > 0:
            self._stats["respawns"] += 1
            METRICS.counter("serving.worker_respawns").inc()

    def _discard_transport(self, worker: _Worker) -> None:
        """Retire a previous incarnation's request queue and response
        pipe; their contents died with the worker."""
        if worker.reader is not None:
            try:
                worker.reader.close()
            except OSError:
                pass
            worker.reader = None
        if worker.requests is not None:
            worker.requests.cancel_join_thread()
            try:
                worker.requests.close()
            except (ValueError, OSError):
                pass
            worker.requests = None

    def _kill_worker(self, worker: _Worker) -> None:
        if worker.process is None:
            return
        worker.process.terminate()
        worker.process.join(0.5)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(1.0)

    def _mark_dead(self, worker: _Worker, now: float, spawn_failure: bool) -> None:
        """Retire a dead (or just-killed) worker and schedule its respawn."""
        if worker.process is not None:
            worker.process.join(0.1)
        worker.ready = False
        worker.busy_index = None
        worker.kill_at = None
        worker.consecutive_failures += 1
        if spawn_failure:
            worker.spawn_failures += 1
            self._stats["spawn_failures"] += 1
            METRICS.counter("serving.spawn_failures").inc()
            if worker.spawn_failures >= self.policy.max_spawn_failures:
                worker.abandoned = True
                return
        else:
            worker.spawn_failures = 0
        worker.respawn_at = now + backoff_delay(
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
        """Shut every worker down (idempotent): sentinel, bounded join,
        then terminate/kill whatever has not exited."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker.alive and worker.requests is not None:
                try:
                    worker.requests.put_nowait(None)
                except (ValueError, OSError):
                    pass
        deadline = time.monotonic() + max(0.0, timeout)
        for worker in self._workers:
            if worker.process is not None:
                worker.process.join(max(0.0, deadline - time.monotonic()))
                if worker.process.is_alive():
                    self._kill_worker(worker)
            self._discard_transport(worker)

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
        outcomes: List[Optional[Dict[str, Any]]] = [None] * total
        attempts = [0] * total
        crashes = [0] * total
        ready_at = [0.0] * total
        pending: Deque[int] = deque(range(total))
        events: List[Dict[str, Any]] = []
        started = time.perf_counter()
        done = 0
        while done < total:
            now = time.monotonic()
            self._respawn_due(now)
            self._ensure_live_workers()
            self._dispatch(tasks, pending, attempts, ready_at, now)
            message = self._next_response()
            if message is not None:
                done += self._handle_message(
                    message, tasks, outcomes, attempts, crashes,
                    ready_at, pending, events,
                )
            done += self._check_busy_workers(
                tasks, outcomes, attempts, crashes, ready_at, pending, events
            )
        self._record_recovery(events, time.perf_counter() - started, total)
        return outcomes

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
        slots are skipped for the same reason.

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
        awaiting: Dict[int, _Worker] = {}
        for worker in self._workers:
            # Not just ``dispatchable``: a worker still inside its spawn
            # handshake was forked/booted from the *pre-advance* state,
            # so it needs the delta too — its queue already exists and its
            # ack simply arrives after the "ready" message.  Replay is
            # idempotent, so a worker that happens to be current converges
            # to the same state.
            if not worker.abandoned and worker.busy_index is None and worker.alive:
                worker.requests.put(task)
                awaiting[worker.worker_id] = worker
        applied = 0
        failures: List[Dict[str, Any]] = []
        deadline = time.monotonic() + DELTA_APPLY_TIMEOUT
        while awaiting and time.monotonic() < deadline:
            message = self._next_response()
            now = time.monotonic()
            if message is not None:
                kind = message[0]
                worker = self._workers[message[1]]
                if message[2] != worker.spawn_count:
                    continue  # an earlier incarnation's message: drop it
                if kind == "delta_applied" and worker.worker_id in awaiting:
                    ok, detail = message[3], message[4]
                    del awaiting[worker.worker_id]
                    if ok:
                        applied += 1
                        worker.consecutive_failures = 0
                        continue
                    failures.append(
                        {"worker": worker.worker_id, "detail": detail}
                    )
                    self._kill_worker(worker)
                    self._mark_dead(worker, now, spawn_failure=False)
                elif kind == "ready":
                    worker.ready = True
                    worker.pid = message[3]
                    worker.spawn_failures = 0
            for worker_id in list(awaiting):
                worker = awaiting[worker_id]
                if not worker.alive:
                    # Killed mid-apply (OOM, chaos): respawn from the
                    # advanced snapshot recovers a consistent generation.
                    del awaiting[worker_id]
                    failures.append(
                        {
                            "worker": worker_id,
                            "detail": (
                                f"pid {worker.pid} died applying the delta "
                                f"(exitcode {worker.process.exitcode})"
                            ),
                        }
                    )
                    self._mark_dead(worker, now, spawn_failure=False)
        now = time.monotonic()
        for worker_id, worker in awaiting.items():
            failures.append(
                {"worker": worker_id, "detail": "delta apply timed out"}
            )
            self._kill_worker(worker)
            self._mark_dead(worker, now, spawn_failure=False)
        observability = self.snapshot.system.observability
        for failure in failures:
            METRICS.counter("serving.delta_apply_failures").inc()
            observability.record_event("serving.delta_apply_failed", **failure)
        METRICS.counter("serving.delta_applies").inc()
        observability.record_event(
            "serving.delta_applied",
            workers=applied,
            respawning=len(failures),
            collections=len(delta.collections),
            documents=delta.documents_shipped,
            seos=len(delta.seos),
        )
        return {"applied": applied, "respawning": len(failures)}

    def _ensure_live_workers(self) -> None:
        if all(worker.abandoned for worker in self._workers):
            raise ServingError(
                "every worker slot is permanently failed "
                f"(>= {self.policy.max_spawn_failures} consecutive spawn "
                "failures each); the snapshot cannot be served"
            )

    @staticmethod
    def _task_request_id(task: Dict[str, Any]) -> Optional[str]:
        """The request id a task dict carries (None pre-request-context)."""
        wire = task.get("request")
        return wire.get("id") if isinstance(wire, dict) else None

    def _respawn_due(self, now: float) -> None:
        for worker in self._workers:
            if (
                not worker.abandoned
                and not worker.alive
                and worker.respawn_at is not None
                and now >= worker.respawn_at
            ):
                self._spawn(worker)

    def _dispatch(
        self,
        tasks: List[Dict[str, Any]],
        pending: Deque[int],
        attempts: List[int],
        ready_at: List[float],
        now: float,
    ) -> None:
        for worker in self._workers:
            if not pending:
                return
            if not worker.dispatchable:
                continue
            index = None
            for _ in range(len(pending)):
                candidate = pending.popleft()
                if ready_at[candidate] <= now:
                    index = candidate
                    break
                pending.append(candidate)
            if index is None:
                return
            task = dict(tasks[index])
            task["_index"] = index
            task["_fault_seq"] = index
            task["_fault_attempt"] = attempts[index]
            if self.fault_plan is not None:
                task["faults"] = self.fault_plan.to_spec()
            worker.requests.put(task)
            worker.busy_index = index
            timeout = self.policy.task_hard_timeout(tasks[index])
            worker.kill_at = now + timeout if timeout is not None else None

    def wait_ready(self, timeout: float = 30.0) -> int:
        """Block until every live worker finished its spawn handshake.

        Serving can start before the whole fleet is up — dispatch only
        needs one ready worker — so callers that want steady-state
        behaviour (pre-warmed deploys, benchmarks, tests that measure
        the delta path rather than the spawn tail) use this barrier
        after construction or a full refresh.  Slots that are dead,
        abandoned or backing off are not waited for.  Returns the
        number of ready live workers.
        """
        if self._closed:
            raise ServingError("the worker pool is closed")
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            pending = [
                worker
                for worker in self._workers
                if not worker.abandoned and worker.alive and not worker.ready
            ]
            if not pending:
                break
            message = self._next_response()
            if message is None:
                continue
            kind = message[0]
            worker = self._workers[message[1]]
            if message[2] != worker.spawn_count:
                continue  # an earlier incarnation's message: drop it
            if kind == "ready":
                worker.ready = True
                worker.pid = message[3]
                worker.spawn_failures = 0
        return sum(
            1 for worker in self._workers if worker.alive and worker.ready
        )

    def _next_response(self):
        readers = [
            worker.reader
            for worker in self._workers
            if worker.reader is not None and not worker.reader.closed
        ]
        if not readers:
            time.sleep(POLL_INTERVAL)
            return None
        for conn in _connection_wait(readers, timeout=POLL_INTERVAL):
            try:
                return conn.recv()
            except (EOFError, OSError):
                # The worker died (possibly mid-send).  Close the pipe so
                # it stops polling as ready; the liveness check finalizes
                # the worker itself.
                conn.close()
        return None

    def _handle_message(
        self, message, tasks, outcomes, attempts, crashes, ready_at,
        pending, events,
    ) -> int:
        kind = message[0]
        worker = self._workers[message[1]]
        spawn = message[2]
        if spawn != worker.spawn_count:
            # A message from an earlier incarnation of this slot (we
            # already presumed it dead and moved on): drop it.
            return 0
        now = time.monotonic()
        if kind == "ready":
            pid = message[3]
            worker.ready = True
            worker.pid = pid
            worker.spawn_failures = 0
            if worker.spawn_count > 0 and worker.spawn_started is not None:
                elapsed = now - worker.spawn_started
                self._stats["respawn_seconds"].append(elapsed)
                METRICS.histogram("serving.respawn_seconds").observe(elapsed)
                event = {
                    "event": "respawn",
                    "worker": worker.worker_id,
                    "seconds": elapsed,
                }
                if worker.last_request_id is not None:
                    event["request_id"] = worker.last_request_id
                    worker.last_request_id = None
                events.append(event)
            return 0
        if kind == "spawn_failed":
            detail = message[4]
            if worker.respawn_at is not None or worker.abandoned:
                # The death was already noticed through is_alive().
                return 0
            events.append(
                {
                    "event": "spawn_failed",
                    "worker": worker.worker_id,
                    "detail": detail,
                }
            )
            self._mark_dead(worker, now, spawn_failure=True)
            return 0
        if kind == "done":
            index, outcome = message[3], message[4]
            if worker.busy_index != index or outcomes[index] is not None:
                # A late response for a task already finalized elsewhere.
                return 0
            worker.busy_index = None
            worker.kill_at = None
            worker.consecutive_failures = 0
            if not isinstance(outcome, dict) or (
                "report" not in outcome and "failure" not in outcome
            ):
                return self._task_failed(
                    index, tasks, outcomes, attempts, crashes, ready_at,
                    pending, events, now,
                    reason="transport",
                    detail="corrupted worker response",
                    worker_killed=False,
                )
            self.breaker.record_success()
            outcome["attempts"] = attempts[index] + 1
            outcomes[index] = outcome
            return 1
        return 0  # pragma: no cover - no other message kinds exist

    def _check_busy_workers(
        self, tasks, outcomes, attempts, crashes, ready_at, pending, events
    ) -> int:
        finalized = 0
        now = time.monotonic()
        for worker in self._workers:
            if worker.abandoned or worker.process is None:
                continue
            if worker.busy_index is not None:
                index = worker.busy_index
                if not worker.process.is_alive():
                    worker.last_request_id = self._task_request_id(tasks[index])
                    events.append(
                        {
                            "event": "crash",
                            "worker": worker.worker_id,
                            "pid": worker.pid,
                            "task": index,
                            "exitcode": worker.process.exitcode,
                            "request_id": worker.last_request_id,
                        }
                    )
                    self._mark_dead(worker, now, spawn_failure=False)
                    finalized += self._task_failed(
                        index, tasks, outcomes, attempts, crashes, ready_at,
                        pending, events, now,
                        reason="worker_died",
                        detail=(
                            f"pid {worker.pid} exited with "
                            f"{worker.process.exitcode} mid-query"
                        ),
                        worker_killed=True,
                    )
                elif worker.kill_at is not None and now >= worker.kill_at:
                    self._stats["hard_timeouts"] += 1
                    METRICS.counter("serving.hard_timeouts").inc()
                    worker.last_request_id = self._task_request_id(tasks[index])
                    events.append(
                        {
                            "event": "hard_timeout",
                            "worker": worker.worker_id,
                            "pid": worker.pid,
                            "task": index,
                            "request_id": worker.last_request_id,
                        }
                    )
                    timeout = self.policy.task_hard_timeout(tasks[index])
                    self._kill_worker(worker)
                    self._mark_dead(worker, now, spawn_failure=False)
                    finalized += self._task_failed(
                        index, tasks, outcomes, attempts, crashes, ready_at,
                        pending, events, now,
                        reason="hung",
                        detail=(
                            f"exceeded the {timeout:.1f}s parent-side hard "
                            "timeout and was killed"
                        ),
                        worker_killed=True,
                    )
            elif worker.ready and not worker.process.is_alive():
                # Idle worker died between tasks: respawn, no task harmed.
                events.append(
                    {
                        "event": "idle_crash",
                        "worker": worker.worker_id,
                        "pid": worker.pid,
                        "exitcode": worker.process.exitcode,
                    }
                )
                self._mark_dead(worker, now, spawn_failure=False)
            elif (
                not worker.ready
                and worker.respawn_at is None
                and not worker.process.is_alive()
            ):
                # Died before the handshake, and the spawn_failed message
                # (if one was ever sent) died with it: a spawn failure.
                events.append(
                    {
                        "event": "spawn_failed",
                        "worker": worker.worker_id,
                        "detail": (
                            f"exited with {worker.process.exitcode} "
                            "before the ready handshake"
                        ),
                    }
                )
                self._mark_dead(worker, now, spawn_failure=True)
        return finalized

    def _task_failed(
        self, index, tasks, outcomes, attempts, crashes, ready_at,
        pending, events, now, reason, detail, worker_killed,
    ) -> int:
        """Retry, quarantine or finalize one failed dispatch.

        Returns 1 when the task is finalized (outcome recorded), 0 when
        it was requeued for another attempt.
        """
        attempts[index] += 1
        if worker_killed:
            crashes[index] += 1
        self._stats["crashes"] += 1
        METRICS.counter("serving.worker_crashes").inc()
        self.breaker.record_failure()
        query = tasks[index].get("query", "")
        request_id = self._task_request_id(tasks[index])
        if crashes[index] >= self.policy.quarantine_after:
            self._stats["quarantined"] += 1
            METRICS.counter("serving.quarantined_tasks").inc()
            events.append(
                {"event": "quarantine", "task": index, "query": query,
                 "request_id": request_id}
            )
            outcomes[index] = {
                "failure": ("poison", query, crashes[index]),
                "seconds": 0.0,
                "attempts": attempts[index],
            }
            return 1
        if attempts[index] > self.policy.max_retries:
            outcomes[index] = {
                "failure": ("crash", query, attempts[index], f"{reason}: {detail}"),
                "seconds": 0.0,
                "attempts": attempts[index],
            }
            return 1
        self._stats["retries"] += 1
        METRICS.counter("serving.task_retries").inc()
        delay = backoff_delay(
            self.policy.retry_backoff_base,
            self.policy.retry_backoff_cap,
            attempts[index] - 1,
        )
        events.append(
            {"event": "retry", "task": index, "attempt": attempts[index],
             "delay": delay, "reason": reason, "request_id": request_id}
        )
        ready_at[index] = now + delay
        pending.append(index)
        return 0

    def _record_recovery(
        self, events: List[Dict[str, Any]], batch_seconds: float, total: int
    ) -> None:
        """Route a recovered batch's events through the observability
        stack: a supervisor span tree plus an event/slow-query log entry."""
        if not events:
            return
        observability = self.snapshot.system.observability
        for event in events:
            observability.record_event(
                f"serving.{event['event']}",
                **{
                    key: value
                    for key, value in event.items()
                    if key != "event" and value is not None
                },
            )
        tracer = observability.tracer()
        with tracer.trace(
            "serving.supervisor", events=len(events), tasks=total
        ):
            for event in events:
                tracer.record_span(
                    f"recovery.{event['event']}",
                    float(event.get("seconds", 0.0)),
                    attributes={
                        key: value
                        for key, value in event.items()
                        if key not in ("event", "seconds")
                    },
                )
        trace = tracer.finish()
        observability.record_query(
            "serving.recovery",
            total_seconds=batch_seconds,
            trace=trace,
            extra={
                "tasks": total,
                "crashes": sum(1 for e in events if e["event"] == "crash"),
                "hard_timeouts": sum(
                    1 for e in events if e["event"] == "hard_timeout"
                ),
                "retries": sum(1 for e in events if e["event"] == "retry"),
                "respawns": sum(1 for e in events if e["event"] == "respawn"),
                "quarantined": sum(
                    1 for e in events if e["event"] == "quarantine"
                ),
            },
        )
