"""Supervised pool: backoff, retries, quarantine, breaker, recovery."""

import time

import pytest

from repro import faults
from repro.errors import (
    CircuitOpenError,
    PoisonTaskError,
    ServerOverloadedError,
    ServingError,
    WorkerCrashError,
)
from repro.faults import FaultPlan, FaultRule
from repro.obs import EVENTS_FILENAME, JsonLinesSink, for_root, obs_directory
from repro.obs.metrics import REGISTRY
from repro.serving import (
    QueryRequest,
    QueryServer,
    RetryPolicy,
    SupervisedWorkerPool,
)
from repro.serving.pool import reconstruct_failure
from repro.serving.snapshot import SystemSnapshot
from repro.serving.supervisor import CircuitBreaker, backoff_delay
from repro.xmldb.serializer import serialize

from .conftest import make_system

QUERY = 'paper(author ~ "Author 1")'

#: Fast-failure policy for tests: near-zero backoff, quick respawns.
FAST = RetryPolicy(
    retry_backoff_base=0.01,
    retry_backoff_cap=0.05,
    respawn_backoff_base=0.01,
    respawn_backoff_cap=0.05,
)


def make_task(query=QUERY, guard=None):
    return {
        "query": query,
        "collection": "papers",
        "sl_variables": (),
        "right_collection": None,
        "guard": guard,
        "collect_metrics": False,
        "trace": False,
    }


def result_texts(report):
    return [serialize(tree) for tree in report.results]


@pytest.fixture(scope="module")
def snapshot():
    return SystemSnapshot.capture(make_system())


@pytest.fixture(scope="module")
def serial_count(snapshot):
    return len(snapshot.system.query("papers", QUERY).results)


class TestBackoffDelay:
    def test_doubles_from_base(self):
        assert backoff_delay(0.1, 10.0, 0) == pytest.approx(0.1)
        assert backoff_delay(0.1, 10.0, 1) == pytest.approx(0.2)
        assert backoff_delay(0.1, 10.0, 3) == pytest.approx(0.8)

    def test_caps(self):
        assert backoff_delay(0.1, 1.0, 10) == 1.0
        assert backoff_delay(0.1, 1.0, 1000) == 1.0  # no overflow past cap

    def test_zero_base_is_no_delay(self):
        assert backoff_delay(0.0, 1.0, 5) == 0.0


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ServingError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ServingError):
            RetryPolicy(quarantine_after=0)
        with pytest.raises(ServingError):
            RetryPolicy(hard_timeout=0.0)
        with pytest.raises(ServingError):
            RetryPolicy(max_crash_rate=0.0)

    def test_hard_timeout_explicit_wins(self):
        policy = RetryPolicy(hard_timeout=3.0)
        assert policy.task_hard_timeout({"guard": (1.0, None, None)}) == 3.0

    def test_hard_timeout_derived_from_guard(self):
        policy = RetryPolicy(hard_timeout_grace=2.0)
        assert policy.task_hard_timeout({"guard": (2.0, None, None)}) == 5.0

    def test_no_deadline_means_unbounded(self):
        policy = RetryPolicy()
        assert policy.task_hard_timeout({"guard": None}) is None
        assert policy.task_hard_timeout({"guard": (None, 100, None)}) is None


class TestCircuitBreaker:
    def _breaker(self, clock, rate=0.5):
        return CircuitBreaker(
            rate, window=8, min_events=4, cooldown=10.0, clock=clock
        )

    def test_closed_admits(self):
        breaker = self._breaker(lambda: 0.0)
        breaker.admit()
        assert breaker.state == "closed"

    def test_trips_above_threshold_after_min_events(self):
        breaker = self._breaker(lambda: 0.0)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "closed"  # below min_events
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 1
        with pytest.raises(CircuitOpenError) as info:
            breaker.admit()
        assert isinstance(info.value, ServerOverloadedError)
        assert info.value.retry_after == pytest.approx(10.0)

    def test_cooldown_then_half_open_success_closes(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0])
        for _ in range(4):
            breaker.record_failure()
        now[0] = 10.5
        breaker.admit()  # half-open: no raise
        assert breaker.state == "half-open"
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.admit()

    def test_half_open_failure_retrips_immediately(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0])
        for _ in range(4):
            breaker.record_failure()
        now[0] = 10.5
        breaker.admit()
        breaker.record_failure()  # one failure half-open: trip again
        assert breaker.state == "open"
        assert breaker.trips == 2
        with pytest.raises(CircuitOpenError):
            breaker.admit()

    def test_disabled_never_trips(self):
        breaker = CircuitBreaker(None, window=4, min_events=1, cooldown=1.0)
        for _ in range(16):
            breaker.record_failure()
        breaker.admit()
        assert breaker.trips == 0


class TestSupervisedPool:
    def test_plain_batch_matches_serial(self, snapshot, serial_count):
        with SupervisedWorkerPool(snapshot, 2, policy=FAST) as pool:
            out = pool.run_batch([make_task() for _ in range(4)])
        assert [o["report"]["result_count"] for o in out] == [serial_count] * 4

    def test_kill_mid_batch_recovers_identically(self, snapshot, serial_count):
        plan = FaultPlan(rules=(FaultRule(kind=faults.KILL, tasks=(1,)),))
        with SupervisedWorkerPool(
            snapshot, 2, policy=FAST, fault_plan=plan
        ) as pool:
            out = pool.run_batch([make_task() for _ in range(4)])
            stats = pool.stats()
        assert [o["report"]["result_count"] for o in out] == [serial_count] * 4
        assert out[1]["attempts"] == 2
        assert stats["crashes"] == 1 and stats["retries"] == 1

    def test_retries_exhaust_into_worker_crash_error(self, snapshot):
        plan = FaultPlan(
            rules=(FaultRule(kind=faults.KILL, tasks=(0,), attempts=None),)
        )
        policy = RetryPolicy(
            max_retries=1,
            quarantine_after=10,
            retry_backoff_base=0.01,
            respawn_backoff_base=0.01,
        )
        with SupervisedWorkerPool(
            snapshot, 2, policy=policy, fault_plan=plan
        ) as pool:
            out = pool.run_batch([make_task(), make_task()])
        assert out[0]["failure"][0] == "crash"
        assert "report" in out[1]
        exc = reconstruct_failure(out[0]["failure"], query=QUERY)
        assert isinstance(exc, WorkerCrashError)
        assert exc.attempts == 2

    def test_poison_task_quarantined(self, snapshot):
        plan = FaultPlan(
            rules=(FaultRule(kind=faults.KILL, tasks=(0,), attempts=None),)
        )
        policy = RetryPolicy(
            max_retries=10,
            quarantine_after=2,
            retry_backoff_base=0.01,
            respawn_backoff_base=0.01,
        )
        with SupervisedWorkerPool(
            snapshot, 2, policy=policy, fault_plan=plan
        ) as pool:
            out = pool.run_batch([make_task(), make_task()])
            stats = pool.stats()
        assert out[0]["failure"] == ("poison", QUERY, 2)
        assert isinstance(reconstruct_failure(out[0]["failure"]), PoisonTaskError)
        assert stats["quarantined"] == 1
        assert "report" in out[1]

    def test_hung_worker_killed_and_task_recovers(self, snapshot, serial_count):
        plan = FaultPlan(
            rules=(FaultRule(kind=faults.HANG, tasks=(0,), seconds=60.0),)
        )
        policy = RetryPolicy(
            hard_timeout=0.5,
            retry_backoff_base=0.01,
            respawn_backoff_base=0.01,
        )
        with SupervisedWorkerPool(
            snapshot, 2, policy=policy, fault_plan=plan
        ) as pool:
            started = time.monotonic()
            out = pool.run_batch([make_task(), make_task()])
            elapsed = time.monotonic() - started
            stats = pool.stats()
        assert [o["report"]["result_count"] for o in out] == [serial_count] * 2
        assert stats["hard_timeouts"] == 1
        assert elapsed < 30.0  # recovered, did not wait out the hang

    def test_corrupted_response_retried(self, snapshot, serial_count):
        plan = FaultPlan(rules=(FaultRule(kind=faults.CORRUPT, tasks=(0,)),))
        with SupervisedWorkerPool(
            snapshot, 2, policy=FAST, fault_plan=plan
        ) as pool:
            out = pool.run_batch([make_task()])
            stats = pool.stats()
        assert out[0]["report"]["result_count"] == serial_count
        assert out[0]["attempts"] == 2
        # The worker survives a corrupt response: no respawn needed.
        assert stats["crashes"] == 1 and stats["respawns"] == 0

    def test_respawn_after_kill(self, snapshot, serial_count):
        plan = FaultPlan(rules=(FaultRule(kind=faults.KILL, tasks=(0,)),))
        with SupervisedWorkerPool(
            snapshot, 2, policy=FAST, fault_plan=plan
        ) as pool:
            pool.run_batch([make_task() for _ in range(2)])
            # The next batch forces the dead slot back into service.
            out = pool.run_batch([make_task() for _ in range(4)])
            stats = pool.stats()
            pids = pool.worker_pids()
        assert [o["report"]["result_count"] for o in out] == [serial_count] * 4
        assert stats["respawns"] >= 1
        assert stats["respawn_seconds"]
        assert all(pid is not None for pid in pids)

    def test_breaker_sheds_load_across_batches(self, snapshot):
        plan = FaultPlan(
            rules=(FaultRule(kind=faults.KILL, rate=1.0, attempts=None),)
        )
        policy = RetryPolicy(
            max_retries=0,
            quarantine_after=100,
            max_crash_rate=0.5,
            breaker_window=4,
            breaker_min_events=2,
            breaker_cooldown=60.0,
            retry_backoff_base=0.01,
            respawn_backoff_base=0.01,
        )
        with SupervisedWorkerPool(
            snapshot, 2, policy=policy, fault_plan=plan
        ) as pool:
            out = pool.run_batch([make_task(), make_task()])
            assert all(o["failure"][0] == "crash" for o in out)
            assert pool.breaker.state == "open"
            with pytest.raises(CircuitOpenError):
                pool.run_batch([make_task()])

    def test_closed_pool_rejects_batches(self, snapshot):
        pool = SupervisedWorkerPool(snapshot, 1, policy=FAST)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ServingError):
            pool.run_batch([make_task()])

    def test_close_is_bounded_with_hung_worker(self, snapshot):
        plan = FaultPlan(
            rules=(FaultRule(kind=faults.HANG, tasks=(0,), seconds=60.0),)
        )
        pool = SupervisedWorkerPool(snapshot, 1, fault_plan=plan)
        # Hang the worker without waiting for the batch: dispatch by hand.
        task = dict(make_task())
        task.update({"_index": 0, "_fault_seq": 0, "_fault_attempt": 0})
        task["faults"] = plan.to_spec()
        assert pool.wait_ready() == 1
        worker = pool._workers[0]
        worker.requests.send(task)
        started = time.monotonic()
        pool.close(timeout=1.0)
        assert time.monotonic() - started < 10.0
        assert not worker.process.is_alive()

    def test_invalid_worker_count(self, snapshot):
        with pytest.raises(ServingError):
            SupervisedWorkerPool(snapshot, 0)


def events_of(root, kind):
    sink = JsonLinesSink(obs_directory(root) / EVENTS_FILENAME)
    return [entry for entry in sink.read() if entry["event"] == kind]


#: Kill task 0's first attempt, and keep worker 0's respawn (spawn 1)
#: booting for a second, so its handshake ends after the batch does.
KILL_THEN_SLOW_RESPAWN = (
    FaultRule(kind=faults.KILL, tasks=(0,)),
    FaultRule(kind=faults.SLOW_START, tasks=(0,), attempts=(1,), seconds=1.0),
)
#: Respawn at once, inside the batch that killed the worker.
RESPAWN_AT_ONCE = RetryPolicy(retry_backoff_base=0.01, respawn_backoff_base=0.0)


class TestOneMessageHandler:
    """A respawn or a spawn failure is booked the same whichever public
    call reads the worker's message."""

    def test_wait_ready_books_a_spawn_failure(self, tmp_path):
        system = make_system()
        system.set_observability(for_root(tmp_path))
        plan = FaultPlan(
            rules=(FaultRule(kind=faults.TRANSPORT, tasks=(0,), attempts=(0,)),)
        )
        with faults.inject(plan):
            pool = SupervisedWorkerPool(
                SystemSnapshot.capture(system), 2, policy=FAST
            )
        with pool:
            assert pool.wait_ready() == 1
            assert pool.stats()["spawn_failures"] == 1
            assert pool._workers[0].respawn_at is not None
        (event,) = events_of(tmp_path, "serving.spawn_failed")
        assert event["worker"] == 0
        assert "SnapshotTransportError" in event["detail"]

    def _kill_and_refresh(self, tmp_path, rules):
        """Kill request ``killed`` on worker 0, whose respawn is still
        booting when the batch ends; then refresh over a delta.  Returns
        the pool's stats and the refresh's counts."""
        system = make_system()
        system.set_observability(for_root(tmp_path))
        with faults.inject(FaultPlan(rules=rules)):
            with QueryServer(
                system, workers=2, default_collection="papers",
                policy=RESPAWN_AT_ONCE,
            ) as server:
                assert server.wait_ready() == 2
                outcomes = server.execute_many(
                    [QueryRequest(query=QUERY, request_id="killed"), QUERY]
                )
                assert all(outcome.ok for outcome in outcomes)
                assert outcomes[0].report.request_id == "killed"
                assert server.pool.stats()["respawn_seconds"] == []
                system.add_documents(
                    "papers",
                    "<paper key='p50'><title>Paper 50</title>"
                    "<author>Author 1</author><year>2004</year></paper>",
                )
                system.build()
                pool = server.pool
                assert server.refresh() == "delta"
                return pool.stats()

    def test_apply_delta_books_a_respawn(self, tmp_path):
        histogram = REGISTRY.histogram("serving.respawn_seconds")
        before = histogram.count
        stats = self._kill_and_refresh(tmp_path, KILL_THEN_SLOW_RESPAWN)
        assert stats["respawns"] == 1
        assert len(stats["respawn_seconds"]) == 1
        assert stats["respawn_seconds"][0] >= 1.0
        assert histogram.count == before + 1
        (event,) = events_of(tmp_path, "serving.respawn")
        assert event["request_id"] == "killed"
        (applied,) = events_of(tmp_path, "serving.delta_applied")
        assert (applied["workers"], applied["respawning"]) == (2, 0)

    def test_apply_delta_books_a_spawn_failure(self, tmp_path):
        rules = KILL_THEN_SLOW_RESPAWN + (
            FaultRule(kind=faults.TRANSPORT, tasks=(0,), attempts=(1,)),
        )
        stats = self._kill_and_refresh(tmp_path, rules)
        assert stats["spawn_failures"] == 1
        (event,) = events_of(tmp_path, "serving.spawn_failed")
        assert "SnapshotTransportError" in event["detail"]
        assert events_of(tmp_path, "serving.delta_apply_failed") == []
        (applied,) = events_of(tmp_path, "serving.delta_applied")
        assert (applied["workers"], applied["respawning"]) == (1, 1)


class TestServerIntegration:
    def test_server_defaults_to_supervised(self, snapshot):
        system = snapshot.system
        with QueryServer(system, workers=2, default_collection="papers") as server:
            assert isinstance(server.pool, SupervisedWorkerPool)
            outcomes = server.execute_many([QUERY, QUERY])
        assert all(outcome.ok for outcome in outcomes)

    def test_refresh_keeps_supervision_and_policy(self, snapshot):
        system = snapshot.system
        with QueryServer(
            system, workers=1, default_collection="papers", policy=FAST
        ) as server:
            server.refresh()
            assert isinstance(server.pool, SupervisedWorkerPool)
            assert server.pool.policy is FAST
            assert server.execute_many([QUERY])[0].ok

    def test_crash_error_carries_context(self, snapshot):
        system = snapshot.system
        plan = FaultPlan(
            rules=(FaultRule(kind=faults.KILL, tasks=(0,), attempts=None),)
        )
        policy = RetryPolicy(
            max_retries=0,
            quarantine_after=100,
            retry_backoff_base=0.01,
            respawn_backoff_base=0.01,
        )
        with QueryServer(
            system,
            workers=2,
            default_collection="papers",
            policy=policy,
            fault_plan=plan,
        ) as server:
            outcome = server.execute_many([QUERY])[0]
        assert isinstance(outcome.error, WorkerCrashError)
        assert outcome.error.worker_query == QUERY
