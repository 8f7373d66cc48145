"""Chaos suite: serving stays exact while workers die under it.

Every test here runs with deterministic fault injection
(:mod:`repro.faults`) against the supervised pool and holds the layer to
the acceptance bar of ``tests/property/test_serving_equivalence.py`` —
results bit-identical to serial execution, in identical order — except
the workers are being killed, hung and garbled while it serves.

The suite is marked ``chaos`` and runs in its own CI job under a hard
timeout: a recovery bug's failure mode is a *hang*, and a hung supervisor
should fail that job, not stall the main test matrix.
"""

import os
import signal
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.core.system import TossSystem
from repro.faults import FaultPlan, FaultRule
from repro.serving import RetryPolicy, SupervisedWorkerPool
from repro.serving.snapshot import SystemSnapshot
from repro.xmldb.serializer import serialize

pytestmark = pytest.mark.chaos

AUTHORS = ["Ann Smith", "Bob Stone", "Cara Swan"]
QUERIES = [
    'paper(author ~ "Ann Smith")',
    'paper(author ~ "Bob Stone")',
    'paper(title contains "Indexing")',
    'paper(year = "1992")',
]

#: Near-zero backoff so a chaos example costs milliseconds, not seconds.
FAST = RetryPolicy(
    retry_backoff_base=0.005,
    retry_backoff_cap=0.02,
    respawn_backoff_base=0.005,
    respawn_backoff_cap=0.02,
)

# Pools fork real processes, so one system and one pool serve the whole
# module; each example only swaps the pool's fault plan.
_STATE = {}


def _system():
    if "system" not in _STATE:
        documents = [
            f"<paper key='p{index}'>"
            f"<title>{'Indexing' if index % 4 == 0 else 'Querying'} {index}</title>"
            f"<author>{AUTHORS[index % len(AUTHORS)]}</author>"
            f"<year>{1990 + index % 5}</year>"
            f"</paper>"
            for index in range(18)
        ]
        system = TossSystem(epsilon=2.0)
        system.add_instance("papers", documents)
        system.build()
        _STATE["system"] = system
        _STATE["serial"] = {
            query: [
                serialize(tree)
                for tree in system.query("papers", query).results
            ]
            for query in QUERIES
        }
    return _STATE["system"]


def _pool():
    if "pool" not in _STATE:
        _STATE["pool"] = SupervisedWorkerPool(
            SystemSnapshot.capture(_system()), 2, policy=FAST
        )
    return _STATE["pool"]


@pytest.fixture(scope="module", autouse=True)
def _teardown():
    yield
    pool = _STATE.pop("pool", None)
    if pool is not None:
        pool.close()


def make_task(query):
    return {
        "query": query,
        "collection": "papers",
        "sl_variables": (),
        "right_collection": None,
        "guard": None,
        "collect_metrics": False,
        "trace": False,
    }


def batch_result_texts(outcomes):
    texts = []
    for outcome in outcomes:
        assert "report" in outcome, outcome.get("failure")
        texts.append(outcome["report"]["results"])
    return texts


class TestKilledWorkersStayExact:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        kill_tasks=st.sets(st.integers(min_value=0, max_value=7), max_size=4),
        queries=st.lists(st.sampled_from(QUERIES), min_size=4, max_size=8),
    )
    def test_batch_identical_under_random_kills(self, kill_tasks, queries):
        """Killing workers at random points mid-batch never changes what
        the batch returns: every faulted task retries and recovers."""
        system = _system()
        pool = _pool()
        pool.fault_plan = FaultPlan(
            rules=(FaultRule(kind=faults.KILL, tasks=tuple(kill_tasks)),)
        )
        try:
            outcomes = pool.run_batch([make_task(q) for q in queries])
        finally:
            pool.fault_plan = None
        del system
        expected = [
            [
                text
                for text in _STATE["serial"][query]
            ]
            for query in queries
        ]
        assert batch_result_texts(outcomes) == expected


class TestExternalSigkill:
    def test_external_sigkill_mid_batch_neither_hangs_nor_corrupts(self):
        """An operator/OOM-style SIGKILL from outside the harness: the
        batch completes with results identical to serial."""
        _system()
        pool = _pool()
        stop = threading.Event()

        def killer():
            # Kill one live worker shortly after the batch starts; keep
            # trying until a pid exists (spawns may still be in flight).
            deadline = time.monotonic() + 5.0
            while not stop.is_set() and time.monotonic() < deadline:
                pids = [pid for pid in pool.worker_pids() if pid is not None]
                if pids:
                    try:
                        os.kill(pids[0], signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    return
                time.sleep(0.005)

        thread = threading.Thread(target=killer)
        thread.start()
        try:
            queries = [QUERIES[i % len(QUERIES)] for i in range(24)]
            outcomes = pool.run_batch([make_task(q) for q in queries])
        finally:
            stop.set()
            thread.join()
        expected = [list(_STATE["serial"][query]) for query in queries]
        assert batch_result_texts(outcomes) == expected


class TestHangAndCorruptRecovery:
    def test_hung_chunk_recovers_exactly(self):
        system = _system()
        plan = FaultPlan(
            rules=(FaultRule(kind=faults.HANG, tasks=(1,), seconds=60.0),)
        )
        policy = RetryPolicy(
            hard_timeout=0.5,
            retry_backoff_base=0.005,
            respawn_backoff_base=0.005,
        )
        with SupervisedWorkerPool(
            SystemSnapshot.capture(system), 2, policy=policy, fault_plan=plan
        ) as pool:
            outcomes = pool.run_batch([make_task(q) for q in QUERIES])
        expected = [list(_STATE["serial"][query]) for query in QUERIES]
        assert batch_result_texts(outcomes) == expected

    def test_corrupted_responses_recover_exactly(self):
        _system()
        pool = _pool()
        pool.fault_plan = FaultPlan(
            rules=(FaultRule(kind=faults.CORRUPT, tasks=(0, 2)),)
        )
        try:
            outcomes = pool.run_batch([make_task(q) for q in QUERIES])
        finally:
            pool.fault_plan = None
        expected = [list(_STATE["serial"][query]) for query in QUERIES]
        assert batch_result_texts(outcomes) == expected

    def test_spawn_transport_fault_recovers(self):
        """A worker whose first spawn fails snapshot transport respawns
        (next spawn re-rolls) and the pool still serves exactly."""
        system = _system()
        plan = FaultPlan(
            rules=(
                FaultRule(kind=faults.TRANSPORT, tasks=(0,), attempts=(0,)),
            )
        )
        # Spawn-scoped faults read the environment at worker start, so
        # the pool must fork its first generation inside the injection.
        with faults.inject(plan):
            with SupervisedWorkerPool(
                SystemSnapshot.capture(system), 2, policy=FAST
            ) as pool:
                outcomes = pool.run_batch([make_task(q) for q in QUERIES])
                stats = pool.stats()
        assert stats["spawn_failures"] >= 1
        expected = [list(_STATE["serial"][query]) for query in QUERIES]
        assert batch_result_texts(outcomes) == expected
