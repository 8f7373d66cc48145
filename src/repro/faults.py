"""Deterministic fault injection for the serving layer.

Production worker pools die in ways unit tests rarely exercise: a worker
is OOM-killed mid-query, hangs in native code, starts slowly after a
respawn, or hands back a truncated response.  This module makes every
one of those failures *injectable, deterministic and cheap*, so the
supervised pool's recovery machinery (:mod:`repro.serving.supervisor`)
can be driven through crash/hang/corruption scenarios by ordinary tests
and benchmarks — the chaos suite under ``tests/chaos/`` and
``benchmarks/bench_serving_faults.py`` are built entirely on it.

Determinism is the point.  A :class:`FaultPlan` is a pure value: whether
an injector fires for ``(kind, seq, attempt)`` is a function of the
plan's seed and those coordinates alone (a SHA-256 hash, not a shared
:mod:`random` state), so the *same plan makes the same decisions in
every process* — parent, forked worker, respawned worker — without any
cross-process coordination.  A killed task retried with ``attempt + 1``
re-rolls the dice at new coordinates, which is exactly how transient
faults behave.

Activation crosses the process boundary two ways, both honoured by the
worker main loop:

* **environment** — :func:`inject` publishes the plan under
  :data:`ENV_VAR`; workers forked/spawned while it is set pick it up
  (already-running workers keep their inherited environment);
* **task flags** — the supervised pool stamps each dispatched task with
  the plan spec (``task["faults"]``), which reaches live workers and
  takes precedence over the environment.

Injector kinds:

========================  ==================================================
:data:`KILL`              the worker SIGKILLs itself before executing the
                          task (an OOM kill: no cleanup, no goodbye)
:data:`HANG`              the worker sleeps ``seconds`` before executing
                          (a stuck native call; the parent-side hard
                          timeout must recover)
:data:`CORRUPT`           the task executes but its response is replaced
                          with garbage (a truncated/garbled transport)
:data:`SLOW_START`        worker initialization sleeps ``seconds``
:data:`TRANSPORT`         worker initialization raises
                          :class:`~repro.errors.SnapshotTransportError`
                          (a transient snapshot-shipping failure; the
                          supervisor respawns with backoff and the next
                          spawn re-rolls)
========================  ==================================================

Task-scoped kinds key on ``(task seq, attempt)``; spawn-scoped kinds
(:data:`SLOW_START`, :data:`TRANSPORT`) key on ``(worker id, spawn
count)``, so a respawned worker makes a fresh decision.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from .errors import ServingError, SnapshotTransportError

#: Environment variable carrying a JSON :meth:`FaultPlan.to_spec` payload.
ENV_VAR = "REPRO_FAULTS"

#: Injector kinds (see the module docstring for semantics).
KILL = "kill"
HANG = "hang"
CORRUPT = "corrupt"
SLOW_START = "slow_start"
TRANSPORT = "transport"
KINDS = (KILL, HANG, CORRUPT, SLOW_START, TRANSPORT)

#: Marker key of a deliberately corrupted worker response.
CORRUPT_KEY = "__corrupt__"


def _fraction(seed: int, kind: str, seq: int, attempt: int) -> float:
    """A uniform [0, 1) draw fully determined by its coordinates."""
    digest = hashlib.sha256(
        f"{seed}:{kind}:{seq}:{attempt}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FaultRule:
    """One injector: when (and how hard) a fault kind fires.

    Attributes
    ----------
    kind:
        One of :data:`KINDS`.
    rate:
        Probability the injector fires for a given ``(seq, attempt)``
        coordinate (deterministic per coordinate — see
        :func:`_fraction`).
    tasks:
        Explicit sequence numbers that always fire (subject to
        ``attempts``); the precise control the chaos tests use.
    attempts:
        Attempt numbers the rule applies to.  The default ``(0,)``
        faults only the first try, so a retry always recovers — the
        transient-fault shape.  ``None`` applies to every attempt (a
        permanent fault: retries exhaust, quarantine/degradation kicks
        in).
    seconds:
        Sleep duration for :data:`HANG` / :data:`SLOW_START`.
    """

    kind: str
    rate: float = 0.0
    tasks: Tuple[int, ...] = ()
    attempts: Optional[Tuple[int, ...]] = (0,)
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ServingError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ServingError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.seconds < 0:
            raise ServingError(f"fault seconds must be >= 0, got {self.seconds}")
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if self.attempts is not None:
            object.__setattr__(self, "attempts", tuple(self.attempts))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic set of fault rules."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        seen = set()
        for rule in self.rules:
            if rule.kind in seen:
                raise ServingError(f"duplicate fault rule for kind {rule.kind!r}")
            seen.add(rule.kind)

    def rule(self, kind: str) -> Optional[FaultRule]:
        for rule in self.rules:
            if rule.kind == kind:
                return rule
        return None

    def should_fire(self, kind: str, seq: int, attempt: int) -> bool:
        """Whether ``kind`` fires at ``(seq, attempt)`` — a pure function
        of the plan, identical in every process."""
        rule = self.rule(kind)
        if rule is None:
            return False
        if rule.attempts is not None and attempt not in rule.attempts:
            return False
        if seq in rule.tasks:
            return True
        return rule.rate > 0.0 and _fraction(self.seed, kind, seq, attempt) < rule.rate

    # -- serialization ------------------------------------------------------

    def to_spec(self) -> Dict[str, Any]:
        """A JSON-ready dict (the task-flag / env-var transport form)."""
        return {
            "seed": self.seed,
            "rules": [
                {
                    "kind": rule.kind,
                    "rate": rule.rate,
                    "tasks": list(rule.tasks),
                    "attempts": (
                        None if rule.attempts is None else list(rule.attempts)
                    ),
                    "seconds": rule.seconds,
                }
                for rule in self.rules
            ],
        }

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "FaultPlan":
        rules = []
        for entry in spec.get("rules", ()):
            attempts = entry.get("attempts", (0,))
            rules.append(
                FaultRule(
                    kind=entry["kind"],
                    rate=float(entry.get("rate", 0.0)),
                    tasks=tuple(entry.get("tasks", ())),
                    attempts=None if attempts is None else tuple(attempts),
                    seconds=float(entry.get("seconds", 30.0)),
                )
            )
        return cls(seed=int(spec.get("seed", 0)), rules=tuple(rules))


def plan_from_env(environ: Mapping[str, str] = os.environ) -> Optional[FaultPlan]:
    """The plan published in the environment, or None.

    A malformed payload is treated as no plan at all: fault injection is
    a test harness and must never be able to take serving down by
    itself.
    """
    text = environ.get(ENV_VAR)
    if not text:
        return None
    try:
        return FaultPlan.from_spec(json.loads(text))
    except (ValueError, TypeError, KeyError, ServingError):
        return None


def plan_from_task(task: Mapping[str, Any]) -> Optional[FaultPlan]:
    """The plan a dispatched task carries (task flag, else environment)."""
    spec = task.get("faults")
    if spec:
        try:
            return FaultPlan.from_spec(spec)
        except (ValueError, TypeError, KeyError, ServingError):
            return None
    return plan_from_env()


class inject:
    """Context manager publishing a plan to :data:`ENV_VAR`.

    Workers forked while the plan is published inherit it; the
    supervised pool additionally stamps dispatched tasks, which reaches
    workers that forked earlier.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._previous: Optional[str] = None

    def __enter__(self) -> FaultPlan:
        self._previous = os.environ.get(ENV_VAR)
        os.environ[ENV_VAR] = json.dumps(self.plan.to_spec())
        return self.plan

    def __exit__(self, *exc_info) -> None:
        if self._previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = self._previous


# -- worker-side application hooks ------------------------------------------


def apply_task_faults(
    plan: Optional[FaultPlan], seq: int, attempt: int
) -> bool:
    """Fire pre-execution injectors for one task; runs in the worker.

    :data:`KILL` SIGKILLs the worker (never returns); :data:`HANG`
    sleeps.  Returns True when the task's *response* should be corrupted
    after execution (:data:`CORRUPT`).
    """
    if plan is None:
        return False
    if plan.should_fire(KILL, seq, attempt):
        os.kill(os.getpid(), signal.SIGKILL)
    if plan.should_fire(HANG, seq, attempt):
        time.sleep(plan.rule(HANG).seconds)
    return plan.should_fire(CORRUPT, seq, attempt)


def apply_spawn_faults(
    plan: Optional[FaultPlan], worker_id: int, spawn: int
) -> None:
    """Fire worker-initialization injectors; runs in the worker.

    :data:`SLOW_START` sleeps; :data:`TRANSPORT` raises
    :class:`~repro.errors.SnapshotTransportError`, which the supervisor
    treats as a transient spawn failure (respawn with backoff; the next
    spawn count re-rolls the decision).
    """
    if plan is None:
        return
    if plan.should_fire(SLOW_START, worker_id, spawn):
        time.sleep(plan.rule(SLOW_START).seconds)
    if plan.should_fire(TRANSPORT, worker_id, spawn):
        raise SnapshotTransportError(
            f"injected snapshot transport corruption "
            f"(worker {worker_id}, spawn {spawn})"
        )


def corrupt_response() -> Dict[str, Any]:
    """The garbage a :data:`CORRUPT` injection returns instead of the
    real outcome — recognizably malformed (no ``report``, no
    ``failure``), the way a truncated pickle presents to the parent."""
    return {CORRUPT_KEY: True}
