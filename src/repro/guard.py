"""Resource guards: deadlines and budgets for queries and SEO builds.

Apache Xindice — and every production XML store — bounds what a single
request may consume; the paper's experiments implicitly rely on that (the
5 MB document cap of Section 6 is one such bound).  A
:class:`ResourceGuard` makes the same discipline explicit for this
reproduction: one guard instance watches one operation (an XPath query, a
TOSS selection, an SEA build) and raises
:class:`~repro.errors.QueryTimeoutError` /
:class:`~repro.errors.ResourceExhaustedError` when the operation exceeds
its wall-clock deadline, its evaluation-step budget or its result-count
cap.

Guards are cheap to consult: callers ``tick()`` at fine-grained points
(once per XPath evaluation step, once per verified candidate, once per
compared node pair) and the guard amortises the actual clock reads —
the deadline is re-checked every :data:`CHECK_INTERVAL` steps, so a
query that exceeds its deadline is interrupted well within 2x the
configured budget even when individual steps are microseconds.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .errors import QueryTimeoutError, ResourceExhaustedError

#: Steps between wall-clock reads in :meth:`ResourceGuard.tick`.
CHECK_INTERVAL = 64


class ResourceGuard:
    """Deadline + step budget + result cap for one guarded operation.

    Parameters
    ----------
    deadline_seconds:
        Wall-clock budget; ``None`` disables the deadline.
    max_results:
        Upper bound on the number of results an operation may accumulate;
        ``None`` disables the cap.
    max_steps:
        Upper bound on ``tick()`` counts (XPath evaluation steps,
        verification candidates, SEA pair comparisons); ``None`` disables
        the budget.

    The clock starts at construction; callers reusing one guard across
    operations (e.g. a :class:`~repro.core.executor.QueryExecutor`
    configured with a per-query guard) call :meth:`start` to reset it.
    """

    __slots__ = (
        "deadline_seconds",
        "max_results",
        "max_steps",
        "_started",
        "_steps",
        "_since_check",
        "_stage_steps",
    )

    def __init__(
        self,
        deadline_seconds: Optional[float] = None,
        max_results: Optional[int] = None,
        max_steps: Optional[int] = None,
    ) -> None:
        if deadline_seconds is not None and deadline_seconds < 0:
            raise ValueError(f"deadline_seconds must be >= 0, got {deadline_seconds}")
        if max_results is not None and max_results < 0:
            raise ValueError(f"max_results must be >= 0, got {max_results}")
        if max_steps is not None and max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {max_steps}")
        self.deadline_seconds = deadline_seconds
        self.max_results = max_results
        self.max_steps = max_steps
        self.start()

    def start(self) -> "ResourceGuard":
        """(Re)start the clock and zero the step counter; returns self."""
        self._started = time.perf_counter()
        self._steps = 0
        self._since_check = 0
        self._stage_steps: Dict[str, int] = {}
        return self

    @property
    def elapsed(self) -> float:
        """Seconds since construction or the last :meth:`start`."""
        return time.perf_counter() - self._started

    @property
    def steps(self) -> int:
        """Steps ticked since construction or the last :meth:`start`."""
        return self._steps

    @property
    def stage_steps(self) -> Dict[str, int]:
        """Steps ticked per ``what`` label; values sum to :attr:`steps`.

        This is the per-stage attribution surfaced by trace spans and the
        ``explain``/``db trace`` diagnostics ("index probe" vs "xpath
        evaluation" vs "SEA similarity graph"...).
        """
        return dict(self._stage_steps)

    def check_deadline(self, what: str = "operation") -> None:
        """Raise :class:`QueryTimeoutError` if the deadline has passed."""
        if self.deadline_seconds is None:
            return
        elapsed = time.perf_counter() - self._started
        if elapsed > self.deadline_seconds:
            raise QueryTimeoutError(what, self.deadline_seconds, elapsed)

    def tick(self, steps: int = 1, what: str = "operation") -> None:
        """Account for ``steps`` units of work.

        Raises :class:`ResourceExhaustedError` when the step budget is
        exceeded; re-checks the deadline every :data:`CHECK_INTERVAL`
        accumulated steps.
        """
        self._steps += steps
        stage_steps = self._stage_steps
        stage_steps[what] = stage_steps.get(what, 0) + steps
        if self.max_steps is not None and self._steps > self.max_steps:
            raise ResourceExhaustedError(
                f"{what} exceeded its evaluation budget of {self.max_steps} steps"
            )
        self._since_check += steps
        if self._since_check >= CHECK_INTERVAL:
            self._since_check = 0
            self.check_deadline(what)

    def tick_each(self, count: int, what: str = "operation") -> None:
        """Charge ``count`` unit steps in one call.

        Observably ``count`` single :meth:`tick` calls: a budget that
        runs out part-way raises the same error at the same step count
        (the charge stops on the step that trips), without ``count``
        trips through the bookkeeping.  Meant for steps whose work is
        already done or about to be skipped — replayed memo ticks,
        documents just scanned; work that takes time between ticks is
        charged in chunks of at most :data:`CHECK_INTERVAL` so the
        deadline keeps being re-checked.
        """
        if self.max_steps is not None and self._steps + count > self.max_steps:
            count = self.max_steps - self._steps + 1
        self.tick(count, what)

    def check_results(self, count: int, what: str = "query") -> None:
        """Raise :class:`ResourceExhaustedError` when ``count`` exceeds the cap."""
        if self.max_results is not None and count > self.max_results:
            raise ResourceExhaustedError(
                f"{what} produced {count} results, exceeding the cap of "
                f"{self.max_results}"
            )

    def __repr__(self) -> str:
        return (
            f"ResourceGuard(deadline_seconds={self.deadline_seconds}, "
            f"max_results={self.max_results}, max_steps={self.max_steps})"
        )


class TickRecorder:
    """Forwards ticks to an optional guard and remembers them for replay.

    A memo that answers from cache must still charge what the cold
    computation charged, or a budget tuned on cold runs silently admits
    more on warm ones.  The cold run ticks through a recorder; the memo
    stores :attr:`runs` with the entry and hands them to
    :func:`replay_ticks` on every hit.
    """

    __slots__ = ("guard", "runs")

    def __init__(self, guard: Optional[ResourceGuard] = None) -> None:
        self.guard = guard
        #: Run-length encoded tick sequence: ``[what, steps, repeats]``.
        self.runs: List[List] = []

    def tick(self, steps: int = 1, what: str = "operation") -> None:
        runs = self.runs
        if runs and runs[-1][0] == what and runs[-1][1] == steps:
            runs[-1][2] += 1
        else:
            runs.append([what, steps, 1])
        if self.guard is not None:
            self.guard.tick(steps, what)


def replay_ticks(guard: ResourceGuard, runs: List[List]) -> None:
    """Charge ``guard`` the recorded tick sequence, tripping where it did."""
    for what, steps, repeats in runs:
        if steps == 1:
            guard.tick_each(repeats, what)
        else:
            for _ in range(repeats):
                guard.tick(steps, what)
