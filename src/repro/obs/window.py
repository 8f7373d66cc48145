"""Rolling per-second telemetry windows.

The cumulative counters in :mod:`repro.obs.metrics` answer "how much
since process start"; a serving tier needs "how fast *right now*".
This module keeps one ring of per-second slots per query class:

* each slot is one wall-clock second (keyed by its integer epoch) and
  holds a request count, an error count, a latency sum, and a
  log-bucketed latency histogram;
* :meth:`RollingWindow.observe` touches exactly one slot — a dict
  lookup, an epoch check, a handful of integer adds under one
  uncontended lock — so the hot path stays cheap enough to run on
  every request;
* :meth:`WindowRegistry.stats` folds the last N slots into streaming
  p50/p95/p99, QPS, error rate, and SLO burn over 1s/10s/60s windows.

The windows describe served traffic only: the serving parent books each
request's outcome once (``QueryServer.execute_many``), so nothing here
crosses a process boundary.

Latency buckets are powers of two from 0.5 ms to ~262 s (upper-bound
semantics, like Prometheus ``le``): coarse enough that a slot is ~20
integers, fine enough that p99 interpolation stays honest at serving
latencies.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "LATENCY_BUCKET_BOUNDS",
    "DEFAULT_HORIZON_SECONDS",
    "STANDARD_WINDOWS",
    "SLO_LATENCY_SECONDS",
    "SLO_ERROR_BUDGET",
    "RollingWindow",
    "WindowRegistry",
    "WINDOWS",
]

#: Log-spaced latency bucket upper bounds (seconds): 0.5 ms × 2^i.
LATENCY_BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    0.0005 * (2.0**i) for i in range(20)
)

#: How many whole seconds of history a ring retains.  One extra slot
#: beyond the largest supported window covers the current (partial)
#: second without evicting the oldest full one.
DEFAULT_HORIZON_SECONDS = 60

#: The window sizes ``WindowRegistry.multi_stats`` reports.
STANDARD_WINDOWS: Tuple[int, ...] = (1, 10, 60)

#: What "good" means for a request: it does not error and finishes
#: within ``SLO_LATENCY_SECONDS``.  ``slo_burn`` is the bad fraction
#: divided by ``SLO_ERROR_BUDGET`` — the Google-SRE convention where 1.0
#: means burning budget exactly at the sustainable rate and anything
#: above is paging territory.
SLO_LATENCY_SECONDS = 0.5
SLO_ERROR_BUDGET = 0.01

_CAPACITY = DEFAULT_HORIZON_SECONDS + 1
_BUCKET_COUNT = len(LATENCY_BUCKET_BOUNDS) + 1  # + the overflow (+Inf) bucket
#: Buckets whose upper bound is within the SLO latency (the good ones).
_SLO_BUCKETS = bisect.bisect_right(LATENCY_BUCKET_BOUNDS, SLO_LATENCY_SECONDS)


class _Slot:
    """One second's worth of observations for one query class."""

    __slots__ = ("epoch", "count", "errors", "total_seconds", "buckets")

    def __init__(self) -> None:
        self.epoch = -1
        self.count = 0
        self.errors = 0
        self.total_seconds = 0.0
        self.buckets = [0] * _BUCKET_COUNT

    def reset(self, epoch: int) -> None:
        self.epoch = epoch
        self.count = 0
        self.errors = 0
        self.total_seconds = 0.0
        buckets = self.buckets
        for index in range(len(buckets)):
            buckets[index] = 0


class RollingWindow:
    """A ring of per-second slots for one query class.

    The ring holds ``DEFAULT_HORIZON_SECONDS + 1`` slots addressed by
    ``epoch % capacity``; a slot whose stored epoch differs from the
    current one is stale and is reset in place on first touch.  All
    methods take an optional ``now`` (epoch seconds) so tests are
    deterministic.
    """

    def __init__(self) -> None:
        self._slots = [_Slot() for _ in range(_CAPACITY)]
        self._lock = threading.Lock()

    def observe(
        self, seconds: float, error: bool = False, now: Optional[float] = None
    ) -> None:
        epoch = int(now if now is not None else time.time())
        index = bisect.bisect_left(LATENCY_BUCKET_BOUNDS, seconds)
        with self._lock:
            slot = self._slots[epoch % _CAPACITY]
            if slot.epoch != epoch:
                slot.reset(epoch)
            slot.count += 1
            if error:
                slot.errors += 1
            slot.total_seconds += seconds
            slot.buckets[index] += 1

    def stats(self, window: int = 10, now: Optional[float] = None) -> Dict[str, Any]:
        """Aggregate the last ``window`` seconds (including the current,
        possibly partial, one) into streaming statistics."""
        if not 1 <= window <= DEFAULT_HORIZON_SECONDS:
            raise ValueError(
                f"window must be in [1, {DEFAULT_HORIZON_SECONDS}], got {window}"
            )
        current = int(now if now is not None else time.time())
        floor = current - window
        count = errors = 0
        total_seconds = 0.0
        buckets = [0] * _BUCKET_COUNT
        with self._lock:
            for slot in self._slots:
                if floor < slot.epoch <= current and slot.count:
                    count += slot.count
                    errors += slot.errors
                    total_seconds += slot.total_seconds
                    for index, value in enumerate(slot.buckets):
                        buckets[index] += value
        slow = count - sum(buckets[:_SLO_BUCKETS])
        bad = min(count, errors + slow)
        bad_fraction = (bad / count) if count else 0.0
        return {
            "window_seconds": window,
            "count": count,
            "errors": errors,
            "qps": count / window,
            "error_rate": (errors / count) if count else 0.0,
            "mean_seconds": (total_seconds / count) if count else 0.0,
            "p50": _quantile(buckets, count, 0.50),
            "p95": _quantile(buckets, count, 0.95),
            "p99": _quantile(buckets, count, 0.99),
            "slo_burn": bad_fraction / SLO_ERROR_BUDGET,
        }


def _quantile(buckets: List[int], count: int, q: float) -> float:
    """Histogram quantile: linear interpolation inside the bucket the
    rank lands in (Prometheus ``histogram_quantile`` convention)."""
    bounds = LATENCY_BUCKET_BOUNDS
    if count == 0:
        return 0.0
    rank = q * count
    cumulative = 0
    for index, value in enumerate(buckets):
        if value == 0:
            continue
        previous = cumulative
        cumulative += value
        if cumulative >= rank:
            upper = bounds[index] if index < len(bounds) else bounds[-1] * 2.0
            lower = bounds[index - 1] if index > 0 else 0.0
            fraction = (rank - previous) / value
            return lower + (upper - lower) * fraction
    return bounds[-1] * 2.0


class WindowRegistry:
    """Per-query-class rolling windows: a module-level singleton
    (:data:`WINDOWS`) with ``reset`` as the tests' fixture hook."""

    def __init__(self) -> None:
        self._windows: Dict[str, RollingWindow] = {}
        self._lock = threading.Lock()

    def observe(
        self,
        request_class: str,
        seconds: float,
        error: bool = False,
        now: Optional[float] = None,
    ) -> None:
        with self._lock:
            window = self._windows.get(request_class)
            if window is None:
                window = self._windows[request_class] = RollingWindow()
        window.observe(seconds, error=error, now=now)

    def reset(self) -> None:
        with self._lock:
            self._windows.clear()

    def stats(
        self,
        window: int = 10,
        now: Optional[float] = None,
    ) -> Dict[str, Dict[str, Any]]:
        """``{query class: stats dict}`` over one window size."""
        with self._lock:
            windows = dict(self._windows)
        return {
            name: ring.stats(window=window, now=now)
            for name, ring in sorted(windows.items())
        }

    def multi_stats(
        self, now: Optional[float] = None
    ) -> Dict[str, Dict[int, Dict[str, Any]]]:
        """``{query class: {window size: stats}}`` — the 1s/10s/60s view."""
        anchored = now if now is not None else time.time()
        result: Dict[str, Dict[int, Dict[str, Any]]] = {}
        for size in STANDARD_WINDOWS:
            for name, stats in self.stats(window=size, now=anchored).items():
                result.setdefault(name, {})[size] = stats
        return result


#: Process-wide registry, mirroring ``metrics.REGISTRY``; the serving
#: parent is the only writer.
WINDOWS = WindowRegistry()
