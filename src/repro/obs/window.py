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
  every query;
* :meth:`WindowRegistry.stats` folds the last N slots into streaming
  p50/p95/p99, QPS, error rate, and SLO burn over 1s/10s/60s windows;
* snapshots are plain lists keyed by absolute epoch seconds, so
  :func:`merge_window_snapshots` is associative and order-independent
  — worker snapshots fold into the parent exactly like
  ``METRICS.absorb`` folds counter deltas.

Latency buckets are powers of two from 0.5 ms to ~262 s (upper-bound
semantics, like Prometheus ``le``): coarse enough that a slot is ~20
integers, fine enough that p99 interpolation stays honest at serving
latencies.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "LATENCY_BUCKET_BOUNDS",
    "DEFAULT_HORIZON_SECONDS",
    "STANDARD_WINDOWS",
    "SloPolicy",
    "DEFAULT_SLO",
    "RollingWindow",
    "WindowRegistry",
    "merge_window_snapshots",
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

#: Snapshot schema version (bump on layout change).
SNAPSHOT_FORMAT = 1


@dataclass(frozen=True)
class SloPolicy:
    """What "good" means for a query class.

    A request is *bad* when it errors or exceeds ``latency_seconds``;
    ``burn rate`` is the bad fraction divided by ``error_budget`` — the
    Google-SRE convention where 1.0 means burning budget exactly at the
    sustainable rate and anything above is paging territory.
    """

    latency_seconds: float = 0.5
    error_budget: float = 0.01


DEFAULT_SLO = SloPolicy()


class _Slot:
    """One second's worth of observations for one query class."""

    __slots__ = ("epoch", "count", "errors", "total_seconds", "buckets")

    def __init__(self, bucket_count: int) -> None:
        self.epoch = -1
        self.count = 0
        self.errors = 0
        self.total_seconds = 0.0
        self.buckets = [0] * bucket_count

    def reset(self, epoch: int) -> None:
        self.epoch = epoch
        self.count = 0
        self.errors = 0
        self.total_seconds = 0.0
        buckets = self.buckets
        for index in range(len(buckets)):
            buckets[index] = 0


def _bucket_index(seconds: float, bounds: Tuple[float, ...]) -> int:
    for index, bound in enumerate(bounds):
        if seconds <= bound:
            return index
    return len(bounds)  # overflow (+Inf) bucket


class RollingWindow:
    """A ring of per-second slots for one query class.

    The ring holds ``horizon + 1`` slots addressed by ``epoch %
    capacity``; a slot whose stored epoch differs from the current one
    is stale and is reset in place on first touch.  All methods take an
    optional ``now`` (epoch seconds) so tests are deterministic.
    """

    def __init__(self, horizon: int = DEFAULT_HORIZON_SECONDS) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.horizon = horizon
        self.bounds = LATENCY_BUCKET_BOUNDS
        self._capacity = horizon + 1
        self._bucket_count = len(self.bounds) + 1
        self._slots = [_Slot(self._bucket_count) for _ in range(self._capacity)]
        self._lock = threading.Lock()

    # -- writes ------------------------------------------------------------

    def observe(
        self, seconds: float, error: bool = False, now: Optional[float] = None
    ) -> None:
        epoch = int(now if now is not None else time.time())
        index = _bucket_index(seconds, self.bounds)
        with self._lock:
            slot = self._slots[epoch % self._capacity]
            if slot.epoch != epoch:
                slot.reset(epoch)
            slot.count += 1
            if error:
                slot.errors += 1
            slot.total_seconds += seconds
            slot.buckets[index] += 1

    def reset(self) -> None:
        with self._lock:
            for slot in self._slots:
                slot.epoch = -1

    # -- snapshots ---------------------------------------------------------

    def snapshot(
        self, now: Optional[float] = None, reset: bool = False
    ) -> List[List[Any]]:
        """Live slots as ``[epoch, count, errors, total_seconds,
        [bucket counts]]`` rows, oldest first.

        ``reset=True`` additionally clears the ring — the worker-side
        delta convention (snapshot-and-reset, ship the delta home).
        """
        floor = int(now if now is not None else time.time()) - self._capacity
        rows: List[List[Any]] = []
        with self._lock:
            for slot in self._slots:
                if slot.epoch > floor and slot.count:
                    rows.append(
                        [
                            slot.epoch,
                            slot.count,
                            slot.errors,
                            slot.total_seconds,
                            list(slot.buckets),
                        ]
                    )
                if reset:
                    slot.epoch = -1
        rows.sort(key=lambda row: row[0])
        return rows

    def absorb_rows(
        self, rows: Iterable[Iterable[Any]], now: Optional[float] = None
    ) -> None:
        """Fold snapshot rows into the live ring (additive per epoch).

        Rows older than the horizon are dropped — they fell out of every
        window this ring can answer for.  Bucket lists shorter or longer
        than ours (a snapshot from a differently-configured ring) clip
        into the overflow bucket rather than erroring.
        """
        current = int(now if now is not None else time.time())
        floor = current - self._capacity
        with self._lock:
            for row in rows:
                epoch, count, errors, total_seconds, buckets = (
                    int(row[0]),
                    int(row[1]),
                    int(row[2]),
                    float(row[3]),
                    list(row[4]),
                )
                if epoch <= floor or epoch > current:
                    continue
                slot = self._slots[epoch % self._capacity]
                if slot.epoch != epoch:
                    slot.reset(epoch)
                slot.count += count
                slot.errors += errors
                slot.total_seconds += total_seconds
                mine = slot.buckets
                for index, value in enumerate(buckets):
                    mine[min(index, self._bucket_count - 1)] += int(value)

    # -- reads -------------------------------------------------------------

    def stats(
        self,
        window: int = 10,
        now: Optional[float] = None,
        slo: SloPolicy = DEFAULT_SLO,
    ) -> Dict[str, Any]:
        """Aggregate the last ``window`` seconds (including the current,
        possibly partial, one) into streaming statistics."""
        if not 1 <= window <= self.horizon:
            raise ValueError(
                f"window must be in [1, {self.horizon}], got {window}"
            )
        current = int(now if now is not None else time.time())
        floor = current - window
        count = errors = 0
        total_seconds = 0.0
        buckets = [0] * self._bucket_count
        with self._lock:
            for slot in self._slots:
                if floor < slot.epoch <= current and slot.count:
                    count += slot.count
                    errors += slot.errors
                    total_seconds += slot.total_seconds
                    for index, value in enumerate(slot.buckets):
                        buckets[index] += value
        slow = count - self._count_at_or_under(buckets, slo.latency_seconds)
        bad = min(count, errors + max(0, slow))
        bad_fraction = (bad / count) if count else 0.0
        return {
            "window_seconds": window,
            "count": count,
            "errors": errors,
            "qps": count / window,
            "error_rate": (errors / count) if count else 0.0,
            "mean_seconds": (total_seconds / count) if count else 0.0,
            "p50": self._quantile(buckets, count, 0.50),
            "p95": self._quantile(buckets, count, 0.95),
            "p99": self._quantile(buckets, count, 0.99),
            "slo_burn": bad_fraction / slo.error_budget if slo.error_budget else 0.0,
        }

    def _count_at_or_under(self, buckets: List[int], bound: float) -> int:
        total = 0
        for index, value in enumerate(buckets):
            if index < len(self.bounds) and self.bounds[index] <= bound:
                total += value
        return total

    def _quantile(self, buckets: List[int], count: int, q: float) -> float:
        """Histogram quantile: linear interpolation inside the bucket the
        rank lands in (Prometheus ``histogram_quantile`` convention)."""
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
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.bounds[-1] * 2.0
                )
                lower = self.bounds[index - 1] if index > 0 else 0.0
                fraction = (rank - previous) / value
                return lower + (upper - lower) * fraction
        return self.bounds[-1] * 2.0


class WindowRegistry:
    """Per-query-class rolling windows with registry-level snapshot/merge.

    Mirrors the :class:`~repro.obs.metrics.MetricsRegistry` shape:
    module-level singleton (:data:`WINDOWS`), ``enabled`` flag making
    the disabled path a cheap early return, ``snapshot``/``absorb`` for
    worker-delta folding, ``reset`` for forked workers.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._windows: Dict[str, RollingWindow] = {}
        self._lock = threading.Lock()

    def window(self, query_class: str) -> RollingWindow:
        with self._lock:
            window = self._windows.get(query_class)
            if window is None:
                window = self._windows[query_class] = RollingWindow()
            return window

    def observe(
        self,
        query_class: str,
        seconds: float,
        error: bool = False,
        now: Optional[float] = None,
    ) -> None:
        if not self.enabled:
            return
        self.window(query_class).observe(seconds, error=error, now=now)

    def reset(self) -> None:
        with self._lock:
            self._windows.clear()

    def snapshot(
        self, now: Optional[float] = None, reset: bool = False
    ) -> Dict[str, Any]:
        classes: Dict[str, List[List[Any]]] = {}
        with self._lock:
            windows = dict(self._windows)
        for name, window in sorted(windows.items()):
            rows = window.snapshot(now=now, reset=reset)
            if rows:
                classes[name] = rows
        return {
            "format": SNAPSHOT_FORMAT,
            "horizon": DEFAULT_HORIZON_SECONDS,
            "classes": classes,
        }

    def absorb(
        self, snapshot: Optional[Mapping[str, Any]], now: Optional[float] = None
    ) -> None:
        if not self.enabled or not snapshot:
            return
        for name, rows in snapshot.get("classes", {}).items():
            self.window(name).absorb_rows(rows, now=now)

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


def merge_window_snapshots(
    left: Mapping[str, Any], right: Mapping[str, Any]
) -> Dict[str, Any]:
    """Combine two registry snapshots additively.

    Slots are keyed by absolute epoch second, so merging is a per-key
    sum: associative, commutative, and order-independent — the property
    the hypothesis suite pins down.  Inputs are not mutated.
    """
    merged: Dict[str, Dict[int, List[Any]]] = {}
    for snapshot in (left, right):
        for name, rows in snapshot.get("classes", {}).items():
            slots = merged.setdefault(name, {})
            for row in rows:
                epoch = int(row[0])
                existing = slots.get(epoch)
                if existing is None:
                    slots[epoch] = [
                        epoch,
                        int(row[1]),
                        int(row[2]),
                        float(row[3]),
                        list(row[4]),
                    ]
                else:
                    existing[1] += int(row[1])
                    existing[2] += int(row[2])
                    existing[3] += float(row[3])
                    buckets = existing[4]
                    for index, value in enumerate(row[4]):
                        if index < len(buckets):
                            buckets[index] += int(value)
                        else:
                            buckets.append(int(value))
    return {
        "format": SNAPSHOT_FORMAT,
        "horizon": max(
            int(left.get("horizon", DEFAULT_HORIZON_SECONDS)),
            int(right.get("horizon", DEFAULT_HORIZON_SECONDS)),
        ),
        "classes": {
            name: [slots[epoch] for epoch in sorted(slots)]
            for name, slots in sorted(merged.items())
            if slots
        },
    }


#: Process-wide registry, mirroring ``metrics.REGISTRY``.  Forked
#: workers reset it on initialization and ship deltas home.
WINDOWS = WindowRegistry()
