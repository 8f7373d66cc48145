"""Process-wide metrics registry: counters, gauges and histograms.

Every layer of the pipeline — the executor, the planner, the XPath
engine, SEA/fusion, the worker pool, the storage layer and the LRU
caches — publishes into one module-level :data:`REGISTRY` by fetching
its instrument at the point of use::

    from repro.obs import metrics
    metrics.REGISTRY.counter("xpath.queries").inc()
    metrics.REGISTRY.histogram("executor.seconds").observe(report.total_seconds)

Instruments are fetched, not cached, so flipping the registry off
(``REGISTRY.enabled = False``) takes effect everywhere immediately: a
disabled registry hands back one shared :data:`NULL_INSTRUMENT` whose
methods do nothing and which allocates nothing — the no-op recorder that
makes instrumentation zero-cost when observability is off.

Histograms use **fixed bucket boundaries** with Prometheus ``le``
semantics: a value lands in the first bucket whose upper bound is
``>= value``; values above every bound land in the ``+Inf`` overflow
bucket.  Fixed boundaries keep snapshots mergeable across processes and
CLI invocations (see :func:`repro.obs.sinks.merge_snapshots`).
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

#: Default latency buckets, seconds (sub-millisecond to tens of seconds).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Default size buckets (counts of documents, results, steps...).
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 100000,
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {amount}")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A value that can move both ways (cache sizes, pool widths...)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Fixed-boundary histogram with ``le`` (value <= bound) semantics."""

    __slots__ = ("name", "bounds", "counts", "sum", "count")

    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        ordered = tuple(sorted(float(b) for b in bounds))
        if not ordered:
            raise ValueError(f"histogram {name!r} needs bounds")
        if len(set(ordered)) != len(ordered):
            raise ValueError(f"histogram {name!r} has duplicate bucket bounds")
        self.name = name
        self.bounds = ordered
        #: one slot per bound plus the +Inf overflow bucket
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: Union[int, float]) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class _NullInstrument:
    """The shared no-op instrument a disabled registry hands out."""

    __slots__ = ()

    def inc(self, amount: Union[int, float] = 1) -> None:
        pass

    def set(self, value: Union[int, float]) -> None:
        pass

    def observe(self, value: Union[int, float]) -> None:
        pass


#: The single no-op instrument (identity-testable in the overhead tests).
NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Name -> instrument map with get-or-create semantics."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: Dict[str, Any] = {}
        #: Serialises instrument creation and whole-snapshot absorption.
        #: Re-entrant because ``absorb`` reaches instruments through the
        #: public getters.  Point updates (``inc``/``observe``) stay
        #: lock-free — they are single-bytecode-ish under the GIL and
        #: belong to the single-threaded executor hot path; the
        #: multi-threaded entry points are create and absorb.
        self._lock = threading.RLock()

    def _get(self, name: str, factory, kind: str):
        if not self.enabled:
            return NULL_INSTRUMENT
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = factory()
                    self._instruments[name] = instrument
        if instrument.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {instrument.kind}, not a {kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name), "gauge")

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS
    ) -> Histogram:
        return self._get(name, lambda: Histogram(name, bounds), "histogram")

    def get(self, name: str) -> Optional[Any]:
        """The instrument registered under ``name``, or None."""
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def reset(self) -> None:
        """Drop every instrument (used by tests and ``db obs metrics --reset``)."""
        with self._lock:
            self._instruments.clear()

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-ready name -> instrument-state map (sorted by name)."""
        with self._lock:
            return {
                name: self._instruments[name].to_dict()
                for name in sorted(self._instruments)
            }

    def absorb(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Accumulate a :meth:`snapshot`-shaped payload into the live
        instruments (counters and histograms add, gauges take the
        snapshot's value).

        This is how per-query worker metrics reach the parent process:
        each serving worker snapshots and resets its own registry after
        a query, and the parent absorbs the delta — the merged registry
        then reads as if the work had run in-process.  Entries whose
        type or histogram bounds conflict with an existing instrument
        are skipped (never raised — worker payloads must not be able to
        wedge the parent).

        Thread-safe: the whole fold happens under the registry lock, so
        concurrent absorbs (the supervised pool collecting several
        workers' deltas at once) never interleave mid-instrument and
        never lose increments.
        """
        if not self.enabled:
            return
        with self._lock:
            self._absorb_locked(snapshot)

    def _absorb_locked(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        for name, entry in snapshot.items():
            kind = entry.get("type")
            try:
                if kind == "counter":
                    self.counter(name).inc(entry.get("value", 0))
                elif kind == "gauge":
                    self.gauge(name).set(entry.get("value", 0))
                elif kind == "histogram":
                    bounds = tuple(entry.get("bounds", ()))
                    histogram = self.histogram(name, bounds or DEFAULT_TIME_BUCKETS)
                    if histogram.bounds != tuple(
                        sorted(float(b) for b in bounds)
                    ):
                        continue
                    counts = entry.get("counts", ())
                    if len(counts) != len(histogram.counts):
                        continue
                    for index, count in enumerate(counts):
                        histogram.counts[index] += count
                    histogram.sum += entry.get("sum", 0.0)
                    histogram.count += entry.get("count", 0)
            except (TypeError, ValueError):
                continue


def render_snapshot_text(snapshot: Dict[str, Dict[str, Any]]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` payload as aligned text."""
    if not snapshot:
        return "(no metrics recorded)"
    width = max(len(name) for name in snapshot)
    lines = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry.get("type", "?")
        if kind == "histogram":
            count = entry.get("count", 0)
            total = entry.get("sum", 0.0)
            mean = total / count if count else 0.0
            detail = f"count={count} sum={total:.6g} mean={mean:.6g}"
        else:
            detail = f"value={entry.get('value', 0)}"
        lines.append(f"{name:<{width}}  {kind:<9} {detail}")
    return "\n".join(lines)


def merge_snapshots(
    base: Dict[str, Dict[str, Any]], update: Dict[str, Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Accumulate ``update`` into ``base`` (counters/histograms add,
    gauges take the newer value).  Returns a new dict; inputs unchanged.

    Snapshots with mismatched types or histogram bounds under one name
    keep the newer entry — persisted snapshots must never block on a
    metric that changed shape across versions.
    """
    merged: Dict[str, Dict[str, Any]] = {
        name: dict(entry) for name, entry in base.items()
    }
    for name, entry in update.items():
        existing = merged.get(name)
        if existing is None or existing.get("type") != entry.get("type"):
            merged[name] = dict(entry)
            continue
        kind = entry.get("type")
        if kind == "counter":
            merged[name] = {
                "type": "counter",
                "value": existing.get("value", 0) + entry.get("value", 0),
            }
        elif kind == "histogram":
            if existing.get("bounds") != entry.get("bounds"):
                merged[name] = dict(entry)
                continue
            merged[name] = {
                "type": "histogram",
                "bounds": list(entry.get("bounds", ())),
                "counts": [
                    a + b
                    for a, b in zip(
                        existing.get("counts", ()), entry.get("counts", ())
                    )
                ],
                "sum": existing.get("sum", 0.0) + entry.get("sum", 0.0),
                "count": existing.get("count", 0) + entry.get("count", 0),
            }
        else:  # gauge: last writer wins
            merged[name] = dict(entry)
    return merged


#: The process-wide registry every subsystem publishes into.
REGISTRY = MetricsRegistry()
