"""Machine-readable telemetry export: Prometheus text and JSON.

Everything the registry and the rolling windows know, in two forms a
fleet can consume:

* :func:`render_prometheus` — Prometheus text exposition (version
  0.0.4): counters get the ``_total`` suffix, histograms expand to
  cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``, and
  rolling-window statistics become labelled gauges
  (``toss_window_qps{class="selection",window="10s"}``).  Metric
  names are sanitised (``executor.query_seconds`` →
  ``toss_executor_query_seconds``) since Prometheus forbids dots.
* :func:`render_json` — the same payload as one canonical JSON object,
  for anything that is not a Prometheus scraper.

:func:`parse_prometheus` is a minimal exposition-format reader used by
the round-trip tests (render → parse → every sample survives) and by
``db obs export`` consumers that want to check output without a real
scraper.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "DEFAULT_NAMESPACE",
    "metric_name",
    "render_prometheus",
    "render_json",
    "parse_prometheus",
    "format_status_line",
]

DEFAULT_NAMESPACE = "toss"

#: JSON export schema version.
JSON_FORMAT = 1

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_CLEAN = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str, namespace: str = DEFAULT_NAMESPACE) -> str:
    """``executor.query_seconds`` → ``toss_executor_query_seconds``."""
    cleaned = _NAME_CLEAN.sub("_", name)
    if not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return f"{namespace}_{cleaned}" if namespace else cleaned


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(pairs: Mapping[str, str]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(value))}"' for key, value in sorted(pairs.items())
    )
    return "{" + inner + "}"


def _number(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.10g}"


def render_prometheus(
    metrics_snapshot: Mapping[str, Mapping[str, Any]],
    window_stats: Optional[Mapping[str, Mapping[int, Mapping[str, Any]]]] = None,
) -> str:
    """Prometheus text exposition of a metrics snapshot (the
    :meth:`repro.obs.metrics.MetricsRegistry.snapshot` shape) plus,
    optionally, :meth:`repro.obs.window.WindowRegistry.multi_stats`
    rolling-window statistics."""
    lines: List[str] = []
    for name in sorted(metrics_snapshot):
        entry = metrics_snapshot[name]
        kind = entry.get("type")
        if kind == "counter":
            flat = metric_name(name) + "_total"
            lines.append(f"# TYPE {flat} counter")
            lines.append(f"{flat} {_number(entry.get('value', 0))}")
        elif kind == "gauge":
            flat = metric_name(name)
            lines.append(f"# TYPE {flat} gauge")
            lines.append(f"{flat} {_number(entry.get('value', 0))}")
        elif kind == "histogram":
            flat = metric_name(name)
            lines.append(f"# TYPE {flat} histogram")
            bounds = list(entry.get("bounds", ()))
            counts = list(entry.get("counts", ()))
            cumulative = 0
            for bound, count in zip(bounds, counts):
                cumulative += count
                lines.append(
                    f'{flat}_bucket{{le="{_number(bound)}"}} {cumulative}'
                )
            cumulative += sum(counts[len(bounds) :])
            lines.append(f'{flat}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{flat}_sum {_number(entry.get('sum', 0.0))}")
            lines.append(f"{flat}_count {_number(entry.get('count', 0))}")
    if window_stats:
        lines.extend(_render_window_gauges(window_stats))
    return "\n".join(lines) + "\n" if lines else ""


_WINDOW_FIELDS = (
    ("requests", "count"),
    ("errors", "errors"),
    ("qps", "qps"),
    ("error_rate", "error_rate"),
    ("p50_seconds", "p50"),
    ("p95_seconds", "p95"),
    ("p99_seconds", "p99"),
    ("slo_burn", "slo_burn"),
)


def _render_window_gauges(
    window_stats: Mapping[str, Mapping[int, Mapping[str, Any]]],
) -> List[str]:
    lines: List[str] = []
    for suffix, field in _WINDOW_FIELDS:
        flat = metric_name(f"window.{suffix}")
        series: List[str] = []
        for request_class in sorted(window_stats):
            per_window = window_stats[request_class]
            for size in sorted(per_window):
                stats = per_window[size]
                labels = _labels({"class": request_class, "window": f"{size}s"})
                series.append(f"{flat}{labels} {_number(stats.get(field, 0))}")
        if series:
            lines.append(f"# TYPE {flat} gauge")
            lines.extend(series)
    return lines


def render_json(
    metrics_snapshot: Mapping[str, Mapping[str, Any]],
    window_stats: Optional[Mapping[str, Mapping[int, Mapping[str, Any]]]] = None,
) -> str:
    """One canonical JSON document: cumulative metrics and (optionally)
    rolling-window statistics."""
    payload: Dict[str, Any] = {
        "format": JSON_FORMAT,
        "metrics": dict(metrics_snapshot),
    }
    if window_stats is not None:
        payload["windows"] = {
            request_class: {str(size): dict(stats) for size, stats in per.items()}
            for request_class, per in window_stats.items()
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse exposition text back into ``{name: {"type": ...,
    "samples": [(labels dict, value), ...]}}``.

    Minimal by design — enough for round-trip tests and smoke checks,
    not a full scraper.  Unparseable lines raise ``ValueError`` so a
    malformed exporter cannot pass silently.
    """
    families: Dict[str, Dict[str, Any]] = {}
    types: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        name = match.group("name")
        labels: Dict[str, str] = {}
        if match.group("labels"):
            for key, value in _LABEL_PAIR.findall(match.group("labels")):
                labels[key] = (
                    value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
                )
        value_text = match.group("value")
        value = float("inf") if value_text == "+Inf" else float(value_text)
        family = families.setdefault(
            name, {"type": types.get(name, "untyped"), "samples": []}
        )
        family["samples"].append((labels, value))
    # bucket/sum/count series belong to their histogram family
    for name, declared in types.items():
        if declared != "histogram":
            continue
        for suffix in ("_bucket", "_sum", "_count"):
            child = name + suffix
            if child in families and families[child]["type"] == "untyped":
                families[child]["type"] = "histogram"
    return families


def format_status_line(
    window_stats: Mapping[str, Mapping[int, Mapping[str, Any]]],
    window: int = 10,
) -> str:
    """One terminal status line from :meth:`multi_stats` output.

    Example::

        [10s] selection qps=12.0 p50=3ms p95=11ms p99=14ms err=0.0% burn=0.0 | join qps=0.4 ...
    """

    def _ms(seconds: float) -> str:
        if seconds >= 1.0:
            return f"{seconds:.2f}s"
        return f"{seconds * 1000.0:.0f}ms"

    parts: List[str] = []
    for request_class in sorted(window_stats):
        per_window = window_stats[request_class]
        stats = per_window.get(window)
        if stats is None and per_window:
            stats = per_window[sorted(per_window)[0]]
        if not stats or not stats.get("count"):
            continue
        parts.append(
            f"{request_class} qps={stats['qps']:.1f}"
            f" p50={_ms(stats['p50'])}"
            f" p95={_ms(stats['p95'])}"
            f" p99={_ms(stats['p99'])}"
            f" err={stats['error_rate'] * 100.0:.1f}%"
            f" burn={stats['slo_burn']:.1f}"
        )
    if not parts:
        return f"[{window}s] (no traffic)"
    return f"[{window}s] " + " | ".join(parts)
