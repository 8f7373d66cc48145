"""Turn what a run observed into the named metrics of BENCHMARK.json.

Every metric is reported on every workload.  A per-layer metric whose
layer a workload never enters (write-path metrics on a read-only
workload, join pair counts on a selection, recall on ``mixed_rw``) reads
0: the count of that work really is zero there.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Tuple

from harness import Phase, Session, Stats, percentile, ratio, tail_percentile

Metric = Tuple[float, str]


def _percentile_ms(values: List[float], fraction: float) -> Metric:
    """A percentile of per-cycle seconds in ms; 0 when no cycle ran."""
    return (percentile(values, fraction) * 1e3 if values else 0.0, "ms")


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def per_cycle(phase: Phase) -> Dict[str, List[float]]:
    """The time metrics of each measured cycle, in run order."""
    return {
        "latency_p50_ms": [percentile(c.latencies, 0.50) * 1e3 for c in phase.cycles],
        "throughput_qps": [ratio(c.requests, c.busy) for c in phase.cycles],
    }


def end_to_end(session: Session, phase: Phase, setups: List[float]) -> Dict[str, Metric]:
    """What a user of the served system sees.  Call after ``session.close()``
    so the workers' peak memory has been collected.

    Every cycle of a run holds the same operations, and what the shared
    host adds to a cycle (neighbours slow this box by 1.4-1.9x for seconds
    at a time) is never negative, so the run's figure for a time metric
    is that of its best cycle.
    """
    cycles = per_cycle(phase)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (min(cycles["latency_p50_ms"]), "ms"),
        "throughput_qps": (max(cycles["throughput_qps"]), "requests/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "store_amplification": (
            ratio(session.store_bytes, session.workload.user_bytes),
            "ratio",
        ),
    }


def per_layer(
    session: Session,
    stats: Stats,
    traced: Phase,
    untraced: Phase,
    guard_ratio: float,
) -> Dict[str, Metric]:
    """Per-layer numbers of the traced phase; means are per request unless
    the name's layer works per operation (dispatch, decode, gap)."""
    sums = stats.sums
    requests = sums["requests"]
    operations = sums["operations"]
    phases = session.phases
    writes = stats.write_seconds
    relations = sum(stats.rungs.values())
    self_seconds = stats.spans.self_seconds()
    unattributed = self_seconds.get("operation", 0.0) + self_seconds.get("write_cycle", 0.0)
    tail_fraction, tail = tail_percentile(traced.latencies)

    def per_request_ms(key: str) -> Metric:
        return (ratio(sums[key], requests) * 1e3, "ms")

    return {
        "core.parser.parse_ms": per_request_ms("parse"),
        "core.executor.rewrite_ms": per_request_ms("core.executor.rewrite"),
        "core.executor.plan_cache_hit_frac": (ratio(sums["plan_cache_hits"], requests), "ratio"),
        "core.executor.other_ms": per_request_ms("core.executor.other"),
        "core.planner.probe_ms": per_request_ms("core.planner.probe"),
        "core.planner.docs_scanned_frac": (
            ratio(sums["docs_scanned"], sums["docs_total"]),
            "ratio",
        ),
        "core.planner.candidates_per_result": (
            ratio(sums["candidates"], sums["results"]),
            "ratio",
        ),
        "core.system.mutate_ms": _percentile_ms(writes["mutate"], 0.5),
        "xmldb.fetch_ms": per_request_ms("xmldb.fetch"),
        "xmldb.index_build_s": (phases["xmldb.index_build"], "s"),
        "xmldb.save_s": (phases["xmldb.save"], "s"),
        "xmldb.load_s": (phases["xmldb.load"], "s"),
        "tax.verify_ms": per_request_ms("tax.verify"),
        "tax.pairs_probed_per_result": (ratio(sums["pairs_probed"], sums["results"]), "ratio"),
        "tax.pairs_materialized_per_result": (
            ratio(sums["pairs_materialized"], sums["results"]),
            "ratio",
        ),
        "similarity.seo_accesses_per_req": (ratio(sums["seo_accesses"], requests), "count"),
        "similarity.build_s": (phases["similarity.build"], "s"),
        "similarity.fusion_s": (phases["similarity.fusion"], "s"),
        "similarity.sea_s": (phases["similarity.sea"], "s"),
        "similarity.incr_build_ms": _percentile_ms(writes["build"], 0.5),
        "similarity.rung_reuse_frac": (ratio(stats.rungs["reuse"], relations), "ratio"),
        "similarity.rung_patch_frac": (ratio(stats.rungs["patch"], relations), "ratio"),
        "similarity.rung_delta_frac": (ratio(stats.rungs["delta"], relations), "ratio"),
        "similarity.rung_full_frac": (ratio(stats.rungs["full"], relations), "ratio"),
        "similarity.recall": (ratio(sums["recall"], sums["recall_n"]), "ratio"),
        "similarity.precision": (ratio(sums["precision"], sums["precision_n"]), "ratio"),
        "ontology.extract_s": (phases["ontology.extract"], "s"),
        "serving.start_s": (phases["serving.start"], "s"),
        "serving.ready_s": (phases["serving.ready"], "s"),
        "serving.first_answer_ms": (phases["serving.first_answer"] * 1e3, "ms"),
        "serving.dispatch_ms": (ratio(sums["dispatch"], operations) * 1e3, "ms"),
        "serving.decode_ms": (ratio(sums["decode"], operations) * 1e3, "ms"),
        "serving.worker_busy_frac": (
            ratio(sums["worker_seconds"], stats.workers * sums["wall"]),
            "ratio",
        ),
        "serving.wire_bytes_per_req": (ratio(sums["wire_bytes"], requests), "bytes"),
        "serving.refresh_ms": _percentile_ms(writes["refresh"], 0.5),
        "serving.refresh_delta_frac": (
            ratio(stats.refreshes["delta"], sum(stats.refreshes.values())),
            "ratio",
        ),
        "serving.write_to_fresh_p50_ms": _percentile_ms(writes["fresh"], 0.5),
        "serving.write_to_fresh_p90_ms": _percentile_ms(writes["fresh"], 0.9),
        "serving.latency_p90_ms": (percentile(traced.latencies, 0.90) * 1e3, "ms"),
        "serving.latency_tail_ms": (tail * 1e3, "ms"),
        "serving.latency_tail_pct": (tail_fraction * 100.0, "%"),
        "serving.latency_samples": (float(len(traced.latencies)), "count"),
        "guard.overhead_ratio": (guard_ratio, "ratio"),
        "harness.attributed_frac": (
            1.0 - ratio(unattributed, stats.spans.root_seconds()),
            "ratio",
        ),
        "harness.trace_overhead_ratio": (
            ratio(
                percentile(traced.latencies, 0.50),
                percentile(untraced.latencies, 0.50),
            ),
            "ratio",
        ),
        "harness.residual_frac": (
            ratio(sums["dispatch"] + sums["core.executor.other"] / stats.workers, sums["wall"]),
            "ratio",
        ),
        "harness.gap_ms": (ratio(sum(traced.gaps), len(traced.gaps)) * 1e3, "ms"),
    }
