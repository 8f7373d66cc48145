"""Fault-recovery benchmark: what a worker crash costs the serving tier.

PR 6's tentpole claim is that serving survives worker failure without
changing a single answer — a SIGKILLed worker's tasks retry onto live
workers, the dead slot respawns with backoff, and a hung worker is
killed from the parent.  This bench prices that machinery on a batch of
author + venue selections over sharded DBLP:

* **fault-free baseline**: the batch through a
  :class:`~repro.serving.supervisor.SupervisedWorkerPool` with no
  injected faults — the supervision overhead itself vs the plain pool;
* **crash recovery**: the same batch with deterministic worker kills
  injected (:mod:`repro.faults`) at increasing rates; identity-checked
  against serial answers, with the recovery overhead (wall-clock vs the
  fault-free run) and the measured respawn latencies;
* **hang recovery**: one task hangs forever; the parent-side hard
  timeout kills the worker and the batch completes — the recovery
  latency is the price of a hang vs a clean crash.

Results land in ``benchmarks/results/serving_faults.json`` plus the
trajectory copy ``BENCH_serving_faults.json``.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_serving_faults.py          # full
    PYTHONPATH=src python benchmarks/bench_serving_faults.py --smoke  # CI

or through pytest (``pytest benchmarks/ --benchmark-only``), which runs
the smoke scale and checks the invariants (identical results under
kills, bounded hang recovery) without asserting on timings.
"""

import argparse
import os
import sys
import time

from _emit import default_output_paths, emit_results
from repro import faults
from repro.data import generate_corpus, render_dblp
from repro.experiments.workload import build_system
from repro.serving import RetryPolicy, SupervisedWorkerPool
from repro.serving.snapshot import SystemSnapshot
from repro.xmldb.serializer import serialize

FULL_PAPERS = 1500
SMOKE_PAPERS = 60
FULL_BATCH = 24
SMOKE_BATCH = 8
WORKERS = 2
KILL_RATES = (0.125, 0.25, 0.5)
EPSILON = 3.0
SEED = 7

QUERY_TEMPLATE = (
    'inproceedings(author ~ "{author}", '
    'booktitle below "database conference")'
)

#: Snappy recovery for benchmarking: the backoff caps, not the defaults,
#: would otherwise dominate the measured recovery latency.
POLICY = RetryPolicy(
    retry_backoff_base=0.02,
    retry_backoff_cap=0.2,
    respawn_backoff_base=0.02,
    respawn_backoff_cap=0.2,
)


def _build(papers):
    corpus = generate_corpus(papers, seed=SEED)
    documents = [
        render_dblp(corpus, seed=SEED, paper_keys=[key])
        for key in corpus.paper_keys()
    ]
    system = build_system(corpus, documents, EPSILON)
    system.database.get_collection("dblp").search_index(build=True)
    return corpus, system


def _batch_queries(corpus, count):
    authors = sorted(corpus.authors.values(), key=lambda a: a.entity_id)
    return [
        QUERY_TEMPLATE.format(author=authors[index % len(authors)].canonical)
        for index in range(count)
    ]


def _make_task(query):
    return {
        "query": query,
        "collection": "dblp",
        "sl_variables": (),
        "right_collection": None,
        "guard": None,
        "collect_metrics": False,
        "trace": False,
    }


def _run_batch(pool, queries, serial_answers):
    started = time.perf_counter()
    outcomes = pool.run_batch([_make_task(query) for query in queries])
    seconds = time.perf_counter() - started
    failures = [o["failure"] for o in outcomes if "failure" in o]
    if failures:
        raise SystemExit(f"benchmark batch failed: {failures[0]}")
    identical = all(
        outcome["report"]["results"] == expected
        for outcome, expected in zip(outcomes, serial_answers)
    )
    return seconds, identical


def _crash_sweep(snapshot, queries, serial_answers, baseline_seconds, verbose):
    records = []
    for rate in KILL_RATES:
        plan = faults.FaultPlan(
            seed=SEED, rules=(faults.FaultRule(kind=faults.KILL, rate=rate),)
        )
        with SupervisedWorkerPool(
            snapshot, WORKERS, policy=POLICY, fault_plan=plan
        ) as pool:
            seconds, identical = _run_batch(pool, queries, serial_answers)
            stats = pool.stats()
        respawns = stats["respawn_seconds"]
        record = {
            "kill_rate": rate,
            "seconds": round(seconds, 4),
            "recovery_overhead_seconds": round(
                max(0.0, seconds - baseline_seconds), 4
            ),
            "crashes": stats["crashes"],
            "retries": stats["retries"],
            "respawns": stats["respawns"],
            "respawn_latency_mean": round(sum(respawns) / len(respawns), 4)
            if respawns
            else None,
            "respawn_latency_max": round(max(respawns), 4) if respawns else None,
            "identical": identical,
        }
        records.append(record)
        if verbose:
            print(
                f"  kill_rate={rate:<6} {record['seconds']:8.3f}s "
                f"(+{record['recovery_overhead_seconds']}s, "
                f"{record['crashes']} crashes, "
                f"{record['respawns']} respawns)",
                flush=True,
            )
    return records


def _hang_recovery(snapshot, queries, serial_answers, baseline_seconds, verbose):
    plan = faults.FaultPlan(
        rules=(faults.FaultRule(kind=faults.HANG, tasks=(0,), seconds=120.0),)
    )
    policy = RetryPolicy(
        hard_timeout=1.0,
        retry_backoff_base=0.02,
        respawn_backoff_base=0.02,
    )
    with SupervisedWorkerPool(
        snapshot, WORKERS, policy=policy, fault_plan=plan
    ) as pool:
        seconds, identical = _run_batch(pool, queries, serial_answers)
        stats = pool.stats()
    record = {
        "hang_seconds_injected": 120.0,
        "hard_timeout": 1.0,
        "seconds": round(seconds, 4),
        "recovery_overhead_seconds": round(
            max(0.0, seconds - baseline_seconds), 4
        ),
        "hard_timeouts": stats["hard_timeouts"],
        "identical": identical,
    }
    if verbose:
        print(
            f"  hang            {record['seconds']:8.3f}s "
            f"(+{record['recovery_overhead_seconds']}s, "
            f"{record['hard_timeouts']} hard timeout)",
            flush=True,
        )
    return record


def run_benchmark(
    papers=FULL_PAPERS,
    batch=FULL_BATCH,
    smoke=False,
    out_path=None,
    trajectory_path=None,
    verbose=True,
):
    corpus, system = _build(papers)
    queries = _batch_queries(corpus, batch)
    serial_answers = []
    for query in queries:
        serial_answers.append(
            [serialize(tree) for tree in system.query("dblp", query).results]
        )
    snapshot = SystemSnapshot.capture(system)

    with SupervisedWorkerPool(snapshot, WORKERS, policy=POLICY) as pool:
        # Warm the dispatch path, then measure fault-free supervision.
        _run_batch(pool, queries[:1], serial_answers[:1])
        baseline_seconds, baseline_identical = _run_batch(
            pool, queries, serial_answers
        )
    if verbose:
        print(
            f"  fault-free      {baseline_seconds:8.3f}s "
            f"({batch / baseline_seconds:.2f} q/s)",
            flush=True,
        )

    crash_runs = _crash_sweep(
        snapshot, queries, serial_answers, baseline_seconds, verbose
    )
    hang_run = _hang_recovery(
        snapshot, queries, serial_answers, baseline_seconds, verbose
    )

    results = {
        "benchmark": "serving_faults",
        "epsilon": EPSILON,
        "seed": SEED,
        "smoke": smoke,
        "papers": papers,
        "batch": batch,
        "workers": WORKERS,
        "baseline_seconds": round(baseline_seconds, 4),
        "crash_recovery": crash_runs,
        "hang_recovery": hang_run,
        "summary": {
            "identical_under_faults": baseline_identical
            and all(run["identical"] for run in crash_runs)
            and hang_run["identical"],
            "worst_recovery_overhead_seconds": round(
                max(
                    [run["recovery_overhead_seconds"] for run in crash_runs]
                    + [hang_run["recovery_overhead_seconds"]]
                ),
                4,
            ),
        },
    }
    emit_results(results, out_path=out_path, trajectory_path=trajectory_path)
    return results


# -- pytest entry points (smoke scale; invariants, not timings) -------------


def test_serving_faults_smoke(results_dir):
    results = run_benchmark(
        papers=SMOKE_PAPERS,
        batch=SMOKE_BATCH,
        smoke=True,
        out_path=results_dir / "serving_faults_smoke.json",
        verbose=False,
    )
    assert results["summary"]["identical_under_faults"], (
        "recovered execution disagrees with serial execution"
    )
    assert any(run["crashes"] > 0 for run in results["crash_recovery"]), (
        "no injected kill ever fired; the recovery measurement is vacuous"
    )
    assert results["hang_recovery"]["hard_timeouts"] >= 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny scale (CI crash + identity check)",
    )
    parser.add_argument(
        "--papers",
        type=int,
        default=None,
        help=f"corpus size (default: {FULL_PAPERS}, smoke {SMOKE_PAPERS})",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=None,
        help=f"queries per batch (default: {FULL_BATCH}, smoke {SMOKE_BATCH})",
    )
    args = parser.parse_args(argv)
    papers = args.papers or (SMOKE_PAPERS if args.smoke else FULL_PAPERS)
    batch = args.batch or (SMOKE_BATCH if args.smoke else FULL_BATCH)
    out, trajectory = default_output_paths("serving_faults", smoke=args.smoke)
    print(
        f"Serving-faults benchmark: papers={papers} batch={batch} "
        f"workers={WORKERS} kill_rates={KILL_RATES} "
        f"cpu_count={os.cpu_count()} smoke={args.smoke}"
    )
    results = run_benchmark(
        papers=papers,
        batch=batch,
        smoke=args.smoke,
        out_path=out,
        trajectory_path=trajectory,
    )
    summary = results["summary"]
    print(
        f"identical={summary['identical_under_faults']} "
        f"worst-overhead={summary['worst_recovery_overhead_seconds']}s"
    )
    return 0 if summary["identical_under_faults"] else 1


if __name__ == "__main__":
    sys.exit(main())
