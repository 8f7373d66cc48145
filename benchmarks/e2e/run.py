"""End-to-end benchmark of the served, guarded path.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out FILE]

For each chosen workload the command builds a store, saves and reloads
it, serves it through ``QueryServer`` under a fixed ``GuardSpec``, checks
every answer, prints every metric by name with its unit and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a run with harness spans on (written to
``.bench_e2e/trace-<workload>.jsonl``).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKDIR = os.path.join(ROOT, ".bench_e2e")
DEFAULT_SECONDS = 10.0
SMOKE_SECONDS = 1.0


def _git_describe() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(name, seed, scale, seconds, trace):
    """One workload, one mode: the result record for ``--out`` and stdout."""
    from harness import MIN_CYCLES, SETUP_REPEATS, TRACE_SKIP, Phase, Session, Stats
    from metrics import end_to_end, per_cycle, per_layer
    from workloads import make_workload

    started = time.perf_counter()
    workload = make_workload(name, seed, scale)
    session = Session(workload, WORKDIR)
    setups = []
    phase = Phase()
    try:
        if trace:
            session.set_up()
            setups.append(session.setup_seconds)
            stats = Stats(workload.workers)
            untraced = Phase()
            cycles = 0
            while phase.busy + untraced.busy < seconds or cycles < MIN_CYCLES:
                if cycles % TRACE_SKIP == 0:
                    session.run_cycle(untraced)
                else:
                    session.run_cycle(phase, stats)
                cycles += 1
            values = per_layer(session, stats, phase, untraced, session.guard_overhead())
            stats.spans.write(os.path.join(WORKDIR, f"trace-{name}.jsonl"))
        else:
            for repeat in range(1, SETUP_REPEATS + 1):
                # Each deployment serves its share of the measured cycles, so
                # a run samples the machine over its whole length and no
                # deployment is built only to be timed.
                session.close()
                session.set_up()
                setups.append(session.setup_seconds)
                share = seconds * repeat / SETUP_REPEATS
                while phase.busy < share or len(phase.cycles) < repeat:
                    session.run_cycle(phase)
    finally:
        session.close()
    if not trace:
        values = end_to_end(session, phase, setups)
    return {
        "workload": name,
        "trace": int(trace),
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": session.failed_operations,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in values.items()},
        "failures": session.failures[:5],
        "provenance": {
            "seed": seed,
            "scale": scale.label,
            "seconds": seconds,
            "workers": workload.workers,
            "operations": len(phase.latencies),
            "requests": phase.requests,
            "percentile_samples": workload.cycle,
            "cycles": per_cycle(phase),
            "write_cycles": session.write_index,
            "setup_seconds": setups,
            "golden_checked": bool(session.golden),
            "cpu_count": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_describe": _git_describe(),
            "wall_seconds": time.perf_counter() - started,
        },
    }


def update_golden(name, seed, scale):
    """Pin the in-process answers of ``name`` at ``seed`` (maintenance)."""
    from harness import GOLDEN_PROBES, Session, digest, golden_path
    from workloads import make_workload

    workload = make_workload(name, seed, scale)
    session = Session(workload, WORKDIR, check_golden=False)
    entry = {"pool": digest([request.query for request in workload.pool])}
    try:
        session.set_up()
        if workload.writes:
            while session.write_index < GOLDEN_PROBES:
                session.write_cycle()
            entry["probes"] = session.probe_digests
        else:
            entry["answers"] = [digest(session.expected(r)) for r in workload.pool]
    finally:
        session.close()
    if session.failures:
        raise SystemExit(f"refusing to pin goldens over failures: {session.failures[:3]}")
    path = golden_path(workload)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            pinned = json.load(handle)
    except FileNotFoundError:
        pinned = {}
    pinned[name] = entry
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {name} seed={seed} scale={scale.label} in {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", default=None, metavar="NAME")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="<= 80 papers, ~1 s phases")
    parser.add_argument("--out", default=None, help="append the run records to FILE")
    parser.add_argument("--update-golden", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Measure this checkout's source, never an installed copy of it.
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"no program source at {source}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    from workloads import FULL, SMOKE, WORKLOAD_NAMES

    scale = SMOKE if args.smoke else FULL
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)
    names = args.workload or list(WORKLOAD_NAMES)
    os.makedirs(WORKDIR, exist_ok=True)

    if args.update_golden:
        for name in names:
            update_golden(name, args.seed, scale)
        return 0

    if len(names) > 1:
        # One process per workload, as the driver runs them: peak RSS is a
        # process-lifetime figure and would carry over between workloads.
        child = [sys.executable, os.path.abspath(__file__)]
        child += ["--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        child += ["--smoke"] if args.smoke else []
        child += ["--out", args.out] if args.out else []
        return max(subprocess.run(child + ["--workload", name]).returncode for name in names)

    record = run_workload(names[0], args.seed, scale, seconds, bool(args.trace))
    print(f"# {names[0]} seed={args.seed} scale={scale.label} trace={args.trace}")
    for key, metric in record["metrics"].items():
        print(f"{key:40s} {metric['value']:14.4f} {metric['unit']}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(
        json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}),
        flush=True,
    )
    if args.out:
        try:
            with open(args.out, "r", encoding="utf-8") as handle:
                runs = json.load(handle)["runs"]
        except FileNotFoundError:
            runs = []
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"runs": runs + [record]}, handle, indent=1)
            handle.write("\n")
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
