"""Benchmark-regression gate over the committed BENCH_online_mutations.json.

The full online-mutation sweep runs on developer machines and its
results are committed as ``BENCH_online_mutations.json``.  CI cannot
re-measure it (a shared runner's timings are noise), but it *can* hold
the committed numbers to the floors the perf work established — so a
change that loses the incremental write path fails the build the moment
its re-measured results are committed (and identity flags are checked
unconditionally): incremental builds and delta refreshes must match
their from-scratch paths and keep their speedups.

Query execution and serving dispatch are measured absolutely, on the
served guarded path, by the end-to-end benchmark (``BENCHMARK.json``:
``broad_select`` and ``sim_join`` are the fig-16 workloads,
``serving.dispatch_ms`` is the transport's price).

Floors are deliberately set *below* the measured numbers (tolerance for
machine-to-machine variance), so only a real regression trips them.

Run::

    python benchmarks/check_regression.py                    # repo-root file
    python benchmarks/check_regression.py --online-mutations FILE
"""

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Floors for BENCH_online_mutations.json (PR 10 acceptance bars at
#: 3000 papers): a single-document write through the incremental
#: SEA/SEO path must beat the from-scratch rebuild >= 10x, and the
#: serving delta refresh must beat the full re-capture path >= 5x.
#: Identity flags (incremental == from-scratch, served == serial) are
#: checked unconditionally.
ONLINE_MUTATIONS_FLOORS = {
    "incremental_speedup_min": 10.0,
    "delta_refresh_speedup": 5.0,
}


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        sys.exit(f"regression check: missing benchmark file {path}")
    except json.JSONDecodeError as exc:
        sys.exit(f"regression check: {path} is not valid JSON: {exc}")


def check_online_mutations(results):
    summary = results.get("summary", {})
    failures = []
    if not summary.get("incremental_identical"):
        failures.append(
            "incremental build no longer matches the from-scratch rebuild"
        )
    if not summary.get("served_identical"):
        failures.append(
            "served answers after delta refresh no longer match serial"
        )
    if not summary.get("incremental_path_taken"):
        failures.append(
            "writes no longer take the incremental build path (speedup vacuous)"
        )
    if not summary.get("delta_path_taken"):
        failures.append("refresh() no longer takes the delta path for writes")
    for key, floor in ONLINE_MUTATIONS_FLOORS.items():
        value = summary.get(key)
        if value is None:
            failures.append(f"summary key {key!r} is missing")
        elif value < floor:
            failures.append(f"{key} = {value} fell below the floor {floor}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--online-mutations",
        default=str(REPO_ROOT / "BENCH_online_mutations.json"),
        help="path to the committed online-mutations results",
    )
    args = parser.parse_args(argv)

    failures = check_online_mutations(_load(args.online_mutations))
    if failures:
        print("benchmark regression check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("benchmark regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
