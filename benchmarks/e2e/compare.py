"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

For every (workload, end-to-end metric) prints both sides' medians with
their run counts, the ratio B / A with its base, and a verdict against
the metric's bound in BENCHMARK.json:

* ``within``      B is not worse than A by more than the bound;
* ``worse``       it is;
* ``unresolved``  a side holds four or more runs whose own spread
  (interquartile range / median) is wider than the bound, so the bound
  cannot be judged from these runs.

Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(path):
    """workload -> metric -> values of the untraced runs in ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    table = defaultdict(lambda: defaultdict(list))
    for run in runs:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            table[run["workload"]][name].append(metric["value"])
    return table


def spread(values):
    if len(values) < 4:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def judge(base, other, better, bound):
    """(median of base, median of other, share by which other is worse, verdict)."""
    a, b = statistics.median(base), statistics.median(other)
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    if worse_by <= bound:
        return a, b, worse_by, "within"
    noisy = [s for s in (spread(base), spread(other)) if s is not None and s > bound]
    return a, b, worse_by, "unresolved" if noisy else "worse"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    base, other = load(argv[0]), load(argv[1])
    worse = 0
    print(f"{'workload':14s} {'metric':20s} {'A':>12s} {'B':>12s} {'B/A':>7s}  verdict")
    for workload in sorted(set(base) & set(other)):
        for metric in metrics:
            name = metric["name"]
            a, b = base[workload].get(name), other[workload].get(name)
            if not a or not b:
                continue
            a_median, b_median, worse_by, verdict = judge(
                a, b, metric["better"], metric["bound"]
            )
            worse += verdict == "worse"
            print(
                f"{workload:14s} {name:20s} {a_median:12.4f} {b_median:12.4f} "
                f"{b_median / a_median:7.3f}  {verdict} "
                f"(base A = {a_median:.4f} {metric['unit']}, n = {len(a)}/{len(b)}, "
                f"worse by {worse_by:+.1%}, bound {metric['bound']:.0%})"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
