"""Ablation: the Query Executor vs direct algebra evaluation.

The prototype architecture (Section 6) pushes tag/content constraints into
XPath before running the TAX machinery.  The executor here keeps that
XPath only as text (``explain``; the reference executor runs it): it
prunes documents through the index, fetches the pattern root's rows and
lets the compiled verify program decide.  This ablation measures the
same TOSS selection (a) through the Query Executor and (b) directly with
the in-memory algebra over the whole collection — one document of 800
papers, so the index keeps the whole document and the executor verifies
every paper in it.  The two strategies must always agree on the answers,
which is the asserted invariant here.
"""

import time

from conftest import persist

from repro.data import generate_corpus, render_dblp
from repro.experiments.reporting import format_table
from repro.experiments.workload import build_system
from repro.core.parser import parse_query

def test_ablation_prefilter(benchmark, results_dir):
    corpus = generate_corpus(800, seed=3)
    dblp = render_dblp(corpus, seed=3)
    system = build_system(corpus, [dblp], 3.0)
    # Target the corpus's most prolific author so the query has answers.
    frequency = {}
    for paper in corpus.papers:
        for author_id in paper.author_ids:
            frequency[author_id] = frequency.get(author_id, 0) + 1
    target = corpus.authors[max(frequency, key=frequency.get)].canonical
    parsed = parse_query(
        f'inproceedings(author ~ "{target}", '
        f'booktitle below "database conference")'
    )
    algebra = system.algebra()
    instance = system.instances["dblp"]

    rows = []
    for name, run in (
        (
            "executor (index + fetch + verify)",
            lambda: system.select("dblp", parsed.pattern, parsed.roots).results,
        ),
        (
            "direct algebra (full scan)",
            lambda: algebra.selection(instance, parsed.pattern, parsed.roots),
        ),
    ):
        timings = []
        counts = set()
        for _ in range(3):
            started = time.perf_counter()
            results = run()
            timings.append(time.perf_counter() - started)
            counts.add(len(results))
        rows.append([name, min(timings), sum(timings) / len(timings), counts.pop()])

    table = format_table(
        ["strategy", "min seconds", "mean seconds", "results"], rows
    )
    persist(results_dir, "ablation_prefilter.txt",
            "Ablation: query executor vs full algebra scan\n" + table)

    # Both strategies must agree on the answers.
    executor_results = system.select("dblp", parsed.pattern, parsed.roots).results
    direct_results = algebra.selection(instance, parsed.pattern, parsed.roots)
    assert {t.canonical_key() for t in executor_results} == {
        t.canonical_key() for t in direct_results
    }

    benchmark(lambda: system.select("dblp", parsed.pattern, parsed.roots))
