"""Ablation: the production join vs the paper's product-then-select.

The TAX join is a cross product followed by selection — O(|L| * |R|)
product trees even when the similarity predicate is highly selective;
that is what the reference executor runs.  The production executor
prunes documents through the cross-side index probe, then candidate
pairs through the similarity hash join, and materialises a product only
for pairs that produced a witness.  This ablation measures both on the
Figure 16(b) workload and asserts they agree exactly.
"""

import time

from conftest import persist

from repro.data import generate_corpus, render_dblp, render_sigmod_pages
from repro.experiments.reporting import format_table
from repro.experiments.workload import build_join_pattern, build_system


def test_ablation_hash_join(benchmark, results_dir):
    rows = []
    speedups = []
    for papers in (200, 400):
        corpus = generate_corpus(papers, seed=0)
        keys = corpus.paper_keys()
        dblp = render_dblp(corpus, seed=0, paper_keys=keys)
        pages = render_sigmod_pages(corpus, seed=0, paper_keys=keys)
        system = build_system(corpus, [dblp], 3.0, sigmod_documents=pages)
        pattern = build_join_pattern()

        started = time.perf_counter()
        hashed = system.join("dblp", "sigmod", pattern, sl_labels=[2, 5])
        hash_seconds = time.perf_counter() - started

        reference = system.reference_executor()
        started = time.perf_counter()
        naive = reference.join("dblp", "sigmod", pattern, sl_labels=[2, 5])
        naive_seconds = time.perf_counter() - started

        assert [t.canonical_key() for t in hashed.results] == [
            t.canonical_key() for t in naive.results
        ]
        speedup = naive_seconds / max(hash_seconds, 1e-9)
        speedups.append(speedup)
        rows.append(
            [papers, len(hashed.results), hash_seconds, naive_seconds, speedup]
        )

    table = format_table(
        ["papers", "results", "system.join s", "reference join s", "speedup"], rows
    )
    persist(results_dir, "ablation_hash_join.txt",
            "Ablation: production join vs the reference product-then-select\n" + table)

    # The product join is quadratic, the hash join near-linear: a large
    # speedup at every size.  (The exact growth of the ratio is too noisy
    # under a loaded machine to assert on.)
    assert all(s > 3.0 for s in speedups), f"hash join lost its edge: {speedups}"

    corpus = generate_corpus(200, seed=0)
    keys = corpus.paper_keys()
    dblp = render_dblp(corpus, seed=0, paper_keys=keys)
    pages = render_sigmod_pages(corpus, seed=0, paper_keys=keys)
    system = build_system(corpus, [dblp], 3.0, sigmod_documents=pages)
    pattern = build_join_pattern()
    benchmark(lambda: system.join("dblp", "sigmod", pattern, sl_labels=[2, 5]))
