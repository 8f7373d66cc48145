"""Data-size / ontology-size / epsilon sweeps — the engine behind Figure 16.

Each sweep renders progressively larger slices of a seeded corpus,
precomputes the SEO (not timed in the query path, as the paper
precomputes it), and times the executor's three phases for the fixed
workload query.  Sizes are reported in serialized bytes so the series
read like the paper's x-axes.
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.executor import ExecutionReport
from ..core.reference import ReferenceExecutor
from ..core.system import TossSystem
from ..data.dblp import render_dblp
from ..data.ground_truth import generate_corpus
from ..data.sigmod import render_sigmod_pages
from ..xmldb.serializer import document_bytes
from .workload import (
    build_epsilon_selection_pattern,
    build_join_pattern,
    build_scalability_pattern,
    build_system,
)


@dataclass
class ScalabilityPoint:
    """One (data size, ontology size) timing measurement."""

    papers: int
    data_bytes: int
    ontology_terms: int
    system_name: str
    seconds: float
    rewrite_seconds: float
    xpath_seconds: float
    convert_seconds: float
    results: int
    ontology_accesses: int = 0


#: Independently built systems each Figure 16(c) point is timed on
#: (:func:`epsilon_sweep`).
BUILDS_PER_POINT = 5


@dataclass
class EpsilonPoint:
    """One epsilon timing measurement (Figure 16(c)); ``seconds`` and
    ``build_seconds`` are medians over the sweep's runs and builds."""

    epsilon: float
    operation: str
    seconds: float
    build_seconds: float
    results: int


def _timed_runs(
    run: Callable[[], ExecutionReport], repeats: int
) -> List[ExecutionReport]:
    """``repeats`` reports of ``run()``, each started on a collected heap.

    Building a system promotes most of what it allocates, so the cyclic
    collector's full pass falls due soon after; collecting first keeps
    that pause out of the timed query, which at the small sizes is often
    shorter than the pause itself.
    """
    reports = []
    for _ in range(repeats):
        gc.collect()
        reports.append(run())
    return reports


def _run_reports(
    reports: Sequence[ExecutionReport],
) -> Tuple[float, float, float, float, int]:
    # Aggregate over the canonical serialized form so a timing field added
    # to ExecutionReport without a to_dict entry fails here, not silently.
    payloads = [r.to_dict() for r in reports]
    total = sum(p["total_seconds"] for p in payloads) / len(payloads)
    # Index planning belongs to the paper's "rewrite" phase: both happen
    # before the store is touched, so the three reported components still
    # sum to the total.
    rewrite = (
        sum(p["rewrite_seconds"] + p["planner_seconds"] for p in payloads)
        / len(payloads)
    )
    xpath = sum(p["xpath_seconds"] for p in payloads) / len(payloads)
    convert = sum(p["convert_seconds"] for p in payloads) / len(payloads)
    accesses = payloads[0]["ontology_accesses"]
    return total, rewrite, xpath, convert, accesses


def selection_scalability(
    paper_counts: Sequence[int] = (250, 500, 1000, 2000),
    ontology_caps: Sequence[Optional[int]] = (50, 200, None),
    epsilon: float = 3.0,
    repeats: int = 3,
    seed: int = 0,
) -> List[ScalabilityPoint]:
    """Figure 16(a): TOSS selection time vs data size and ontology size.

    ``ontology_caps`` are Ontology-Maker content-term caps producing the
    family of ontology-size curves (None = uncapped); a TAX baseline is
    measured per data size.
    """
    corpus = generate_corpus(max(paper_counts), seed=seed)
    all_keys = corpus.paper_keys()
    points: List[ScalabilityPoint] = []

    toss_pattern = build_scalability_pattern()
    tax_pattern = build_scalability_pattern(tax_fallback=True)

    for count in paper_counts:
        subset = all_keys[:count]
        dblp = render_dblp(corpus, seed=seed, paper_keys=subset)
        size = document_bytes(dblp)
        for cap in ontology_caps:
            system = build_system(
                corpus, [dblp], epsilon, max_content_terms=cap
            )
            reports = _timed_runs(
                lambda: system.select("dblp", toss_pattern, sl_labels=[1]),
                repeats,
            )
            total, rewrite, xpath, convert, accesses = _run_reports(reports)
            points.append(
                ScalabilityPoint(
                    count, size, system.ontology_size(),
                    f"TOSS(ont={system.ontology_size()})",
                    total, rewrite, xpath, convert, len(reports[0].results),
                    accesses,
                )
            )
        tax_executor = system.tax_executor()
        reports = _timed_runs(
            lambda: tax_executor.selection("dblp", tax_pattern, sl_labels=[1]),
            repeats,
        )
        total, rewrite, xpath, convert, accesses = _run_reports(reports)
        points.append(
            ScalabilityPoint(
                count, size, 0, "TAX",
                total, rewrite, xpath, convert, len(reports[0].results),
                accesses,
            )
        )
    return points


def join_scalability(
    paper_counts: Sequence[int] = (100, 200, 400, 800),
    ontology_caps: Sequence[Optional[int]] = (50, None),
    epsilon: float = 3.0,
    repeats: int = 2,
    seed: int = 0,
) -> List[ScalabilityPoint]:
    """Figure 16(b): join time vs total (DBLP + SIGMOD) data size."""
    corpus = generate_corpus(max(paper_counts), seed=seed)
    all_keys = corpus.paper_keys()
    points: List[ScalabilityPoint] = []

    toss_pattern = build_join_pattern()
    tax_pattern = build_join_pattern(tax_fallback=True)

    for count in paper_counts:
        subset = all_keys[:count]
        dblp = render_dblp(corpus, seed=seed, paper_keys=subset)
        pages = render_sigmod_pages(corpus, seed=seed, paper_keys=subset)
        size = document_bytes(dblp) + sum(document_bytes(p) for p in pages)
        for cap in ontology_caps:
            system = build_system(
                corpus, [dblp], epsilon,
                sigmod_documents=pages, max_content_terms=cap,
            )
            # Figure 16(b) reproduces the *paper's* execution strategy —
            # product + selection, as the Xindice prototype ran it — so
            # both curves run on the reference executor.  The production
            # join is measured against it in
            # benchmarks/bench_ablation_hash_join.py.
            reference = system.reference_executor()
            reports = _timed_runs(
                lambda: reference.join(
                    "dblp", "sigmod", toss_pattern, sl_labels=[2, 5]
                ),
                repeats,
            )
            total, rewrite, xpath, convert, accesses = _run_reports(reports)
            points.append(
                ScalabilityPoint(
                    count, size, system.ontology_size(),
                    f"TOSS(ont={system.ontology_size()})",
                    total, rewrite, xpath, convert, len(reports[0].results),
                    accesses,
                )
            )
        tax_reference = ReferenceExecutor(system.database, None)
        reports = _timed_runs(
            lambda: tax_reference.join(
                "dblp", "sigmod", tax_pattern, sl_labels=[2, 5]
            ),
            repeats,
        )
        total, rewrite, xpath, convert, accesses = _run_reports(reports)
        points.append(
            ScalabilityPoint(
                count, size, 0, "TAX",
                total, rewrite, xpath, convert, len(reports[0].results),
                accesses,
            )
        )
    return points


def epsilon_sweep(
    epsilons: Sequence[float] = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
    papers: int = 500,
    join_papers: int = 200,
    repeats: int = 2,
    seed: int = 0,
) -> List[EpsilonPoint]:
    """Figure 16(c): TOSS selection and join time against epsilon.

    Each (epsilon, operation) point is timed on :data:`BUILDS_PER_POINT`
    independently built systems.  Each time, every epsilon's two systems
    are built first, then each of ``repeats`` rounds runs every query
    once; a point's seconds is the median of all its runs.  Interleaving
    spreads a stretch of host load over all epsilons alike instead of
    one; the median leaves out each system's first run, which pays cold
    costs that do not depend on epsilon (plan compile, index and columns
    built on first use); and pooling several builds evens out how fast
    one built system happens to run (identically built systems differ by
    up to 30 % in one process).
    """
    corpus = generate_corpus(papers, seed=seed)
    dblp = render_dblp(corpus, seed=seed)
    join_keys = corpus.paper_keys()[:join_papers]
    join_dblp = render_dblp(corpus, seed=seed + 1, paper_keys=join_keys)
    pages = render_sigmod_pages(corpus, seed=seed, paper_keys=join_keys)

    # An author-similarity selection: its SEO expansion (and thus its
    # answer set and output size) grows with epsilon, which is exactly
    # the mechanism the paper credits for Figure 16(c)'s slope.
    selection_pattern = build_epsilon_selection_pattern(corpus)
    join_pattern = build_join_pattern()

    def built() -> List[Tuple[TossSystem, Callable[[], ExecutionReport]]]:
        """Every point's (system, query), in output order."""
        queries = []
        for epsilon in epsilons:
            system = build_system(corpus, [dblp], epsilon)
            queries.append((
                system,
                lambda s=system: s.select("dblp", selection_pattern, sl_labels=[1]),
            ))
            join_system = build_system(
                corpus, [join_dblp], epsilon, sigmod_documents=pages
            )
            queries.append((
                join_system,
                lambda s=join_system: s.join(
                    "dblp", "sigmod", join_pattern, sl_labels=[2, 5]
                ),
            ))
        return queries

    keys = [(epsilon, operation) for epsilon in epsilons for operation in ("selection", "join")]
    reports: List[List[ExecutionReport]] = [[] for _ in keys]
    build_seconds: List[List[float]] = [[] for _ in keys]
    for _ in range(BUILDS_PER_POINT):
        queries = built()
        for seconds, (system, _run) in zip(build_seconds, queries):
            seconds.append(system.build_seconds)
        for _ in range(repeats):
            for runs, (_system, run) in zip(reports, queries):
                runs.extend(_timed_runs(run, 1))
    points: List[EpsilonPoint] = [
        EpsilonPoint(
            epsilon, operation,
            statistics.median(r.total_seconds for r in runs),
            statistics.median(seconds), len(runs[0].results),
        )
        for (epsilon, operation), runs, seconds in zip(keys, reports, build_seconds)
    ]
    return points
