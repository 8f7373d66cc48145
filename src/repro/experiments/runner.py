"""Runs the recall/precision workload — the engine behind Figure 15.

For each of ``n_datasets`` seeded 100-paper DBLP samples, the runner
builds one TOSS system per epsilon, runs every workload query through
TOSS and through the plain-TAX executor (exact match + ``contains``
degradation), extracts the returned paper keys from the witness trees and
scores them against the corpus oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..core.quality import QualityReport
from ..data.dblp import render_dblp
from ..data.ground_truth import generate_corpus
from ..xmldb.model import XmlNode
from .workload import build_selection_workload, build_system


def returned_paper_keys(results: Iterable[XmlNode]) -> FrozenSet[str]:
    """Extract ``key`` attributes from result (witness) trees."""
    keys: Set[str] = set()
    for tree in results:
        key = tree.attributes.get("key")
        if key is not None:
            keys.add(key)
            continue
        for node in tree.iter():
            found = node.attributes.get("key")
            if found is not None:
                keys.add(found)
                break
    return frozenset(keys)


@dataclass
class QueryOutcome:
    """One (dataset, query, system) evaluation."""

    dataset: int
    query_id: str
    system_name: str
    report: QualityReport
    seconds: float

    @property
    def precision(self) -> float:
        return self.report.precision

    @property
    def recall(self) -> float:
        return self.report.recall

    @property
    def quality(self) -> float:
        return self.report.quality


@dataclass
class PrecisionRecallResults:
    """All outcomes of the Figure 15 experiment, with aggregate views."""

    outcomes: List[QueryOutcome] = field(default_factory=list)

    def systems(self) -> List[str]:
        seen: List[str] = []
        for outcome in self.outcomes:
            if outcome.system_name not in seen:
                seen.append(outcome.system_name)
        return seen

    def for_system(self, system_name: str) -> List[QueryOutcome]:
        return [o for o in self.outcomes if o.system_name == system_name]

    def averages(self, system_name: str) -> Tuple[float, float, float]:
        """(mean precision, mean recall, mean quality) for one system."""
        rows = self.for_system(system_name)
        if not rows:
            return (0.0, 0.0, 0.0)
        n = len(rows)
        return (
            sum(r.precision for r in rows) / n,
            sum(r.recall for r in rows) / n,
            sum(r.quality for r in rows) / n,
        )

    def paired(self, system_name: str) -> List[Tuple[QueryOutcome, QueryOutcome]]:
        """(TAX outcome, system outcome) pairs per (dataset, query)."""
        tax_index = {
            (o.dataset, o.query_id): o for o in self.for_system("TAX")
        }
        pairs = []
        for outcome in self.for_system(system_name):
            tax = tax_index.get((outcome.dataset, outcome.query_id))
            if tax is not None:
                pairs.append((tax, outcome))
        return pairs

    def fraction_tax_recall_below(self, threshold: float) -> float:
        """Fraction of TAX outcomes with recall below ``threshold``."""
        rows = self.for_system("TAX")
        if not rows:
            return 0.0
        return sum(1 for r in rows if r.recall < threshold) / len(rows)


def run_precision_recall_experiment(
    n_datasets: int = 3,
    papers_per_dataset: int = 100,
    n_queries: int = 12,
    epsilons: Sequence[float] = (2.0, 3.0),
    measure: str = "levenshtein",
    seed: int = 0,
) -> PrecisionRecallResults:
    """The full Figure 15 protocol.

    Returns one :class:`QueryOutcome` per (dataset, query) for TAX and for
    each TOSS(epsilon).  Note the paper evaluates 12 queries total across
    3 datasets; we evaluate the full workload on each dataset, which only
    tightens the averages.
    """
    results = PrecisionRecallResults()
    for dataset in range(n_datasets):
        corpus = generate_corpus(papers_per_dataset, seed=seed + dataset * 101)
        dblp = render_dblp(corpus, seed=seed + dataset * 101)
        queries = build_selection_workload(corpus, n_queries, seed=seed + dataset)

        systems = {}
        for epsilon in epsilons:
            systems[f"TOSS(e={epsilon:g})"] = build_system(
                corpus, [dblp], epsilon, measure=measure
            )
        # TAX runs on any of the systems' databases with a context-free
        # executor; reuse the first.
        any_system = next(iter(systems.values()))
        tax_executor = any_system.tax_executor()

        for query in queries:
            started = time.perf_counter()
            tax_report = tax_executor.selection("dblp", query.tax_pattern, query.sl_labels)
            tax_seconds = time.perf_counter() - started
            results.outcomes.append(
                QueryOutcome(
                    dataset,
                    query.query_id,
                    "TAX",
                    QualityReport.evaluate(
                        returned_paper_keys(tax_report.results), query.relevant
                    ),
                    tax_seconds,
                )
            )
            for name, system in systems.items():
                started = time.perf_counter()
                report = system.select("dblp", query.toss_pattern, query.sl_labels)
                seconds = time.perf_counter() - started
                results.outcomes.append(
                    QueryOutcome(
                        dataset,
                        query.query_id,
                        name,
                        QualityReport.evaluate(
                            returned_paper_keys(report.results), query.relevant
                        ),
                        seconds,
                    )
                )
    return results
