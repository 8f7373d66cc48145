"""Table/series rendering for the benchmark harness.

Every benchmark prints the same rows/series the paper's figures plot;
these helpers keep the formatting consistent and dependency-free.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from .runner import PrecisionRecallResults
from .scalability import EpsilonPoint, ScalabilityPoint


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain-text aligned table."""
    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}" if abs(value) < 10 else f"{value:.2f}"
    return str(value)


def fig15a_table(results: PrecisionRecallResults) -> str:
    """Figure 15(a): per-query precision and recall per system."""
    systems = results.systems()
    headers = ["dataset", "query"] + [
        f"{name} {metric}" for name in systems for metric in ("P", "R")
    ]
    index = {
        (o.dataset, o.query_id, o.system_name): o for o in results.outcomes
    }
    keys = sorted({(o.dataset, o.query_id) for o in results.outcomes})
    rows: List[List[object]] = []
    for dataset, query_id in keys:
        row: List[object] = [dataset, query_id]
        for name in systems:
            outcome = index.get((dataset, query_id, name))
            if outcome is None:
                row.extend(["-", "-"])
            else:
                row.extend([outcome.precision, outcome.recall])
        rows.append(row)
    return format_table(headers, rows)


def fig15a_summary(results: PrecisionRecallResults) -> str:
    """The Section 6 prose numbers: averages and TAX's low-recall share."""
    lines = []
    for name in results.systems():
        precision, recall, qual = results.averages(name)
        lines.append(
            f"{name:>12}: avg precision={precision:.3f} "
            f"avg recall={recall:.3f} avg quality={qual:.3f}"
        )
    share = results.fraction_tax_recall_below(0.5)
    lines.append(f"TAX recall < 0.5 for {share:.0%} of queries")
    return "\n".join(lines)


def fig15b_series(results: PrecisionRecallResults) -> str:
    """Figure 15(b): quality vs sqrt(TAX recall) per query and system."""
    headers = ["sqrt(TAX recall)", "dataset", "query"] + [
        f"{name} quality" for name in results.systems()
    ]
    index = {
        (o.dataset, o.query_id, o.system_name): o for o in results.outcomes
    }
    # Ties on recall fall back to the (dataset, query) key: sorting the
    # set by recall alone left tied rows in string-hash order.
    keys = sorted(
        {(o.dataset, o.query_id) for o in results.outcomes},
        key=lambda key: (index[(key[0], key[1], "TAX")].recall, key),
    )
    rows: List[List[object]] = []
    for dataset, query_id in keys:
        tax = index[(dataset, query_id, "TAX")]
        row: List[object] = [math.sqrt(tax.recall), dataset, query_id]
        for name in results.systems():
            outcome = index.get((dataset, query_id, name))
            row.append(outcome.quality if outcome else "-")
        rows.append(row)
    return format_table(headers, rows)


def fig15c_series(results: PrecisionRecallResults) -> str:
    """Figure 15(c): recall improvement over TAX, normalised by precision.

    For each query we report (R_toss * P_toss) / max(R_tax, tiny) — how
    many times the recall improved, discounted by any precision loss.
    """
    systems = [name for name in results.systems() if name != "TAX"]
    headers = ["dataset", "query", "TAX recall"] + [
        f"{name} norm. recall gain" for name in systems
    ]
    rows: List[List[object]] = []
    index = {
        (o.dataset, o.query_id, o.system_name): o for o in results.outcomes
    }
    for dataset, query_id in sorted({(o.dataset, o.query_id) for o in results.outcomes}):
        tax = index[(dataset, query_id, "TAX")]
        row: List[object] = [dataset, query_id, tax.recall]
        for name in systems:
            outcome = index.get((dataset, query_id, name))
            if outcome is None:
                row.append("-")
                continue
            if tax.recall == 0.0:
                # TAX found nothing: any recall is an infinite improvement.
                row.append("inf" if outcome.recall > 0 else 0.0)
            else:
                row.append(outcome.recall * outcome.precision / tax.recall)
        rows.append(row)
    return format_table(headers, rows)


def scalability_table(points: Sequence[ScalabilityPoint], title: str) -> str:
    """Figure 16(a)/(b): seconds per (data size, system) point."""
    headers = [
        "papers", "bytes", "system", "ontology", "seconds",
        "rewrite", "xpath", "convert", "results", "ont.accesses",
    ]
    rows = [
        [
            p.papers, p.data_bytes, p.system_name, p.ontology_terms,
            p.seconds, p.rewrite_seconds, p.xpath_seconds,
            p.convert_seconds, p.results, p.ontology_accesses,
        ]
        for p in points
    ]
    return f"{title}\n" + format_table(headers, rows)


def epsilon_table(points: Sequence[EpsilonPoint]) -> str:
    """Figure 16(c): seconds vs epsilon for selection and join."""
    headers = ["epsilon", "operation", "query seconds", "SEO build seconds", "results"]
    rows = [
        [p.epsilon, p.operation, p.seconds, p.build_seconds, p.results]
        for p in points
    ]
    return "Figure 16(c): TOSS time vs epsilon\n" + format_table(headers, rows)
