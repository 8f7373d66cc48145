"""Integration tests for the precision/recall experiment runner."""

import pytest

from repro.experiments import run_precision_recall_experiment
from repro.experiments.reporting import (
    epsilon_table,
    fig15a_summary,
    fig15a_table,
    fig15b_series,
    fig15c_series,
    format_table,
    scalability_table,
)
from repro.core.quality import QualityReport
from repro.experiments.runner import (
    PrecisionRecallResults,
    QueryOutcome,
    returned_paper_keys,
)
from repro.xmldb.parser import parse_document


@pytest.fixture(scope="module")
def results():
    return run_precision_recall_experiment(
        n_datasets=1, papers_per_dataset=60, n_queries=6, epsilons=(2.0, 3.0), seed=4
    )


class TestReturnedKeys:
    def test_key_on_root(self):
        tree = parse_document('<inproceedings key="p1"><title>x</title></inproceedings>')
        assert returned_paper_keys([tree]) == frozenset({"p1"})

    def test_key_on_descendant(self):
        tree = parse_document('<wrap><article key="p2"/></wrap>')
        assert returned_paper_keys([tree]) == frozenset({"p2"})

    def test_no_key(self):
        tree = parse_document("<nothing/>")
        assert returned_paper_keys([tree]) == frozenset()


class TestRunner:
    def test_outcomes_per_system(self, results):
        systems = results.systems()
        assert systems == ["TAX", "TOSS(e=2)", "TOSS(e=3)"]
        per_system = {name: len(results.for_system(name)) for name in systems}
        assert len(set(per_system.values())) == 1  # same count each

    def test_tax_precision_always_one(self, results):
        assert all(o.precision == 1.0 for o in results.for_system("TAX"))

    def test_toss_recall_dominates_tax(self, results):
        _, tax_recall, _ = results.averages("TAX")
        _, toss_recall, _ = results.averages("TOSS(e=3)")
        assert toss_recall > tax_recall

    def test_recall_monotone_in_epsilon_per_query(self, results):
        for tax, toss3 in results.paired("TOSS(e=3)"):
            pass  # pairing exercised below
        index2 = {
            (o.dataset, o.query_id): o for o in results.for_system("TOSS(e=2)")
        }
        for outcome in results.for_system("TOSS(e=3)"):
            other = index2[(outcome.dataset, outcome.query_id)]
            assert outcome.recall >= other.recall - 1e-9

    def test_paired_aligns_datasets_and_queries(self, results):
        pairs = results.paired("TOSS(e=3)")
        assert pairs
        for tax, toss in pairs:
            assert tax.system_name == "TAX"
            assert (tax.dataset, tax.query_id) == (toss.dataset, toss.query_id)

    def test_fraction_tax_recall_below(self, results):
        fraction = results.fraction_tax_recall_below(0.5)
        assert 0.0 <= fraction <= 1.0

    def test_outcome_metrics_consistent(self, results):
        for outcome in results.outcomes:
            assert outcome.quality == pytest.approx(
                (outcome.precision * outcome.recall) ** 0.5
            )
            assert outcome.seconds >= 0


class TestReporting:
    def test_format_table_aligns(self):
        table = format_table(["a", "bb"], [[1, 2.5], ["xx", "y"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[:2])

    def test_fig15a_table_lists_all_queries(self, results):
        table = fig15a_table(results)
        assert "TAX P" in table
        assert table.count("Q0") >= 6

    def test_fig15a_summary_mentions_threshold(self, results):
        summary = fig15a_summary(results)
        assert "TAX recall < 0.5" in summary

    def test_fig15b_series_sorted_by_tax_recall(self, results):
        series = fig15b_series(results)
        assert "sqrt(TAX recall)" in series

    def test_fig15b_ties_come_out_in_key_order(self):
        # Twelve (dataset, query) keys tie on TAX recall 0 and two on 1.
        keys = [(dataset, f"Q{q:02d}") for dataset in (2, 0, 1) for q in (4, 1, 3, 2)]
        recalls = {key: 0.0 for key in keys}
        recalls[(0, "Q03")] = recalls[(2, "Q01")] = 1.0
        outcomes = [
            QueryOutcome(
                dataset, query_id, system, QualityReport(1.0, recall, 1, 1, 1), 0.0
            )
            for (dataset, query_id), recall in recalls.items()
            for system in ("TAX", "TOSS(e=3)")
        ]
        rows = fig15b_series(PrecisionRecallResults(outcomes)).splitlines()[2:]
        order = [(int(row.split()[1]), row.split()[2]) for row in rows]
        tied = sorted(key for key in keys if recalls[key] == 0.0)
        assert order == tied + [(0, "Q03"), (2, "Q01")]

    def test_fig15c_series(self, results):
        series = fig15c_series(results)
        assert "norm. recall gain" in series
