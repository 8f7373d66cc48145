"""Integration tests for the scalability sweeps (small configurations)."""

import gc

import pytest

from repro.experiments.reporting import epsilon_table, scalability_table
from repro.experiments.scalability import (
    _timed_runs,
    epsilon_sweep,
    join_scalability,
    selection_scalability,
)


@pytest.fixture(scope="module")
def selection_points():
    return selection_scalability(
        paper_counts=(50, 100), ontology_caps=(10, None), repeats=1, seed=2
    )


@pytest.fixture(scope="module")
def join_points():
    return join_scalability(
        paper_counts=(40, 80), ontology_caps=(None,), repeats=1, seed=2
    )


class TestSelectionScalability:
    def test_point_grid(self, selection_points):
        papers = {p.papers for p in selection_points}
        assert papers == {50, 100}
        tax_points = [p for p in selection_points if p.system_name == "TAX"]
        assert len(tax_points) == 2

    def test_bytes_grow_with_papers(self, selection_points):
        by_papers = {}
        for point in selection_points:
            by_papers[point.papers] = point.data_bytes
        assert by_papers[100] > by_papers[50]

    def test_phases_sum_to_total(self, selection_points):
        for point in selection_points:
            assert point.seconds == pytest.approx(
                point.rewrite_seconds + point.xpath_seconds + point.convert_seconds
            )

    def test_toss_returns_more_than_tax(self, selection_points):
        toss_results = max(
            p.results for p in selection_points if p.system_name.startswith("TOSS")
        )
        tax_results = max(
            p.results for p in selection_points if p.system_name == "TAX"
        )
        assert toss_results > tax_results

    def test_table_renders(self, selection_points):
        table = scalability_table(selection_points, "test")
        assert "papers" in table and "TAX" in table


class TestJoinScalability:
    def test_points_and_results(self, join_points):
        assert {p.papers for p in join_points} == {40, 80}
        toss = [p for p in join_points if p.system_name.startswith("TOSS")]
        assert all(p.results >= 0 for p in toss)

    def test_join_time_grows(self, join_points):
        toss = sorted(
            (p for p in join_points if p.system_name.startswith("TOSS")),
            key=lambda p: p.papers,
        )
        assert toss[-1].seconds >= toss[0].seconds * 0.5  # noise-tolerant


class TestTimedRuns:
    def test_every_run_starts_after_a_full_collection(self):
        # A full collection that falls due inside a ~15 ms query can
        # outlast it, which once made the 40-paper join time read longer
        # than twice the 80-paper one.
        events = []

        def on_gc(phase, info):
            if phase == "stop" and info["generation"] == 2:
                events.append("collected")

        gc.callbacks.append(on_gc)
        try:
            reports = _timed_runs(lambda: events.append("run") or len(events), 3)
        finally:
            gc.callbacks.remove(on_gc)
        assert len(reports) == 3
        runs = [i for i, event in enumerate(events) if event == "run"]
        assert len(runs) == 3
        assert all(i > 0 and events[i - 1] == "collected" for i in runs)


class TestEpsilonSweep:
    def test_results_monotone_in_epsilon(self):
        points = epsilon_sweep(
            epsilons=(0.0, 2.0, 4.0), papers=60, join_papers=40, repeats=1, seed=2
        )
        for operation in ("selection", "join"):
            series = sorted(
                (p for p in points if p.operation == operation),
                key=lambda p: p.epsilon,
            )
            counts = [p.results for p in series]
            assert counts == sorted(counts)

    def test_table_renders(self):
        points = epsilon_sweep(
            epsilons=(0.0,), papers=30, join_papers=20, repeats=1, seed=2
        )
        assert "epsilon" in epsilon_table(points)
