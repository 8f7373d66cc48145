"""The candidate-generation layer: filters prune, never drop, pairs."""

import random

import pytest

from repro.errors import ResourceExhaustedError
from repro.guard import ResourceGuard
from repro.similarity.candidates import (
    bigram_occurrences,
    block_edges,
    pair_count,
    supports_filter,
)
from repro.similarity.measures import (
    DamerauLevenshtein,
    Jaccard,
    Levenshtein,
    NormalizedLevenshtein,
)


def brute_force(reps, measure, epsilon):
    edges = set()
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if reps[i] == reps[j] or measure.distance(reps[i], reps[j]) <= epsilon:
                edges.add((i, j))
    return edges


def full_run(reps, measure, epsilon, use_filter=True):
    return block_edges(reps, measure, epsilon, use_filter=use_filter)


class TestSupportsFilter:
    def test_only_plain_levenshtein(self):
        assert supports_filter(Levenshtein())
        assert not supports_filter(DamerauLevenshtein())
        assert not supports_filter(NormalizedLevenshtein())
        assert not supports_filter(Jaccard())


class TestBigramOccurrences:
    def test_counts_repeated_grams_separately(self):
        assert bigram_occurrences("aaa") == (("aa", 1), ("aa", 2))

    def test_short_strings_use_pseudo_gram(self):
        assert bigram_occurrences("") == (("", 1),)
        assert bigram_occurrences("x") == (("x", 1),)

    def test_profile_size_is_length_minus_one(self):
        for text in ("ab", "abcd", "aabbaa"):
            assert len(bigram_occurrences(text)) == len(text) - 1


class TestBlockEdges:
    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 1.5, 2.0, 3.0])
    def test_filter_matches_brute_force(self, epsilon):
        rng = random.Random(int(epsilon * 10))
        reps = [
            "".join(rng.choice("abcdef") for _ in range(rng.randint(0, 10)))
            for _ in range(80)
        ]
        measure = Levenshtein()
        truth = brute_force(reps, measure, epsilon)
        filtered, fstats = full_run(reps, measure, epsilon, use_filter=True)
        allpairs, astats = full_run(reps, measure, epsilon, use_filter=False)
        assert set(filtered) == truth
        assert set(allpairs) == truth
        assert fstats.edges == astats.edges == len(truth)
        # The filter must verify no more candidates than all-pairs does.
        assert fstats.candidates <= astats.candidates

    def test_duplicate_reps_always_connect(self):
        edges, _ = full_run(["same", "same", "other"], Levenshtein(), 0.0)
        assert (0, 1) in edges

    def test_empty_and_tiny_inputs(self):
        measure = Levenshtein()
        assert full_run([], measure, 1.0)[0] == []
        assert full_run(["solo"], measure, 1.0)[0] == []
        edges, _ = full_run(["a", "b"], measure, 1.0)
        assert edges == [(0, 1)]

    def test_fractional_epsilon(self):
        # epsilon 0.5 admits only exact matches for unit-cost edit distance.
        edges, _ = full_run(["cat", "bat", "cat"], Levenshtein(), 0.5)
        assert set(edges) == {(0, 2)}

    def test_guard_ticks_per_probe_and_candidate(self):
        reps = [f"term{i:02d}" for i in range(30)]
        guard = ResourceGuard(max_steps=5)
        guard.start()
        with pytest.raises(ResourceExhaustedError):
            full_run_with_guard(reps, guard)


def full_run_with_guard(reps, guard):
    return block_edges(reps, Levenshtein(), 2.0, guard=guard)


def test_pair_count():
    assert pair_count([]) == 0
    assert pair_count([1]) == 0
    assert pair_count([2, 3]) == 1 + 3
    assert pair_count([100]) == 4950
