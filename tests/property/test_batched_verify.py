"""Property: batched columnar verify == the reference executor.

The production pipeline (index pruning + columnar fetch + compiled
conditions + set-oriented verify) must be a pure acceleration of the
paper's rewrite -> XPath -> algebra pipeline.  For fuzzed selections
(selective and broad), projections and joins against a real SEO,
:class:`~repro.core.executor.QueryExecutor` and
:class:`~repro.core.reference.ReferenceExecutor` must agree on

* the result sequence (canonical keys, in order),
* the serialised bytes of every result tree,
* the generated XPath, and
* the number of ontology accesses the verification drove (selections,
  projections, and joins no hash join or cross probe prunes);

and a guard must change none of it — only raise, on exactly the step
that exhausts its budget.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parser import parse_query
from repro.data import generate_corpus, render_dblp
from repro.data.sigmod import render_sigmod_pages
from repro.errors import ResourceExhaustedError
from repro.experiments.workload import (
    build_join_pattern,
    build_scalability_pattern,
    build_system,
)
from repro.guard import ResourceGuard

from tests.oracle import answer, assert_matches_reference

EPSILON_CHOICES = (1.0, 3.0)

# Building a system is costly; share a few across examples.
_SYSTEMS = {}


def _system(seed, epsilon):
    key = (seed, epsilon)
    if key not in _SYSTEMS:
        corpus = generate_corpus(24, seed=seed)
        keys = corpus.paper_keys()
        documents = [
            render_dblp(corpus, seed=seed, paper_keys=[k]) for k in keys
        ]
        pages = render_sigmod_pages(corpus, seed=seed, paper_keys=keys)
        system = build_system(
            corpus, documents, epsilon,
            sigmod_documents=pages, use_cache=False,
        )
        _SYSTEMS[key] = (corpus, system)
    return _SYSTEMS[key]


def _check(system, run, accesses=True):
    """``run(executor, **guard)`` on production (unguarded and guarded)
    against the reference."""
    oracle = run(system.reference_executor())
    plain = run(system.executor)
    assert_matches_reference(plain, oracle, accesses=accesses)
    guard = ResourceGuard(max_steps=10**9, max_results=10**6)
    guarded = run(system.executor, guard=guard)
    assert_matches_reference(guarded, oracle, accesses=accesses)
    assert sum(guard.stage_steps.values()) == guard.steps > 0


@given(
    seed=st.sampled_from([3, 5]),
    epsilon=st.sampled_from(EPSILON_CHOICES),
    narrow=st.sampled_from(
        ["SIGMOD Conference", "database conference", "conference"]
    ),
)
@settings(max_examples=12, deadline=None)
def test_selection_equivalence(seed, epsilon, narrow):
    _corpus, system = _system(seed, epsilon)
    pattern = build_scalability_pattern(narrow_category=narrow)
    _check(
        system,
        lambda executor, **guard: executor.selection(
            "dblp", pattern, sl_labels=[1], **guard
        ),
    )


@given(
    seed=st.sampled_from([3, 5]),
    epsilon=st.sampled_from(EPSILON_CHOICES),
    narrow=st.sampled_from(
        ["SIGMOD Conference", "database conference", "conference"]
    ),
    pl=st.sampled_from([[2], [2, 3], [(1, True)], [3, (4, True)]]),
)
@settings(max_examples=12, deadline=None)
def test_projection_equivalence(seed, epsilon, narrow, pl):
    _corpus, system = _system(seed, epsilon)
    pattern = build_scalability_pattern(narrow_category=narrow)
    _check(
        system,
        lambda executor, **guard: executor.projection(
            "dblp", pattern, pl, **guard
        ),
    )


@given(
    seed=st.sampled_from([3, 5]),
    epsilon=st.sampled_from(EPSILON_CHOICES),
    author_index=st.integers(min_value=0, max_value=9),
)
@settings(max_examples=10, deadline=None)
def test_parsed_query_equivalence(seed, epsilon, author_index):
    corpus, system = _system(seed, epsilon)
    authors = sorted(corpus.authors.values(), key=lambda a: a.entity_id)
    author = authors[author_index % len(authors)]
    parsed = parse_query(
        f'inproceedings(author ~ "{author.canonical}", '
        f'booktitle below "conference")'
    )
    _check(
        system,
        lambda executor, **guard: executor.selection(
            "dblp", parsed.pattern, parsed.roots, **guard
        ),
    )


@given(
    seed=st.sampled_from([3, 5]),
    epsilon=st.sampled_from(EPSILON_CHOICES),
    sl=st.sampled_from([[2, 5], [0], []]),
)
@settings(max_examples=8, deadline=None)
def test_join_equivalence(seed, epsilon, sl):
    # Hash-joined (top-level cross-side ``~``): the production path skips
    # pairs the oracle's full product evaluates, so results only.
    _corpus, system = _system(seed, epsilon)
    pattern = build_join_pattern()
    _check(
        system,
        lambda executor, **guard: executor.join(
            "dblp", "sigmod", pattern, sl_labels=sl, **guard
        ),
        accesses=False,
    )


@given(
    seed=st.sampled_from([3, 5]),
    epsilon=st.sampled_from(EPSILON_CHOICES),
    sl=st.sampled_from([[2, 5], [0]]),
)
@settings(max_examples=6, deadline=None)
def test_join_without_cross_similarity_equivalence(seed, epsilon, sl):
    # No top-level cross-side ``~``: no hash join in front of
    # ``join_pairs_batched``, which gets the full product of the
    # candidates — accesses must match the oracle's too.
    _corpus, system = _system(seed, epsilon)
    pattern = build_join_pattern(tax_fallback=True)
    _check(
        system,
        lambda executor, **guard: executor.join(
            "dblp", "sigmod", pattern, sl_labels=sl, **guard
        ),
    )


@given(
    seed=st.sampled_from([3, 5]),
    budget_fraction=st.sampled_from([0.25, 0.5, 0.9]),
)
@settings(max_examples=8, deadline=None)
def test_guard_trip_equivalence(seed, budget_fraction):
    _corpus, system = _system(seed, 3.0)
    pattern = build_scalability_pattern()
    run = lambda guard: system.executor.selection(
        "dblp", pattern, sl_labels=[1], guard=guard
    )
    # Measure the full guarded cost once, then trip part-way through it.
    full = ResourceGuard(max_steps=10**9)
    expected = answer(run(full))
    budget = max(1, int(full.steps * budget_fraction))
    guard = ResourceGuard(max_steps=budget)
    with pytest.raises(ResourceExhaustedError) as info:
        run(guard)
    # The charges are a prefix of the full run's: earlier stages in
    # full, the stage the budget ran out in (named by the error) in
    # part, later stages not at all.
    assert guard.steps > budget
    stage = str(info.value).split(" exceeded its evaluation budget")[0]
    assert str(info.value) == (
        f"{stage} exceeded its evaluation budget of {budget} steps"
    )
    stages = list(full.stage_steps)
    reached = stages[: stages.index(stage) + 1]
    assert list(guard.stage_steps) == reached
    for name in reached[:-1]:
        assert guard.stage_steps[name] == full.stage_steps[name]
    assert guard.stage_steps[stage] <= full.stage_steps[stage]
    # Exactly enough is enough.
    assert answer(run(ResourceGuard(max_steps=full.steps))) == expected
