"""Guard accounting of the batched route: chunked == one candidate at a time.

The batched verifier must be invisible to the resource guard: one tick
per candidate document (and per probed join pair), the same ``what``
labels, the same ``stage_steps == steps`` partition, and — when a step
budget trips mid-verify — the same exception with the same message at
the same step count as a loop that ticks, verifies and checks the
result cap one candidate at a time.  That loop is spelled out here
(:func:`_reference`); the production route is held to it stage by
stage and end to end.
"""

import pytest

from repro.core.conditions import SimilarTo
from repro.data import generate_corpus, render_dblp
from repro.data.sigmod import render_sigmod_pages
from repro.errors import QueryTimeoutError, ResourceExhaustedError
from repro.experiments.workload import (
    build_join_pattern,
    build_scalability_pattern,
    build_system,
)
from repro.guard import CHECK_INTERVAL, ResourceGuard
from repro.tax import batch as tax_batch
from repro.tax.conditions import And, Comparison, Or
from repro.tax.tree import dedupe

SEED = 11
EPSILON = 3.0


def _sharded(corpus, keys):
    return [render_dblp(corpus, seed=SEED, paper_keys=[key]) for key in keys]


def _full_product_join_pattern():
    """Figure 16(b)'s join with its ``~`` inside an ``or``: the same
    answers, but no *top-level* cross-side ``~`` — so neither the hash
    join nor the cross probe thins the product, and verification sees
    every candidate pair."""
    pattern = build_join_pattern()
    *tags, similar = pattern.condition.operands
    assert isinstance(similar, SimilarTo)
    pattern.condition = And(
        *tags, Or(similar, Comparison("=", similar.left, similar.right))
    )
    return pattern


@pytest.fixture(scope="module")
def system():
    corpus = generate_corpus(30, seed=SEED)
    keys = corpus.paper_keys()
    documents = _sharded(corpus, keys)
    pages = render_sigmod_pages(corpus, seed=SEED, paper_keys=keys)
    return build_system(
        corpus, documents, EPSILON, sigmod_documents=pages
    )


def _selection(system, guard):
    pattern = build_scalability_pattern()
    return system.executor.selection(
        "dblp", pattern, sl_labels=[1], guard=guard
    )


def _join(system, guard, pattern=None):
    pattern = pattern if pattern is not None else build_join_pattern()
    return system.executor.join(
        "dblp", "sigmod", pattern, sl_labels=[2, 5], guard=guard
    )


def _reference(run, candidates, guard):
    """PR 8's per-candidate loop around a batched operator ``run``."""
    results = []
    for candidate in candidates:
        guard.tick(what="result verification")
        results.extend(run([candidate], None))
        guard.check_results(len(results), "query verification")
    return dedupe(results)


def _selection_by_candidate(system, guard):
    """:func:`_selection` with its verify stage run through :func:`_reference`."""
    executor = system.executor
    pattern = build_scalability_pattern()
    guard.start()
    plan, _ = executor._plan(pattern, join=False)
    (doc_keys,), *_ = executor._prune(["dblp"], plan, guard)
    entries = system.database.get_collection("dblp").fetch(
        plan.fetchers[0], guard, doc_keys
    )

    def run(candidates, inner_guard):
        return tax_batch.selection_batched(candidates, plan.program, [1], inner_guard)

    return _reference(run, entries, guard)


def _join_by_pair(system, guard, pattern):
    """:func:`_join` (no hash join) with one verification call per pair."""
    guard.start()
    left, right, program = _join_parts(system, pattern, guard)
    guard.tick(len(left) * len(right), what="join product")
    pairs = [(i, j) for i in range(len(left)) for j in range(len(right))]

    def run(some_pairs, inner_guard):
        return tax_batch.join_pairs_batched(
            left, right, some_pairs, program, [2, 5], inner_guard
        )[0]

    return _reference(run, pairs, guard)


def _join_parts(system, pattern, guard=None):
    """(left entries, right entries, verify program) of a join, pre-verify."""
    executor = system.executor
    plan, _ = executor._plan(pattern, join=True)
    (left_keys, right_keys), *_ = executor._prune(["dblp", "sigmod"], plan, guard)
    database = system.database
    left = database.get_collection("dblp").fetch(plan.fetchers[0], guard, left_keys)
    right = database.get_collection("sigmod").fetch(plan.fetchers[1], guard, right_keys)
    return left, right, plan.program


def _outcome(call, guard):
    try:
        result = ("ok", [tree.canonical_key() for tree in call(guard)])
    except (ResourceExhaustedError, QueryTimeoutError) as exc:
        result = (type(exc).__name__, str(exc))
    return result, guard.steps, guard.stage_steps


def _run_both(production, by_candidate, max_steps):
    """(outcome, steps, stages) of the chunked route and of the loop."""
    return (
        _outcome(lambda g: production(g).results, ResourceGuard(max_steps=max_steps)),
        _outcome(by_candidate, ResourceGuard(max_steps=max_steps)),
    )


class TestSelectionGuardParity:
    def _both(self, system, max_steps):
        return _run_both(
            lambda g: _selection(system, g),
            lambda g: _selection_by_candidate(system, g),
            max_steps,
        )

    def test_ample_budget_identical_accounting(self, system):
        chunked, looped = self._both(system, 10**6)
        assert chunked == looped
        (kind, keys), steps, stages = chunked
        assert kind == "ok" and keys
        assert sum(stages.values()) == steps > 0
        assert stages["result verification"] > 0

    def test_step_budget_trips_identically(self, system):
        # Pick a budget that lands mid-verify: enough for the xpath
        # phase, short of the full candidate sweep.
        _, steps, stages = self._both(system, 10**6)[0]
        budget = steps - stages["result verification"] // 2
        chunked, looped = self._both(system, budget)
        assert chunked == looped
        assert chunked[0][0] == "ResourceExhaustedError"
        assert chunked[1] == budget + 1


class TestJoinGuardParity:
    def _both(self, system, max_steps):
        pattern = _full_product_join_pattern()
        return _run_both(
            lambda g: _join(system, g, pattern),
            lambda g: _join_by_pair(system, g, pattern),
            max_steps,
        )

    def test_ample_budget_identical_accounting(self, system):
        chunked, looped = self._both(system, 10**7)
        assert chunked == looped
        (kind, keys), steps, stages = chunked
        assert kind == "ok" and keys
        assert sum(stages.values()) == steps > 0
        # One product tick per probed pair, one verification tick per pair.
        assert stages["join product"] == stages["result verification"] > 0

    def test_step_budget_trips_identically(self, system):
        _, steps, stages = self._both(system, 10**7)[0]
        budget = steps - stages["result verification"] // 2
        chunked, looped = self._both(system, budget)
        assert chunked == looped
        assert chunked[0][0] == "ResourceExhaustedError"
        assert chunked[1] == budget + 1


# ---------------------------------------------------------------------------
# Chunked ticks == one-candidate-at-a-time accounting
# ---------------------------------------------------------------------------
#
# The batched operators charge a chunk of candidates per guard call.  The
# contract they must keep is PR 8's: one "result verification" tick per
# candidate, taken before the candidate's work; the result cap checked
# after every candidate against the running total of each candidate's own
# results.  ``_reference`` (above) is that accounting, spelled out.


@pytest.fixture(scope="module")
def wide():
    """Enough candidates for three verification chunks."""
    corpus = generate_corpus(3 * CHECK_INTERVAL, seed=SEED)
    keys = corpus.paper_keys()
    pages = render_sigmod_pages(corpus, seed=SEED, paper_keys=keys)
    system = build_system(
        corpus, _sharded(corpus, keys), EPSILON,
        sigmod_documents=pages,
    )
    executor = system.executor
    pattern = build_scalability_pattern(narrow_category="conference")
    plan, _ = executor._plan(pattern, join=False)
    entries = system.database.get_collection("dblp").fetch(plan.fetchers[0])
    assert len(entries) > 2 * CHECK_INTERVAL
    return system, entries, plan.program


def _operator(wide, operator, keep):
    _system, entries, program = wide

    def run(candidates, guard):
        return operator(candidates, program, keep, guard)

    return run, entries


#: Step budgets that run out at the first, a middle and the last candidate
#: of the first and second chunk, one past each, and never.
_BUDGETS = [
    0, 1, CHECK_INTERVAL // 2, CHECK_INTERVAL - 1, CHECK_INTERVAL,
    CHECK_INTERVAL + 1, 2 * CHECK_INTERVAL - 1, 2 * CHECK_INTERVAL, 10**6,
]


@pytest.mark.parametrize("budget", _BUDGETS)
@pytest.mark.parametrize(
    "operator,keep",
    [
        (tax_batch.selection_batched, [1]),      # root in SL: late materialisation
        (tax_batch.selection_batched, [2]),      # general witnesses
        (tax_batch.projection_batched, [2, 3]),
    ],
    ids=["selection-root", "selection-witness", "projection"],
)
def test_chunked_ticks_match_per_candidate_accounting(wide, operator, keep, budget):
    run, entries = _operator(wide, operator, keep)
    chunked = _outcome(lambda g: run(entries, g), ResourceGuard(max_steps=budget))
    reference = _outcome(
        lambda g: _reference(run, entries, g), ResourceGuard(max_steps=budget)
    )
    assert chunked == reference
    if budget < len(entries):
        assert chunked[0] == (
            "ResourceExhaustedError",
            f"result verification exceeded its evaluation budget of {budget} steps",
        )
        assert chunked[1] == budget + 1


@pytest.mark.parametrize("cap", [0, 1, CHECK_INTERVAL, CHECK_INTERVAL + 3])
def test_result_cap_seen_at_candidate_granularity(wide, cap):
    run, entries = _operator(wide, tax_batch.selection_batched, [1])
    chunked = _outcome(lambda g: run(entries, g), ResourceGuard(max_results=cap))
    reference = _outcome(
        lambda g: _reference(run, entries, g), ResourceGuard(max_results=cap)
    )
    assert chunked == reference
    assert chunked[0][0] == "ResourceExhaustedError"
    # Tripped after candidate cap+1, not at the end of its chunk.
    assert chunked[1] == cap + 1


def test_deadline_rechecked_inside_verification(wide):
    run, entries = _operator(wide, tax_batch.selection_batched, [1])
    guard = ResourceGuard(deadline_seconds=0.0)
    with pytest.raises(QueryTimeoutError, match="result verification"):
        run(entries, guard)
    assert guard.steps <= CHECK_INTERVAL  # within one deadline stride


@pytest.mark.parametrize("budget", _BUDGETS)
@pytest.mark.parametrize("sl", [[0], [2, 5]], ids=["root", "witness"])
def test_join_pairs_chunked_ticks_match_per_pair_accounting(wide, sl, budget):
    system = wide[0]
    left, right, program = _join_parts(system, _full_product_join_pattern())
    pairs = [(i, j) for i in range(len(left)) for j in range(len(right))]
    pairs = pairs[: 2 * CHECK_INTERVAL + 9]
    assert len(pairs) > 2 * CHECK_INTERVAL

    def run(some_pairs, guard):
        return tax_batch.join_pairs_batched(left, right, some_pairs, program, sl, guard)[0]

    chunked = _outcome(lambda g: run(pairs, g), ResourceGuard(max_steps=budget))
    reference = _outcome(
        lambda g: _reference(run, pairs, g), ResourceGuard(max_steps=budget)
    )
    assert chunked == reference


@pytest.mark.parametrize("hash_join", [False, True])
def test_executor_join_trips_inside_a_verification_chunk(wide, hash_join):
    """End to end: the budget runs out at the first, a middle and the last
    pair of a chunk, with and without the hash join in front."""
    system = wide[0]
    pattern = build_join_pattern() if hash_join else _full_product_join_pattern()
    full = ResourceGuard(max_steps=10**9)
    _join(system, full, pattern)
    stages = full.stage_steps
    pairs = stages["result verification"]
    assert stages["join product"] == pairs > 2
    assert ("similarity hash join" in stages) == hash_join
    assert hash_join or pairs > CHECK_INTERVAL
    before_verify = full.steps - pairs
    chunk = min(pairs, CHECK_INTERVAL)
    # first, middle and last pair of the first chunk, then the next pair
    for into in (0, chunk // 2, chunk - 1, min(chunk, pairs - 1)):
        budget = before_verify + into
        guard = ResourceGuard(max_steps=budget)
        with pytest.raises(ResourceExhaustedError) as info:
            _join(system, guard, pattern)
        assert str(info.value) == (
            f"result verification exceeded its evaluation budget of {budget} steps"
        )
        assert guard.steps == budget + 1
        expected = dict(stages, **{"result verification": into + 1})
        assert guard.stage_steps == expected


# ---------------------------------------------------------------------------
# The fetch stage: one tick per kept document plus one per root row
# ---------------------------------------------------------------------------


class TestFetchAccounting:
    """The fetch hands verify the pattern root's tag rows; it runs no XPath."""

    @staticmethod
    def _fetcher(wide):
        plan, _ = wide[0].executor._plan(build_scalability_pattern(), join=False)
        return plan

    def test_stage_attribution(self, wide):
        system = wide[0]
        collection = system.database.get_collection("dblp")
        guard = ResourceGuard(max_steps=10**6)
        rows = collection.fetch(self._fetcher(wide).fetchers[0], guard=guard)
        root_rows = sum(
            len(collection.columns_for(key, root).tag_rows.get("inproceedings", ()))
            for key, root in collection.documents()
        )
        assert len(rows) == root_rows > 0
        assert guard.stage_steps == {"xpath evaluation": len(collection) + root_rows}

    def test_step_budget_trips_on_the_exact_step(self, wide):
        collection = wide[0].database.get_collection("dblp")
        rows_of = self._fetcher(wide).fetchers[0]
        guard = ResourceGuard(max_steps=CHECK_INTERVAL + 7)
        outcome = _outcome(lambda g: collection.fetch(rows_of, guard=g), guard)
        assert outcome[0] == (
            "ResourceExhaustedError",
            f"xpath evaluation exceeded its evaluation budget of "
            f"{CHECK_INTERVAL + 7} steps",
        )
        assert outcome[1] == CHECK_INTERVAL + 8

    def test_deadline_and_result_cap(self, wide):
        collection = wide[0].database.get_collection("dblp")
        rows_of = self._fetcher(wide).fetchers[0]
        with pytest.raises(QueryTimeoutError, match="xpath evaluation"):
            collection.fetch(rows_of, guard=ResourceGuard(deadline_seconds=0.0))
        with pytest.raises(ResourceExhaustedError, match="query over 'dblp'"):
            collection.fetch(rows_of, guard=ResourceGuard(max_results=5))


# ---------------------------------------------------------------------------
# One route: a guard changes what is charged, never what runs
# ---------------------------------------------------------------------------


def _texts(report):
    return [text.encode("utf-8") for text in report.result_texts()]


@pytest.mark.parametrize("kind", ["selection", "projection", "join"])
def test_guarded_equals_unguarded(wide, kind):
    system = wide[0]
    reports = []
    for guard in (None, ResourceGuard(max_steps=10**9, max_results=10**6)):
        if kind == "selection":
            report = _selection(system, guard)
        elif kind == "projection":
            report = system.executor.projection(
                "dblp", build_scalability_pattern(), [2, 3], guard=guard
            )
        else:
            report = _join(system, guard)
        reports.append(report)
    plain, guarded = reports
    assert _texts(plain) == _texts(guarded) and plain.results
    for field in ("candidates", "docs_verified", "pairs_probed", "pairs_materialized"):
        assert getattr(plain, field) == getattr(guarded, field)


# ---------------------------------------------------------------------------
# The cross-probe memo replays the cold probe's ticks
# ---------------------------------------------------------------------------


class TestCrossProbeMemoIsGuardHonest:
    def test_warm_hit_charges_what_the_cold_probe_charged(self, wide):
        system = wide[0]
        memo = system.executor._cross_probe_cache
        memo.clear()
        cold = ResourceGuard(max_steps=10**9)
        cold_report = _join(system, cold)
        hits = memo.hits
        warm = ResourceGuard(max_steps=10**9)
        warm_report = _join(system, warm)
        assert memo.hits == hits + 1
        assert (warm.steps, warm.stage_steps) == (cold.steps, cold.stage_steps)
        assert _texts(warm_report) == _texts(cold_report)
        # An unguarded request shares the entry...
        _join(system, None)
        assert memo.hits == hits + 2
        # ...and a budget one below the probe's cold cost trips on the hit,
        # on the very step the cold probe would have tripped on.
        probe_cost = cold.stage_steps["index probe"]
        outcomes = []
        for warm_memo in (True, False):
            if not warm_memo:
                memo.clear()
            guard = ResourceGuard(max_steps=probe_cost - 1)
            with pytest.raises(ResourceExhaustedError, match="index probe") as info:
                _join(system, guard)
            outcomes.append((str(info.value), guard.steps, guard.stage_steps))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == probe_cost
