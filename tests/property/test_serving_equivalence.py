"""Property: the serving layer is invisible in the results.

Batch execution over the worker pool must be bit-identical to serial
in-process execution — same result trees, same order, same degraded
flag, and the same error type when a budget trips.  We fuzz over query
shapes and worker counts against one shared system and pool.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, ResourceExhaustedError
from repro.guard import ResourceGuard
from repro.core.system import TossSystem
from repro.serving import GuardSpec, QueryRequest, QueryServer
from repro.xmldb.serializer import serialize

AUTHORS = ["Ann Smith", "Bob Stone", "Cara Swan"]
TITLE_WORDS = ["Indexing", "Querying", "Mining", "Caching"]

# Pools fork real processes, so everything shares one system and one
# pool per worker count (mirroring production: load once, serve many).
_STATE = {}


def _system():
    if "system" not in _STATE:
        documents = [
            f"<paper key='p{index}'>"
            f"<title>{TITLE_WORDS[index % len(TITLE_WORDS)]} {index}</title>"
            f"<author>{AUTHORS[index % len(AUTHORS)]}</author>"
            f"<year>{1990 + index % 7}</year>"
            f"</paper>"
            for index in range(18)
        ]
        system = TossSystem(epsilon=2.0)
        system.add_instance("papers", documents)
        system.build()
        _STATE["system"] = system
    return _STATE["system"]


def _server(workers):
    key = ("server", workers)
    if key not in _STATE:
        _STATE[key] = QueryServer(
            _system(), workers=workers, default_collection="papers"
        )
    return _STATE[key]


@pytest.fixture(scope="module", autouse=True)
def _teardown_servers():
    yield
    for key, value in list(_STATE.items()):
        if isinstance(key, tuple) and key[0] == "server":
            value.close()
            del _STATE[key]


def result_texts(report):
    return [serialize(tree) for tree in report.results]


queries = st.one_of(
    st.sampled_from(AUTHORS).map(lambda a: f'paper(author ~ "{a}")'),
    st.sampled_from(TITLE_WORDS).map(lambda w: f'paper(title contains "{w}")'),
    st.integers(min_value=1990, max_value=1996).map(
        lambda y: f'paper(year = "{y}")'
    ),
)


@given(query=queries, workers=st.sampled_from([1, 2]))
@settings(max_examples=12, deadline=None)
def test_batch_execution_equals_serial(query, workers):
    system = _system()
    serial = system.query("papers", query)
    outcome = _server(workers).execute_many([query])[0]
    assert outcome.ok, outcome.error
    assert result_texts(outcome.report) == result_texts(serial)
    assert outcome.report.degraded == serial.degraded


@given(query=queries)
@settings(max_examples=6, deadline=None)
def test_batch_order_is_submission_order(query):
    other = 'paper(author ~ "Ann Smith")'
    outcomes = _server(2).execute_many([query, other, query])
    assert [outcome.request.query for outcome in outcomes] == [
        query, other, query,
    ]
    assert result_texts(outcomes[0].report) == result_texts(
        outcomes[2].report
    )


@given(budget=st.sampled_from([1, 2, 5]))
@settings(max_examples=6, deadline=None)
def test_step_budget_trips_the_same_error_type(budget):
    system = _system()
    query = 'paper(author ~ "Ann Smith")'
    serial_error = None
    try:
        executor = system._query_executor()
        previous = executor.guard
        executor.guard = ResourceGuard(max_steps=budget)
        try:
            system.query("papers", query)
        finally:
            executor.guard = previous
    except ReproError as exc:
        serial_error = type(exc)
    assert serial_error is ResourceExhaustedError

    outcome = _server(2).execute_many(
        [
            QueryRequest(
                query=query,
                collection="papers",
                guard=GuardSpec(max_steps=budget),
            )
        ]
    )[0]
    assert isinstance(outcome.error, ResourceExhaustedError)
