"""The rolling windows book each served request once, in the server.

``QueryServer.execute_many`` is the windows' one writer: every outcome,
ok or failed, lands once in its class's window (``join`` when the
request names a right collection, else ``selection``) with the
outcome's worker-measured ``seconds``.  Nothing is shipped from a
worker, so the windows are complete as soon as the batch returns, not
only after ``close()``.
"""

import pytest

from repro.data import samples
from repro.obs.window import WINDOWS
from repro.serving import GuardSpec, QueryRequest, QueryServer

SELECTION = 'inproceedings(author ~ "Paulo Ciancarini")'
JOIN = "inproceedings(title $a), //article(title $b) where $a ~ $b"


@pytest.fixture
def clean_windows():
    WINDOWS.reset()
    yield
    WINDOWS.reset()


def test_each_outcome_lands_once_with_its_seconds(clean_windows):
    system = samples.sample_system()
    with QueryServer(system, workers=1, default_collection="dblp") as server:
        outcomes = server.execute_many(
            [
                QueryRequest(query=SELECTION),
                QueryRequest(query=JOIN, right_collection="sigmod"),
                QueryRequest(query=SELECTION, guard=GuardSpec(max_steps=1)),
            ]
        )
        assert [outcome.ok for outcome in outcomes] == [True, True, False]
        # Read before close(): nothing waits on a worker's shipment.
        stats = WINDOWS.stats(window=60)
    selection, join, failed = outcomes
    assert set(stats) == {"join", "selection"}
    assert stats["selection"]["count"] == 2
    assert stats["selection"]["errors"] == 1
    assert stats["selection"]["mean_seconds"] * 2 == pytest.approx(
        selection.seconds + failed.seconds
    )
    assert stats["join"]["count"] == 1
    assert stats["join"]["errors"] == 0
    assert stats["join"]["mean_seconds"] == pytest.approx(join.seconds)
    # close() ships the workers' metric tails, never a window row.
    assert WINDOWS.stats(window=60) == stats


def test_in_process_queries_stay_out_of_the_windows(clean_windows):
    system = samples.sample_system()
    system.query("dblp", SELECTION)
    assert WINDOWS.stats(window=60) == {}
