"""The query server: batches, admission, budgets, staleness, refresh."""

import inspect

import pytest

import repro.serving
from repro.core.executor import ExecutionReport, QueryExecutor
from repro.core.system import TossSystem
from repro.errors import (
    ReproError,
    ResourceExhaustedError,
    ServerOverloadedError,
    ServingError,
    SnapshotStaleError,
)
from repro.guard import ResourceGuard
from repro.obs.metrics import REGISTRY
from repro.serving import (
    GuardSpec,
    QueryRequest,
    QueryServer,
    execute_many,
)
from repro.xmldb.serializer import serialize

from .conftest import make_system

QUERY = 'paper(author ~ "Author 1")'
OTHER = 'paper(author ~ "Author 2")'


def result_texts(report):
    return [serialize(tree) for tree in report.results]


class TestGuardSpec:
    def test_unlimited_builds_no_guard(self):
        spec = GuardSpec()
        assert spec.unlimited
        assert spec.build() is None

    def test_limits_build_matching_guard(self):
        spec = GuardSpec(deadline_seconds=1.5, max_steps=10, max_results=5)
        guard = spec.build()
        assert guard.deadline_seconds == 1.5
        assert guard.max_steps == 10
        assert guard.max_results == 5

    def test_from_guard_roundtrip(self):
        guard = ResourceGuard(
            deadline_seconds=2.0, max_results=3, max_steps=100
        )
        spec = GuardSpec.from_guard(guard)
        assert spec.as_tuple() == (2.0, 100, 3)
        assert GuardSpec.from_guard(None) is None


class TestBatchExecution:
    def test_batch_matches_serial(self, system, server):
        serial = {
            QUERY: result_texts(system.query("papers", QUERY)),
            OTHER: result_texts(system.query("papers", OTHER)),
        }
        outcomes = server.execute_many([QUERY, OTHER, QUERY])
        assert [outcome.request.query for outcome in outcomes] == [
            QUERY, OTHER, QUERY,
        ]
        for outcome in outcomes:
            assert outcome.ok
            assert result_texts(outcome.report) == serial[outcome.request.query]
            assert outcome.seconds >= 0

    def test_empty_batch(self, server):
        assert server.execute_many([]) == []

    def test_per_query_errors_are_captured_not_raised(self, server):
        outcomes = server.execute_many([QUERY, "paper(((", OTHER])
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, ReproError)
        with pytest.raises(ReproError):
            outcomes[1].raise_for_error()

    def test_budget_violation_is_typed(self, system):
        spec = GuardSpec(max_steps=1)
        with QueryServer(
            system, workers=1, default_collection="papers", default_guard=spec
        ) as server:
            outcome = server.execute_many([QUERY])[0]
        assert isinstance(outcome.error, ResourceExhaustedError)

    def test_request_guard_overrides_default(self, system):
        with QueryServer(
            system,
            workers=1,
            default_collection="papers",
            default_guard=GuardSpec(max_steps=1),
        ) as server:
            request = QueryRequest(
                query=QUERY,
                collection="papers",
                guard=GuardSpec(max_steps=10_000_000),
            )
            outcome = server.execute_many([request])[0]
        assert outcome.ok, outcome.error

    def test_missing_collection_is_a_usage_error(self, system):
        with QueryServer(system, workers=1) as server:
            with pytest.raises(ServingError, match="default_collection"):
                server.execute_many([QUERY])


class TestAdmission:
    def test_oversized_batch_is_rejected(self, system):
        with QueryServer(
            system, workers=1, max_pending=2, default_collection="papers"
        ) as server:
            with pytest.raises(ServerOverloadedError) as excinfo:
                server.execute_many([QUERY] * 3)
            assert excinfo.value.pending == 3
            assert excinfo.value.limit == 2
            # A batch at the bound is admitted.
            outcomes = server.execute_many([QUERY] * 2)
            assert all(outcome.ok for outcome in outcomes)

    def test_invalid_max_pending(self, system):
        with pytest.raises(ServingError):
            QueryServer(system, max_pending=0)


class TestStalenessAndRefresh:
    def test_stale_server_rejects_until_refresh(self):
        system = make_system(count=4)
        server = QueryServer(system, workers=1, default_collection="papers")
        try:
            assert server.execute_many([QUERY])[0].ok
            system.database.get_collection("papers").add_document(
                "extra", "<paper><title>New</title><author>Author 1</author></paper>"
            )
            with pytest.raises(SnapshotStaleError):
                server.execute_many([QUERY])
            server.refresh()
            outcome = server.execute_many([QUERY])[0]
            assert outcome.ok
            # The refreshed pool sees the new document.
            serial = system.query("papers", QUERY)
            assert result_texts(outcome.report) == result_texts(serial)
        finally:
            server.close()

    def test_closed_server_rejects(self, system):
        server = QueryServer(system, workers=1, default_collection="papers")
        server.close()
        with pytest.raises(ServingError, match="closed"):
            server.execute_many([QUERY])


class TestExecute:
    def test_execute_returns_report(self, system, server):
        report = server.execute(QUERY)
        assert result_texts(report) == result_texts(
            system.query("papers", QUERY)
        )

    def test_execute_raises_captured_error(self, server):
        with pytest.raises(ReproError):
            server.execute("paper(((")

    def test_execute_is_execute_many_of_one(self, server):
        request = QueryRequest(query=QUERY, request_id="one-of-one")
        report = server.execute(request)
        outcome = server.execute_many([request])[0]
        assert report.result_texts() == outcome.report.result_texts()
        assert report.request_id == outcome.report.request_id == "one-of-one"
        assert outcome.request_id == "one-of-one"

        tripping = QueryRequest(query=QUERY, guard=GuardSpec(max_steps=1))
        captured = server.execute_many([tripping])[0].error
        assert type(captured) is ResourceExhaustedError
        with pytest.raises(ResourceExhaustedError) as raised:
            server.execute(tripping)
        assert type(raised.value) is type(captured)

    def test_no_intra_query_parallelism_surface(self):
        # A request is the unit of parallelism: none of the names the
        # partitioned path threaded through the layers is accepted.
        removed = {"jobs", "degrade_partial", "document_keys", "on_chunk_failure"}
        surfaces = [
            QueryRequest,
            QueryServer.__init__,
            QueryExecutor.selection,
            QueryExecutor.projection,
            QueryExecutor.join,
            TossSystem.query,
            TossSystem.select,
            TossSystem.join,
        ]
        for surface in surfaces:
            assert not removed & set(inspect.signature(surface).parameters), surface
        assert not {"execute_partitioned", "partition_document_keys"} & set(
            repro.serving.__all__
        )
        assert not hasattr(ExecutionReport, "merge")


class TestMetrics:
    def test_serving_metrics_accumulate(self, system):
        REGISTRY.reset()
        with QueryServer(
            system, workers=1, default_collection="papers"
        ) as server:
            server.execute_many([QUERY, OTHER])
        snapshot = REGISTRY.snapshot()
        assert snapshot["serving.queries"]["value"] == 2
        assert snapshot["serving.batches"]["value"] == 1
        assert snapshot["serving.batch_seconds"]["count"] == 1
        assert snapshot["serving.query_seconds"]["count"] == 2
        REGISTRY.reset()

    def test_worker_metrics_are_absorbed(self, system):
        REGISTRY.reset()
        with QueryServer(
            system, workers=1, default_collection="papers"
        ) as server:
            server.execute_many([QUERY])
        snapshot = REGISTRY.snapshot()
        # Work done inside the worker process is visible in the parent
        # registry — e.g. the xpath query-cache counters the workers'
        # compiles emitted.
        absorbed = [
            name
            for name in snapshot
            if not name.startswith("serving.")
        ]
        assert absorbed, snapshot.keys()
        REGISTRY.reset()


class TestModuleLevelExecuteMany:
    def test_one_shot_batch(self, system):
        outcomes = execute_many(
            system, [QUERY, OTHER], workers=2, default_collection="papers"
        )
        assert len(outcomes) == 2
        assert all(outcome.ok for outcome in outcomes)
        serial = system.query("papers", QUERY)
        assert result_texts(outcomes[0].report) == result_texts(serial)
