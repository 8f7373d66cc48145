"""Per-stage step accounting on the ResourceGuard.

The guard's ``stage_steps`` breakdown feeds the trace tree and the
slow-query log, so the invariant that the per-stage values sum exactly
to ``steps`` must hold.
"""

from repro.guard import ResourceGuard


class TestStageAccounting:
    def test_stage_steps_partition_total(self):
        guard = ResourceGuard(max_steps=10**6).start()
        guard.tick(10, what="xpath")
        guard.tick(5, what="verify")
        guard.tick(3, what="xpath")
        assert guard.stage_steps == {"xpath": 13, "verify": 5}
        assert sum(guard.stage_steps.values()) == guard.steps == 18

    def test_default_stage_label(self):
        guard = ResourceGuard(max_steps=10**6).start()
        guard.tick(2)
        assert guard.stage_steps == {"operation": 2}

    def test_start_resets_stage_breakdown(self):
        guard = ResourceGuard(max_steps=10**6).start()
        guard.tick(7, what="xpath")
        guard.start()
        assert guard.steps == 0
        assert guard.stage_steps == {}

    def test_stage_steps_returns_a_copy(self):
        guard = ResourceGuard(max_steps=10**6).start()
        guard.tick(1, what="xpath")
        snapshot = guard.stage_steps
        snapshot["xpath"] = 999
        assert guard.stage_steps == {"xpath": 1}

