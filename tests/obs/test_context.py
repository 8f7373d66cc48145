"""Unit tests for request identity propagation (repro.obs.context)."""

import pytest

from repro.obs.context import (
    RequestContext,
    _ACTIVE,
    activate,
    current_request,
    new_request_id,
)


class TestRequestId:
    def test_sixteen_hex_chars(self):
        rid = new_request_id()
        assert len(rid) == 16
        int(rid, 16)  # must be hex

    def test_ids_do_not_repeat(self):
        assert len({new_request_id() for _ in range(100)}) == 100


class TestWireForm:
    def test_round_trip_preserves_every_field(self):
        context = RequestContext(request_id="abc123", tenant="acme")
        assert RequestContext.from_wire(context.to_wire()) == context

    def test_minimal_wire_omits_unset_fields(self):
        context = RequestContext.mint()
        wire = context.to_wire()
        assert list(wire) == ["id"]
        assert RequestContext.from_wire(wire) == context

    @pytest.mark.parametrize(
        "garbage",
        [None, 42, "a-string", [], {}, {"id": None}, {"id": ""}, {"id": 7}],
    )
    def test_from_wire_tolerates_garbage(self, garbage):
        assert RequestContext.from_wire(garbage) is None

    def test_context_is_immutable(self):
        context = RequestContext.mint()
        with pytest.raises(AttributeError):
            context.tenant = "other"


class TestActivation:
    def test_no_ambient_context_by_default(self):
        assert current_request() is None

    def test_activate_makes_context_ambient(self):
        context = RequestContext.mint()
        with activate(context):
            assert current_request() is context
        assert current_request() is None

    def test_nested_activation_restores_outer(self):
        outer, inner = RequestContext.mint(), RequestContext.mint()
        with activate(outer):
            with activate(inner):
                assert current_request() is inner
            assert current_request() is outer

    def test_activate_none_is_a_no_op_block(self):
        with activate(None) as handle:
            assert handle is None
            assert current_request() is None

    def test_exception_still_pops_the_stack(self):
        context = RequestContext.mint()
        with pytest.raises(RuntimeError):
            with activate(context):
                raise RuntimeError("boom")
        assert current_request() is None
        assert context not in _ACTIVE

    def test_leaked_inner_context_does_not_block_removal(self):
        # A nested block that leaks (exits without popping, simulated by
        # pushing directly) must not stop the outer activate's cleanup.
        outer = RequestContext.mint()
        leaked = RequestContext.mint()
        with activate(outer):
            _ACTIVE.append(leaked)
        assert outer not in _ACTIVE
        assert current_request() is leaked
        _ACTIVE.remove(leaked)
