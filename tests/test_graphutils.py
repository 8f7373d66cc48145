"""Unit tests for repro.graphutils."""

import pytest

from repro import graphutils as gu
from repro.errors import HierarchyCycleError


class TestBasics:
    def test_all_nodes_includes_targets(self):
        assert gu.all_nodes({"a": ["b"], "c": []}) == {"a", "b", "c"}

    def test_successors_map_normalises(self):
        graph = gu.successors_map({"a": ["b", "b"], "b": ["c"]})
        assert graph == {"a": {"b"}, "b": {"c"}, "c": set()}

    def test_has_path_reflexive(self):
        assert gu.has_path({}, "x", "x")

    def test_has_path_directed(self):
        graph = {"a": ["b"], "b": ["c"]}
        assert gu.has_path(graph, "a", "c")
        assert not gu.has_path(graph, "c", "a")


class TestTransitiveClosure:
    def test_chain(self):
        closure = gu.transitive_closure({"a": ["b"], "b": ["c"]})
        assert closure["a"] == {"b", "c"}
        assert closure["b"] == {"c"}
        assert closure["c"] == set()

    def test_diamond(self):
        graph = {"a": ["b", "c"], "b": ["d"], "c": ["d"]}
        closure = gu.transitive_closure(graph)
        assert closure["a"] == {"b", "c", "d"}

    def test_cycle_membership(self):
        closure = gu.transitive_closure({"a": ["b"], "b": ["a"]})
        assert "a" in closure["a"]  # on a cycle, a reaches itself


class TestCycles:
    def test_acyclic_graph_has_no_cycle(self):
        assert gu.find_cycle({"a": ["b"], "b": ["c"]}) is None

    def test_finds_simple_cycle(self):
        cycle = gu.find_cycle({"a": ["b"], "b": ["a"]})
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"a", "b"}

    def test_finds_self_loop(self):
        cycle = gu.find_cycle({"a": ["a"]})
        assert cycle is not None

    def test_finds_long_cycle_behind_dag_part(self):
        graph = {"r": ["a"], "a": ["b"], "b": ["c"], "c": ["a"]}
        cycle = gu.find_cycle(graph)
        assert cycle is not None
        assert set(cycle) <= {"a", "b", "c"}

    def test_ensure_acyclic_raises_with_cycle_payload(self):
        with pytest.raises(HierarchyCycleError) as info:
            gu.ensure_acyclic({"a": ["b"], "b": ["a"]})
        assert info.value.cycle[0] == info.value.cycle[-1]


class TestTopologicalOrder:
    def test_respects_edges(self):
        graph = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}
        order = gu.topological_order(graph)
        position = {node: i for i, node in enumerate(order)}
        for node, targets in graph.items():
            for target in targets:
                assert position[node] < position[target]

    def test_raises_on_cycle(self):
        with pytest.raises(HierarchyCycleError):
            gu.topological_order({"a": ["b"], "b": ["a"]})

    def test_empty_graph(self):
        assert gu.topological_order({}) == []


class TestScc:
    def test_all_singletons_when_acyclic(self):
        components = gu.strongly_connected_components({"a": ["b"], "b": ["c"]})
        assert sorted(len(c) for c in components) == [1, 1, 1]

    def test_merges_cycle(self):
        graph = {"a": ["b"], "b": ["c"], "c": ["a"], "d": ["a"]}
        components = gu.strongly_connected_components(graph)
        sizes = sorted(len(c) for c in components)
        assert sizes == [1, 3]

    def test_reverse_topological_order(self):
        graph = {"a": ["b"], "b": []}
        components = gu.strongly_connected_components(graph)
        # b's component must come before a's.
        assert components[0] == ["b"]

    def test_condensation_dag(self):
        graph = {"a": ["b"], "b": ["a", "c"], "c": ["d"], "d": ["c"]}
        dag, membership = gu.condensation(graph)
        assert membership["a"] == membership["b"]
        assert membership["c"] == membership["d"]
        assert membership["a"] != membership["c"]
        assert dag[membership["a"]] == {membership["c"]}
        assert dag[membership["c"]] == set()


class TestTransitiveReduction:
    def test_removes_shortcut(self):
        graph = {"a": ["b", "c"], "b": ["c"]}
        reduced = gu.transitive_reduction(graph)
        assert reduced == {"a": {"b"}, "b": {"c"}, "c": set()}

    def test_keeps_diamond(self):
        graph = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}
        reduced = gu.transitive_reduction(graph)
        assert reduced["a"] == {"b", "c"}
        assert reduced["b"] == {"d"}
        assert reduced["c"] == {"d"}

    def test_preserves_reachability(self):
        graph = {1: [2, 3, 4], 2: [3, 4], 3: [4], 4: []}
        reduced = gu.transitive_reduction(graph)
        for source in graph:
            for target in graph:
                assert gu.has_path(graph, source, target) == gu.has_path(
                    reduced, source, target
                )

    def test_rejects_cycles(self):
        with pytest.raises(HierarchyCycleError):
            gu.transitive_reduction({"a": ["b"], "b": ["a"]})


class TestCliques:
    def test_triangle_is_one_clique(self):
        adjacency = {"a": {"b", "c"}, "b": {"a", "c"}, "c": {"a", "b"}}
        cliques = gu.maximal_cliques(adjacency)
        assert cliques == [frozenset({"a", "b", "c"})]

    def test_path_gives_edges(self):
        adjacency = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}
        cliques = set(gu.maximal_cliques(adjacency))
        assert cliques == {frozenset({"a", "b"}), frozenset({"b", "c"})}

    def test_isolated_node_is_singleton_clique(self):
        adjacency = {"a": set()}
        assert gu.maximal_cliques(adjacency) == [frozenset({"a"})]

    def test_every_node_appears(self):
        adjacency = {
            "a": {"b"}, "b": {"a"},
            "c": {"d", "e"}, "d": {"c", "e"}, "e": {"c", "d"},
            "lonely": set(),
        }
        cliques = gu.maximal_cliques(adjacency)
        covered = set().union(*cliques)
        assert covered == set(adjacency)

    def test_overlapping_cliques(self):
        # Two triangles sharing an edge.
        adjacency = {
            "a": {"b", "c"}, "b": {"a", "c", "d"},
            "c": {"a", "b", "d"}, "d": {"b", "c"},
        }
        cliques = set(gu.maximal_cliques(adjacency))
        assert frozenset({"a", "b", "c"}) in cliques
        assert frozenset({"b", "c", "d"}) in cliques
