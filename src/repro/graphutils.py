"""Graph algorithms used across the ontology and similarity subsystems.

Everything here operates on a plain adjacency-mapping representation::

    graph: Mapping[node, Iterable[node]]

where nodes are any hashable values.  The helpers are written from scratch
(rather than delegating to networkx) because the fusion and SEA algorithms
need precise, documented behaviour — e.g. Tarjan's SCC order and a
transitive reduction that is only valid on DAGs — and because the
algorithms themselves are part of what the paper's references [3, 2]
contribute.  The test suite cross-checks several of them against networkx.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from .errors import HierarchyCycleError

Node = Hashable
Graph = Mapping[Node, Iterable[Node]]


def _successors(graph: Graph, node: Node) -> Iterable[Node]:
    """Successors of ``node``, treating absent keys as leaf nodes."""
    return graph.get(node, ())  # type: ignore[union-attr]


def all_nodes(graph: Graph) -> Set[Node]:
    """Every node mentioned in ``graph`` as a source or a target."""
    nodes: Set[Node] = set(graph)
    for targets in graph.values():
        nodes.update(targets)
    return nodes


def successors_map(graph: Graph) -> Dict[Node, Set[Node]]:
    """Normalise a graph into ``{node: set(successors)}`` over all nodes."""
    result: Dict[Node, Set[Node]] = {node: set() for node in all_nodes(graph)}
    for node, targets in graph.items():
        result[node].update(targets)
    return result


def reverse_graph(graph: Graph) -> Dict[Node, Set[Node]]:
    """The graph with every edge reversed."""
    result: Dict[Node, Set[Node]] = {node: set() for node in all_nodes(graph)}
    for node, targets in graph.items():
        for target in targets:
            result[target].add(node)
    return result


def reachable_from(graph: Graph, start: Node) -> Set[Node]:
    """All nodes reachable from ``start`` (including ``start`` itself)."""
    seen: Set[Node] = {start}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for nxt in _successors(graph, node):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def has_path(graph: Graph, source: Node, target: Node) -> bool:
    """True iff a directed path of length >= 0 exists from source to target."""
    if source == target:
        return True
    seen: Set[Node] = {source}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for nxt in _successors(graph, node):
            if nxt == target:
                return True
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def transitive_closure(graph: Graph) -> Dict[Node, Set[Node]]:
    """Reflexive-free transitive closure: ``closure[u]`` = nodes v != u ...

    ... such that a non-empty path u -> v exists.  Self-loops in the input
    are preserved (u appears in its own closure only if it lies on a cycle).
    """
    nodes = all_nodes(graph)
    closure: Dict[Node, Set[Node]] = {}
    # Memoised DFS in reverse topological order would be fastest, but the
    # graphs here are small (ontology hierarchies); BFS per node is clear
    # and O(V * E).
    for node in nodes:
        seen: Set[Node] = set()
        frontier = deque(_successors(graph, node))
        while frontier:
            nxt = frontier.popleft()
            if nxt in seen:
                continue
            seen.add(nxt)
            frontier.extend(_successors(graph, nxt))
        closure[node] = seen
    return closure


def find_cycle(graph: Graph) -> Optional[List[Node]]:
    """Return one directed cycle as ``[n0, n1, ..., n0]`` or None if acyclic."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[Node, int] = {node: WHITE for node in all_nodes(graph)}
    parent: Dict[Node, Node] = {}

    for root in colour:
        if colour[root] != WHITE:
            continue
        stack: List[Tuple[Node, Iterator[Node]]] = [(root, iter(_successors(graph, root)))]
        colour[root] = GREY
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if colour.get(child, WHITE) == GREY:
                    # Found a back edge: reconstruct the cycle.
                    cycle = [child, node]
                    walk = node
                    while walk != child:
                        walk = parent[walk]
                        cycle.append(walk)
                    cycle.reverse()  # child ... node child -> chronological
                    # Normalise to start and end at the same node.
                    start = cycle[0]
                    return cycle + [start] if cycle[-1] != start else cycle
                if colour.get(child, WHITE) == WHITE:
                    colour[child] = GREY
                    parent[child] = node
                    stack.append((child, iter(_successors(graph, child))))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None


def ensure_acyclic(graph: Graph) -> None:
    """Raise :class:`HierarchyCycleError` if the graph has a cycle."""
    cycle = find_cycle(graph)
    if cycle is not None:
        raise HierarchyCycleError(cycle)


def topological_order(graph: Graph) -> List[Node]:
    """Kahn topological sort; raises :class:`HierarchyCycleError` on cycles.

    Output order is deterministic given the iteration order of the input
    mapping (ties broken by insertion order of a FIFO queue).
    """
    succ = successors_map(graph)
    indegree: Dict[Node, int] = {node: 0 for node in succ}
    for targets in succ.values():
        for target in targets:
            indegree[target] += 1
    queue = deque(node for node in succ if indegree[node] == 0)
    order: List[Node] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for target in succ[node]:
            indegree[target] -= 1
            if indegree[target] == 0:
                queue.append(target)
    if len(order) != len(succ):
        ensure_acyclic(graph)  # raises with an explicit cycle
        raise AssertionError("unreachable: kahn failed on an acyclic graph")
    return order


def strongly_connected_components(graph: Graph) -> List[List[Node]]:
    """Tarjan's algorithm, iterative.

    Returns SCCs in reverse topological order of the condensation (i.e.
    every component precedes the components that can reach it).
    """
    succ = successors_map(graph)
    index_of: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[List[Node]] = []
    counter = 0

    for root in succ:
        if root in index_of:
            continue
        work: List[Tuple[Node, Iterator[Node]]] = [(root, iter(succ[root]))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index_of:
                    index_of[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ[child])))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: List[Node] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def condensation(
    graph: Graph,
) -> Tuple[Dict[FrozenSet[Node], Set[FrozenSet[Node]]], Dict[Node, FrozenSet[Node]]]:
    """Condense a digraph into its DAG of strongly connected components.

    Returns ``(dag, membership)`` where ``dag`` maps each component (a
    frozenset of original nodes) to its successor components, and
    ``membership`` maps each original node to its component.
    """
    components = [frozenset(c) for c in strongly_connected_components(graph)]
    membership: Dict[Node, FrozenSet[Node]] = {}
    for component in components:
        for node in component:
            membership[node] = component
    dag: Dict[FrozenSet[Node], Set[FrozenSet[Node]]] = {c: set() for c in components}
    for node, targets in graph.items():
        for target in targets:
            source_c = membership[node]
            target_c = membership[target]
            if source_c is not target_c:
                dag[source_c].add(target_c)
    return dag, membership


def transitive_reduction(graph: Graph) -> Dict[Node, Set[Node]]:
    """Minimal edge set with the same reachability; input must be a DAG.

    This is exactly the "Hasse diagram" computation of Section 4.1: the
    Hasse diagram of a partial order has a *minimal* set of edges such that
    u -> v is a path iff u <= v.
    """
    ensure_acyclic(graph)
    succ = successors_map(graph)
    order = topological_order(succ)
    position = {node: i for i, node in enumerate(order)}
    # descendants[u] = nodes reachable from u by a non-empty path.
    descendants: Dict[Node, Set[Node]] = {}
    for node in reversed(order):
        reach: Set[Node] = set()
        for child in succ[node]:
            reach.add(child)
            reach.update(descendants[child])
        descendants[node] = reach
    reduced: Dict[Node, Set[Node]] = {node: set() for node in succ}
    for node in succ:
        # An edge u->v is redundant iff v is reachable from another child.
        children = sorted(succ[node], key=position.__getitem__)
        kept: Set[Node] = set()
        covered: Set[Node] = set()
        for child in children:
            if child in covered:
                continue
            kept.add(child)
            covered.add(child)
            covered.update(descendants[child])
        reduced[node] = kept
    return reduced


def maximal_cliques(adjacency: Mapping[Node, Set[Node]]) -> List[FrozenSet[Node]]:
    """Bron-Kerbosch with pivoting over an undirected adjacency map.

    Every node appears in at least one clique (isolated nodes form singleton
    cliques).  Used by the SEA algorithm: the nodes of a similarity
    enhancement are precisely the maximal cliques of the epsilon-similarity
    graph (see DESIGN.md section 5).
    """
    if not adjacency:
        return []
    cliques: List[FrozenSet[Node]] = []

    def expand(candidate: Set[Node], prospective: Set[Node], excluded: Set[Node]) -> None:
        if not prospective and not excluded:
            cliques.append(frozenset(candidate))
            return
        pivot_pool = prospective | excluded
        pivot = max(pivot_pool, key=lambda n: len(adjacency[n] & prospective))
        for node in list(prospective - adjacency[pivot]):
            neighbours = adjacency[node]
            expand(candidate | {node}, prospective & neighbours, excluded & neighbours)
            prospective.discard(node)
            excluded.add(node)

    expand(set(), set(adjacency), set())
    return cliques
