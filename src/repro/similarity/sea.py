"""The SEA algorithm (Figure 12): similarity enhancement of a hierarchy.

Given a (fused) hierarchy H, a similarity measure d and a threshold
epsilon, SEA builds the *similarity enhancement* (H', mu) of Definition 8:

* the nodes of H' are the maximal sets of pairwise-epsilon-similar nodes of
  H — i.e. the maximal cliques of the epsilon-similarity graph (conditions
  2 and 3 of Definition 8), with subsumed sets removed (condition 4);
* ``mu`` maps every node of H to the set of H' nodes containing it;
* H' carries an edge (path) from V to W exactly when *every* pair
  ``a in V, b in W`` satisfies ``a <= b`` in H (the only order relation
  compatible with both directions of condition 1), transitively reduced to
  Hasse form.

If condition 1 cannot be satisfied — some pair ``a < b`` in H sits in
cliques V, W whose full cross product is not ordered — or the induced
relation is cyclic, no similarity enhancement exists (Definition 9,
"similarity inconsistency") and :class:`SimilarityInconsistencyError` is
raised with a diagnostic witness.

Theorem 1 guarantees this construction is the unique enhancement up to
isomorphism; Theorem 2's correctness argument is mirrored by the
``_verify`` post-condition (enabled via ``verify=True``), and the test
suite property-checks Definition 8's conditions on random inputs.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    NoReturn,
    Optional,
    Set,
    Tuple,
)

from .. import graphutils
from ..errors import DeltaRefused, SimilarityInconsistencyError
from ..guard import ResourceGuard
from ..obs.metrics import REGISTRY as METRICS
from ..obs.trace import current_tracer
from ..ontology.hierarchy import Hierarchy
from .candidates import BlockStats, block_edges, pair_count, supports_filter
from .incremental import EpsilonGraphCache, clique_rep_buckets, delta_rep_edges
from .measures import StringSimilarityMeasure

Node = Hashable

#: Order context of a node: its strict ancestors and descendants.
OrderContext = Tuple[FrozenSet[Node], FrozenSet[Node]]


def node_strings(node: Node) -> FrozenSet[str]:
    """The set of strings "contained in" a hierarchy node (Section 4.3).

    Fused nodes carry several strings (their merged terms); plain string
    nodes contain just themselves; anything else contributes ``str(node)``.
    """
    strings = getattr(node, "strings", None)
    if strings is not None:
        return frozenset(strings)
    if isinstance(node, str):
        return frozenset({node})
    return frozenset({str(node)})


class NodeDistance:
    """Node-to-node distance induced by a string measure (Definition 7).

    ``d(A, B) = min over X in S_A, Y in S_B of d_s(X, Y)`` where ``S_A`` is
    the set of strings contained in node A.  For *strong* measures, Lemma 1
    shows all cross pairs agree, so a single pair suffices — the fast path
    used here.  Distances are cached symmetrically.
    """

    def __init__(
        self,
        measure: StringSimilarityMeasure,
        strings_of: Callable[[Node], FrozenSet[str]] = node_strings,
    ) -> None:
        self.measure = measure
        self.strings_of = strings_of
        self._cache: Dict[Tuple[int, int], float] = {}

    def __call__(self, a: Node, b: Node) -> float:
        if a == b:
            return 0.0
        key = (id(a), id(b)) if id(a) <= id(b) else (id(b), id(a))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        strings_a = self.strings_of(a)
        strings_b = self.strings_of(b)
        if not strings_a or not strings_b:
            raise SimilarityInconsistencyError(
                f"node {a!r} or {b!r} contains no strings; distance undefined"
            )
        if self.measure.is_strong:
            # Lemma 1: within a node all strings are distance 0 apart, and
            # the triangle inequality forces every cross pair to agree.
            # The representative is the lexicographic minimum so the choice
            # is deterministic across interpreter runs.
            value = self.measure.distance(min(strings_a), min(strings_b))
        else:
            value = min(
                self.measure.distance(x, y)
                for x in strings_a
                for y in strings_b
            )
        self._cache[key] = value
        return value

    def within(self, a: Node, b: Node, epsilon: float) -> bool:
        """``d(a, b) <= epsilon`` using the measure's bounded fast path.

        Avoids computing exact distances for far-apart pairs — the
        dominant cost when building the epsilon-similarity graph over a
        large fused ontology.
        """
        if a == b:
            return True
        key = (id(a), id(b)) if id(a) <= id(b) else (id(b), id(a))
        cached = self._cache.get(key)
        if cached is not None:
            return cached <= epsilon
        strings_a = self.strings_of(a)
        strings_b = self.strings_of(b)
        if self.measure.is_strong:
            return (
                self.measure.bounded_distance(min(strings_a), min(strings_b), epsilon)
                <= epsilon
            )
        return any(
            self.measure.bounded_distance(x, y, epsilon) <= epsilon
            for x in strings_a
            for y in strings_b
        )


@dataclass(frozen=True)
class EnhancedNode:
    """A node of the similarity-enhanced hierarchy: a set of H nodes.

    ``strings`` unions the strings of the members, so enhanced hierarchies
    can themselves be fed back through similarity machinery, and so the
    query executor can expand a term into everything it co-habits with.
    """

    members: FrozenSet[Node]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("an enhanced node must contain at least one member")

    @property
    def strings(self) -> FrozenSet[str]:
        result: Set[str] = set()
        for member in self.members:
            result.update(node_strings(member))
        return frozenset(result)

    @property
    def label(self) -> str:
        return min(self.strings)

    def __str__(self) -> str:
        if len(self.members) == 1:
            return str(next(iter(self.members)))
        return "{" + ", ".join(sorted(str(m) for m in self.members)) + "}"

    def __repr__(self) -> str:
        return f"EnhancedNode({str(self)})"


class SimilarityEnhancement:
    """The pair (H', mu) of Definition 8 plus its parameters.

    Attributes
    ----------
    hierarchy:
        H' — a :class:`Hierarchy` over :class:`EnhancedNode` values.
    mu:
        The mapping from each original node to the frozenset of enhanced
        nodes containing it.
    epsilon, distance:
        The parameters the enhancement was built with.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        mu: Mapping[Node, FrozenSet[EnhancedNode]],
        epsilon: float,
        distance: NodeDistance,
        mode: str = "strict",
    ) -> None:
        self.hierarchy = hierarchy
        self.mu: Dict[Node, FrozenSet[EnhancedNode]] = dict(mu)
        self.epsilon = epsilon
        self.distance = distance
        self.mode = mode
        #: :class:`SeaStats` of the build that produced this enhancement;
        #: None for enhancements restored from disk.
        self.stats: Optional[SeaStats] = None
        #: Order-context buckets of the build (order-safe mode only):
        #: context -> every H node carrying it, singletons included.  The
        #: enhancement-patch path (:func:`extend_enhancement`) needs them
        #: to find the one bucket a changed leaf touches without
        #: re-bucketing the whole hierarchy; None when
        #: built in strict mode, or restored from disk until
        #: :func:`restore_patch_state` re-derives them.
        self.context_buckets: Optional[Dict[OrderContext, List[Node]]] = None

    def mu_inverse(self, enhanced: EnhancedNode) -> FrozenSet[Node]:
        """``mu^{-1}``: the original nodes mapped into ``enhanced``."""
        return enhanced.members

    def cohabiting(self, a: Node, b: Node) -> bool:
        """Definition 8's similarity test: do a and b share an H' node?

        This is exactly the semantics of the ``~`` operator: "the condition
        is true iff there exists a node containing both of them in the
        similarity enhancement."
        """
        return a == b or bool(
            {node for node in self.mu.get(a, frozenset())}
            & {node for node in self.mu.get(b, frozenset())}
        )

    def similar_nodes(self, original: Node) -> FrozenSet[Node]:
        """All original nodes sharing at least one enhanced node with this one."""
        result: Set[Node] = set()
        for enhanced in self.mu.get(original, frozenset()):
            result.update(enhanced.members)
        result.discard(original)
        return frozenset(result)

    def __repr__(self) -> str:
        return (
            f"SimilarityEnhancement({len(self.hierarchy)} nodes, "
            f"epsilon={self.epsilon})"
        )


@dataclass
class SeaStats:
    """Counters and timings of one SEA similarity-graph construction.

    Exposed as :attr:`SimilarityEnhancement.stats` and rolled up into the
    system-level build report so operators can see what the candidate
    filter pruned and whether the graph ran filtered or all-pairs.
    """

    mode: str = "strict"
    #: Order-context buckets with at least two members.
    groups: int = 0
    #: All-pairs comparison count the naive algorithm would have run.
    total_pairs: int = 0
    #: Pairs that reached distance verification (the filters' output).
    candidates: int = 0
    #: Pairs the filters eliminated without running the measure.
    pairs_pruned: int = 0
    #: Verified epsilon-similar pairs (edges of the similarity graph).
    graph_edges: int = 0
    #: Maximal cliques (nodes of the enhanced hierarchy).
    cliques: int = 0
    #: True when the q-gram filter stack generated the candidates; False
    #: for all-pairs verification (see :func:`supports_filter`).
    filter_used: bool = False
    graph_seconds: float = 0.0
    #: True when the graph was built by replaying a previous build's
    #: verdicts and verifying only the delta (see
    #: :mod:`repro.similarity.incremental`).
    incremental: bool = False
    #: Rep-level pair verdicts replayed from the cache (incremental only).
    reused_pairs: int = 0
    #: True when the previous enhancement was *patched in place* — only
    #: the buckets of the leaves that came or went were reprocessed and
    #: the enhanced hierarchy was edited, never rebuilt (see
    #: :func:`extend_enhancement`).  Implies ``incremental``.
    patched: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "groups": self.groups,
            "total_pairs": self.total_pairs,
            "candidates": self.candidates,
            "pairs_pruned": self.pairs_pruned,
            "graph_edges": self.graph_edges,
            "cliques": self.cliques,
            "filter_used": self.filter_used,
            "graph_seconds": self.graph_seconds,
            "incremental": self.incremental,
            "reused_pairs": self.reused_pairs,
            "patched": self.patched,
        }


def _order_context_index(
    hierarchy: Hierarchy, nodes: List[Node]
) -> Dict[Node, OrderContext]:
    """Each node's order context, computed in one pass and reused
    everywhere order-safe bucketing is needed (including `_verify`)."""
    return {
        node: (hierarchy.ancestors(node), hierarchy.descendants(node))
        for node in nodes
    }


def order_context_buckets(
    nodes: Iterable[Node], context_index: Mapping[Node, OrderContext]
) -> Dict[OrderContext, List[Node]]:
    """Order-safe mode's comparison buckets: context -> every node carrying it."""
    buckets: Dict[OrderContext, List[Node]] = {}
    for node in nodes:
        buckets.setdefault(context_index[node], []).append(node)
    return buckets


def restore_patch_state(
    enhancement: SimilarityEnhancement, hierarchy: Hierarchy
) -> EpsilonGraphCache:
    """Re-derive what the patch rung needs of an enhancement read from disk.

    A restored order-safe ``enhancement`` of ``hierarchy`` (the fused H
    it was built over) carries neither the build's order-context buckets
    nor a verdict cache; both are functions of what it does carry.  The
    buckets are the order contexts of H, set on ``enhancement``.  The
    returned :class:`~repro.similarity.incremental.EpsilonGraphCache`
    holds, per bucket of two or more nodes, every representative and
    the representative pairs that share a clique: two same-context nodes
    are similar exactly when some maximal clique holds both, and Lemma 1
    makes that verdict a function of their representatives (so a weak
    measure, which SEA never replays, gets an empty cache).
    """
    nodes = list(hierarchy.terms)
    buckets = order_context_buckets(nodes, _order_context_index(hierarchy, nodes))
    enhancement.context_buckets = buckets
    cache = EpsilonGraphCache()
    if enhancement.distance.measure.is_strong:
        strings_of = enhancement.distance.strings_of
        cache.refresh(
            clique_rep_buckets(
                [group for group in buckets.values() if len(group) >= 2],
                (clique.members for clique in enhancement.hierarchy.terms),
                lambda node: min(strings_of(node)),
            )
        )
    return cache


def _connect_rep_level(
    adjacency: Dict[Node, Set[Node]],
    nodes_by_rep: Dict[str, List[Node]],
    rep_edges: Set[Tuple[str, str]],
) -> int:
    """Expand rep-level verdicts into node-level similarity edges.

    Nodes sharing one representative are at distance 0 and always
    connect; distinct-rep pairs connect exactly when their rep pair is an
    epsilon-edge.  Returns the number of node-level edges added — the
    same count a from-scratch :func:`block_edges` pass would report.
    """
    added = 0
    for members in nodes_by_rep.values():
        for i in range(len(members) - 1):
            for j in range(i + 1, len(members)):
                adjacency[members[i]].add(members[j])
                adjacency[members[j]].add(members[i])
                added += 1
    for rep_a, rep_b in rep_edges:
        for node_a in nodes_by_rep.get(rep_a, ()):
            for node_b in nodes_by_rep.get(rep_b, ()):
                adjacency[node_a].add(node_b)
                adjacency[node_b].add(node_a)
                added += 1
    return added


def _similarity_cliques(
    nodes: List[Node],
    distance: NodeDistance,
    epsilon: float,
    context_index: Optional[Dict[Node, OrderContext]] = None,
    guard: Optional[ResourceGuard] = None,
    reuse: Optional[EpsilonGraphCache] = None,
) -> Tuple[
    List[FrozenSet[Node]], SeaStats, Optional[Dict[OrderContext, List[Node]]]
]:
    """Maximal cliques of the epsilon-similarity graph over ``nodes``.

    The third element of the result is the full order-context bucket map
    (singletons included) in order-safe mode, None otherwise; the caller
    stores it on the enhancement for :func:`extend_enhancement`.

    With ``context_index`` given (order-safe mode), an edge additionally
    requires the two nodes to have identical order context — the same
    strict ancestors and descendants — which provably guarantees a
    similarity enhancement exists (see :func:`sea`).  In that mode nodes
    are bucketed by order context, so only same-context pairs are ever
    compared.

    Strong measures compare one deterministic representative string per
    node (Lemma 1) and route through the candidate-generation layer
    (:mod:`repro.similarity.candidates`): a length + q-gram count filter
    prunes almost every pair before the dynamic programme runs.  Weak
    measures need the full string-set cross product per pair and keep
    the plain pair loop.
    """
    measure = distance.measure
    strings_of = distance.strings_of
    adjacency: Dict[Node, Set[Node]] = {node: set() for node in nodes}
    stats = SeaStats()

    # Bucket by order context in order-safe mode; one bucket otherwise.
    buckets: Optional[Dict[OrderContext, List[Node]]] = None
    if context_index is not None:
        buckets = order_context_buckets(nodes, context_index)
        groups = [group for group in buckets.values() if len(group) >= 2]
    else:
        groups = [nodes] if len(nodes) >= 2 else []
    stats.groups = len(groups)
    stats.total_pairs = pair_count([len(group) for group in groups])
    started = time.perf_counter()

    def connect(group: List[Node], index_pairs: Iterable[Tuple[int, int]]) -> None:
        for i, j in index_pairs:
            adjacency[group[i]].add(group[j])
            adjacency[group[j]].add(group[i])

    if measure.is_strong:
        # Lemma 1: one representative per node decides similarity; the
        # lexicographic minimum makes the choice deterministic, which the
        # verdict cache's replay relies on.
        reps_by_group = [
            [min(strings_of(node)) for node in group] for group in groups
        ]
        use_filter = supports_filter(measure)
        stats.filter_used = use_filter
        if reuse is not None and len(reuse) > 0:
            # Incremental path: replay cached rep-level verdicts, filter +
            # verify only pairs involving representatives the cache has
            # not seen.  Verdict purity (Lemma 1) makes the resulting
            # edge set identical to the from-scratch branches below.
            stats.incremental = True
            block_stats = BlockStats()
            refreshed: List[Tuple[Set[str], Set[Tuple[str, str]]]] = []
            for group, reps in zip(groups, reps_by_group):
                rep_set = set(reps)
                rep_edges, reused = delta_rep_edges(
                    rep_set, reuse, measure, epsilon, use_filter,
                    guard=guard, stats=block_stats,
                )
                stats.reused_pairs += reused
                refreshed.append((rep_set, rep_edges))
                nodes_by_rep: Dict[str, List[Node]] = {}
                for node, rep in zip(group, reps):
                    nodes_by_rep.setdefault(rep, []).append(node)
                stats.graph_edges += _connect_rep_level(
                    adjacency, nodes_by_rep, rep_edges
                )
            reuse.refresh(refreshed)
            stats.candidates = block_stats.candidates
        else:
            block_stats = BlockStats()
            edges_by_group = []
            for group, reps in zip(groups, reps_by_group):
                edges, group_stats = block_edges(
                    reps, measure, epsilon, guard=guard, use_filter=use_filter
                )
                block_stats.merge(group_stats)
                edges_by_group.append(edges)
                connect(group, edges)
            stats.candidates = block_stats.candidates
            stats.graph_edges = block_stats.edges
            if reuse is not None:
                # Seed the cache from this full build so the next one can
                # take the delta path.  Same-rep pairs stay implicit (two
                # nodes sharing a representative are always similar).
                seeded: List[Tuple[Set[str], Set[Tuple[str, str]]]] = []
                for edges, reps in zip(edges_by_group, reps_by_group):
                    rep_edges = set()
                    for i, j in edges:
                        rep_i, rep_j = reps[i], reps[j]
                        if rep_i != rep_j:
                            rep_edges.add(
                                (rep_i, rep_j) if rep_i <= rep_j else (rep_j, rep_i)
                            )
                    seeded.append((set(reps), rep_edges))
                reuse.refresh(seeded)
    else:
        # Weak measures: node distance is the min over the full string-set
        # cross product, for which no sound prefilter exists here.
        for group in groups:
            for i in range(len(group) - 1):
                node_a = group[i]
                if guard is not None:
                    # One tick per outer node; this pair loop is the
                    # quadratic hot spot for weak measures.
                    guard.tick(len(group) - 1 - i, what="SEA similarity graph")
                for j in range(i + 1, len(group)):
                    node_b = group[j]
                    stats.candidates += 1
                    close = any(
                        measure.bounded_distance(x, y, epsilon) <= epsilon
                        for x in strings_of(node_a)
                        for y in strings_of(node_b)
                    )
                    if close:
                        stats.graph_edges += 1
                        adjacency[node_a].add(node_b)
                        adjacency[node_b].add(node_a)

    stats.pairs_pruned = max(0, stats.total_pairs - stats.candidates)
    cliques = graphutils.maximal_cliques(adjacency)
    stats.cliques = len(cliques)
    stats.graph_seconds = time.perf_counter() - started
    return cliques, stats, buckets


#: SEA modes: "strict" is Figure 12 verbatim and may find the input
#: similarity-inconsistent (Definition 9); "order-safe" additionally
#: requires similar nodes to share their exact order context, under which
#: an enhancement provably always exists (if u < v, every clique member of
#: u's clique inherits v as an ancestor and vice versa, so the all-pairs
#: edge rule is always satisfiable and acyclic).
STRICT = "strict"
ORDER_SAFE = "order-safe"


def sea(
    hierarchy: Hierarchy,
    measure: "StringSimilarityMeasure | NodeDistance",
    epsilon: float,
    verify: bool = False,
    mode: str = STRICT,
    guard: Optional[ResourceGuard] = None,
    reuse: Optional[EpsilonGraphCache] = None,
) -> SimilarityEnhancement:
    """Run the SEA algorithm of Figure 12.

    Parameters
    ----------
    hierarchy:
        The (fused) hierarchy H to enhance.
    measure:
        A string similarity measure, or a pre-built :class:`NodeDistance`.
    epsilon:
        The DBA's similarity threshold (>= 0).
    verify:
        When True, re-check Definition 8's four conditions on the output
        (Theorem 2's correctness post-condition); useful in tests.
    mode:
        ``"strict"`` (the paper's algorithm — raises on similarity
        inconsistency) or ``"order-safe"`` (only merges terms with the
        same strict ancestors and descendants; never inconsistent, and the
        natural policy when similar surface forms such as "article" /
        "articles" play *different* structural roles).
    guard:
        Optional :class:`~repro.guard.ResourceGuard`; the quadratic
        similarity-graph and edge-derivation loops tick it, so a build
        over a pathological hierarchy is interrupted by
        :class:`~repro.errors.QueryTimeoutError` /
        :class:`~repro.errors.ResourceExhaustedError` instead of hanging.
    reuse:
        Optional :class:`~repro.similarity.incremental.EpsilonGraphCache`
        carrying rep-level verdicts from a previous build under the same
        ``(measure, epsilon)``.  Strong measures replay those verdicts
        and verify only the new-representative delta; the cache is
        refreshed in place either way (a full build seeds it).  The
        resulting enhancement is identical to a from-scratch build.

    Raises
    ------
    SimilarityInconsistencyError
        When no similarity enhancement exists (Definition 9; strict mode).
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if mode not in (STRICT, ORDER_SAFE):
        raise ValueError(f"mode must be 'strict' or 'order-safe', got {mode!r}")
    distance = measure if isinstance(measure, NodeDistance) else NodeDistance(measure)

    if guard is not None:
        guard.check_deadline("SEA build")
    nodes = list(hierarchy.terms)
    # Order contexts are computed once, here, and reused for bucketing and
    # (when verify=True) for the order-safe restriction of condition 3.
    context_index = (
        _order_context_index(hierarchy, nodes) if mode == ORDER_SAFE else None
    )
    # Lines 3-8 of Figure 12: build all maximal pairwise-similar node sets.
    tracer = current_tracer()
    if reuse is not None and not distance.measure.is_strong:
        reuse = None  # verdict purity (Lemma 1) only holds for strong measures
    with tracer.span("sea.similarity_graph", nodes=len(nodes)):
        cliques, stats, context_buckets = _similarity_cliques(
            nodes, distance, epsilon, context_index, guard, reuse
        )
        tracer.annotate(
            total_pairs=stats.total_pairs,
            candidates=stats.candidates,
            edges=stats.graph_edges,
            cliques=stats.cliques,
            incremental=stats.incremental,
        )
    METRICS.counter("sea.candidates").inc(stats.candidates)
    METRICS.counter("sea.graph_edges").inc(stats.graph_edges)
    METRICS.counter("sea.pairs_pruned").inc(
        max(0, stats.total_pairs - stats.candidates)
    )
    stats.mode = mode
    enhanced_nodes = [EnhancedNode(clique) for clique in cliques]

    # Lines 9-10: mu maps each original node to the cliques containing it.
    mu: Dict[Node, Set[EnhancedNode]] = {node: set() for node in nodes}
    for enhanced in enhanced_nodes:
        for member in enhanced.members:
            mu[member].add(enhanced)

    # Lines 11-13: V <=' W iff every cross pair is ordered a <= b in H.
    # (The only relation compatible with both directions of condition 1;
    # see the module docstring.)  For each clique V, precompute the set of
    # H nodes that are above *every* member; W is then an upper neighbour
    # exactly when its members all lie in that set.
    above_all: Dict[EnhancedNode, FrozenSet[Node]] = {}
    for enhanced in enhanced_nodes:
        members = iter(enhanced.members)
        common = set(hierarchy.above(next(members)))
        for member in members:
            common &= hierarchy.above(member)
        above_all[enhanced] = frozenset(common)

    edges: List[Tuple[EnhancedNode, EnhancedNode]] = []
    with tracer.span("sea.edge_derivation", enhanced_nodes=len(enhanced_nodes)):
        # ``W.members <= above_all[V]`` is decided by counting, through mu,
        # how many of W's members lie in V's allowed-upper set: the count
        # equals |W.members| exactly when all of them do.  This walks only
        # the (small) allowed-upper sets instead of all O(|H'|^2) clique
        # pairs, and derives the identical edge set.
        for lower in enhanced_nodes:
            allowed_upper = above_all[lower]
            if guard is not None:
                guard.tick(len(enhanced_nodes), what="SEA edge derivation")
            counts: Dict[EnhancedNode, int] = {}
            for member in allowed_upper:
                for upper in mu.get(member, ()):
                    counts[upper] = counts.get(upper, 0) + 1
            for upper, count in counts.items():
                if upper is not lower and count == len(upper.members):
                    edges.append((lower, upper))
        tracer.annotate(edges=len(edges))

    # Condition-1 forward check: every strict pair a < b in H must be
    # covered, for every pair of cliques containing a resp. b.
    edge_set = set(edges)
    for a in nodes:
        for b in hierarchy.ancestors(a):
            for lower in mu[a]:
                for upper in mu[b]:
                    if lower != upper and (lower, upper) not in edge_set:
                        raise SimilarityInconsistencyError(
                            f"no similarity enhancement exists: {a!s} < {b!s} in H, "
                            f"but the enhanced nodes {lower} and {upper} cannot be "
                            f"ordered without violating condition (1) of Definition 8"
                        )

    # Line 14: check-acyclic(H').  With the all-pairs edge rule the relation
    # is provably acyclic on a DAG, but we keep the explicit check both for
    # faithfulness to Figure 12 and as a defensive invariant.
    adjacency = {node: set() for node in enhanced_nodes}  # type: Dict[EnhancedNode, Set[EnhancedNode]]
    for lower, upper in edges:
        adjacency[lower].add(upper)
    cycle = graphutils.find_cycle(adjacency)
    if cycle is not None:  # pragma: no cover - unreachable on valid inputs
        raise SimilarityInconsistencyError(
            f"similarity enhancement would contain a cycle: "
            f"{' -> '.join(str(c) for c in cycle)}"
        )

    enhanced_hierarchy = Hierarchy(edges, nodes=enhanced_nodes)
    enhancement = SimilarityEnhancement(
        enhanced_hierarchy,
        {node: frozenset(groups) for node, groups in mu.items()},
        epsilon,
        distance,
        mode,
    )
    enhancement.stats = stats
    enhancement.context_buckets = context_buckets
    if verify:
        _verify(hierarchy, enhancement, context_index)
    return enhancement


#: The descendant half of a minimal term's order context.
_NO_DESCENDANTS: FrozenSet[Node] = frozenset()

#: Result of :func:`extend_enhancement`: the patched enhancement plus the
#: enhanced nodes it removed from and added to the previous hierarchy
#: (what the SEO layer needs to patch its string index).
EnhancementPatch = Tuple[
    SimilarityEnhancement, List[EnhancedNode], List[EnhancedNode]
]


def _refuse(reason: str) -> NoReturn:
    """Count the failed patch precondition and hand it to the build ladder."""
    METRICS.counter(f"sea.patch_refused.{reason}").inc()
    raise DeltaRefused(reason)


def extend_enhancement(
    previous: SimilarityEnhancement,
    old_hierarchy: Hierarchy,
    hierarchy: Hierarchy,
    epsilon: float,
    mode: str = STRICT,
    guard: Optional[ResourceGuard] = None,
    reuse: Optional[EpsilonGraphCache] = None,
) -> EnhancementPatch:
    """Patch ``previous`` for minimal terms that came and went, in place of SEA.

    ``hierarchy`` must differ from ``old_hierarchy`` (the hierarchy
    ``previous`` was built over) by *minimal* terms only — new ones
    added, old ones withdrawn: exactly what
    :func:`~repro.ontology.fusion.extend_fusion` and
    :func:`~repro.ontology.fusion.retract_fusion` produce for leaf-only
    mutation deltas.  Under order-safe semantics such a change is local
    by construction:

    * a minimal term's order context is ``(its ancestors, {})``, so the
      only nodes it can ever be similar to are the members of that one
      stored bucket — every other pairwise verdict of the previous build
      is untouched (verdict purity, Lemma 1);
    * members of such a bucket are themselves minimal terms, so the
      cliques gaining or losing members are *sink* nodes of H' — they
      have no incoming H' edges, dropping one cannot orphan an edge, and
      the cliques created (for new leaves, or reborn from what a
      withdrawn leaf's cliques leave behind) attach strictly below
      existing H' nodes, which is precisely the shape
      :meth:`~repro.ontology.hierarchy.Hierarchy.without_leaves` and
      :meth:`~repro.ontology.hierarchy.Hierarchy.extended_with_lower_terms`
      edit without re-reducing;
    * the ancestors of the changed leaves are the only existing nodes
      whose context moves (their descendant sets change).  The patch
      requires each to sit in a singleton clique — the ubiquitous case
      for structural tags — because a context move invalidates any
      similarity edge built on the old context — and to land in a
      context nobody else holds, because a shared context would create
      comparison pairs this patch never runs.

    Every structure the result carries (cliques, mu, H' with its
    closures, context buckets, the rep-level verdict cache) is repaired
    in time proportional to the touched buckets, never the hierarchy;
    withdrawing a leaf runs no distance computation at all.  The output
    is value-identical to a from-scratch :func:`sea` run over
    ``hierarchy`` — the property suite byte-compares the two.

    Raises :class:`~repro.errors.DeltaRefused` naming the precondition
    whenever one fails (strict mode, changed epsilon, weak measure,
    missing bucket map, a non-minimal changed term, a similar or
    colliding ancestor...), after counting it under
    ``sea.patch_refused.<reason>``; callers fall back to :func:`sea`.
    """
    if mode != ORDER_SAFE or previous.mode != ORDER_SAFE:
        _refuse("strict-mode")
    if previous.epsilon != epsilon:
        _refuse("epsilon-changed")
    distance = previous.distance
    measure = distance.measure
    if not measure.is_strong:
        _refuse("weak-measure")
    buckets = previous.context_buckets
    if buckets is None:
        _refuse("no-context-buckets")
    if reuse is None or len(reuse) == 0:
        _refuse("no-verdict-cache")
    mu = previous.mu
    new_nodes = [node for node in hierarchy.terms if node not in mu]
    gone_nodes: List[Node] = []
    if len(hierarchy) != len(mu) + len(new_nodes):
        gone_nodes = [node for node in mu if node not in hierarchy]
    if not new_nodes and not gone_nodes:
        return previous, [], []
    started = time.perf_counter()
    if guard is not None:
        guard.check_deadline("SEA enhancement patch")
    if any(hierarchy.children(node) for node in new_nodes):
        _refuse("new-term-not-minimal")
    if any(old_hierarchy.children(node) for node in gone_nodes):
        _refuse("gone-term-not-minimal")

    # The changed leaves' ancestors are the only existing nodes whose
    # order context moves.  Each must be similar to nothing (singleton
    # clique), and no moved context may coincide with another node's —
    # a coincidence would create comparison pairs this patch never runs.
    gained: Dict[Node, Set[Node]] = {}
    for node in new_nodes:
        for ancestor in hierarchy.ancestors(node):
            gained.setdefault(ancestor, set()).add(node)
    lost: Dict[Node, Set[Node]] = {}
    for node in gone_nodes:
        for ancestor in old_hierarchy.ancestors(node):
            lost.setdefault(ancestor, set()).add(node)
    moved: Dict[Node, OrderContext] = {}
    for ancestor in gained.keys() | lost.keys():
        if mu.get(ancestor) != {EnhancedNode(frozenset({ancestor}))}:
            _refuse("ancestor-not-singleton")
        moved[ancestor] = (
            old_hierarchy.ancestors(ancestor),
            old_hierarchy.descendants(ancestor)
            .difference(lost.get(ancestor, ()))
            .union(gained.get(ancestor, ())),
        )

    # Copy-on-write bucket map: every moving ancestor leaves its old
    # context first, so a context one of them vacates is free for another.
    updated_buckets = dict(buckets)
    for ancestor in moved:
        old_context = (
            old_hierarchy.ancestors(ancestor),
            old_hierarchy.descendants(ancestor),
        )
        members = updated_buckets.get(old_context)
        if members is None or ancestor not in members:
            _refuse("buckets-disagree")  # not the buckets of old_hierarchy
        remaining = [other for other in members if other != ancestor]
        if remaining:
            updated_buckets[old_context] = remaining
        else:
            del updated_buckets[old_context]
    for ancestor, context in moved.items():
        if context in updated_buckets:
            _refuse("moved-context-collides")
        updated_buckets[context] = [ancestor]

    strings_of = distance.strings_of
    use_filter = supports_filter(measure)
    block_stats = BlockStats()
    reused_pairs = 0
    #: touched leaf bucket -> (withdrawn leaves, new leaves)
    groups: Dict[OrderContext, Tuple[List[Node], List[Node]]] = {}
    for node in gone_nodes:
        key = (old_hierarchy.ancestors(node), _NO_DESCENDANTS)
        groups.setdefault(key, ([], []))[0].append(node)
    for node in new_nodes:
        key = (hierarchy.ancestors(node), _NO_DESCENDANTS)
        groups.setdefault(key, ([], []))[1].append(node)

    removed: List[EnhancedNode] = []
    added: List[EnhancedNode] = []

    def drop(clique: EnhancedNode) -> None:
        try:
            added.remove(clique)  # born and dropped within this patch
        except ValueError:
            removed.append(clique)

    #: Working clique sets of the nodes the patch touches (copied from
    #: ``mu`` on first use, so untouched bucket members cost nothing).
    clique_sets: Dict[Node, Set[EnhancedNode]] = {}

    def cliques_of(node: Node) -> Set[EnhancedNode]:
        cliques = clique_sets.get(node)
        if cliques is None:
            cliques = clique_sets[node] = set(mu[node])
        return cliques

    retired_reps: List[str] = []
    absorb_updates: List[Tuple[Set[str], Set[Tuple[str, str]]]] = []
    group_sizes: List[int] = []
    for key, (gone, fresh) in groups.items():
        existing = updated_buckets.get(key, [])
        if any(node not in existing for node in gone):
            _refuse("buckets-disagree")
        # Withdraw the gone leaves one at a time; after each withdrawal
        # the working clique sets are exactly the maximal cliques of the
        # bucket graph without it (so clique co-membership *is* adjacency).
        for node in gone:
            dying = cliques_of(node)
            del clique_sets[node]
            rep = min(strings_of(node))
            if not any(
                min(strings_of(mate)) == rep
                for clique in dying
                for mate in clique.members
                if mate != node
            ):
                retired_reps.append(rep)  # same-rep nodes always share a clique
            for clique in dying:
                for member in clique.members:
                    if member != node:
                        cliques_of(member).discard(clique)
                drop(clique)
            for clique in dying:
                rest = clique.members - {node}
                # What is left is still a clique; it is reborn unless a
                # surviving clique already covers it (condition 4).
                if rest and not any(
                    rest <= other.members
                    for other in cliques_of(next(iter(rest)))
                ):
                    reborn = EnhancedNode(rest)
                    added.append(reborn)
                    for member in rest:
                        cliques_of(member).add(reborn)
        survivors = [node for node in existing if node not in gone]
        fresh = sorted(fresh, key=lambda n: min(strings_of(n)))
        members = survivors + fresh
        if members:
            updated_buckets[key] = members
        else:
            del updated_buckets[key]
        if not fresh:
            continue
        group_sizes.append(len(members))
        reps = {node: min(strings_of(node)) for node in members}
        rep_set = set(reps.values())
        rep_edges, reused = delta_rep_edges(
            rep_set, reuse, measure, epsilon, use_filter,
            guard=guard, stats=block_stats,
        )
        reused_pairs += reused
        if len(members) >= 2:
            absorb_updates.append((rep_set, rep_edges))
        neighbour_reps: Dict[str, Set[str]] = {}
        for rep_a, rep_b in rep_edges:
            neighbour_reps.setdefault(rep_a, set()).add(rep_b)
            neighbour_reps.setdefault(rep_b, set()).add(rep_a)
        nodes_by_rep: Dict[str, List[Node]] = {}
        for node in survivors:
            nodes_by_rep.setdefault(reps[node], []).append(node)
        # Insert the new leaves one at a time, keeping the same invariant.
        for node in fresh:
            rep = reps[node]
            neighbourhood = [
                other for other in nodes_by_rep.get(rep, ()) if other != node
            ]
            for other_rep in neighbour_reps.get(rep, ()):
                neighbourhood.extend(nodes_by_rep.get(other_rep, ()))
            if not neighbourhood:
                clique = EnhancedNode(frozenset({node}))
                added.append(clique)
                clique_sets[node] = {clique}
            else:
                neighbour_set = set(neighbourhood)
                local = {
                    u: {
                        w
                        for w in neighbourhood
                        if w != u and cliques_of(u) & cliques_of(w)
                    }
                    for u in neighbourhood
                }
                # Existing cliques entirely inside the neighbourhood are
                # absorbed (condition 4: the new leaf extends them).
                dead: Set[EnhancedNode] = set()
                for u in neighbourhood:
                    for clique in cliques_of(u):
                        if clique not in dead and clique.members <= neighbour_set:
                            dead.add(clique)
                for clique in dead:
                    for member in clique.members:
                        cliques_of(member).discard(clique)
                    drop(clique)
                clique_sets[node] = set()
                for local_clique in graphutils.maximal_cliques(local):
                    clique = EnhancedNode(frozenset(local_clique | {node}))
                    added.append(clique)
                    for member in clique.members:
                        cliques_of(member).add(clique)
            nodes_by_rep.setdefault(rep, []).append(node)

    new_mu: Dict[Node, FrozenSet[EnhancedNode]] = dict(mu)
    for node in gone_nodes:
        del new_mu[node]
    for node, cliques in clique_sets.items():
        new_mu[node] = frozenset(cliques)

    # Patch H': dropped cliques are sinks (their members are minimal
    # terms), new cliques attach strictly below the ancestor cliques —
    # all of which are singletons (checked above), so every counting
    # step of the full edge derivation degenerates to "one edge per
    # ancestor clique" and no cycle or condition-1 violation is possible.
    patched = previous.hierarchy.without_leaves(removed)
    if patched is None:
        _refuse("dropped-clique-not-a-sink")
    new_edges: List[Tuple[EnhancedNode, EnhancedNode]] = []
    for clique in added:
        member = next(iter(clique.members))
        counts: Dict[EnhancedNode, int] = {}
        for ancestor in hierarchy.ancestors(member):
            for upper in new_mu[ancestor]:
                counts[upper] = counts.get(upper, 0) + 1
        for upper, count in counts.items():
            if count == len(upper.members):
                new_edges.append((clique, upper))
    extended = patched.extended_with_lower_terms(new_edges, new_nodes=added)
    if extended is None:
        _refuse("new-clique-not-a-leaf")
    reuse.retire(retired_reps)
    reuse.absorb(absorb_updates)

    stats = SeaStats(
        mode=mode,
        groups=len(groups),
        total_pairs=pair_count(group_sizes),
        candidates=block_stats.candidates,
        graph_edges=block_stats.edges,
        cliques=len(extended),
        filter_used=use_filter,
        incremental=True,
        reused_pairs=reused_pairs,
        patched=True,
    )
    stats.pairs_pruned = max(0, stats.total_pairs - stats.candidates)
    stats.graph_seconds = time.perf_counter() - started
    METRICS.counter("sea.candidates").inc(stats.candidates)
    METRICS.counter("sea.graph_edges").inc(stats.graph_edges)
    METRICS.counter("sea.patched_builds").inc()
    enhancement = SimilarityEnhancement(
        extended, new_mu, epsilon, distance, mode
    )
    enhancement.stats = stats
    enhancement.context_buckets = updated_buckets
    return enhancement, removed, added


def _verify(
    hierarchy: Hierarchy,
    enhancement: SimilarityEnhancement,
    context_index: Optional[Dict[Node, OrderContext]] = None,
) -> None:
    """Assert Definition 8's four conditions hold for the output.

    ``context_index`` is the order-context map the build already computed
    (order-safe mode only); it is reused here rather than re-traversing
    the hierarchy.
    """
    distance = enhancement.distance
    epsilon = enhancement.epsilon
    enhanced = enhancement.hierarchy
    mu = enhancement.mu

    # Condition 2: co-members of any enhanced node are within epsilon.
    for node in enhanced.terms:
        for a, b in itertools.combinations(node.members, 2):
            assert distance(a, b) <= epsilon, f"condition 2 violated by {a}, {b}"

    # Condition 3: every epsilon-close pair shares an enhanced node.  In
    # order-safe mode the similarity relation is deliberately restricted to
    # order-equivalent pairs, so condition 3 is checked within order
    # contexts only, reusing the context index the build computed.
    originals = list(hierarchy.terms)
    if enhancement.mode != ORDER_SAFE:
        for a, b in itertools.combinations(originals, 2):
            if distance(a, b) <= epsilon:
                assert mu[a] & mu[b], f"condition 3 violated by {a}, {b}"
    else:
        if context_index is None:
            context_index = _order_context_index(hierarchy, originals)
        for a, b in itertools.combinations(originals, 2):
            if context_index[a] == context_index[b] and distance(a, b) <= epsilon:
                assert mu[a] & mu[b], (
                    f"condition 3 (order-restricted) violated by {a}, {b}"
                )

    # Condition 4: no enhanced node's member set subsumes another's.
    for first, second in itertools.permutations(enhanced.terms, 2):
        assert not first.members < second.members, "condition 4 violated"

    # Condition 1 (both directions).
    for a in originals:
        for b in originals:
            if a == b or not hierarchy.leq(a, b):
                continue
            for lower in mu[a]:
                for upper in mu[b]:
                    assert enhanced.leq(lower, upper), (
                        f"condition 1 (forward) violated: {a} <= {b} but "
                        f"{lower} !<= {upper}"
                    )
    for lower in enhanced.terms:
        for upper in enhanced.terms:
            if lower == upper or not enhanced.leq(lower, upper):
                continue  # zero-length paths impose nothing (Definition 8)
            for a in lower.members:
                for b in upper.members:
                    assert hierarchy.leq(a, b), (
                        f"condition 1 (backward) violated: {lower} <= {upper} "
                        f"but {a} !<= {b}"
                    )
