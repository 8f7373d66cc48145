"""Canonical fusion of hierarchies under interoperation constraints.

Definitions 5-6 and the paper's references [3, 2]: given hierarchies
``<H_i, <=_i>`` and constraints IC, build the *hierarchy graph* (the Hasse
edges of every input, plus one directed edge per ``<=`` constraint and two
per ``=`` constraint), then compute the *canonical* integration:

1. every strongly connected component of the hierarchy graph is a set of
   scoped terms that the constraints force to be equivalent — it becomes a
   single node of the fused hierarchy (a :class:`FusedNode`);
2. the condensation DAG, transitively reduced, is the fused Hasse diagram;
3. each witness mapping ``psi_i`` sends ``x`` in ``H_i`` to the fused node
   containing ``x:i``.

This construction satisfies both axioms of Definition 5 (order preservation
and constraint preservation) with a minimal node set, and reproduces the
paper's Figure 11 example (see tests).  ``!=`` constraints are checked
afterwards: if both sides land in the same fused node the constraint set is
unsatisfiable and :class:`~repro.errors.FusionInconsistencyError` is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from .. import graphutils
from ..errors import ConstraintError, DeltaRefused, FusionInconsistencyError
from ..guard import ResourceGuard
from .constraints import (
    EqualityConstraint,
    InequalityConstraint,
    InteroperationConstraint,
    ScopedTerm,
    SubsumptionConstraint,
)
from .hierarchy import Hierarchy


@dataclass(frozen=True)
class FusedNode:
    """A node of the canonical fused hierarchy.

    Wraps the set of scoped terms merged into this node.  ``label`` is a
    human-readable canonical name (the lexicographically smallest term
    string), and ``strings`` is the set of distinct term strings the node
    contains — exactly the "set of strings contained in a node" that the
    similarity machinery of Section 4.3 operates on.
    """

    members: FrozenSet[ScopedTerm]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a fused node must contain at least one scoped term")

    @property
    def strings(self) -> FrozenSet[str]:
        """Distinct term strings of the merged scoped terms."""
        return frozenset(str(member.term) for member in self.members)

    @property
    def label(self) -> str:
        """Deterministic representative string for display and sorting."""
        return min(self.strings)

    def contains_term(self, term: Hashable) -> bool:
        """True iff some scoped member has exactly this (unscoped) term."""
        return any(member.term == term for member in self.members)

    def __str__(self) -> str:
        if len(self.strings) == 1:
            return self.label
        return "{" + ", ".join(sorted(self.strings)) + "}"

    def __repr__(self) -> str:
        return f"FusedNode({str(self)})"


class FusionResult:
    """The canonical fusion: fused hierarchy + witness mappings.

    ``hierarchy`` is a :class:`Hierarchy` whose terms are
    :class:`FusedNode` values; ``witness`` maps each scoped term ``x:i`` to
    its fused node (the paper's ``psi_i`` mappings, combined).
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        witness: Mapping[ScopedTerm, FusedNode],
    ) -> None:
        self.hierarchy = hierarchy
        self.witness: Dict[ScopedTerm, FusedNode] = dict(witness)
        self._term_index: Optional[Dict[Hashable, Set[FusedNode]]] = None

    @property
    def _by_term(self) -> Dict[Hashable, Set[FusedNode]]:
        """Unscoped term -> fused nodes, built on first lookup (a fusion
        the write path merely extends or retracts never needs it)."""
        if self._term_index is None:
            self._term_index = {}
            for scoped, node in self.witness.items():
                self._term_index.setdefault(scoped.term, set()).add(node)
        return self._term_index

    def node_of(self, term: Hashable, source: Optional[Hashable] = None) -> FusedNode:
        """The fused node of a term.

        With ``source`` given, looks up the scoped term exactly.  Without,
        the term must resolve unambiguously across sources.
        """
        if source is not None:
            scoped = ScopedTerm(term, source)
            try:
                return self.witness[scoped]
            except KeyError:
                raise ConstraintError(f"no fused node for {scoped}") from None
        nodes = self._by_term.get(term, set())
        if not nodes:
            raise ConstraintError(f"term {term!r} does not occur in any input hierarchy")
        if len(nodes) > 1:
            raise ConstraintError(
                f"term {term!r} is ambiguous across sources; pass source= explicitly"
            )
        return next(iter(nodes))

    def nodes_of_term(self, term: Hashable) -> FrozenSet[FusedNode]:
        """All fused nodes containing the (unscoped) term."""
        return frozenset(self._by_term.get(term, frozenset()))

    def psi(self, source: Hashable) -> Dict[Hashable, FusedNode]:
        """The witness mapping ``psi_source`` restricted to one input."""
        return {
            scoped.term: node
            for scoped, node in self.witness.items()
            if scoped.source == source
        }

    def __repr__(self) -> str:
        return f"FusionResult({len(self.hierarchy)} fused nodes)"


def hierarchy_graph(
    hierarchies: Mapping[Hashable, Hierarchy],
    constraints: Iterable[InteroperationConstraint] = (),
) -> Dict[ScopedTerm, Set[ScopedTerm]]:
    """The hierarchy graph of Definition 6 as an adjacency mapping.

    Nodes are scoped terms ``x:i``; edges are the Hasse edges of each input
    hierarchy plus one edge per ``<=`` constraint (two per ``=``).  ``!=``
    constraints contribute no edges (they are checked post-fusion).
    """
    graph: Dict[ScopedTerm, Set[ScopedTerm]] = {}
    for source, hierarchy in hierarchies.items():
        for term in hierarchy.terms:
            graph.setdefault(ScopedTerm(term, source), set())
        for lower, upper in hierarchy.edges():
            graph[ScopedTerm(lower, source)].add(ScopedTerm(upper, source))
    for constraint in constraints:
        constraint.validate(hierarchies)
        if isinstance(constraint, EqualityConstraint):
            first, second = constraint.decompose()
            graph[first.left].add(first.right)
            graph[second.left].add(second.right)
        elif isinstance(constraint, SubsumptionConstraint):
            graph[constraint.left].add(constraint.right)
        elif isinstance(constraint, InequalityConstraint):
            continue
        else:  # pragma: no cover - defensive
            raise ConstraintError(f"unknown constraint type {type(constraint).__name__}")
    return graph


def canonical_fusion(
    hierarchies: Mapping[Hashable, Hierarchy],
    constraints: Iterable[InteroperationConstraint] = (),
    guard: Optional["ResourceGuard"] = None,
) -> FusionResult:
    """Compute the canonical fusion of the input hierarchies under IC.

    ``guard`` (a :class:`~repro.guard.ResourceGuard`) bounds the build:
    the graph construction and condensation tick it per node, so a fusion
    over pathological inputs raises instead of hanging.

    Raises
    ------
    FusionInconsistencyError
        If an ``x:i != y:j`` constraint's two sides end up merged.
    ConstraintError
        If a constraint references an unknown hierarchy or term.
    """
    constraint_list = list(constraints)
    graph = hierarchy_graph(hierarchies, constraint_list)
    if guard is not None:
        guard.tick(len(graph), what="canonical fusion")
        guard.check_deadline("canonical fusion")
    dag, membership = graphutils.condensation(graph)
    if guard is not None:
        guard.tick(len(membership), what="canonical fusion")
        guard.check_deadline("canonical fusion")

    fused_of_component: Dict[FrozenSet[ScopedTerm], FusedNode] = {
        component: FusedNode(component) for component in dag
    }
    fused_edges: List[Tuple[FusedNode, FusedNode]] = [
        (fused_of_component[source_c], fused_of_component[target_c])
        for source_c, targets in dag.items()
        for target_c in targets
    ]
    hierarchy = Hierarchy(fused_edges, nodes=fused_of_component.values())
    witness = {
        scoped: fused_of_component[component]
        for scoped, component in membership.items()
    }

    for constraint in constraint_list:
        if isinstance(constraint, InequalityConstraint):
            if witness[constraint.left] is witness[constraint.right] or (
                witness[constraint.left] == witness[constraint.right]
            ):
                raise FusionInconsistencyError(
                    f"constraint {constraint!r} is violated: both terms were fused "
                    f"into {witness[constraint.left]}"
                )
    return FusionResult(hierarchy, witness)


def extend_fusion(
    prev: FusionResult,
    added_edges: Mapping[Hashable, Iterable[Tuple[Hashable, Hashable]]],
    added_nodes: Optional[Mapping[Hashable, Iterable[Hashable]]] = None,
) -> FusionResult:
    """Extend a fusion with per-source *leaf* deltas, without recondensing.

    ``added_edges[source]`` lists ``(lower, upper)`` Hasse pairs whose
    lower term is new to that source; ``added_nodes[source]`` lists new
    isolated terms.  Under an unchanged constraint set (the caller's
    responsibility to check) such a delta cannot create or grow any
    strongly connected component of the hierarchy graph: a new term has
    no incoming edges, so no cycle can pass through it.  Each new scoped
    term therefore condenses to a singleton :class:`FusedNode`, the old
    components are untouched, and the fused Hasse diagram extends via
    :meth:`Hierarchy.extended_with_lower_terms` — producing exactly the
    result ``canonical_fusion`` would on the grown inputs, in time
    proportional to the delta.

    Raises :class:`~repro.errors.DeltaRefused` when the delta is not
    leaf-only for some source (``"added-term-exists"``: a "new" lower
    term is already witnessed there; ``"added-edges-cyclic"``); callers
    fall back to the full fusion.
    """
    singleton: Dict[ScopedTerm, FusedNode] = {}

    def node_for(scoped: ScopedTerm) -> FusedNode:
        node = singleton.get(scoped)
        if node is None:
            node = FusedNode(frozenset({scoped}))
            singleton[scoped] = node
        return node

    fused_edges: List[Tuple[FusedNode, FusedNode]] = []
    for source, edges in added_edges.items():
        pairs = [(lower, upper) for lower, upper in edges]
        for lower, _ in pairs:
            if ScopedTerm(lower, source) in prev.witness:
                raise DeltaRefused("added-term-exists")
        for lower, upper in pairs:
            scoped_upper = ScopedTerm(upper, source)
            existing = prev.witness.get(scoped_upper)
            # An unwitnessed upper is itself new to this source (e.g. the
            # top of a fresh hypernym chain) and condenses to a singleton,
            # just like the new lowers.
            upper_node = existing if existing is not None else node_for(scoped_upper)
            fused_edges.append((node_for(ScopedTerm(lower, source)), upper_node))
    isolated_nodes: List[FusedNode] = []
    for source, terms in (added_nodes or {}).items():
        for term in terms:
            scoped = ScopedTerm(term, source)
            if scoped in prev.witness:
                raise DeltaRefused("added-term-exists")
            isolated_nodes.append(node_for(scoped))

    if not singleton:
        return prev
    hierarchy = prev.hierarchy.extended_with_lower_terms(
        fused_edges, new_nodes=isolated_nodes
    )
    if hierarchy is None:
        raise DeltaRefused("added-edges-cyclic")
    witness = dict(prev.witness)
    for scoped, node in singleton.items():
        witness[scoped] = node
    return FusionResult(hierarchy, witness)


def retract_fusion(
    prev: FusionResult,
    removed_terms: Mapping[Hashable, Iterable[Hashable]],
    removed_edges: Mapping[Hashable, Iterable[Tuple[Hashable, Hashable]]],
    constraints: Iterable[InteroperationConstraint] = (),
) -> FusionResult:
    """Withdraw per-source *leaf* terms from a fusion — :func:`extend_fusion`'s dual.

    ``removed_terms[source]`` lists the terms that left that source's
    hierarchy and ``removed_edges[source]`` the Hasse pairs that left
    with them.  A term that condensed to a singleton :class:`FusedNode`
    with nothing below it has no incoming edge in the hierarchy graph,
    so deleting it (and its outgoing edges) changes no other component
    and no other path: the fused diagram shrinks via
    :meth:`Hierarchy.without_leaves` to exactly what
    ``canonical_fusion`` would build on the shrunk inputs.

    Raises :class:`~repro.errors.DeltaRefused` otherwise: a withdrawn
    edge whose lower term stays (``"removed-edge-between-survivors"``),
    a term some constraint names (``"removed-term-constrained"`` — the
    full fusion must reject that constraint), one fused with other terms
    or unknown (``"removed-term-fused"``), or one with terms below it
    (``"removed-term-has-children"``).
    """
    doomed: Dict[ScopedTerm, FusedNode] = {}
    for source, edges in removed_edges.items():
        leaving = set(removed_terms.get(source, ()))
        if any(lower not in leaving for lower, _ in edges):
            raise DeltaRefused("removed-edge-between-survivors")
    for source, terms in removed_terms.items():
        for term in terms:
            scoped = ScopedTerm(term, source)
            node = prev.witness.get(scoped)
            if node is None or len(node.members) != 1:
                raise DeltaRefused("removed-term-fused")
            doomed[scoped] = node
    if not doomed:
        return prev
    for constraint in constraints:
        if constraint.left in doomed or constraint.right in doomed:
            raise DeltaRefused("removed-term-constrained")
    hierarchy = prev.hierarchy.without_leaves(doomed.values())
    if hierarchy is None:
        raise DeltaRefused("removed-term-has-children")
    witness = {
        scoped: node for scoped, node in prev.witness.items() if scoped not in doomed
    }
    return FusionResult(hierarchy, witness)


def fuse_single(hierarchy: Hierarchy, source: Hashable = 1) -> FusionResult:
    """Wrap one hierarchy as a (trivial) fusion of itself.

    Convenient when a database has a single instance: the TOSS algebra is
    defined over a fusion, so single-instance setups go through here.
    """
    return canonical_fusion({source: hierarchy})
