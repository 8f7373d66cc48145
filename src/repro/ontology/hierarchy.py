"""Hierarchies (Hasse diagrams of partial orders) and ontologies.

Section 4.1: "Suppose (S, <=) is a partially ordered set.  A *hierarchy*
for (S, <=) is the Hasse diagram for (S, <=) ... a directed acyclic graph
whose set of nodes is S [with] a minimal set of edges such that there is a
path from u to v in the Hasse diagram iff u <= v."

Edges therefore point *upward*: an edge ``u -> v`` means ``u <= v`` and v
covers u (author -> article in the part-of example).  The constructor
accepts any acyclic edge set and normalises it to the minimal (transitively
reduced) Hasse form, so ``Hierarchy`` values are canonical: two hierarchies
encode the same partial order iff they compare equal.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
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

from .. import graphutils
from ..errors import UnknownTermError

Term = Hashable


class Hierarchy:
    """An immutable Hasse diagram over a finite set of terms.

    Parameters
    ----------
    edges:
        Pairs ``(u, v)`` meaning ``u <= v`` (or a mapping ``u -> iterable``
        of upper covers).  The pairs may contain redundant (transitively
        implied) edges; they are reduced to Hasse form.
    nodes:
        Additional isolated terms that carry no order relationships.

    Raises
    ------
    HierarchyCycleError
        If the supplied edges contain a directed cycle (a partial order is
        antisymmetric, so cycles are impossible).
    """

    __slots__ = ("_parents", "_children", "_up", "_down", "_hash")

    def __init__(
        self,
        edges: "Iterable[Tuple[Term, Term]] | Mapping[Term, Iterable[Term]]" = (),
        nodes: Iterable[Term] = (),
    ) -> None:
        if isinstance(edges, Mapping):
            edge_pairs = [(u, v) for u, targets in edges.items() for v in targets]
        else:
            edge_pairs = [(u, v) for u, v in edges]
        graph: Dict[Term, Set[Term]] = {}
        for u, v in edge_pairs:
            if u == v:
                continue  # reflexive pairs are implicit in a partial order
            graph.setdefault(u, set()).add(v)
            graph.setdefault(v, set())
        for node in nodes:
            graph.setdefault(node, set())
        reduced = graphutils.transitive_reduction(graph)  # also checks acyclicity
        self._parents: Dict[Term, FrozenSet[Term]] = {
            node: frozenset(targets) for node, targets in reduced.items()
        }
        # The children map comes from ``_parents``; closures stay lazy.
        children: Dict[Term, Set[Term]] = {node: set() for node in self._parents}
        for node, targets in self._parents.items():
            for target in targets:
                children[target].add(node)
        self._children: Dict[Term, FrozenSet[Term]] = {
            node: frozenset(kids) for node, kids in children.items()
        }
        self._up: Optional[Dict[Term, FrozenSet[Term]]] = None
        self._down: Optional[Dict[Term, FrozenSet[Term]]] = None
        self._hash: Optional[int] = None

    @property
    def _up_closure(self) -> Dict[Term, FrozenSet[Term]]:
        """Reachability closure over ``_parents``, computed on first use.

        Laziness matters for restored hierarchies (loads):
        the closure is the dominant construction cost and a process that
        only serialises or compares the hierarchy never needs it.
        """
        if self._up is None:
            self._up = {
                node: frozenset(targets)
                for node, targets in graphutils.transitive_closure(
                    self._parents
                ).items()
            }
        return self._up

    @property
    def _down_closure(self) -> Dict[Term, FrozenSet[Term]]:
        if self._down is None:
            self._down = {
                node: frozenset(targets)
                for node, targets in graphutils.transitive_closure(
                    self._children
                ).items()
            }
        return self._down

    # -- basic container protocol -----------------------------------------

    def __contains__(self, term: Term) -> bool:
        return term in self._parents

    def __iter__(self) -> Iterator[Term]:
        return iter(self._parents)

    def __len__(self) -> int:
        return len(self._parents)

    @property
    def terms(self) -> AbstractSet[Term]:
        """The node set S of the partial order."""
        return self._parents.keys()

    def edges(self) -> Iterator[Tuple[Term, Term]]:
        """Hasse edges as ``(lower, upper)`` pairs."""
        for node, targets in self._parents.items():
            for target in targets:
                yield (node, target)

    def edge_count(self) -> int:
        return sum(len(targets) for targets in self._parents.values())

    # -- order queries ------------------------------------------------------

    def _require(self, term: Term) -> None:
        if term not in self._parents:
            raise UnknownTermError(f"term {term!r} is not in the hierarchy")

    def parents(self, term: Term) -> FrozenSet[Term]:
        """Upper covers of ``term`` (immediate Hasse successors)."""
        self._require(term)
        return self._parents[term]

    def children(self, term: Term) -> FrozenSet[Term]:
        """Lower covers of ``term``."""
        self._require(term)
        return self._children[term]

    def leq(self, lower: Term, upper: Term) -> bool:
        """The partial order: True iff ``lower <= upper``.

        Reflexive: ``leq(x, x)`` is True for any term in the hierarchy.
        """
        self._require(lower)
        self._require(upper)
        return lower == upper or upper in self._up_closure[lower]

    def lt(self, lower: Term, upper: Term) -> bool:
        """Strict order: ``lower <= upper`` and ``lower != upper``."""
        return lower != upper and self.leq(lower, upper)

    def ancestors(self, term: Term) -> FrozenSet[Term]:
        """All terms strictly above ``term``."""
        self._require(term)
        return self._up_closure[term]

    def descendants(self, term: Term) -> FrozenSet[Term]:
        """All terms strictly below ``term``."""
        self._require(term)
        return self._down_closure[term]

    def below(self, term: Term) -> FrozenSet[Term]:
        """``{t | t <= term}`` — the paper's below-set without dom(tau)."""
        return self.descendants(term) | {term}

    def above(self, term: Term) -> FrozenSet[Term]:
        """``{t | term <= t}`` including ``term`` itself."""
        return self.ancestors(term) | {term}

    def roots(self) -> FrozenSet[Term]:
        """Maximal terms (no strict ancestors)."""
        return frozenset(node for node in self._parents if not self._parents[node])

    def least_upper_bound(self, left: Term, right: Term) -> Optional[Term]:
        """The least common upper bound of two terms, or None.

        Used for the *least common supertype* of Section 5.1.1.  Returns
        None when no upper bound exists or no unique least one does.
        """
        common = self.above(left) & self.above(right)
        if not common:
            return None
        minimal = [
            candidate
            for candidate in common
            if not any(self.lt(other, candidate) for other in common)
        ]
        if len(minimal) == 1:
            return minimal[0]
        return None

    # -- derivation ----------------------------------------------------------

    def extended_with_lower_terms(
        self,
        new_edges: Iterable[Tuple[Term, Term]],
        new_nodes: Iterable[Term] = (),
    ) -> Optional["Hierarchy"]:
        """Incremental extension: add edges whose *lower* ends are new terms.

        The streaming-ingest fast path: when a mutation only introduces
        new terms *below* the existing order (new content values under
        their tags, fresh hypernym chains), the Hasse diagram and the
        reachability closures can be extended in time proportional to the
        delta instead of re-reducing the whole graph.  The result is
        value-identical to ``Hierarchy(list(self.edges()) + new_edges,
        nodes=self.terms | new_nodes)`` — the canonical from-scratch
        construction — because:

        * no new edge leaves an existing term, so no new path between
          existing terms can appear: existing cover edges and existing
          up-closures are untouched;
        * each new term's cover set is computed by minimalising its edge
          targets against the (seeded) closures, exactly what transitive
          reduction would do.

        Returns None when the precondition does not hold (some new edge's
        lower end already exists, or the new edges are cyclic among
        themselves); callers then fall back to the full constructor.
        ``new_nodes`` adds isolated terms (already-present ones are
        ignored, matching the constructor).
        """
        grouped: Dict[Term, List[Term]] = {}
        for lower, upper in new_edges:
            if lower == upper:
                continue
            if lower in self._parents:
                return None
            grouped.setdefault(lower, []).append(upper)
        isolated = [
            node
            for node in new_nodes
            if node not in self._parents and node not in grouped
        ]
        if not grouped and not isolated:
            return self
        # Topologically order the new terms over new-new edges so a term's
        # closure is computed after its new uppers'.
        order: List[Term] = []
        state: Dict[Term, int] = {}  # 1 = visiting, 2 = done

        def visit(term: Term) -> bool:
            mark = state.get(term)
            if mark == 2:
                return True
            if mark == 1:
                return False  # cycle among the new terms
            state[term] = 1
            for upper in grouped.get(term, ()):
                if upper in grouped and not visit(upper):
                    return False
            state[term] = 2
            order.append(term)
            return True

        for term in grouped:
            if not visit(term):
                return None

        up = self._up_closure
        new_up: Dict[Term, FrozenSet[Term]] = {}

        def closure_of(term: Term) -> FrozenSet[Term]:
            if term in new_up:
                return new_up[term]
            return up.get(term, frozenset())

        new_parents: Dict[Term, FrozenSet[Term]] = {}
        new_uppers: Set[Term] = set()
        for term in order:
            targets: List[Term] = []
            for upper in grouped[term]:
                if upper not in targets:
                    targets.append(upper)
            # Minimalise: drop any target reachable from another target —
            # exactly the edges transitive reduction would remove.
            covers = [
                target
                for target in targets
                if not any(
                    other != target and target in closure_of(other)
                    for other in targets
                )
            ]
            reach: Set[Term] = set()
            for upper in targets:
                reach.add(upper)
                reach.update(closure_of(upper))
            new_up[term] = frozenset(reach)
            new_parents[term] = frozenset(covers)
            for upper in targets:
                if upper not in self._parents and upper not in grouped:
                    new_uppers.add(upper)

        extended = Hierarchy.__new__(Hierarchy)
        parents = dict(self._parents)
        parents.update(new_parents)
        for term in isolated:
            parents[term] = frozenset()
        for upper in new_uppers:
            parents.setdefault(upper, frozenset())
        extended._parents = parents

        children = dict(self._children)
        for term in order:
            children.setdefault(term, frozenset())
            for upper in new_parents[term]:
                children[upper] = children.get(upper, frozenset()) | {term}
        for term in isolated:
            children.setdefault(term, frozenset())
        for upper in new_uppers:
            children.setdefault(upper, frozenset())
        extended._children = children

        # Seed the closures: existing up-closures are unchanged; existing
        # down-closures gain exactly the new terms below them.
        up_seeded = dict(up)
        up_seeded.update(new_up)
        for term in isolated:
            up_seeded[term] = frozenset()
        for upper in new_uppers:
            up_seeded.setdefault(upper, frozenset())
        extended._up = up_seeded
        if self._down is not None:
            below: Dict[Term, Set[Term]] = {}
            for term in order:
                for ancestor in new_up[term]:
                    below.setdefault(ancestor, set()).add(term)
            down_seeded = dict(self._down)
            for ancestor, gained in below.items():
                down_seeded[ancestor] = down_seeded.get(ancestor, frozenset()) | gained
            for term in order:
                down_seeded[term] = frozenset(below.get(term, ()))
            for term in isolated:
                down_seeded.setdefault(term, frozenset())
            extended._down = down_seeded
        else:
            extended._down = None
        extended._hash = None
        return extended

    def without_leaves(self, terms: Iterable[Term]) -> Optional["Hierarchy"]:
        """Incremental removal of a *downward-closed* set of terms.

        The inverse fast path of :meth:`extended_with_lower_terms`.  A
        set is downward-closed when every child of a removed term is
        removed too — a set of minimal terms, or a fresh hypernym chain
        leaving with its top.  No path between two survivors can pass
        through such a set (a term below a removed one is removed), so
        removing it cannot reconnect or reorder the remaining terms: the
        survivors' covers lose their removed children, the down-closures
        of their ancestors lose the removed terms, and everything else
        (including every surviving up-closure) is untouched.  The result
        is value-identical to rebuilding from the surviving edges.

        Returns None when a term is absent or a surviving term sits below
        a removed one (its removal would change reachability between
        survivors); callers fall back to full construction.
        """
        doomed = set(terms)
        if not doomed:
            return self
        for term in doomed:
            if term not in self._parents or not self._children[term] <= doomed:
                return None
        removed = Hierarchy.__new__(Hierarchy)
        parents = {
            node: targets
            for node, targets in self._parents.items()
            if node not in doomed
        }
        removed._parents = parents
        children = dict(self._children)
        for term in doomed:
            for upper in self._parents[term]:
                if upper not in doomed:
                    children[upper] = children[upper] - doomed
            del children[term]
        removed._children = children
        if self._up is not None:
            up = dict(self._up)
            for term in doomed:
                del up[term]
            removed._up = up
        else:
            removed._up = None
        if self._down is not None:
            down = dict(self._down)
            ancestors: Set[Term] = set()
            if self._up is not None:
                for term in doomed:
                    ancestors.update(self._up[term])
            else:
                # Walk covers upward: this touches only the doomed
                # terms' (small) ancestor cones.
                stack = [
                    upper for term in doomed for upper in self._parents[term]
                ]
                while stack:
                    node = stack.pop()
                    if node not in ancestors:
                        ancestors.add(node)
                        stack.extend(self._parents[node])
            for term in doomed:
                del down[term]
            for ancestor in ancestors:
                if ancestor in down:
                    down[ancestor] = down[ancestor] - doomed
            removed._down = down
        else:
            removed._down = None
        removed._hash = None
        return removed

    def with_terms(self, extra_terms: Iterable[Term]) -> "Hierarchy":
        """A new hierarchy with additional isolated terms added."""
        return Hierarchy(self.edges(), nodes=set(self.terms) | set(extra_terms))

    # -- value semantics ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hierarchy):
            return NotImplemented
        return self._parents == other._parents

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                frozenset((node, targets) for node, targets in self._parents.items())
            )
        return self._hash

    def __repr__(self) -> str:
        return (
            f"Hierarchy({self.edge_count()} edges over {len(self)} terms)"
        )

    def pretty(self) -> str:
        """Multi-line indented rendering, roots first."""
        lines: List[str] = []

        def visit(term: Term, depth: int) -> None:
            lines.append("  " * depth + str(term))
            for child in sorted(self._children[term], key=str):
                visit(child, depth + 1)

        for root in sorted(self.roots(), key=str):
            visit(root, 0)
        return "\n".join(lines)


class Ontology:
    """Definition 3: a partial mapping from relation names to hierarchies.

    The paper fixes a set Sigma of distinguished strings — at least ``isa``
    and ``part-of`` — and an ontology assigns a hierarchy to each.  Missing
    names default to the empty hierarchy so ``isa`` and ``part-of`` are
    always defined, as the paper assumes.
    """

    ISA = "isa"
    PART_OF = "part-of"

    def __init__(self, hierarchies: Optional[Mapping[str, Hierarchy]] = None) -> None:
        self._hierarchies: Dict[str, Hierarchy] = dict(hierarchies or {})
        self._hierarchies.setdefault(self.ISA, Hierarchy())
        self._hierarchies.setdefault(self.PART_OF, Hierarchy())

    def __getitem__(self, relation: str) -> Hierarchy:
        try:
            return self._hierarchies[relation]
        except KeyError:
            raise KeyError(f"ontology has no {relation!r} hierarchy") from None

    def __contains__(self, relation: str) -> bool:
        return relation in self._hierarchies

    def __iter__(self) -> Iterator[str]:
        return iter(self._hierarchies)

    def __len__(self) -> int:
        return len(self._hierarchies)

    @property
    def isa(self) -> Hierarchy:
        """The distinguished isa hierarchy."""
        return self._hierarchies[self.ISA]

    @property
    def part_of(self) -> Hierarchy:
        """The distinguished part-of hierarchy."""
        return self._hierarchies[self.PART_OF]

    def relations(self) -> FrozenSet[str]:
        return frozenset(self._hierarchies)

    def term_count(self) -> int:
        """Total number of terms across hierarchies (paper's ontology size)."""
        return sum(len(h) for h in self._hierarchies.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ontology):
            return NotImplemented
        return self._hierarchies == other._hierarchies

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}: {len(h)} terms" for name, h in sorted(self._hierarchies.items())
        )
        return f"Ontology({parts})"
