"""Embeddings and witness trees (Section 2.1.1).

An embedding of a pattern tree P into a data tree is a total mapping from
pattern nodes to data nodes that preserves pc/ad structure and satisfies
the selection condition.  Enumeration is by backtracking in pattern
preorder, with candidate sets pruned through the tag restrictions the
condition implies (via :func:`repro.tax.conditions.required_tags`) and the
per-document tag index.

Each embedding induces a witness tree: the images of the pattern nodes,
re-assembled under the closest-ancestor relation, preserving document
order (Definition in Section 2.1.1); selection additionally inflates the
images of SL-listed pattern nodes to their full subtrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from ..xmldb.model import XmlNode, ancestor_of
from .conditions import Binding, ConditionContext, DEFAULT_CONTEXT, required_tags
from .pattern import AD, PC, PatternNode, PatternTree


@dataclass(slots=True)
class Embedding:
    """A satisfying total mapping from pattern labels to data nodes."""

    pattern: PatternTree
    binding: Dict[int, XmlNode]

    def image(self, label: int) -> XmlNode:
        return self.binding[label]

    def __repr__(self) -> str:
        body = ", ".join(f"#{label}->{node.tag}" for label, node in self.binding.items())
        return f"Embedding({body})"


def _tag_buckets(tree: XmlNode) -> Dict[str, List[XmlNode]]:
    """All subtree nodes bucketed by tag, each bucket in document order.

    One preorder pass shared by the root pool and the ad-edge probes.
    """
    buckets: Dict[str, List[XmlNode]] = {}
    for node in tree.iter():
        bucket = buckets.get(node.tag)
        if bucket is None:
            buckets[node.tag] = [node]
        else:
            bucket.append(node)
    return buckets


def find_embeddings(
    pattern: PatternTree,
    tree: XmlNode,
    context: ConditionContext = DEFAULT_CONTEXT,
    order: Optional[Sequence[PatternNode]] = None,
) -> Iterator[Embedding]:
    """Enumerate all embeddings of ``pattern`` into ``tree``.

    ``order`` may be the pattern's precomputed (validated) preorder;
    passing it lets a caller looping over many trees pay validation
    once.  The condition is evaluated once per complete structural
    match (candidate tag pruning makes the common conjunctive queries
    cheap before that point).
    """
    for binding in find_matches(pattern, tree, context, order=order):
        yield Embedding(pattern, dict(binding))


def find_matches(
    pattern: PatternTree,
    tree: XmlNode,
    context: ConditionContext = DEFAULT_CONTEXT,
    order: Optional[Sequence[PatternNode]] = None,
) -> Iterator[Binding]:
    """Like :func:`find_embeddings`, but yields the *live* binding dict.

    The same dict object is yielded for every match (and mutated between
    yields) — callers that keep a binding past one iteration must copy
    it.  Callers that only inspect one or two labels per match (the
    root-inflating selection fast path, projection's PL probes) skip
    the per-match :class:`Embedding` + dict-copy allocation this way.
    """
    if order is None:
        pattern.validate()
        order = list(pattern.preorder())
    restrictions = required_tags(pattern.condition)
    binding: Dict[int, XmlNode] = {}
    condition = pattern.condition

    buckets: Optional[Dict[str, List[XmlNode]]] = None

    def tag_bucket(tag: str) -> List[XmlNode]:
        nonlocal buckets
        if buckets is None:
            buckets = _tag_buckets(tree)
        return buckets.get(tag, [])

    def candidates(pattern_node: PatternNode) -> Iterable[XmlNode]:
        tags = restrictions.get(pattern_node.label)
        if pattern_node.parent is None:
            if tags is None:
                return tree.iter()
            pool: Iterable[XmlNode] = []
            for tag in tags:
                pool.extend(tag_bucket(tag))
            return pool
        anchor = binding[pattern_node.parent]
        if pattern_node.edge == PC:
            pool = anchor.children
        else:
            if tags is not None and len(tags) == 1 and anchor is tree:
                # Descendants of the whole tree's root, one tag wanted:
                # the shared bucket pass answers this directly (document
                # order, minus the root itself) — no per-probe rescan.
                (tag,) = tags
                return [node for node in tag_bucket(tag) if node is not anchor]
            pool = anchor.descendants()
        if tags is None:
            return pool
        return (node for node in pool if node.tag in tags)

    def backtrack(position: int) -> Iterator[Binding]:
        if position == len(order):
            if condition.evaluate(binding, context):
                yield binding
            return
        pattern_node = order[position]
        for candidate in candidates(pattern_node):
            binding[pattern_node.label] = candidate
            yield from backtrack(position + 1)
        binding.pop(pattern_node.label, None)

    yield from backtrack(0)


def find_embeddings_in_collection(
    pattern: PatternTree,
    trees: Sequence[XmlNode],
    context: ConditionContext = DEFAULT_CONTEXT,
) -> Iterator[Embedding]:
    """Embeddings across a collection; each embedding stays within one tree."""
    for tree in trees:
        yield from find_embeddings(pattern, tree, context)


# ---------------------------------------------------------------------------
# Witness-tree assembly
# ---------------------------------------------------------------------------


def assemble_forest(nodes: Iterable[XmlNode]) -> List[XmlNode]:
    """Copy a set of same-tree nodes into new trees under closest ancestors.

    The originals are arranged by document order; each selected node's
    parent in the output is its closest strict ancestor that was also
    selected (the witness-tree edge rule), and nodes with no selected
    ancestor become roots of separate output trees.
    """
    ordered = sorted(set(nodes), key=lambda node: node.pre)
    roots: List[XmlNode] = []
    stack: List[XmlNode] = []  # originals whose clones are open
    clones: Dict[int, XmlNode] = {}
    for node in ordered:
        while stack and not ancestor_of(stack[-1], node):
            stack.pop()
        clone = XmlNode(node.tag, node.text, node.attributes)
        clones[node.object_id] = clone
        if stack:
            clones[stack[-1].object_id].append(clone)
        else:
            roots.append(clone)
        stack.append(node)
    for root in roots:
        root.renumber()
    return roots


def witness_tree(
    embedding: Embedding, sl_labels: Iterable[int] = ()
) -> XmlNode:
    """The witness tree of one embedding.

    ``sl_labels`` is selection's SL list: the full subtree of each listed
    pattern node's image is included ("if a node v in SL appears in a
    witness tree, then all descendants of v will also be added").
    """
    selected: Set[XmlNode] = set(embedding.binding.values())
    for label in sl_labels:
        image = embedding.binding.get(label)
        if image is not None:
            selected.update(image.descendants())
    forest = assemble_forest(selected)
    # The pattern is a tree, so the root's image is an ancestor-or-self of
    # every other image and the forest always has exactly one tree.
    assert len(forest) == 1, "witness assembly produced a forest"
    return forest[0]
