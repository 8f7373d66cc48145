"""The TAX algebra operators (Section 2.1.2 and Section 5.1.2's base forms).

All operators take and return *collections*: lists of data-tree roots.
They are pure — outputs are freshly copied trees — and evaluate
conditions through a :class:`~repro.tax.conditions.ConditionContext`, so
the same code runs plain TAX (default context) and TOSS (SEO context).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Set, Tuple, Union

from ..xmldb.model import XmlNode
from .conditions import Binding, ConditionContext, DEFAULT_CONTEXT
from .embedding import assemble_forest, find_embeddings, find_matches, witness_tree
from .pattern import PatternTree
from .tree import Collection, dedupe

#: A compiled pattern condition (see :mod:`repro.tax.compile`) and the
#: tag restrictions derived from it — the batched operators'
#: accelerations (:mod:`repro.tax.batch`), exactly equivalent to
#: interpreting ``pattern.condition`` the way the operators here do.
ConditionEvaluator = Callable[[Binding], bool]
TagRestrictions = Mapping[int, Set[str]]

#: The synthetic root tag used by the product operator (Figure 7).
PRODUCT_ROOT_TAG = "tax_prod_root"

#: A projection-list entry: a label, or (label, keep_subtree).
ProjectionEntry = Union[int, Tuple[int, bool]]


def selection(
    collection: Collection,
    pattern: PatternTree,
    sl_labels: Iterable[int] = (),
    context: ConditionContext = DEFAULT_CONTEXT,
) -> List[XmlNode]:
    """``sigma_{P, SL}``: all witness trees of ``pattern`` over the collection.

    ``sl_labels`` lists the pattern nodes whose images are inflated to
    their full subtrees in each witness (Example 3).  Results use set
    semantics: structurally duplicate witnesses are collapsed.
    """
    sl = list(sl_labels)
    pattern.validate()
    order = list(pattern.preorder())
    if pattern.root in sl:
        # Root-inflating selections (the paper's Figure 16 shape): every
        # image lies inside the root image's subtree and the root is
        # inflated, so each witness is exactly a copy of that subtree.
        # Build one witness per distinct root image instead of one per
        # embedding — equivalent under set semantics, since embeddings
        # sharing a root image produce structurally equal witnesses.
        root_label = pattern.root
        tops: Dict[int, XmlNode] = {}
        for tree in collection:
            for binding in find_matches(pattern, tree, context, order=order):
                top = binding[root_label]
                tops.setdefault(top.object_id, top)
        # Dedupe on the sources before copying: a copy's canonical key
        # equals its source subtree's, so skipping duplicate sources
        # yields exactly ``dedupe([copy per top])`` without paying for
        # the duplicate copies.
        seen: Set[Tuple] = set()
        out: List[XmlNode] = []
        for top in tops.values():
            key = top.canonical_key()
            if key in seen:
                continue
            seen.add(key)
            out.append(top.copy_numbered(itertools.count(), itertools.count()))
        return out
    witnesses: List[XmlNode] = []
    for tree in collection:
        for embedding in find_embeddings(pattern, tree, context, order=order):
            witnesses.append(witness_tree(embedding, sl))
    return dedupe(witnesses)


def projection(
    collection: Collection,
    pattern: PatternTree,
    pl: Sequence[ProjectionEntry],
    context: ConditionContext = DEFAULT_CONTEXT,
) -> List[XmlNode]:
    """``pi_{P, PL}``: keep nodes matched by the PL labels, per input tree.

    For every input tree, the data nodes bound to a PL label in *some*
    satisfying embedding are retained (with their full subtree when the
    entry is ``(label, True)``), re-assembled under their hierarchical
    relationships; unmatched trees contribute nothing.  Disconnected
    matches become separate output trees (Example 5 returns a collection
    of author subtrees).
    """
    entries: List[Tuple[int, bool]] = [
        entry if isinstance(entry, tuple) else (entry, False) for entry in pl
    ]
    pattern.validate()
    order = list(pattern.preorder())
    results: List[XmlNode] = []
    for tree in collection:
        matched: Set[XmlNode] = set()
        for binding in find_matches(pattern, tree, context, order=order):
            for label, keep_subtree in entries:
                image = binding.get(label)
                if image is None:
                    continue
                matched.add(image)
                if keep_subtree:
                    matched.update(image.descendants())
        if matched:
            results.extend(assemble_forest(matched))
    return dedupe(results)


def product_tree(first: XmlNode, second: XmlNode) -> XmlNode:
    """Copy both trees under a fresh product root, numbering as it copies.

    Single-pass equivalent of ``copy()`` + ``renumber()`` on the product
    root — the inner loops of ``product`` dominate the naive join
    strategy, so the second traversal is worth fusing away.
    """
    pre = itertools.count()
    post = itertools.count()
    root = XmlNode(PRODUCT_ROOT_TAG)
    root.pre = next(pre)
    for tree in (first, second):
        sub = tree.copy_numbered(pre, post, 1)
        sub.parent = root
        root.children.append(sub)
    root.post = next(post)
    return root


def product(left: Collection, right: Collection) -> List[XmlNode]:
    """``SDB1 x SDB2``: pair every tree of each side under a new root.

    "The product ... contains for each pair of trees T1, T2 a tree, whose
    root is a new node (called tax_prod_root), left child is the root of
    T1 and right child is the root of T2."
    """
    pairs: List[XmlNode] = []
    for first in left:
        for second in right:
            pairs.append(product_tree(first, second))
    return pairs


def join(
    left: Collection,
    right: Collection,
    pattern: PatternTree,
    sl_labels: Iterable[int] = (),
    context: ConditionContext = DEFAULT_CONTEXT,
) -> List[XmlNode]:
    """Condition join: product followed by selection (Example 6)."""
    return selection(product(left, right), pattern, sl_labels, context)


def union(left: Collection, right: Collection) -> List[XmlNode]:
    """Set union under the paper's tree equality."""
    return dedupe([tree.copy().renumber() for tree in list(left) + list(right)])


def intersection(left: Collection, right: Collection) -> List[XmlNode]:
    """Set intersection under tree equality."""
    right_keys = {tree.canonical_key() for tree in right}
    kept = [tree for tree in dedupe(left) if tree.canonical_key() in right_keys]
    return [tree.copy().renumber() for tree in kept]


def difference(left: Collection, right: Collection) -> List[XmlNode]:
    """Set difference (left minus right) under tree equality."""
    right_keys = {tree.canonical_key() for tree in right}
    kept = [tree for tree in dedupe(left) if tree.canonical_key() not in right_keys]
    return [tree.copy().renumber() for tree in kept]
