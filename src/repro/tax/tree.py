"""Data-tree collection helpers shared by the TAX and TOSS operators.

A TAX "collection" is simply a list of :class:`~repro.xmldb.model.XmlNode`
roots.  These helpers implement the tree-identity notion of Section 5.1.2
("two data trees are equal iff there exists an isomorphism preserving
edges and order under which value atoms agree" — i.e. positional equality
of tag/text/attributes) and the set-semantics plumbing built on it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..xmldb.model import XmlNode

Collection = Sequence[XmlNode]


def trees_equal(first: XmlNode, second: XmlNode) -> bool:
    """The paper's tree equality (order-preserving isomorphism + atoms)."""
    return first.structurally_equal(second)


def canonical_keys(collection: Collection) -> List[Tuple]:
    """Canonical key per tree; equal keys == equal trees."""
    return [tree.canonical_key() for tree in collection]


def dedupe(collection: Iterable[XmlNode]) -> List[XmlNode]:
    """Remove structural duplicates, keeping first occurrences in order."""
    seen: Dict[Tuple, XmlNode] = {}
    result: List[XmlNode] = []
    for tree in collection:
        key = tree.canonical_key()
        if key not in seen:
            seen[key] = tree
            result.append(tree)
    return result
