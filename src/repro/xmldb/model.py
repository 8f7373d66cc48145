"""Ordered labelled trees — the semistructured instances of Definition 1.

A semistructured instance is a set of rooted, directed, *ordered* trees
whose objects carry a ``tag`` (the label of the edge to the parent) and a
``content`` (text).  :class:`XmlNode` realises one object; a document is
the tree under a root node.

Nodes carry preorder/postorder numbers (assigned by :meth:`XmlNode.renumber`
on the root) so that ancestor/descendant tests and document-order
comparisons — which the TAX embedding machinery performs constantly — are
O(1): ``u`` is an ancestor of ``v`` iff ``u.pre < v.pre and u.post > v.post``.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

_object_ids = itertools.count(1)


class XmlNode:
    """One object of a semistructured instance.

    Attributes
    ----------
    tag:
        The element name (``o.tag`` in Definition 1).
    text:
        The node's own character data, stripped (``o.content``).
    attributes:
        XML attributes, preserved for fidelity to the source documents
        (the SIGMOD record files use ``position`` attributes).
    children:
        Ordered list of child nodes.
    parent:
        Backlink, None for roots.
    pre, post, depth:
        Pre-/post-order numbers and depth; valid after :meth:`renumber`
        has been called on the root.
    object_id:
        A process-unique identity for the node (the member of the object
        set O); survives renumbering.
    """

    __slots__ = (
        "tag",
        "text",
        "attributes",
        "children",
        "parent",
        "pre",
        "post",
        "depth",
        "object_id",
    )

    def __init__(
        self,
        tag: str,
        text: str = "",
        attributes: Optional[Dict[str, str]] = None,
        children: Optional[List["XmlNode"]] = None,
    ) -> None:
        self.tag = tag
        self.text = text
        self.attributes: Dict[str, str] = dict(attributes) if attributes else {}
        self.children: List[XmlNode] = []
        self.parent: Optional[XmlNode] = None
        self.pre = -1
        self.post = -1
        self.depth = 0
        self.object_id = next(_object_ids)
        for child in children or []:
            self.append(child)

    # -- construction -------------------------------------------------------

    def append(self, child: "XmlNode") -> "XmlNode":
        """Attach ``child`` as the last child; returns the child."""
        child.parent = self
        self.children.append(child)
        return child

    def element(self, tag: str, text: str = "", **attributes: str) -> "XmlNode":
        """Create-and-append a child element; returns the new child."""
        return self.append(XmlNode(tag, text, attributes))

    def renumber(self) -> "XmlNode":
        """(Re)assign pre/post/depth over the subtree rooted here.

        Must be called on a root after structural edits before any
        order-dependent operation; returns self for chaining.
        """
        pre_counter = itertools.count()
        post_counter = itertools.count()

        def visit(node: "XmlNode", depth: int) -> None:
            node.pre = next(pre_counter)
            node.depth = depth
            for child in node.children:
                visit(child, depth + 1)
            node.post = next(post_counter)

        visit(self, 0)
        return self

    # -- content ------------------------------------------------------------

    @property
    def content(self) -> str:
        """The object's content attribute — its own text."""
        return self.text

    # -- traversal -------------------------------------------------------------

    def iter(self) -> Iterator["XmlNode"]:
        """Preorder traversal of the subtree including self."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_with_paths(self) -> Iterator[Tuple["XmlNode", Tuple[str, ...]]]:
        """Preorder traversal yielding each node with its root-to-node tag path.

        The path starts at this node's own tag, so iterating a document
        root yields the paths the structural tag-path index is keyed by.
        """
        stack: List[Tuple[XmlNode, Tuple[str, ...]]] = [(self, (self.tag,))]
        while stack:
            node, path = stack.pop()
            yield node, path
            for child in reversed(node.children):
                stack.append((child, path + (child.tag,)))

    def descendants(self) -> Iterator["XmlNode"]:
        """Preorder traversal of strict descendants."""
        nodes = self.iter()
        next(nodes)  # drop self
        return nodes

    def ancestors(self) -> Iterator["XmlNode"]:
        """Walk from the parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "XmlNode":
        """The root of the tree containing this node."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def find_all(self, tag: str) -> List["XmlNode"]:
        """All descendants-or-self with the given tag, in document order."""
        return [node for node in self.iter() if node.tag == tag]

    def find_first(self, tag: str) -> Optional["XmlNode"]:
        """First descendant-or-self with the given tag, or None."""
        for node in self.iter():
            if node.tag == tag:
                return node
        return None

    def child_by_tag(self, tag: str) -> Optional["XmlNode"]:
        """First direct child with the given tag, or None."""
        for child in self.children:
            if child.tag == tag:
                return child
        return None

    # -- structure queries ------------------------------------------------------

    def size(self) -> int:
        """Number of nodes in the subtree including self."""
        return sum(1 for _ in self.iter())

    # -- copying -------------------------------------------------------------

    def copy(self) -> "XmlNode":
        """Deep structural copy; new object identities, numbering unset."""
        clone = XmlNode(self.tag, self.text, self.attributes)
        for child in self.children:
            clone.append(child.copy())
        return clone

    def copy_numbered(
        self,
        pre_counter: "itertools.count",
        post_counter: "itertools.count",
        depth: int = 0,
    ) -> "XmlNode":
        """Deep copy that assigns pre/post/depth in the same pass.

        Single-traversal equivalent of ``copy()`` + ``renumber()``; the
        shared counters let a caller number a synthetic root and several
        copied subtrees as one tree (the product operator's hot loop).
        Slots are written directly — this is the innermost loop of the
        naive join strategy and the constructor call is measurable there.
        """
        clone: XmlNode = XmlNode.__new__(XmlNode)
        clone.tag = self.tag
        clone.text = self.text
        attributes = self.attributes
        clone.attributes = dict(attributes) if attributes else {}
        clone.children = attach = []
        clone.parent = None
        clone.pre = next(pre_counter)
        clone.post = -1
        clone.depth = depth
        clone.object_id = next(_object_ids)
        for child in self.children:
            sub = child.copy_numbered(pre_counter, post_counter, depth + 1)
            sub.parent = clone
            attach.append(sub)
        clone.post = next(post_counter)
        return clone

    # -- comparison ----------------------------------------------------------

    def structurally_equal(self, other: "XmlNode") -> bool:
        """Ordered tree equality on (tag, text, attributes) — Section 5.1.2.

        Matches the paper's tree-equality used by the set operators: an
        order- and edge-preserving isomorphism under which the value atoms
        agree is exactly positional equality of tag/text/attributes.
        """
        if (
            self.tag != other.tag
            or self.text != other.text
            or self.attributes != other.attributes
            or len(self.children) != len(other.children)
        ):
            return False
        return all(
            mine.structurally_equal(theirs)
            for mine, theirs in zip(self.children, other.children)
        )

    def canonical_key(self) -> Tuple:
        """A hashable key equal for structurally equal trees."""
        return (
            self.tag,
            self.text,
            tuple(sorted(self.attributes.items())),
            tuple(child.canonical_key() for child in self.children),
        )

    def __repr__(self) -> str:
        summary = f" {self.text[:30]!r}" if self.text else ""
        return f"<{self.tag}{summary} children={len(self.children)}>"


def ancestor_of(candidate: XmlNode, node: XmlNode) -> bool:
    """O(1) strict-ancestor test using pre/post numbering.

    Both nodes must belong to the same renumbered tree; falls back to a
    parent-pointer walk if numbering is absent.
    """
    if candidate.pre >= 0 and node.pre >= 0 and candidate.root() is node.root():
        return candidate.pre < node.pre and candidate.post > node.post
    return any(ancestor is candidate for ancestor in node.ancestors())


def document_order(nodes: Iterable[XmlNode]) -> List[XmlNode]:
    """Sort nodes of one tree by preorder position."""
    return sorted(nodes, key=lambda node: node.pre)


def build(tag: str, *children: "XmlNode | str", **attributes: str) -> XmlNode:
    """Declarative tree construction helper.

    Strings become the node's text; nodes become children:

    >>> tree = build("inproceedings", build("author", "J. Ullman"))
    >>> tree.children[0].text
    'J. Ullman'
    """
    node = XmlNode(tag, attributes=attributes)
    texts: List[str] = []
    for child in children:
        if isinstance(child, str):
            texts.append(child)
        else:
            node.append(child)
    node.text = " ".join(texts)
    return node
