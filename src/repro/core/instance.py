"""Ontology-extended and SEO semistructured instances (Section 5).

* :class:`SemistructuredInstance` — the triple ``(V, E, t)`` of
  Definition 1: a data tree plus a typing of each object's tag/content.
* :class:`OntologyExtendedInstance` — the quadruple ``(V, E, t, H_isa)``.
* :class:`SeoInstance` — the quadruple with a similarity enhanced
  ontology ``(H'_isa, mu)``.

The instances are thin, immutable-by-convention views: the algebra
operators work on the underlying tree collections and the condition
contexts carry the ontology, so these classes mostly exist to mirror the
paper's formal objects, hold per-instance typing, and give the facade a
well-named unit of administration.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..ontology.hierarchy import Hierarchy, Ontology
from ..similarity.seo import SimilarityEnhancedOntology
from ..xmldb.model import XmlNode
from ..xmldb.serializer import document_bytes
from .conditions import TypingFunction, default_typing
from .types import STRING


class SemistructuredInstance:
    """A named collection of data trees with a typing function."""

    def __init__(
        self,
        name: str,
        trees: Sequence[XmlNode],
        typing: TypingFunction = default_typing,
    ) -> None:
        self.name = name
        self.trees: List[XmlNode] = list(trees)
        self.typing = typing

    def type_of(self, node: XmlNode, attribute: str) -> str:
        """``t(o, attr)`` — the type of an object's tag or content."""
        return self.typing(node, attribute)

    def total_bytes(self) -> int:
        return sum(document_bytes(tree) for tree in self.trees)

    def total_nodes(self) -> int:
        return sum(tree.size() for tree in self.trees)

    def tags(self) -> "set[str]":
        found: "set[str]" = set()
        for tree in self.trees:
            for node in tree.iter():
                found.add(node.tag)
        return found

    def __len__(self) -> int:
        return len(self.trees)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {len(self.trees)} trees)"


class OntologyExtendedInstance(SemistructuredInstance):
    """``(V, E, t, H_isa)`` — an instance with an associated ontology.

    ``ontology`` may be a zero-argument callable producing it: a system
    restored from disk answers queries from its persisted SEOs and needs
    an instance's own ontology only at the next build or write, so the
    extraction runs on first access instead of at load time.
    """

    def __init__(
        self,
        name: str,
        trees: Sequence[XmlNode],
        ontology: "Ontology | Callable[[], Ontology]",
        typing: TypingFunction = default_typing,
    ) -> None:
        super().__init__(name, trees, typing)
        self._ontology = ontology

    @property
    def ontology(self) -> Ontology:
        if not isinstance(self._ontology, Ontology):
            self._ontology = self._ontology()
        return self._ontology

    @property
    def isa(self) -> Hierarchy:
        return self.ontology.isa

    @property
    def part_of(self) -> Hierarchy:
        return self.ontology.part_of


class SeoInstance(SemistructuredInstance):
    """``(V, E, t, (H'_isa, mu))`` — an instance under a (shared) SEO.

    Produced by the TOSS algebra's base case: ``[EI]_F`` maps every input
    instance's terms into the similarity enhanced fusion F (Section
    5.1.2).  All SeoInstances of one database share the same SEO object.
    """

    def __init__(
        self,
        name: str,
        trees: Sequence[XmlNode],
        seo: SimilarityEnhancedOntology,
        typing: TypingFunction = default_typing,
    ) -> None:
        super().__init__(name, trees, typing)
        self.seo = seo

    @classmethod
    def lift(
        cls, instance: SemistructuredInstance, seo: SimilarityEnhancedOntology
    ) -> "SeoInstance":
        """The ``tr_F`` mapping: view an instance under the fused SEO."""
        return cls(instance.name, instance.trees, seo, instance.typing)
