"""The Ontology Maker — component (1) of the TOSS architecture (Figure 8).

"The Ontology Maker associates an ontology with each semistructured
instance I in SDB.  It uses WordNet to automatically identify isa,
equivalent, and part-of relationships between terms in an SDB.  These can
be edited further and refined by a database administrator..."

Construction per instance:

* **part-of** — structural extraction: every parent/child tag nesting in
  the document contributes a ``child.tag part-of parent.tag`` pair (the
  hierarchies of Figure 9 are exactly this shape), plus any lexicon
  holonym pairs between tags.
* **isa** — the lexicon's hypernym chains seeded from the document's tags,
  plus, for the configured *content tags* (author, booktitle, ...), every
  content value as a term *below* its tag (values are types with singleton
  domains, Section 5's "each value of a type may also be viewed as a
  type").  This is what puts "Jeffrey D. Ullman" into the ontology so the
  SEO can later group it with "J. Ullman".
* **DBA rules** — explicit ``(relation, lower, upper)`` edge rules layered
  on top, mirroring the paper's "user-specified rules".

Self-nesting tags (a ``cite`` inside a ``cite``) would make the extracted
relation cyclic, which a partial order cannot be; such edges are dropped,
matching the Hasse-diagram reading of Definition 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import graphutils
from ..xmldb.model import XmlNode
from .hierarchy import Hierarchy, Ontology
from .lexicon import Lexicon, bibliography_lexicon

#: Tags whose content values are lifted into the isa hierarchy by default.
DEFAULT_CONTENT_TAGS = frozenset({"author", "booktitle", "conference", "editor"})

Rule = Tuple[str, str, str]  # (relation, lower_term, upper_term)


def _strings(values, count: Optional[int] = None) -> List[str]:
    """``values`` as a list of strings (of length ``count``), else TypeError."""
    values = list(values)
    if not all(isinstance(value, str) for value in values) or count not in (
        None,
        len(values),
    ):
        raise TypeError(f"expected {count or 'a list of'} strings, got {values!r}")
    return values


class OntologyMaker:
    """Builds an :class:`Ontology` from an XML instance.

    Parameters
    ----------
    lexicon:
        Lexical KB used for hypernym/holonym/synonym extraction; defaults
        to the embedded bibliographic lexicon.
    content_tags:
        Element names whose text content becomes ontology terms (isa their
        tag).  Pass an empty set for a pure schema-level ontology.
    rules:
        DBA rules: ``(relation, lower, upper)`` triples appended as edges.
    max_content_terms:
        Safety cap on the number of content values lifted per instance
        (the paper's ontologies have on the order of 1-2k terms).
    """

    def __init__(
        self,
        lexicon: Optional[Lexicon] = None,
        content_tags: Iterable[str] = DEFAULT_CONTENT_TAGS,
        rules: Sequence[Rule] = (),
        max_content_terms: Optional[int] = None,
    ) -> None:
        self.lexicon = lexicon if lexicon is not None else bibliography_lexicon()
        self.content_tags = frozenset(content_tags)
        self.rules = list(rules)
        self.max_content_terms = max_content_terms

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-compatible snapshot of the whole configuration."""
        return {
            "lexicon": self.lexicon.to_dict(),
            "content_tags": sorted(self.content_tags),
            "rules": [list(rule) for rule in self.rules],
            "max_content_terms": self.max_content_terms,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "OntologyMaker":
        """Rebuild a maker from :meth:`to_dict` output.

        Raises ``ValueError`` naming the first field that is missing or
        malformed — a maker restored with a silently defaulted field
        would extract a different ontology than the one that was saved.
        """
        fields = {}
        for name, restore in (
            ("lexicon", Lexicon.from_dict),
            ("content_tags", lambda tags: frozenset(_strings(tags))),
            ("rules", lambda rules: [tuple(_strings(rule, 3)) for rule in rules]),
            ("max_content_terms", lambda cap: None if cap is None else int(cap)),
        ):
            try:
                fields[name] = restore(payload[name])
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise ValueError(f"maker field {name!r}: {exc!r}") from exc
        return cls(**fields)

    # -- public API ----------------------------------------------------------

    def make(self, root: XmlNode) -> Ontology:
        """Build the ontology of one semistructured instance."""
        isa_edges = self._isa_edges(root)
        part_of_edges = self._part_of_edges(root)
        for relation, lower, upper in self.rules:
            if relation == Ontology.ISA:
                isa_edges.append((lower, upper))
            elif relation == Ontology.PART_OF:
                part_of_edges.append((lower, upper))
            else:
                raise ValueError(f"unknown rule relation {relation!r}")
        tags = self._document_tags(root)
        return Ontology(
            {
                Ontology.ISA: _acyclic_hierarchy(isa_edges, nodes=tags),
                Ontology.PART_OF: _acyclic_hierarchy(part_of_edges, nodes=tags),
            }
        )

    def make_many(self, roots: Iterable[XmlNode]) -> List[Ontology]:
        """One ontology per instance (Figure 8 runs the maker per I in SDB)."""
        return [self.make(root) for root in roots]

    def make_combined(self, roots: Iterable[XmlNode]) -> Ontology:
        """One ontology covering several documents of the same source.

        Sources like the SIGMOD proceedings ship as many small documents
        sharing one schema; their extracted edges are unioned before the
        Hasse normalisation.
        """
        isa_edges: List[Tuple[str, str]] = []
        part_of_edges: List[Tuple[str, str]] = []
        tags: Set[str] = set()
        for root in roots:
            isa_edges.extend(self._isa_edges(root))
            part_of_edges.extend(self._part_of_edges(root))
            tags.update(self._document_tags(root))
        for relation, lower, upper in self.rules:
            if relation == Ontology.ISA:
                isa_edges.append((lower, upper))
            elif relation == Ontology.PART_OF:
                part_of_edges.append((lower, upper))
            else:
                raise ValueError(f"unknown rule relation {relation!r}")
        return Ontology(
            {
                Ontology.ISA: _acyclic_hierarchy(isa_edges, nodes=tags),
                Ontology.PART_OF: _acyclic_hierarchy(part_of_edges, nodes=tags),
            }
        )

    # -- extraction ---------------------------------------------------------------

    def _document_tags(self, root: XmlNode) -> Set[str]:
        return {node.tag for node in root.iter()}

    def _part_of_edges(self, root: XmlNode) -> List[Tuple[str, str]]:
        edges: Set[Tuple[str, str]] = set()
        for node in root.iter():
            for child in node.children:
                if child.tag != node.tag:
                    edges.add((child.tag, node.tag))
            if node.tag in self.content_tags and node.text:
                for whole in self.lexicon.holonyms(node.text):
                    edges.add((node.text, whole))
        for tag in self._document_tags(root):
            for whole in self.lexicon.holonyms(tag):
                edges.add((tag, whole))
        return sorted(edges)

    def _isa_edges(self, root: XmlNode) -> List[Tuple[str, str]]:
        edges: Set[Tuple[str, str]] = set()

        # Seed terms: the schema vocabulary plus lifted content values.
        seeds: List[str] = list(self._document_tags(root))
        lifted = 0
        for node in root.iter():
            if node.tag in self.content_tags and node.text:
                if (
                    self.max_content_terms is not None
                    and lifted >= self.max_content_terms
                ):
                    break
                if node.text != node.tag:
                    edges.add((node.text, node.tag))
                    lifted += 1
                seeds.append(node.text)

        # Hypernym chains followed transitively from every seed, so a
        # venue's category reaches "conference", "event", etc.
        frontier = list(seeds)
        seen: Set[str] = set(frontier)
        while frontier:
            term = frontier.pop()
            for hypernym in self.lexicon.hypernyms(term):
                edges.add((term, hypernym))
                if hypernym not in seen:
                    seen.add(hypernym)
                    frontier.append(hypernym)
        return sorted(edges)


def _acyclic_hierarchy(
    edges: Sequence[Tuple[str, str]], nodes: Iterable[str] = ()
) -> Hierarchy:
    """Build a hierarchy, greedily dropping edges that would close cycles."""
    adjacency: Dict[str, Set[str]] = {}
    accepted: List[Tuple[str, str]] = []
    for lower, upper in edges:
        if lower == upper:
            continue
        if graphutils.has_path(adjacency, upper, lower):
            continue  # would create a cycle — skip, keeping the earlier edges
        adjacency.setdefault(lower, set()).add(upper)
        adjacency.setdefault(upper, set())
        accepted.append((lower, upper))
    return Hierarchy(accepted, nodes=nodes)


@dataclass
class RelationDelta:
    """What one document batch contributed to one extracted relation."""

    added_edges: List[Tuple[str, str]] = field(default_factory=list)
    added_nodes: List[str] = field(default_factory=list)
    #: Terms that entered the hierarchy with this batch (edge endpoints
    #: not previously present, plus the isolated additions).
    added_terms: Set[str] = field(default_factory=set)
    #: True when the hierarchy was grown via the leaf-extension fast path
    #: (every genuinely new edge hangs a new term below the existing
    #: order) — the condition under which downstream fusion can extend
    #: incrementally too.
    leaf_only: bool = True

    @property
    def empty(self) -> bool:
        return not self.added_edges and not self.added_nodes


class CombinedExtraction:
    """Replays :meth:`OntologyMaker.make_combined` one document batch at a time.

    The greedy cycle-dropping pass of ``_acyclic_hierarchy`` consumes the
    concatenated per-document edge lists in order, so its accepted graph
    after documents ``d1..dn`` is a pure function of that prefix.  This
    state object keeps the accepted adjacency per relation and continues
    the greedy pass over each newly appended batch, producing an ontology
    **identical** to ``make_combined`` over all documents seen so far:

    * a re-extracted duplicate edge is a no-op in both paths (the
      adjacency is unchanged, and ``Hierarchy`` de-duplicates);
    * a genuinely new edge faces exactly the ``has_path`` check the full
      pass would apply, against the same adjacency.

    Only valid for makers without DBA rules: ``make_combined`` appends
    rules *after* all documents, so a continuation would replay them in
    the wrong position.  Callers check :attr:`supported` and fall back to
    the full combine.  Removals/replacements are likewise out of scope —
    the greedy state is not reversible — so callers rebuild this state
    from the surviving documents.
    """

    _RELATIONS = (Ontology.ISA, Ontology.PART_OF)

    def __init__(self, maker: OntologyMaker) -> None:
        self.maker = maker
        self._adjacency: Dict[str, Dict[str, Set[str]]] = {
            relation: {} for relation in self._RELATIONS
        }
        self._tags: Set[str] = set()
        self._hierarchies: Dict[str, Hierarchy] = {
            relation: Hierarchy() for relation in self._RELATIONS
        }

    @property
    def supported(self) -> bool:
        return not self.maker.rules

    @property
    def ontology(self) -> Ontology:
        return Ontology(dict(self._hierarchies))

    def extend(self, roots: Sequence[XmlNode]) -> Dict[str, RelationDelta]:
        """Fold a batch of documents into the combined ontology.

        Returns the per-relation delta (new accepted edges, new isolated
        terms, and whether the hierarchy took the leaf-extension fast
        path).  After the call, :attr:`ontology` equals
        ``maker.make_combined(all documents so far)``.
        """
        if not self.supported:
            raise ValueError(
                "CombinedExtraction cannot replay DBA rules; use make_combined"
            )
        batch_tags: Set[str] = set()
        for root in roots:
            batch_tags.update(self.maker._document_tags(root))
        new_tags = batch_tags - self._tags
        self._tags.update(new_tags)

        extractors = {
            Ontology.ISA: self.maker._isa_edges,
            Ontology.PART_OF: self.maker._part_of_edges,
        }
        deltas: Dict[str, RelationDelta] = {}
        for relation in self._RELATIONS:
            adjacency = self._adjacency[relation]
            extract = extractors[relation]
            added: List[Tuple[str, str]] = []
            for root in roots:
                for lower, upper in extract(root):
                    if lower == upper:
                        continue
                    targets = adjacency.get(lower)
                    if targets is not None and upper in targets:
                        continue  # duplicate of an accepted edge: no-op
                    if graphutils.has_path(adjacency, upper, lower):
                        continue  # would close a cycle — dropped, as in the full pass
                    adjacency.setdefault(lower, set()).add(upper)
                    adjacency.setdefault(upper, set())
                    added.append((lower, upper))
            previous = self._hierarchies[relation]
            isolated = [tag for tag in new_tags if tag not in previous]
            added_terms = set(isolated)
            for lower, upper in added:
                if lower not in previous:
                    added_terms.add(lower)
                if upper not in previous:
                    added_terms.add(upper)
            delta = RelationDelta(
                added_edges=added, added_nodes=isolated, added_terms=added_terms
            )
            extended = previous.extended_with_lower_terms(added, new_nodes=isolated)
            if extended is None:
                # Some new edge attaches below an existing term (e.g. a
                # known tag nested under a new parent): rebuild this
                # relation from the accepted graph.  Still exact — the
                # adjacency is the full greedy outcome.
                extended = Hierarchy(adjacency, nodes=self._tags)
                delta.leaf_only = False
            self._hierarchies[relation] = extended
            deltas[relation] = delta
        return deltas
