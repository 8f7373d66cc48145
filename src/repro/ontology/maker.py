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

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .. import graphutils
from ..errors import DeltaRefused
from ..xmldb.model import XmlNode
from .hierarchy import Hierarchy, Ontology
from .lexicon import Lexicon, bibliography_lexicon

#: Tags whose content values are lifted into the isa hierarchy by default.
DEFAULT_CONTENT_TAGS = frozenset({"author", "booktitle", "conference", "editor"})

Rule = Tuple[str, str, str]  # (relation, lower_term, upper_term)
Edge = Tuple[str, str]  # (lower_term, upper_term)


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
        return self.make_combined([root])

    def make_combined(self, roots: Iterable[XmlNode]) -> Ontology:
        """One ontology covering several documents of the same source.

        Sources like the SIGMOD proceedings ship as many small documents
        sharing one schema; their extracted edges are unioned before the
        Hasse normalisation.
        """
        isa_edges: List[Edge] = []
        part_of_edges: List[Edge] = []
        tags: Set[str] = set()
        lookups = LexiconLookups(self.lexicon)
        for root in roots:
            listing = self._walk(root, lookups)
            isa_edges.extend(listing.isa)
            part_of_edges.extend(listing.part_of)
            tags.update(listing.tags)
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

    def _walk(self, root: XmlNode, lookups: "LexiconLookups") -> "DocumentListing":
        """Everything one document contributes, from a single preorder walk.

        * tags: every element name;
        * part-of: each child tag under a differently named parent, plus
          the holonyms of every tag and of every content value;
        * isa: each content value below its tag (the first
          ``max_content_terms`` values that differ from their tag; content
          after the cap seeds nothing), plus the hypernym chains followed
          transitively from every tag and seeded value, so a venue's
          category reaches "conference", "event", etc.

        Both edge lists are sorted, which fixes the order the greedy
        cycle-dropping pass consumes them in.
        """
        tags: Set[str] = set()
        seeds: Set[str] = set()
        isa: Set[Edge] = set()
        part_of: Set[Edge] = set()
        content_tags = self.content_tags
        cap = self.max_content_terms
        lifted = 0
        capped = False
        stack = [root]
        while stack:  # preorder, as XmlNode.iter: the content cap counts in it
            node = stack.pop()
            tag = node.tag
            tags.add(tag)
            children = node.children
            if children:
                for child in children:
                    if child.tag != tag:
                        part_of.add((child.tag, tag))
                stack.extend(reversed(children))
            text = node.text
            if not text or tag not in content_tags:
                continue
            part_of.update(lookups.holonym_edges(text))
            if capped or (cap is not None and lifted >= cap):
                capped = True
                continue
            if text != tag:
                isa.add((text, tag))
                lifted += 1
            seeds.add(text)
        schema_isa, schema_part_of = lookups.schema_edges(frozenset(tags))
        isa |= schema_isa
        part_of |= schema_part_of
        for seed in seeds:
            isa.update(lookups.hypernym_edges(seed))
        return DocumentListing(tags, sorted(isa), sorted(part_of))


class LexiconLookups:
    """The lexicon edges one extraction run needs, each looked up once.

    Thousands of documents share a handful of tags and venues, so the
    hypernym chain of a term is walked the first time the term seeds a
    document and replayed from here afterwards.  A memo lives for one
    extraction call: the maker's lexicon may change between calls.
    """

    __slots__ = ("lexicon", "_hypernym_edges", "_holonym_edges", "_schema_edges")

    def __init__(self, lexicon: Lexicon) -> None:
        self.lexicon = lexicon
        self._hypernym_edges: Dict[str, FrozenSet[Edge]] = {}
        self._holonym_edges: Dict[str, FrozenSet[Edge]] = {}
        self._schema_edges: Dict[
            FrozenSet[str], Tuple[FrozenSet[Edge], FrozenSet[Edge]]
        ] = {}

    def schema_edges(
        self, tags: FrozenSet[str]
    ) -> Tuple[FrozenSet[Edge], FrozenSet[Edge]]:
        """The isa (hypernym) and part-of (holonym) edges of a tag set —
        documents of one schema share it."""
        edges = self._schema_edges.get(tags)
        if edges is None:
            isa: Set[Edge] = set()
            part_of: Set[Edge] = set()
            for tag in tags:
                isa |= self.hypernym_edges(tag)
                part_of |= self.holonym_edges(tag)
            edges = self._schema_edges[tags] = (frozenset(isa), frozenset(part_of))
        return edges

    def hypernym_edges(self, term: str) -> FrozenSet[Edge]:
        """Every ``(t, hypernym)`` edge on the chains reachable from ``term``."""
        edges = self._hypernym_edges.get(term)
        if edges is None:
            found: Set[Edge] = set()
            frontier = [term]
            seen = {term}
            while frontier:
                current = frontier.pop()
                for hypernym in self.lexicon.hypernyms(current):
                    found.add((current, hypernym))
                    if hypernym not in seen:
                        seen.add(hypernym)
                        frontier.append(hypernym)
            edges = self._hypernym_edges[term] = frozenset(found)
        return edges

    def holonym_edges(self, term: str) -> FrozenSet[Edge]:
        """The ``(term, whole)`` edges of ``term``'s direct holonyms."""
        edges = self._holonym_edges.get(term)
        if edges is None:
            edges = self._holonym_edges[term] = frozenset(
                (term, whole) for whole in self.lexicon.holonyms(term)
            )
        return edges


@dataclass(frozen=True)
class DocumentListing:
    """One document's tags and sorted edge listings (:meth:`OntologyMaker._walk`)."""

    tags: Set[str]
    isa: List[Edge]
    part_of: List[Edge]

    def edges(self, relation: str) -> List[Edge]:
        return self.isa if relation == Ontology.ISA else self.part_of


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
    """What document batches added to or withdrew from one extracted relation."""

    added_edges: List[Tuple[str, str]] = field(default_factory=list)
    added_nodes: List[str] = field(default_factory=list)
    #: Terms that entered the hierarchy with this batch (edge endpoints
    #: not previously present, plus the isolated additions).
    added_terms: Set[str] = field(default_factory=set)
    #: Accepted edges no surviving document lists any more.
    removed_edges: List[Tuple[str, str]] = field(default_factory=list)
    #: Isolated terms (tags no edge touches) that left the hierarchy.
    removed_nodes: List[str] = field(default_factory=list)
    #: Every term that left the hierarchy (edge endpoints and isolated).
    removed_terms: Set[str] = field(default_factory=set)

    @property
    def empty(self) -> bool:
        return not (
            self.added_edges
            or self.added_nodes
            or self.removed_edges
            or self.removed_nodes
        )

    def absorb(self, later: "RelationDelta") -> None:
        """Fold a later delta of the same relation in, netting what came and went.

        Hierarchies are canonical, so an edge or term that left and came
        back (or the reverse) since the last build is no change at all.
        """
        for pending, opposite, items in (
            (self.removed_edges, self.added_edges, later.removed_edges),
            (self.removed_nodes, self.added_nodes, later.removed_nodes),
            (self.added_edges, self.removed_edges, later.added_edges),
            (self.added_nodes, self.removed_nodes, later.added_nodes),
        ):
            for item in items:
                if item in opposite:
                    opposite.remove(item)
                else:
                    pending.append(item)
        left_again = later.removed_terms & self.added_terms
        self.added_terms -= left_again
        self.removed_terms |= later.removed_terms - left_again
        came_back = later.added_terms & self.removed_terms
        self.removed_terms -= came_back
        self.added_terms |= later.added_terms - came_back


class CombinedExtraction:
    """Replays :meth:`OntologyMaker.make_combined` one document batch at a time.

    The greedy cycle-dropping pass of ``_acyclic_hierarchy`` consumes the
    concatenated per-document edge lists in order, so its accepted graph
    after documents ``d1..dn`` is a pure function of that prefix.  This
    state object keeps the accepted graph per relation and continues the
    greedy pass over each newly appended batch (:meth:`extend`),
    producing an ontology **identical** to ``make_combined`` over all
    documents seen so far:

    * a re-extracted duplicate edge is a no-op in both paths (the graph
      is unchanged, and ``Hierarchy`` de-duplicates);
    * a genuinely new edge faces exactly the ``has_path`` check the full
      pass would apply, against the same graph.

    Every accepted edge, every tag and every edge the greedy pass
    *dropped* carries the number of live documents listing it, which is
    what makes a removal a delta too (:meth:`retract`): while no dropped
    edge is live, the accepted graph is the plain union of the surviving
    documents' edges — acyclic, so ``make_combined`` over the survivors
    accepts all of it in any scan order (a replaced document moving to
    the end of the collection changes nothing).

    Only valid for makers without DBA rules: ``make_combined`` appends
    rules *after* all documents, so a continuation would replay them in
    the wrong position.  Callers check :attr:`supported` and fall back to
    the full combine.
    """

    _RELATIONS = (Ontology.ISA, Ontology.PART_OF)

    def __init__(self, maker: OntologyMaker) -> None:
        self.maker = maker
        #: relation -> lower -> upper -> live documents listing the edge.
        self._accepted: Dict[str, Dict[str, Dict[str, int]]] = {
            relation: {} for relation in self._RELATIONS
        }
        #: relation -> cycle-dropped edge -> live documents listing it.
        self._dropped: Dict[str, Dict[Tuple[str, str], int]] = {
            relation: {} for relation in self._RELATIONS
        }
        #: relation -> term -> accepted edges touching it (either end).
        self._degree: Dict[str, Dict[str, int]] = {
            relation: {} for relation in self._RELATIONS
        }
        #: tag -> live documents carrying it.
        self._tags: Dict[str, int] = {}
        self._hierarchies: Dict[str, Hierarchy] = {
            relation: Hierarchy() for relation in self._RELATIONS
        }

    @property
    def supported(self) -> bool:
        return not self.maker.rules

    @property
    def ontology(self) -> Ontology:
        return Ontology(dict(self._hierarchies))

    def _listings(self, roots: Sequence[XmlNode]) -> List[DocumentListing]:
        """One walk per document, sharing the lexicon lookups of the batch."""
        lookups = LexiconLookups(self.maker.lexicon)
        return [self.maker._walk(root, lookups) for root in roots]

    @staticmethod
    def _edge_counts(
        relation: str, listings: Sequence[DocumentListing]
    ) -> "Counter[Edge]":
        """Documents listing each non-reflexive edge, in first-listing order."""
        counts: "Counter[Edge]" = Counter()
        for listing in listings:
            counts.update(listing.edges(relation))
        for edge in [edge for edge in counts if edge[0] == edge[1]]:
            del counts[edge]
        return counts

    def extend(self, roots: Sequence[XmlNode]) -> Dict[str, RelationDelta]:
        """Fold a batch of documents into the combined ontology.

        Returns the per-relation delta (new accepted edges, new isolated
        terms).  After the call, :attr:`ontology` equals
        ``maker.make_combined(all live documents)``.
        """
        if not self.supported:
            raise ValueError(
                "CombinedExtraction cannot replay DBA rules; use make_combined"
            )
        listings = self._listings(roots)
        tag_counts: "Counter[str]" = Counter()
        for listing in listings:
            tag_counts.update(listing.tags)
        new_tags = [tag for tag in tag_counts if tag not in self._tags]
        for tag, count in tag_counts.items():
            self._tags[tag] = self._tags.get(tag, 0) + count

        deltas: Dict[str, RelationDelta] = {}
        for relation in self._RELATIONS:
            accepted = self._accepted[relation]
            dropped = self._dropped[relation]
            degree = self._degree[relation]
            added: List[Tuple[str, str]] = []
            # The accepted graph only grows here, so every later listing of
            # an edge meets the verdict its first listing got: decide each
            # distinct edge once, in first-listing order, and count the rest.
            for edge, count in self._edge_counts(relation, listings).items():
                lower, upper = edge
                targets = accepted.get(lower)
                if targets is not None and upper in targets:
                    targets[upper] += count  # duplicate of an accepted edge
                elif graphutils.has_path(accepted, upper, lower):
                    # would close a cycle — dropped, as in the full pass
                    dropped[edge] = dropped.get(edge, 0) + count
                else:
                    accepted.setdefault(lower, {})[upper] = count
                    degree[lower] = degree.get(lower, 0) + 1
                    degree[upper] = degree.get(upper, 0) + 1
                    added.append(edge)
            previous = self._hierarchies[relation]
            isolated = [tag for tag in new_tags if tag not in previous]
            added_terms = set(isolated)
            added_terms.update(
                term for edge in added for term in edge if term not in previous
            )
            extended = (
                previous.extended_with_lower_terms(added, new_nodes=isolated)
                if len(previous)
                else None
            )
            if extended is None:
                # A first batch, or some new edge attaches below an
                # existing term (e.g. a known tag nested under a new
                # parent): build this relation from the accepted graph.
                # Still exact — the graph is the full greedy outcome.
                extended = Hierarchy(accepted, nodes=self._tags)
            self._hierarchies[relation] = extended
            deltas[relation] = RelationDelta(
                added_edges=added, added_nodes=isolated, added_terms=added_terms
            )
        return deltas

    def retract(self, roots: Sequence[XmlNode]) -> Dict[str, RelationDelta]:
        """Withdraw a batch of documents previously folded in.

        ``roots`` are the trees being removed: their own edges are
        re-derived and the reference counts decremented, so the work is
        proportional to the removed documents, never the source.  After
        the call, :attr:`ontology` equals ``maker.make_combined(the
        surviving documents)`` — exact because no dropped edge is live
        (see the class docstring).  When a surviving document still lists
        a cycle-dropped edge the greedy outcome depends on what is being
        removed; the state is left untouched and
        :class:`~repro.errors.DeltaRefused` (``"dropped-edge-live"``) is
        raised — callers re-extract.
        """
        listings = self._listings(roots)
        listed: Dict[str, Counter] = {}
        for relation in self._RELATIONS:
            counts = listed[relation] = self._edge_counts(relation, listings)
            dropped = self._dropped[relation]
            if any(live > counts[edge] for edge, live in dropped.items()):
                raise DeltaRefused("dropped-edge-live")

        gone_tags: List[str] = []
        for listing in listings:
            for tag in listing.tags:
                self._tags[tag] -= 1
                if not self._tags[tag]:
                    del self._tags[tag]
                    gone_tags.append(tag)

        deltas: Dict[str, RelationDelta] = {}
        for relation in self._RELATIONS:
            accepted = self._accepted[relation]
            degree = self._degree[relation]
            self._dropped[relation].clear()  # all listed by ``roots`` (checked above)
            removed: List[Tuple[str, str]] = []
            for edge, count in listed[relation].items():
                lower, upper = edge
                targets = accepted.get(lower)
                if targets is None or upper not in targets:
                    continue  # one of the dropped edges
                targets[upper] -= count
                if targets[upper]:
                    continue
                del targets[upper]
                if not targets:
                    del accepted[lower]
                for term in edge:
                    degree[term] -= 1
                    if not degree[term]:
                        del degree[term]
                removed.append(edge)
            previous = self._hierarchies[relation]
            candidates = {term for edge in removed for term in edge}
            candidates.update(gone_tags)
            vanished = {
                term
                for term in candidates
                if term not in degree and term not in self._tags
            }
            shrunk = None
            if all(lower in vanished for lower, _ in removed):
                shrunk = previous.without_leaves(vanished)
            if shrunk is None:
                # An edge between surviving terms left, or a term with
                # children did: rebuild this relation from the accepted
                # graph (exact, as in :meth:`extend`).
                shrunk = Hierarchy(accepted, nodes=self._tags)
            self._hierarchies[relation] = shrunk
            deltas[relation] = RelationDelta(
                removed_edges=removed,
                # Mirrors ``added_nodes`` (tags new to the hierarchy), so a
                # tag that leaves and comes back nets out.
                removed_nodes=[tag for tag in gone_tags if tag in vanished],
                removed_terms=vanished,
            )
        return deltas
