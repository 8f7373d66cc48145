"""A miniature lexical knowledge base — the WordNet substitute.

The paper's Ontology Maker "uses WordNet to automatically identify isa,
equivalent, and part-of relationships between terms in an SDB" (Section 3).
WordNet itself cannot be shipped here, so :class:`Lexicon` provides the
same three lookup surfaces — hypernyms (isa), holonyms (part-of) and
synonyms (equivalence) — over an embedded, DBA-extensible knowledge base
for the bibliographic domain, including every term the paper's motivating
examples rely on ("US Census Bureau" part-of "US government", "Google" isa
"web search company" isa "computer company" isa "company", ...).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set


class Lexicon:
    """Hypernym/holonym/synonym lookups over lower-cased terms."""

    def __init__(self) -> None:
        self._hypernyms: Dict[str, Set[str]] = {}
        self._holonyms: Dict[str, Set[str]] = {}
        self._synonyms: Dict[str, Set[str]] = {}

    # -- population -----------------------------------------------------------

    @staticmethod
    def _key(term: str) -> str:
        return term.strip().lower()

    def add_hypernym(self, term: str, hypernym: str) -> None:
        """Record ``term`` isa ``hypernym``."""
        self._hypernyms.setdefault(self._key(term), set()).add(self._key(hypernym))

    def add_holonym(self, part: str, whole: str) -> None:
        """Record ``part`` part-of ``whole``."""
        self._holonyms.setdefault(self._key(part), set()).add(self._key(whole))

    def add_synonyms(self, *terms: str) -> None:
        """Record that all ``terms`` are mutually equivalent."""
        keys = {self._key(term) for term in terms}
        for key in keys:
            self._synonyms.setdefault(key, set()).update(keys - {key})

    def add_isa_chain(self, *terms: str) -> None:
        """``add_isa_chain(a, b, c)`` records a isa b and b isa c."""
        for lower, upper in zip(terms, terms[1:]):
            self.add_hypernym(lower, upper)

    # -- lookups -----------------------------------------------------------------

    def hypernyms(self, term: str) -> FrozenSet[str]:
        """Direct hypernyms (isa parents) of a term."""
        return frozenset(self._hypernyms.get(self._key(term), frozenset()))

    def hypernym_closure(self, term: str) -> FrozenSet[str]:
        """All hypernyms, transitively."""
        seen: Set[str] = set()
        frontier = [self._key(term)]
        while frontier:
            current = frontier.pop()
            for parent in self._hypernyms.get(current, ()):
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return frozenset(seen)

    def holonyms(self, term: str) -> FrozenSet[str]:
        """Direct holonyms (part-of parents) of a term."""
        return frozenset(self._holonyms.get(self._key(term), frozenset()))

    def synonyms(self, term: str) -> FrozenSet[str]:
        """Terms recorded as equivalent to this one (excluding itself)."""
        return frozenset(self._synonyms.get(self._key(term), frozenset()))

    def knows(self, term: str) -> bool:
        key = self._key(term)
        return key in self._hypernyms or key in self._holonyms or key in self._synonyms

    def terms(self) -> FrozenSet[str]:
        known: Set[str] = set(self._hypernyms) | set(self._holonyms) | set(self._synonyms)
        for parents in self._hypernyms.values():
            known.update(parents)
        for wholes in self._holonyms.values():
            known.update(wholes)
        return frozenset(known)

    def __len__(self) -> int:
        return len(self.terms())

    def __repr__(self) -> str:
        return f"Lexicon({len(self)} terms)"

    # -- persistence (DBA-editable knowledge files) -----------------------------

    def to_dict(self) -> dict:
        """A JSON-compatible snapshot of the knowledge base."""
        synonym_groups = []
        seen: Set[FrozenSet[str]] = set()
        for term, others in self._synonyms.items():
            group = frozenset({term} | others)
            if group not in seen:
                seen.add(group)
                synonym_groups.append(sorted(group))
        return {
            "format": 1,
            "hypernyms": {
                term: sorted(parents)
                for term, parents in sorted(self._hypernyms.items())
            },
            "holonyms": {
                term: sorted(wholes)
                for term, wholes in sorted(self._holonyms.items())
            },
            "synonyms": sorted(synonym_groups),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Lexicon":
        """Rebuild a lexicon from :meth:`to_dict` output (or a hand-written
        knowledge file of the same shape)."""
        if payload.get("format") != 1:
            raise ValueError(f"unsupported lexicon format {payload.get('format')!r}")
        lexicon = cls()
        for term, parents in payload.get("hypernyms", {}).items():
            for parent in parents:
                lexicon.add_hypernym(term, parent)
        for term, wholes in payload.get("holonyms", {}).items():
            for whole in wholes:
                lexicon.add_holonym(term, whole)
        for group in payload.get("synonyms", []):
            lexicon.add_synonyms(*group)
        return lexicon

    def save(self, path: str) -> None:
        """Write the lexicon as an indented JSON knowledge file."""
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "Lexicon":
        """Read a JSON knowledge file written by :meth:`save` (or by hand)."""
        import json

        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def bibliography_lexicon() -> Lexicon:
    """The embedded bibliographic-domain knowledge base.

    Covers the schema vocabulary of DBLP and the SIGMOD proceedings pages,
    the organisational examples from the paper's introduction, and generic
    publication-world concepts, so the Ontology Maker can build Figure
    9-style ontologies without external resources.
    """
    lexicon = Lexicon()

    # --- publication taxonomy -------------------------------------------------
    lexicon.add_isa_chain("publication", "document", "entity")
    for kind in ("article", "inproceedings", "incollection", "book",
                 "phdthesis", "mastersthesis", "techreport"):
        lexicon.add_hypernym(kind, "publication")
    lexicon.add_hypernym("paper", "publication")
    lexicon.add_synonyms("paper", "article")
    lexicon.add_hypernym("proceedings", "publication")
    lexicon.add_hypernym("journal", "publication")

    # --- people ---------------------------------------------------------------
    lexicon.add_isa_chain("person", "entity")
    for role in ("author", "editor", "researcher", "professor", "scientist"):
        lexicon.add_hypernym(role, "person")
    lexicon.add_hypernym("professor", "researcher")

    # --- venues and events -----------------------------------------------------
    lexicon.add_isa_chain("event", "entity")
    lexicon.add_hypernym("conference", "event")
    lexicon.add_hypernym("workshop", "event")
    lexicon.add_hypernym("symposium", "event")
    lexicon.add_synonyms("booktitle", "conference")
    lexicon.add_synonyms("confyear", "year")

    # --- organisations (the paper's introduction examples) -----------------------
    lexicon.add_isa_chain("organization", "entity")
    lexicon.add_hypernym("company", "organization")
    lexicon.add_isa_chain("computer company", "company")
    lexicon.add_isa_chain("web search company", "computer company")
    lexicon.add_hypernym("google", "web search company")
    lexicon.add_hypernym("microsoft", "computer company")
    lexicon.add_hypernym("ibm", "computer company")
    lexicon.add_hypernym("government", "organization")
    lexicon.add_hypernym("university", "organization")
    lexicon.add_hypernym("us government", "government")
    for agency in ("us census bureau", "us army", "us navy", "nasa", "nsf"):
        lexicon.add_holonym(agency, "us government")
        lexicon.add_hypernym(agency, "government agency")
    lexicon.add_hypernym("government agency", "organization")

    # --- bibliographic record parts ------------------------------------------------
    for part in ("title", "author", "year", "pages", "url", "volume",
                 "number", "month", "abstract"):
        lexicon.add_holonym(part, "publication")
    lexicon.add_holonym("booktitle", "publication")
    lexicon.add_holonym("conference", "proceedings")

    # --- time -----------------------------------------------------------------------
    lexicon.add_isa_chain("year", "time period", "abstraction")
    lexicon.add_hypernym("month", "time period")
    lexicon.add_hypernym("date", "time period")

    return lexicon
