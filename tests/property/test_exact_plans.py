"""Property: an index-exact selection answers what the reference does.

A selection plan is index-exact (:func:`repro.core.planner.exact_tags`)
when its index probes decide every conjunct and each label has its own
tag.  Then a candidate whose document holds one row of each tag is
booked without a scan.  Over drawn stores — documents of one to three
papers, repeated or missing child tags, a ``booktitle`` under a non-root
parent, a paper nested in a paper, mixed with one-paper documents the
rule books and with copies of earlier documents — and patterns on both
sides of the rule, the answers, their bytes and their order must equal
the reference executor's, cold (the documents' booking records built) and
warm (read), and the guard must charge one ``xpath evaluation`` step per
kept document and per candidate, and one ``result verification`` step
per candidate, booked or scanned.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.executor import QueryExecutor
from repro.core.parser import parse_query
from repro.core.reference import ReferenceExecutor
from repro.data import generate_corpus, render_dblp
from repro.experiments.workload import build_system
from repro.guard import ResourceGuard
from repro.tax.conditions import And, Comparison, Constant, NodeContent, NodeTag, Not, Or
from repro.xmldb.database import Database
from repro.xmldb.model import XmlNode

from tests.oracle import assert_matches_reference

# Expansions: "database conference" covers VLDB and SIGMOD Conference,
# "conference" also ICML and WWW; "Nowhere Workshop" and "" lie outside.
VENUES = ["VLDB", "SIGMOD Conference", "ICML", "WWW", "Nowhere Workshop", ""]
YEARS = ["1999", "2001"]
TITLES = ["Tree Patterns", ""]

_CONTEXT = []


def _context():
    """The SEO context of a small corpus store, built once."""
    if not _CONTEXT:
        corpus = generate_corpus(24, seed=3)
        documents = [
            render_dblp(corpus, seed=3, paper_keys=[key]) for key in corpus.paper_keys()
        ]
        system = build_system(corpus, documents, 1.0)
        _CONTEXT.append(system.executor.context)
    return _CONTEXT[0]


def _or_venues(text):
    """``text``'s pattern with ``$b.content in {VLDB, ICML}`` conjoined."""
    parsed = parse_query(text)
    label = parsed.variables["b"]
    parsed.pattern.condition = And(
        parsed.pattern.condition,
        Or(
            Comparison("=", NodeContent(label), Constant("VLDB")),
            Comparison("=", NodeContent(label), Constant("ICML")),
        ),
    )
    return parsed


def _not_venue(text):
    parsed = parse_query(text)
    label = parsed.variables["b"]
    parsed.pattern.condition = And(
        parsed.pattern.condition,
        Not(Comparison("=", NodeContent(label), Constant("VLDB"))),
    )
    return parsed


def _two_root_tags(text):
    """``text``'s pattern with its ``*`` root restricted to two tags."""
    parsed = parse_query(text)
    root = parsed.pattern.root
    parsed.pattern.condition = And(
        parsed.pattern.condition,
        Or(
            Comparison("=", NodeTag(root), Constant("inproceedings")),
            Comparison("=", NodeTag(root), Constant("article")),
        ),
    )
    return parsed


#: Pattern text -> (how to parse it, whether the rule admits it).
PATTERNS = {
    'inproceedings(booktitle below "database conference", title)': (parse_query, True),
    'inproceedings(booktitle below "conference", title, year)': (parse_query, True),
    'inproceedings(booktitle = "VLDB")': (parse_query, True),
    'inproceedings(//booktitle isa "database conference")': (parse_query, True),
    'inproceedings(booktitle above "VLDB", year = "1999")': (parse_query, True),
    'inproceedings(title, booktitle instance_of "database conference")': (parse_query, True),
    'inproceedings(note(booktitle = "VLDB"))': (parse_query, True),
    "inproceedings": (parse_query, True),
    "inproceedings(booktitle $b, title)": (_or_venues, True),
    'inproceedings(author ~ "Susan Lee Maier", title)': (parse_query, False),
    'inproceedings(year > "1999", title)': (parse_query, False),
    'inproceedings(booktitle contains "vldb")': (parse_query, False),
    'inproceedings(booktitle != "VLDB")': (parse_query, False),
    "inproceedings(title, title)": (parse_query, False),
    '*(booktitle = "VLDB")': (parse_query, False),
    "inproceedings(title $t, booktitle $b) where $t = $b": (parse_query, False),
    "inproceedings(booktitle $b, year)": (_not_venue, False),
    '*(booktitle = "VLDB", title)': (_two_root_tags, False),
}


def _leaf(tag, values, draw):
    return XmlNode(tag, draw(st.sampled_from(values)))


@st.composite
def papers(draw, nest=True):
    paper = XmlNode("inproceedings")
    for tag in draw(
        st.lists(st.sampled_from(["title", "booktitle", "year", "note"]), max_size=4)
    ):
        if tag == "note":
            # A value-bearing tag under a non-root parent.
            note = XmlNode("note")
            note.append(_leaf("booktitle", VENUES, draw))
            paper.append(note)
        else:
            values = {"title": TITLES, "booktitle": VENUES, "year": YEARS}[tag]
            paper.append(_leaf(tag, values, draw))
    if nest and draw(st.integers(0, 4)) == 0:
        paper.append(draw(papers(nest=False)))
    return paper


@st.composite
def documents(draw):
    root = XmlNode("dblp")
    for paper in draw(st.lists(papers(), min_size=1, max_size=3)):
        root.append(paper)
    return root


def _two_papers():
    """One document, two papers: only the first has a matching booktitle.

    The index keeps the document through the first paper, so only a
    witness that counts the document's ``inproceedings`` rows stops the
    second from being booked as an answer.
    """
    root = XmlNode("dblp")
    first = XmlNode("inproceedings")
    first.append(XmlNode("title", "Tree Patterns"))
    first.append(XmlNode("booktitle", "VLDB"))
    second = XmlNode("inproceedings")
    second.append(XmlNode("title", "Tree Patterns"))
    root.append(first)
    root.append(second)
    return root


@st.composite
def booked_documents(draw):
    """One paper holding each of its tags once: booked by the admitted
    patterns that name no other tag."""
    paper = XmlNode("inproceedings")
    paper.append(_leaf("title", TITLES, draw))
    paper.append(_leaf("booktitle", VENUES, draw))
    if draw(st.booleans()):
        paper.append(_leaf("year", YEARS, draw))
    root = XmlNode("dblp")
    root.append(paper)
    return root


@st.composite
def stores(draw):
    """Booked and scanned documents, some of them copies of earlier ones."""
    docs = draw(
        st.lists(st.one_of(documents(), booked_documents()), min_size=1, max_size=5)
    )
    for index in draw(st.lists(st.integers(0, len(docs) - 1), max_size=3)):
        docs.append(docs[index].copy())
    return docs


@settings(max_examples=150, deadline=None)
@given(docs=stores(), name=st.sampled_from(sorted(PATTERNS)))
@example(
    docs=[_two_papers()],
    name='inproceedings(booktitle below "database conference", title)',
)
def test_exact_plans_answer_like_the_reference(docs, name):
    database = Database()
    collection = database.create_collection("dblp")
    for index, root in enumerate(docs):
        collection.add_document(f"d{index}", root)
    context = _context()
    build, admitted = PATTERNS[name]
    parsed = build(name)
    production = QueryExecutor(database, context=context)
    plan, _hit = production._plan(parsed.pattern, join=False)
    assert (plan.exact_tags is not None) == admitted

    oracle = ReferenceExecutor(database, context=context).selection(
        "dblp", parsed.pattern, parsed.roots
    )
    assert_matches_reference(
        production.selection("dblp", parsed.pattern, parsed.roots),
        oracle,
        accesses=False,
    )
    guard = ResourceGuard(max_steps=10**9, max_results=10**6)
    guarded = production.selection("dblp", parsed.pattern, parsed.roots, guard=guard)
    assert_matches_reference(guarded, oracle, accesses=False)
    assert guard.stage_steps.get("result verification", 0) == guarded.candidates
    assert guard.stage_steps.get("xpath evaluation", 0) == (
        guarded.docs_scanned + guarded.candidates
    )
