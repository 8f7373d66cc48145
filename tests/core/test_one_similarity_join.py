"""One similarity join: the pair filter reads the cross probe's term pairs.

The cross probe matches every left index term against every right term
once and memoises the matched pairs; the join's verify maps its
candidates' values through them.  So the pair filter runs no measure at
all, and a repeated join runs none anywhere: the probe replays from its
memo and the product scan's ``~`` verdicts come from the SEO's memo.
When an ``=`` cross conjunct precedes the ``~`` one, the plan carries
the ``~`` conjunct's probe as well and the join asks the same memoised
probe for its pairs.
"""

import pytest

from repro.core import executor as executor_module
from repro.core.conditions import SeoConditionContext, SimilarTo
from repro.core.executor import QueryExecutor
from repro.core.reference import ReferenceExecutor
from repro.guard import ResourceGuard
from repro.ontology import Hierarchy
from repro.similarity.measures import Levenshtein
from repro.similarity.seo import SimilarityEnhancedOntology
from repro.tax.conditions import And, Comparison, Constant, NodeContent, NodeTag
from repro.tax.pattern import pattern_of
from repro.xmldb.database import Database

from tests.oracle import assert_matches_reference

LEFT = """
<dblp>
  <inproceedings><title>Alpha Beta Gamma</title><year>2001</year></inproceedings>
  <inproceedings><title>Delta Epsilon</title><year>2002</year></inproceedings>
  <inproceedings><title>Delta Epsilon</title><year>2003</year></inproceedings>
  <inproceedings><title>Completely Different Thing</title><year>2001</year></inproceedings>
</dblp>
"""

RIGHT = """
<page>
  <article><title>Alpha Beta Gamma.</title><year>2001</year></article>
  <article><title>Delta Epsilom</title><year>2003</year></article>
  <article><title>Alpha Beta Gamma</title><year>1999</year></article>
  <article><title>Unrelated</title><year>2001</year></article>
</page>
"""


def join_pattern(equal_first):
    """``inproceedings(title, year), //article(title, year)`` joined on
    ``title ~ title``, with ``year = year`` in front when ``equal_first``."""
    pattern = pattern_of(
        [
            (0, None, "pc"),
            (1, 0, "pc"),
            (2, 1, "pc"),
            (5, 1, "pc"),
            (3, 0, "ad"),
            (4, 3, "pc"),
            (6, 3, "pc"),
        ]
    )
    tags = [
        Comparison("=", NodeTag(label), Constant(tag))
        for label, tag in (
            (1, "inproceedings"),
            (2, "title"),
            (5, "year"),
            (3, "article"),
            (4, "title"),
            (6, "year"),
        )
    ]
    cross = [SimilarTo(NodeContent(2), NodeContent(4))]
    if equal_first:
        cross.insert(0, Comparison("=", NodeContent(5), NodeContent(6)))
    pattern.condition = And(*tags, *cross)
    return pattern


@pytest.fixture
def system():
    database = Database()
    database.create_collection("left").add_document("l", LEFT)
    database.create_collection("right").add_document("r", RIGHT)
    seo = SimilarityEnhancedOntology.for_hierarchy(
        Hierarchy(nodes=["title"]), Levenshtein(), 2.0
    )
    return database, SeoConditionContext(seo)


@pytest.fixture
def distance_calls(system, monkeypatch):
    """Counts the measure's distance calls, in total and inside the
    join's pair filter."""
    measure = system[1].seo.measure
    calls = {"total": 0, "pair filter": 0}
    in_filter = []
    distance = measure.bounded_distance

    def counting(x, y, epsilon):
        calls["total"] += 1
        calls["pair filter"] += bool(in_filter)
        return distance(x, y, epsilon)

    pair_filter = executor_module._similar_candidate_pairs

    def filtering(*args, **kwargs):
        in_filter.append(True)
        try:
            return pair_filter(*args, **kwargs)
        finally:
            in_filter.pop()

    monkeypatch.setattr(measure, "bounded_distance", counting)
    monkeypatch.setattr(executor_module, "_similar_candidate_pairs", filtering)
    return calls


@pytest.mark.parametrize("equal_first", [False, True], ids=["similar", "equal-first"])
def test_the_pair_filter_runs_no_measure(system, distance_calls, equal_first):
    database, context = system
    executor = QueryExecutor(database, context)
    pattern = join_pattern(equal_first)
    plan, _ = executor._plan(pattern, join=True)
    assert plan.similar is not None and plan.similar.kind == "similar"
    assert (plan.cross.kind == "equal") == equal_first
    assert (plan.cross is plan.similar) != equal_first

    oracle = ReferenceExecutor(database, context).join("left", "right", pattern, [2, 4])
    assert oracle.results
    memo = executor._cross_probe_cache
    reports, guards, calls = [], [], []
    for _request in ("cold", "warm"):
        guard = ResourceGuard(max_steps=10**6)
        before = dict(distance_calls)
        hits = memo.hits
        reports.append(executor.join("left", "right", pattern, [2, 4], guard=guard))
        guards.append(guard)
        calls.append({key: distance_calls[key] - before[key] for key in before})
        assert_matches_reference(reports[-1], oracle, accesses=False)
    cold, warm = reports
    # The probe ran the measure once, cold; the filter never does.
    assert calls[0]["total"] > 0
    assert calls[0]["pair filter"] == calls[1]["pair filter"] == 0
    # Warm: every probe replays from the memo and every ``~`` verdict of
    # the product scan comes from the SEO's memo.
    assert calls[1]["total"] == 0
    assert memo.hits == hits + (2 if equal_first else 1)
    # The filter kept fewer pairs than the product, the same both times,
    # and the guard saw the same charges: the probes' replayed ticks and
    # one hash-join step per left candidate.
    assert cold.pairs_probed == warm.pairs_probed < 4 * 4
    assert guards[0].stage_steps == guards[1].stage_steps
    assert guards[0].stage_steps["similarity hash join"] == 4


def test_the_equal_first_join_asks_the_similar_probe_once(system):
    """The ``~`` probe of an ``=``-first join is charged as index-probe
    ticks in the plan stage, once, like the ``=`` probe before it."""
    database, context = system
    executor = QueryExecutor(database, context)
    charges = {}
    for equal_first in (False, True):
        executor._cross_probe_cache.clear()
        guard = ResourceGuard(max_steps=10**6)
        executor.join("left", "right", join_pattern(equal_first), [2, 4], guard=guard)
        charges[equal_first] = guard.stage_steps["index probe"]
    similar_only = charges[False]
    # The ``=`` probe over the year terms adds its own charge on top of the
    # ``~`` probe's: one tick per term on either side, one per left term.
    left_years, right_years = 3, 3
    assert charges[True] == similar_only + left_years + right_years + left_years
