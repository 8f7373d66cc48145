"""Unit tests for corpus generation, rendering and the relevance oracle."""

import pytest

from repro.data.dblp import render_dblp
from repro.data.ground_truth import Corpus, generate_corpus
from repro.data.lexicon_rules import corpus_lexicon
from repro.data.sigmod import render_sigmod_pages
from repro.data.titles import TitleGenerator
from repro.data.venues import VENUE_POOL, venue_by_key, venue_surface
from repro.xmldb.serializer import document_bytes


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(60, seed=11)


class TestGenerate:
    def test_sizes(self, corpus):
        assert len(corpus.papers) == 60
        assert len(corpus.authors) == 24  # 60 / 2.5
        assert len(corpus.venues) == len(VENUE_POOL)

    def test_deterministic_per_seed(self):
        first = generate_corpus(20, seed=5)
        second = generate_corpus(20, seed=5)
        assert [p.title for p in first.papers] == [p.title for p in second.papers]
        assert [p.author_ids for p in first.papers] == [
            p.author_ids for p in second.papers
        ]

    def test_different_seeds_differ(self):
        first = generate_corpus(20, seed=5)
        second = generate_corpus(20, seed=6)
        assert [p.title for p in first.papers] != [p.title for p in second.papers]

    def test_paper_fields(self, corpus):
        paper = corpus.papers[0]
        assert paper.key == "p00000"
        assert 1 <= len(paper.author_ids) <= 3
        assert 1994 <= paper.year <= 2003
        assert "-" in paper.pages

    def test_venue_restriction(self):
        restricted = generate_corpus(10, seed=0, venue_keys=["sigmod", "vldb"])
        assert {p.venue_key for p in restricted.papers} <= {"sigmod", "vldb"}

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_corpus(0)
        with pytest.raises(ValueError):
            generate_corpus(5, venue_keys=["nonexistent"])

    def test_author_variants_precomputed(self, corpus):
        author = next(iter(corpus.authors.values()))
        assert author.canonical in author.variants
        assert len(author.variants) >= 3


class TestOracle:
    def test_relevant_by_author_surface(self, corpus):
        author = next(
            a for a in corpus.authors.values()
            if any(a.entity_id in p.author_ids for p in corpus.papers)
        )
        relevant = corpus.relevant_papers(author_surface=author.canonical)
        expected = {
            p.key for p in corpus.papers if author.entity_id in p.author_ids
        }
        assert relevant == expected

    def test_relevant_by_category(self, corpus):
        relevant = corpus.relevant_papers(venue_category="database conference")
        expected = {
            p.key
            for p in corpus.papers
            if corpus.venues[p.venue_key].category == "database conference"
        }
        assert relevant == expected

    def test_conjunctive_criteria(self, corpus):
        paper = corpus.papers[0]
        relevant = corpus.relevant_papers(
            venue_key=paper.venue_key, year=paper.year
        )
        assert paper.key in relevant
        venues = {p.key: p.venue_key for p in corpus.papers}
        assert all(venues[key] == paper.venue_key for key in relevant)

    def test_year_range(self, corpus):
        relevant = corpus.relevant_papers(year_range=(1994, 2003))
        assert len(relevant) == len(corpus.papers)

    def test_unknown_surface_is_empty(self, corpus):
        assert corpus.relevant_papers(author_surface="Martian Person") == frozenset()

    def test_record_surface_extends_index(self, corpus):
        author_id = next(iter(corpus.authors))
        corpus.record_surface(author_id, "Totally New Form")
        assert author_id in corpus.entities_for_surface("Totally New Form")


class TestDblpRender:
    def test_schema_shape(self, corpus):
        root = render_dblp(corpus, seed=11)
        assert root.tag == "dblp"
        record = root.children[0]
        assert record.tag == "inproceedings"
        assert record.attributes["key"].startswith("p")
        tags = [c.tag for c in record.children]
        assert "author" in tags and "title" in tags
        assert "booktitle" in tags and "year" in tags and "pages" in tags

    def test_subset_rendering(self, corpus):
        keys = corpus.paper_keys()[:10]
        root = render_dblp(corpus, seed=11, paper_keys=keys)
        assert len(root.children) == 10

    def test_surfaces_recorded(self):
        fresh = generate_corpus(20, seed=3)
        render_dblp(fresh, seed=3)
        assert any(author.surfaces for author in fresh.authors.values())

    def test_deterministic(self, corpus):
        first = render_dblp(corpus, seed=11)
        second = render_dblp(corpus, seed=11)
        assert first.structurally_equal(second)


class TestSigmodRender:
    def test_one_page_per_venue_year(self, corpus):
        pages = render_sigmod_pages(corpus, seed=11)
        sigmod_years = {
            p.year for p in corpus.papers if p.venue_key == "sigmod"
        }
        assert len(pages) == len(sigmod_years)

    def test_page_schema(self, corpus):
        pages = render_sigmod_pages(corpus, seed=11)
        page = pages[0]
        assert page.tag == "ProceedingsPage"
        assert page.child_by_tag("conference").text.startswith("ACM SIGMOD")
        articles = page.child_by_tag("articles")
        article = articles.children[0]
        assert article.child_by_tag("title") is not None
        author = article.child_by_tag("author")
        assert "position" in author.attributes

    def test_only_requested_venues(self, corpus):
        pages = render_sigmod_pages(corpus, seed=11, venue_keys=("vldb",))
        for page in pages:
            assert page.child_by_tag("conference").text == venue_by_key("vldb").long


class TestVenuesAndTitles:
    def test_venue_surface_styles(self):
        venue = venue_by_key("sigmod")
        assert venue_surface(venue, "short") == "SIGMOD Conference"
        assert venue_surface(venue, "long").startswith("ACM SIGMOD")
        typo = venue_surface(venue, "typo")
        assert typo != venue.short and len(typo) == len(venue.short) + 1
        with pytest.raises(ValueError):
            venue_surface(venue, "fancy")

    def test_venue_by_key_unknown(self):
        with pytest.raises(KeyError):
            venue_by_key("nope")

    def test_title_generator_deterministic(self):
        assert TitleGenerator(seed=1).title() == TitleGenerator(seed=1).title()

    def test_title_variant_is_close(self):
        generator = TitleGenerator(seed=2)
        title = generator.title()
        variant = generator.variant(title)
        from repro.similarity.measures import Levenshtein

        assert Levenshtein().distance(title, variant) <= 3

    def test_corpus_lexicon_has_venue_taxonomy(self):
        lexicon = corpus_lexicon()
        assert "database conference" in lexicon.hypernyms("SIGMOD Conference")
        assert "conference" in lexicon.hypernyms("database conference")
        long_form = venue_by_key("kdd").long
        assert "data mining conference" in lexicon.hypernyms(long_form)
