"""Unit tests for tokenisation and corpus statistics."""

import math

import pytest

from repro.similarity import tokenize


class TestWords:
    def test_lowercases_and_splits(self):
        assert tokenize.words("Jeffrey D. Ullman") == ["jeffrey", "d", "ullman"]

    def test_numbers_kept(self):
        assert tokenize.words("SQL Server 2000") == ["sql", "server", "2000"]

    def test_empty(self):
        assert tokenize.words("...") == []

    def test_word_set_drops_duplicates(self):
        assert tokenize.word_set("data data base") == frozenset({"data", "base"})


class TestQgrams:
    def test_padded_bigrams(self):
        assert tokenize.qgrams("ab", q=2) == ["#a", "ab", "b#"]

    def test_unpadded(self):
        assert tokenize.qgrams("abcd", q=3, pad=False) == ["abc", "bcd"]

    def test_short_string(self):
        assert tokenize.qgrams("a", q=3, pad=False) == ["a"]

    def test_empty_string(self):
        assert tokenize.qgrams("", q=2, pad=False) == []

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            tokenize.qgrams("abc", q=0)

    def test_unigrams(self):
        assert tokenize.qgrams("abc", q=1) == ["a", "b", "c"]


class TestCorpusStatistics:
    def test_idf_decreases_with_frequency(self):
        corpus = tokenize.CorpusStatistics(
            ["data base", "data mining", "data systems"]
        )
        assert corpus.idf("data") < corpus.idf("mining")

    def test_incremental_add(self):
        corpus = tokenize.CorpusStatistics()
        corpus.add("hello world")
        assert corpus.idf("hello") > 0

    def test_tfidf_vector_is_normalised(self):
        corpus = tokenize.CorpusStatistics(["a b c", "a b", "a"])
        vector = corpus.tfidf_vector("a b c")
        norm = math.sqrt(sum(w * w for w in vector.values()))
        assert norm == pytest.approx(1.0)

    def test_tfidf_vector_empty_text(self):
        corpus = tokenize.CorpusStatistics(["a b"])
        assert corpus.tfidf_vector("...") == {}

    def test_cosine_of_vectors(self):
        u = {"a": 1.0}
        v = {"a": 0.6, "b": 0.8}
        assert tokenize.cosine_of_vectors(u, v) == pytest.approx(0.6)
