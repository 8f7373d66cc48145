"""Property-based tests: Definition 7's axioms on every measure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity.measures import (
    DamerauLevenshtein,
    Jaccard,
    Levenshtein,
    QGram,
    get_measure,
)

short_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=122), max_size=16
)

ALL_MEASURES = [
    "levenshtein", "normalized_levenshtein", "damerau", "jaro",
    "jaro_winkler", "jaccard", "cosine", "qgram", "monge_elkan",
]

STRONG_MEASURES = [Levenshtein(), DamerauLevenshtein(), Jaccard(), QGram(2)]


@pytest.mark.parametrize("name", ALL_MEASURES)
@given(x=short_text, y=short_text)
@settings(max_examples=40, deadline=None)
def test_nonnegative_symmetric_identity(name, x, y):
    measure = get_measure(name)
    assert measure.distance(x, y) >= 0.0
    assert measure.distance(x, x) == 0.0
    assert measure.distance(x, y) == pytest.approx(measure.distance(y, x))


@pytest.mark.parametrize("measure", STRONG_MEASURES, ids=lambda m: type(m).__name__)
@given(x=short_text, y=short_text, z=short_text)
@settings(max_examples=60, deadline=None)
def test_strong_measures_satisfy_triangle_inequality(measure, x, y, z):
    assert (
        measure.distance(x, y) + measure.distance(y, z)
        >= measure.distance(x, z) - 1e-9
    )


@given(x=short_text, y=short_text, bound=st.floats(min_value=0, max_value=8))
@settings(max_examples=100, deadline=None)
def test_bounded_levenshtein_agrees_with_exact(x, y, bound):
    measure = Levenshtein()
    exact = measure.distance(x, y)
    bounded = measure.bounded_distance(x, y, bound)
    if exact <= bound:
        assert bounded == exact
    else:
        assert bounded > bound


@given(x=short_text, y=short_text)
@settings(max_examples=60, deadline=None)
def test_levenshtein_bounded_by_length_sum_and_below_by_diff(x, y):
    measure = Levenshtein()
    d = measure.distance(x, y)
    assert d <= max(len(x), len(y))
    assert d >= abs(len(x) - len(y))


@given(x=short_text, y=short_text)
@settings(max_examples=60, deadline=None)
def test_damerau_never_exceeds_levenshtein(x, y):
    assert DamerauLevenshtein().distance(x, y) <= Levenshtein().distance(x, y)


@given(x=short_text, y=short_text)
@settings(max_examples=60, deadline=None)
def test_qgram_count_bound_is_sound_for_levenshtein(x, y):
    """The candidate filter's invariant (Ukkonen): the L1 distance between
    bigram profiles — the symmetric difference of occurrence-tagged bigram
    sets — is at most 2q * lev = 4 * lev."""
    from repro.similarity.candidates import bigram_occurrences

    lev = Levenshtein().distance(x, y)
    symdiff = len(set(bigram_occurrences(x)) ^ set(bigram_occurrences(y)))
    assert symdiff <= 4.0 * lev + 4.0  # +4 slack for the <2-char fallback

    # The exact form used by the count filter (only applied when len >= 2).
    if len(x) >= 2 and len(y) >= 2:
        assert symdiff <= 4.0 * lev


def _two_row_levenshtein(x, y):
    """The textbook two-row dynamic programme — the kernel's reference."""
    previous = list(range(len(y) + 1))
    for i, cx in enumerate(x, start=1):
        current = [i]
        for j, cy in enumerate(y, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (cx != cy))
            )
        previous = current
    return previous[-1]


#: Any unicode, including astral code points, past the 64-character word.
kernel_text = st.text(max_size=90)
kernel_pair = st.one_of(
    st.tuples(kernel_text, kernel_text),
    kernel_text.map(lambda x: (x, x)),  # equal strings
    # a long string and a few edits of it: distances near the bounds
    st.tuples(
        st.text(alphabet="abc é\U0001F600", min_size=60, max_size=90),
        st.lists(st.tuples(st.integers(0, 89), st.sampled_from("abcx")), max_size=4),
    ).map(
        lambda pair: (
            pair[0],
            "".join(
                dict(pair[1]).get(i, char) for i, char in enumerate(pair[0])
            ),
        )
    ),
)


@given(
    pair=kernel_pair,
    bound=st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0, float("inf")]),
        st.floats(min_value=0, max_value=100),
    ),
)
@settings(max_examples=300, deadline=None)
def test_bit_vector_kernel_equals_two_row_reference(pair, bound):
    from repro.similarity.measures import _bit_vector_levenshtein

    x, y = pair if len(pair[0]) >= len(pair[1]) else pair[::-1]
    exact = _two_row_levenshtein(x, y)
    got = _bit_vector_levenshtein(x, y, bound)
    if exact <= bound:
        assert got == exact and isinstance(got, float)
    else:
        assert got == bound + 1.0
    measure = Levenshtein()
    assert measure.distance(*pair) == measure.distance(*pair[::-1]) == exact
