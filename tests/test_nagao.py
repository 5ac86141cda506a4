import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from gl2aut import nagao
from gl2aut.matgroup import Mat2, mat_parse


def test_documented_decomposition_example():
    R = helpers.ring_of(2)
    m = mat_parse(R, "[[1,0],[t,1]]")
    w = nagao.decompose(m)
    assert nagao.word_text(w) == "G:[[0,1],[1,0]];B:[[1,t],[0,1]];G:[[0,1],[1,0]]"
    assert nagao.evaluate(R, w) == m


def test_identity_decomposes_to_the_empty_word():
    R = helpers.ring_of(3)
    assert nagao.decompose(Mat2.identity(R)) == ()
    assert nagao.evaluate(R, ()) == Mat2.identity(R)
    assert len(()) == 0


def test_constant_matrix_is_a_single_letter():
    R = helpers.ring_of(2)
    m = mat_parse(R, "[[0,1],[1,1]]")
    w = nagao.decompose(m)
    assert len(w) == 1
    assert w[0].side == "G"
    assert nagao.evaluate(R, w) == m


@pytest.mark.parametrize("q", [2, 3])
def test_roundtrip_on_random_matrices(q):
    R = helpers.ring_of(q)
    rng = random.Random(100 + q)
    for _ in range(150):
        m = helpers.rand_gl2_poly(R, rng, 6)
        w = nagao.decompose(m)
        assert nagao.evaluate(R, w) == m
        assert nagao.is_canonical(R, w)


# q = 4, 8 and 9 exercise non-prime coefficient codes
ORACLE_QS = [2, 3, 4, 5, 7, 8, 9]


@pytest.mark.parametrize("q", ORACLE_QS)
def test_normalize_and_decompose_match_the_fold_oracle(q):
    R = helpers.ring_of(q)
    rng = random.Random(200 + q)
    for _ in range(100):
        letters = helpers.rand_nagao_letters(R, rng)
        want = helpers.fold_normalize(R, letters)
        assert nagao.normalize(R, letters) == want
        assert nagao.decompose(nagao.evaluate(R, letters)) == want
        # normalization is idempotent
        assert nagao.normalize(R, want) == want


@pytest.mark.parametrize("q", ORACLE_QS)
def test_decomposition_is_fixed_by_the_fold_oracle(q):
    R = helpers.ring_of(q)
    rng = random.Random(300 + q)
    for _ in range(60):
        m = helpers.rand_gl2_poly(R, rng, 6)
        w = nagao.decompose(m)
        assert helpers.fold_normalize(R, w) == w
        assert nagao.evaluate(R, w) == m


def test_word_concat_multiplies(rng):
    R = helpers.ring_of(2)
    for _ in range(40):
        m1 = helpers.rand_gl2_poly(R, rng, 4)
        m2 = helpers.rand_gl2_poly(R, rng, 4)
        w = nagao.word_concat(R, nagao.decompose(m1), nagao.decompose(m2))
        assert nagao.evaluate(R, w) == m1 * m2
        assert nagao.is_canonical(R, w)


def test_word_inverse_inverts(rng):
    R = helpers.ring_of(3)
    for _ in range(40):
        m = helpers.rand_gl2_poly(R, rng, 4)
        w = nagao.decompose(m)
        wi = nagao.word_inverse(R, w)
        assert nagao.evaluate(R, wi) == m.inverse()
        assert nagao.word_concat(R, w, wi) == ()


def test_word_text_parse_roundtrip(rng):
    R = helpers.ring_of(2)
    for _ in range(25):
        w = nagao.decompose(helpers.rand_gl2_poly(R, rng, 5))
        assert nagao.word_parse(R, nagao.word_text(w)) == w


def test_letter_side_validation():
    R = helpers.ring_of(2)
    t_below = mat_parse(R, "[[1,0],[t,1]]")
    with pytest.raises(ValueError):
        nagao.letter("B", t_below)  # not upper triangular
    with pytest.raises(ValueError):
        nagao.letter("G", mat_parse(R, "[[1,t],[0,1]]"))  # not constant
    with pytest.raises(ValueError):
        nagao.letter("X", Mat2.identity(R))  # unknown side
    singular = Mat2(R, R.one, R.one, R.one, R.one)
    with pytest.raises(ValueError):
        nagao.letter("G", singular)


def test_syllable_growth_under_unipotent_of_high_degree():
    # [[1, t^k], [0, 1]] is one letter; conjugating by the flip forces three
    R = helpers.ring_of(2)
    flip = mat_parse(R, "[[0,1],[1,0]]")
    for k in (1, 3, 5):
        u = Mat2(R, R.one, R.monomial(1, k), R.zero, R.one)
        assert len(nagao.decompose(u)) == 1
        conj = flip * u * flip
        assert len(nagao.decompose(conj)) == 3


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property_f2(seed):
    R = helpers.ring_of(2)
    rng = random.Random(seed)
    m = helpers.rand_gl2_poly(R, rng, 5)
    assert nagao.evaluate(R, nagao.decompose(m)) == m
