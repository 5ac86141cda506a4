import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from gl2aut import nagao
from gl2aut.matgroup import Mat2, mat_parse
from gl2aut.polyring import Poly


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


# the wider fields include q = 4, 8 and 9, whose coefficient codes are not
# residues; in every field the B peel meets quotients with a zero and a
# nonzero constant term
ORACLE_QS = [2, 3, 5, *helpers.WIDER_QS]


@pytest.mark.parametrize("q", ORACLE_QS)
def test_roundtrip_on_random_matrices(q):
    R = helpers.ring_of(q)
    rng = random.Random(100 + q)
    for _ in range(150):
        m = helpers.rand_gl2_poly(R, rng, 6)
        w = nagao.decompose(m)
        assert nagao.evaluate(R, w) == m
        assert nagao.normalize(R, w) == w


def _rand_letter_of_any_shape(R, rng):
    """A valid letter of one of five shapes: transversal unipotents and
    swaps, and the B and G letters that are neither."""
    q = R.field.q
    kind = rng.randrange(5)
    if kind == 0:  # B transversal [[1, v], [0, 1]], v in t F_q[t]
        v = helpers.rand_poly(R, rng, 3) * R.t
        return nagao.letter("B", Mat2(R, R.one, v, R.zero, R.one))
    if kind == 1:  # unipotent with a constant term
        return nagao.letter("B", Mat2(R, R.one, helpers.rand_poly(R, rng, 3), R.zero, R.one))
    if kind == 2:  # upper triangular, diagonal other than 1 where F_q allows
        unit = (lambda: R.const(rng.randrange(2, q))) if q > 2 else (lambda: R.one)
        return nagao.letter("B", Mat2(R, unit(), helpers.rand_poly(R, rng, 3), R.zero, unit()))
    if kind == 3:  # G transversal [[0, 1], [1, x]]
        x = R.const(rng.randrange(q))
        return nagao.letter("G", Mat2(R, R.zero, R.one, R.one, x))
    return nagao.letter("G", helpers.rand_gl2_const(R, rng))


def _left_to_right(R, letters):
    want = Mat2.identity(R)
    for lt in letters:
        want = want * lt.mat
    return want


def _letters_beside_the_transversal_shapes(R, rng):
    """Letters close to the two transversal shapes.  The first group fits
    neither and must be multiplied in as a 2x2 product: swaps [[0, 1],
    [1, x]] with deg x >= 1, scaled swaps [[0, c], [c', x]] and unipotents
    with a diagonal entry other than 1.  The second group takes the column
    operations outside a canonical word: unipotents whose v has a constant
    term, and swaps with every constant x, non-prime codes of F_4 and F_9
    included."""
    q = R.field.q
    out = [nagao.Letter("G", Mat2(R, R.zero, R.one, R.one, x))
           for x in [R.t] + [helpers.rand_poly(R, rng, d, nonzero=True) for d in (1, 2, 4)]]
    # over F_2 the only unit is 1, so the scaled swaps scale by t + 1 there;
    # x is constant, as in a transversal swap
    for c in [R.const(u) for u in range(2, min(q, 5))] or [R.t + R.one]:
        x = R.const(rng.randrange(q))
        out += [nagao.Letter("G", Mat2(R, R.zero, c, R.one, x)),
                nagao.Letter("G", Mat2(R, R.zero, R.one, c, x)),
                nagao.Letter("G", Mat2(R, R.zero, c, c, x))]
    out += [nagao.Letter("B", Mat2(R, R.one, R.one, R.zero, R.t)),
            nagao.Letter("B", Mat2(R, R.t, R.one, R.zero, R.one))]
    for c0 in range(1, q):
        v = helpers.rand_poly(R, rng, 3) * R.t + R.const(c0)
        out.append(nagao.letter("B", Mat2(R, R.one, v, R.zero, R.one)))
    out += [nagao.letter("G", Mat2(R, R.zero, R.one, R.one, R.const(x))) for x in range(q)]
    return out


@pytest.mark.parametrize("q", ORACLE_QS)
def test_evaluate_is_the_left_to_right_product(q):
    R = helpers.ring_of(q)
    rng = random.Random(400 + q)
    for _ in range(100):
        letters = [_rand_letter_of_any_shape(R, rng) for _ in range(rng.randint(0, 10))]
        assert nagao.evaluate(R, letters) == _left_to_right(R, letters)
    assert nagao.evaluate(R, []) == Mat2.identity(R)
    assert nagao.evaluate(R, iter(())) == Mat2.identity(R)
    for odd in _letters_beside_the_transversal_shapes(R, rng):
        assert nagao.evaluate(R, [odd]) == odd.mat
        assert nagao.evaluate(R, [odd, odd]) == odd.mat * odd.mat
        for _ in range(3):
            before = [_rand_letter_of_any_shape(R, rng) for _ in range(rng.randint(1, 4))]
            after = [_rand_letter_of_any_shape(R, rng) for _ in range(rng.randint(0, 4))]
            letters = before + [odd] + after
            assert nagao.evaluate(R, letters) == _left_to_right(R, letters)
            assert nagao.evaluate(R, iter(letters)) == _left_to_right(R, letters)
    # a letter over another ring is refused wherever it stands; the plain
    # swap does no arithmetic, so only the ring check can catch it
    S = helpers.ring_of(3 if q == 2 else 2)
    mine = nagao.Letter("G", Mat2(R, R.zero, R.one, R.one, R.one))
    for foreign in (Mat2(S, S.zero, S.one, S.one, S.zero), Mat2(S, S.one, S.t, S.zero, S.one),
                    Mat2(S, S.one, S.one, S.one, S.zero)):
        lt = nagao.Letter("G", foreign)
        for letters in ([lt], [lt, mine], [mine, lt], [mine, mine, lt]):
            with pytest.raises(TypeError, match="matrix rings differ"):
                nagao.evaluate(R, letters)


def _decomposed_cases():
    rng = random.Random(500)
    cases = []
    for q in (2, 3, 4, 9):
        R = helpers.ring_of(q)
        for _ in range(20):
            m = helpers.rand_gl2_poly(R, rng, 8)
            cases.append((R, m, nagao.decompose(m)))
    assert max(len(w) for _R, _m, w in cases) >= 6
    return cases


def test_decompose_makes_at_most_one_matrix_product(monkeypatch):
    # peeling is a column operation; only the remainder j meets the first
    # letter in a 2x2 product, so a per-letter product fails here
    cases = _decomposed_cases()
    calls = helpers.count_calls(monkeypatch, Mat2, "__mul__")
    for _R, m, w in cases:
        calls.clear()
        assert nagao.decompose(m) == w
        assert len(calls) <= 1


def test_evaluate_makes_no_matrix_product_on_a_decomposed_word(monkeypatch):
    # after the first letter, a canonical word holds only transversal
    # letters, each one column operation
    cases = _decomposed_cases()
    calls = helpers.count_calls(monkeypatch, Mat2, "__mul__")
    for R, m, w in cases:
        assert nagao.evaluate(R, w) == m
    assert calls == []


def _unipotent_led_word(R, rng, k):
    """The canonical word B0 (G B)^k G of transversal letters: each B is
    [[1, v], [0, 1]] with v in t F_q[t] of degree 1 to 3, and the G letters
    [[0, 1], [1, x]] take x = 0, 1, ... in turn."""
    def b_letter():
        v = helpers.rand_poly(R, rng, 2, nonzero=True) * R.t
        return nagao.Letter(nagao.B_SIDE, Mat2(R, R.one, v, R.zero, R.one))

    def g_letter(i):
        x = R.const(i % R.field.q)
        return nagao.Letter(nagao.G_SIDE, Mat2(R, R.zero, R.one, R.one, x))

    word = [b_letter()]
    for i in range(k):
        word += [g_letter(i), b_letter()]
    return tuple(word) + (g_letter(k),)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_decompose_makes_one_polynomial_product_per_b_peel(q, monkeypatch):
    # B0 leads the top row, so a is non-constant at each of the k B peels,
    # and b -= a*v is one product of two non-constant polynomials; the new
    # d is the division's remainder plus a constant times c, no product.
    # B0 itself is the triangular remainder, not a peel.
    R = helpers.ring_of(q)
    rng = random.Random(800 + q)
    words = [_unipotent_led_word(R, rng, k) for k in range(1, 6) for _ in range(4)]
    products = helpers.count_calls(monkeypatch, Poly, "__mul__")
    for w in words:
        m = nagao.evaluate(R, w)
        products.clear()
        assert nagao.decompose(m) == w
        full = [(x, y) for x, y in products if x.deg > 0 and y.deg > 0]
        assert len(full) == sum(lt.side == "B" for lt in w) - 1


# 16 and 27 divide and scale by byte tables, 512 through the field hooks
@pytest.mark.parametrize("q", [*ORACLE_QS, 16, 27, 512])
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
    # two canonical words side by side normalize to the word of the product
    R = helpers.ring_of(2)
    for _ in range(40):
        m1 = helpers.rand_gl2_poly(R, rng, 4)
        m2 = helpers.rand_gl2_poly(R, rng, 4)
        w = nagao.normalize(R, nagao.decompose(m1) + nagao.decompose(m2))
        assert w == nagao.decompose(m1 * m2)


def test_word_inverse_inverts(rng):
    # a word followed by the word of its inverse normalizes to the identity
    R = helpers.ring_of(3)
    for _ in range(40):
        m = helpers.rand_gl2_poly(R, rng, 4)
        w, wi = nagao.decompose(m), nagao.decompose(m.inverse())
        assert nagao.normalize(R, w + wi) == ()
        assert nagao.normalize(R, wi + w) == ()


def test_word_text_parse_roundtrip(rng):
    R = helpers.ring_of(2)
    for _ in range(25):
        w = nagao.decompose(helpers.rand_gl2_poly(R, rng, 5))
        assert helpers.nagao_word_parse(R, nagao.word_text(w)) == w


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


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("text", ["[[1,1],[1,1]]", "[[1,0],[1,0]]", "[[t,0],[0,1]]",
                                  "[[1,t],[t,t^2]]", "[[0,0],[0,0]]", "[[1,0],[0,0]]",
                                  "[[t,t^3],[1,t^2]]", "[[t^2,t],[t+1,1]]"])
def test_singular_matrices_are_refused_after_the_peeling(q, text):
    # no determinant is taken up front: each of these is peeled down to its
    # triangular remainder, the last two (det 0 and -t) after several letters
    m = mat_parse(helpers.ring_of(q), text)
    with pytest.raises(ValueError, match=re.escape(f"{m.text()} is not invertible over F_q[t]")):
        nagao.decompose(m)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_decompose_refuses_exactly_the_matrices_without_unit_determinant(q, rng):
    # the check on the triangular remainder agrees with det(m) in F_q^*
    R = helpers.ring_of(q)
    refused = 0
    for _ in range(300):
        m = Mat2(R, *(helpers.rand_poly(R, rng, 2) for _ in range(4)))
        det = m.det()
        if det.is_constant() and not det.is_zero():
            assert nagao.evaluate(R, nagao.decompose(m)) == m
        else:
            refused += 1
            with pytest.raises(ValueError, match="not invertible"):
                nagao.decompose(m)
    assert refused > 0


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
