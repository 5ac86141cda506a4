import random

import pytest

import helpers
from gl2aut.ffield import field_of_order, quad_ext
from gl2aut.matgroup import (ALL_POINTS, EllipticStab, Mat2, ProjPoint,
                             elliptic_stab, fixed_points, mat_parse, matrix_order,
                             mobius)
from gl2aut.polyring import Poly


def test_matrix_text_parse_roundtrip(rng):
    R = helpers.ring_of(3)
    for _ in range(25):
        m = helpers.rand_gl2_poly(R, rng, 4)
        assert mat_parse(R, m.text()) == m


def test_matrix_parse_rejects_malformed():
    R = helpers.ring_of(2)
    for bad in ("[[1,0],[0]]", "[1,0,0,1]", "", "[[1,0],[0,1]", "[[1,0],[0,x]]"):
        with pytest.raises(ValueError):
            mat_parse(R, bad)


def test_inverse_and_power(rng):
    R = helpers.ring_of(2)
    for _ in range(30):
        m = helpers.rand_gl2_poly(R, rng, 5)
        assert (m * m.inverse()).is_identity()
        assert (m.inverse() * m).is_identity()
        assert m ** 3 == m * m * m
        assert (m ** 0).is_identity()
        assert m ** -2 == m.inverse() * m.inverse()


def _rand_diagonal_entry(R, rng):
    """Zero, a nonzero constant or a non-constant polynomial, one third each."""
    kind = rng.randrange(3)
    if kind == 0:
        return R.zero
    if kind == 1:
        return R.const(rng.randrange(1, R.field.q))
    return helpers.rand_poly(R, rng, 2) * R.t + R.const(rng.randrange(R.field.q))


def _rand_mat_of_each_shape(R, rng):
    """Upper, lower and diagonal matrices over random diagonals, a general
    matrix of unit determinant (a product of letters) and a general
    matrix of random entries."""
    def entry():
        return helpers.rand_poly(R, rng, 2, nonzero=True)

    def diag():
        return _rand_diagonal_entry(R, rng), _rand_diagonal_entry(R, rng)

    (a, d), (e, h), (p, s) = diag(), diag(), diag()
    return {"upper": Mat2(R, a, entry(), R.zero, d),
            "lower": Mat2(R, e, R.zero, entry(), h),
            "diagonal": Mat2(R, p, R.zero, R.zero, s),
            "unit product": helpers.rand_gl2_poly(R, rng, 6),
            "random general": Mat2(R, entry(), entry(), entry(), entry())}


@pytest.mark.parametrize("q", [2, 3, *helpers.WIDER_QS])
def test_unit_det_test_agrees_with_the_determinant(q):
    R = helpers.ring_of(q)
    rng = random.Random(900 + q)
    answers = {}
    for _ in range(150):
        for shape, m in _rand_mat_of_each_shape(R, rng).items():
            det = m.det()
            want = det.is_constant() and not det.is_zero()
            assert m.has_unit_det() == want, m
            answers.setdefault(shape, set()).add(want)
    # each triangular shape meets both answers, and the general ones too
    assert all(answers[shape] == {True, False} for shape in ("upper", "lower", "diagonal"))
    assert answers["unit product"] == {True} and False in answers["random general"]


def test_unit_det_test_of_a_triangular_matrix_makes_no_product(monkeypatch, rng):
    R = helpers.ring_of(3)
    mats = [m for _ in range(50) for shape, m in _rand_mat_of_each_shape(R, rng).items()
            if shape in ("upper", "lower", "diagonal")]
    products = helpers.count_calls(monkeypatch, Poly, "__mul__")
    for m in mats:
        m.has_unit_det()
    assert products == []


def test_determinant_is_multiplicative(rng):
    R = helpers.ring_of(3)
    for _ in range(30):
        a = helpers.rand_gl2_poly(R, rng, 3)
        b = helpers.rand_gl2_poly(R, rng, 3)
        assert (a * b).det() == a.det() * b.det()


def test_singular_matrix_has_no_inverse():
    R = helpers.ring_of(2)
    m = Mat2(R, R.one, R.one, R.one, R.one)
    with pytest.raises(ValueError):
        m.inverse()


def test_mobius_composition_law():
    field = field_of_order(5)
    mats = []
    gen = helpers.gl2_elements(field)
    for m in gen:
        mats.append(m)
        if len(mats) == 40:
            break
    points = [ProjPoint.of(field, x) for x in field.elements()]
    points.append(ProjPoint.infinity(field))
    for a in mats[:8]:
        for b in mats[8:16]:
            ab = a * b
            for pt in points:
                assert mobius(ab, pt) == mobius(a, mobius(b, pt))


def test_mobius_identity_fixes_everything():
    field = field_of_order(4)
    m = Mat2.identity(field)
    assert fixed_points(m, field) is ALL_POINTS
    for x in field.elements():
        pt = ProjPoint.of(field, x)
        assert mobius(m, pt) == pt


def test_fixed_points_of_translation_is_infinity_only():
    field = field_of_order(3)
    m = Mat2(field, field.one, field.one, field.zero, field.one)
    pts = fixed_points(m, field)
    assert pts == [ProjPoint.infinity(field)]


def test_gl2_enumeration_counts():
    for q in (2, 3, 4):
        field = field_of_order(q)
        elems = list(helpers.gl2_elements(field))
        expected = (q * q - 1) * (q * q - q)
        assert len(elems) == expected
        assert len({m.text() for m in elems}) == expected
        assert all(bool(m.det()) for m in elems)


@pytest.mark.parametrize("q", [2, 3])
def test_elliptic_stabilizer_conjugation_relation(q):
    field = field_of_order(q)
    ext = quad_ext(field)
    eps = ext.generator
    stab: EllipticStab = elliptic_stab(field, eps)
    n = q * q - 1
    assert matrix_order(stab.g) == n
    # the swap conjugates the generator to its q-th power
    lhs = stab.g_swap * stab.g * stab.g_swap.inverse()
    assert lhs == stab.g ** q
    # norm and trace of the generator appear as det and trace of g
    assert stab.g.det() == stab.lam
    assert stab.g.a + stab.g.d == stab.mu


def test_elliptic_stabilizer_rejects_non_generator():
    field = field_of_order(3)
    ext = quad_ext(field)
    one = ext.one
    with pytest.raises(ValueError):
        elliptic_stab(field, one)


def test_matrix_order_small_cases():
    field = field_of_order(3)
    assert matrix_order(Mat2.identity(field)) == 1
    unip = Mat2(field, field.one, field.one, field.zero, field.one)
    assert matrix_order(unip) == 3


@pytest.mark.parametrize("q", [2, 3, 4])
def test_matrix_order_matches_counting_on_all_of_gl2(q):
    field = field_of_order(q)
    ident = Mat2.identity(field)
    for m in helpers.gl2_elements(field):
        assert matrix_order(m) == helpers.brute_order(m, ident)


def test_matrix_order_needs_an_invertible_matrix_over_a_finite_field():
    field = field_of_order(3)
    with pytest.raises(ValueError):
        matrix_order(Mat2(field, field.one, field.one, field.one, field.one))
    R = helpers.ring_of(3)
    with pytest.raises(TypeError):
        matrix_order(Mat2.identity(R))
