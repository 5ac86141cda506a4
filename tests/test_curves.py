import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import gl2aut.curves
from gl2aut.curves import (INFINITY, LPoly, WeierstrassCurve, class_data,
                           cs_order, curve_from_text, ell_count,
                           enumerate_points, group_structure,
                           lpoly_from_count, point_add, point_mul, point_neg,
                           two_torsion_count)
from gl2aut.ffield import field_of_order
import helpers
from helpers import (brute_group_structure, brute_points,
                     brute_two_torsion_count)
from test_cli import LARGE_CURVES

SUPERSINGULAR_F2 = "q=2;y2+y=x3"
ANISOTROPIC_F2 = "q=2;y2+y=x3+x+1"
ORACLE_FIELDS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32]
SMALL_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13]


@st.composite
def curves(draw, fields, nonsingular=False, a1_nonzero=False):
    field = field_of_order(draw(st.sampled_from(fields)))
    code = st.integers(0, field.q - 1)
    a1 = draw(st.integers(1, field.q - 1) if a1_nonzero else code)
    a2, a3, a4, a6 = (draw(code) for _ in range(4))
    curve = WeierstrassCurve(field, *(field.el(c) for c in (a1, a2, a3, a4, a6)))
    if nonsingular:
        assume(curve.is_nonsingular())
    return curve


@pytest.mark.parametrize("spec,count", [
    (SUPERSINGULAR_F2, 3),
    (ANISOTROPIC_F2, 1),
    ("q=2;y2+y=x3+x", 5),
    ("q=3;y2=x3+2x+1", 7),
    ("q=4;y2+y=x3", 9),
])
def test_point_enumeration_matches_brute_force(spec, count):
    curve = curve_from_text(spec)
    pts = enumerate_points(curve)
    assert len(pts) == count
    brute = brute_points(curve)
    assert len(brute) == count
    assert pts == brute
    assert pts[0] is INFINITY


@settings(max_examples=80, deadline=None)
@given(curves(ORACLE_FIELDS))
def test_enumerate_points_equals_the_brute_force_scan(curve):
    # the same list in the same order, for singular equations too
    assert enumerate_points(curve) == brute_points(curve)


@settings(max_examples=40, deadline=None)
@given(curves([2, 4, 8, 16, 32], a1_nonzero=True))
def test_enumerate_points_char2_with_a1_nonzero(curve):
    # b = a1 x + a3 vanishes at exactly one x, so both the square-root and
    # the Artin-Schreier branch run on the same curve
    zeros = [x for x in curve.field.elements() if not curve.a1 * x + curve.a3]
    assert len(zeros) == 1
    assert enumerate_points(curve) == brute_points(curve)


@settings(max_examples=60, deadline=None)
@given(curves(SMALL_FIELDS, nonsingular=True))
def test_group_structure_matches_point_orders(curve):
    pts = brute_points(curve)
    assert group_structure(curve, pts) == brute_group_structure(curve, pts)


@settings(max_examples=60, deadline=None)
@given(curves(ORACLE_FIELDS, nonsingular=True))
def test_two_torsion_count_matches_the_group_law(curve):
    pts = enumerate_points(curve)
    assert two_torsion_count(curve, pts) == brute_two_torsion_count(curve, pts)


def test_singular_curves_are_rejected():
    for bad in ("q=2;y2=x3", "q=3;y2=x3", "q=5;y2=x3+x2"):
        with pytest.raises(ValueError):
            curve_from_text(bad)


def test_curve_text_parsing_errors():
    for bad in ("y2=x3+1", "q=6;y2=x3+1", "q=2;y2=x4", "q=2;nonsense",
                "q=4;y2+y=x3+4"):
        with pytest.raises(ValueError):
            curve_from_text(bad)


def test_curve_coefficients_are_element_codes():
    # a bare integer is an element code: 2 is the digit vector (0,1) over F_4
    def same(a, b):
        return curve_from_text(a).coeff_text() == curve_from_text(b).coeff_text()
    assert same("q=4;y2+y=x3+2", "q=4;y2+y=x3+(0,1)")
    assert same("q=3;y2=x3+5x+1", "q=3;y2=x3+2x+1")


def test_group_law_basics():
    curve = curve_from_text("q=3;y2=x3+2x+1")
    pts = enumerate_points(curve)
    for p in pts:
        assert point_add(curve, p, INFINITY) == p
        assert point_add(curve, p, point_neg(curve, p)) is INFINITY
    # commutativity and associativity on all triples of this small group
    for p in pts:
        for r in pts:
            assert point_add(curve, p, r) == point_add(curve, r, p)
            for s in pts:
                left = point_add(curve, point_add(curve, p, r), s)
                right = point_add(curve, p, point_add(curve, r, s))
                assert left == right


def test_point_orders_divide_group_order():
    curve = curve_from_text("q=5;y2=x3+x+1")
    pts = enumerate_points(curve)
    n = len(pts)
    for p in pts:
        k = helpers.point_order(curve, p, n)
        assert n % k == 0
        assert point_mul(curve, k, p) is INFINITY
    assert math.prod(group_structure(curve, pts)) == n


def test_two_torsion_counts():
    def count(spec):
        curve = curve_from_text(spec)
        return two_torsion_count(curve, enumerate_points(curve))

    # number of solutions of 2P = infinity, identity included
    assert count(SUPERSINGULAR_F2) == 1
    assert count(ANISOTROPIC_F2) == 1
    # y^2 = x^3 + x over F_5 has full two-torsion: x^3 + x splits
    assert count("q=5;y2=x3+x") == 4


@pytest.mark.parametrize("q", sorted(LARGE_CURVES))
def test_two_torsion_count_on_the_large_curves(q):
    curve = curve_from_text(f"q={q};{LARGE_CURVES[q][0]}")
    pts = enumerate_points(curve)
    assert two_torsion_count(curve, pts) == brute_two_torsion_count(curve, pts)


def test_two_torsion_count_negates_no_point(monkeypatch):
    # P = -P is read on codes as 2y + a1 x + a3 = 0, with no negated point
    negations = helpers.count_calls(monkeypatch, gl2aut.curves, "point_neg")
    for spec, count in (("q=5;y2=x3+x", 4), ("q=9;y2=x3+x", 4), (SUPERSINGULAR_F2, 1)):
        curve = curve_from_text(spec)
        assert two_torsion_count(curve, enumerate_points(curve)) == count
    assert negations == []


@pytest.mark.parametrize("spec,factors", [
    ("q=5;y2=x3+x", [2, 2]),        # 2-part Z/2 x Z/2
    ("q=9;y2=x3+x", [4, 4]),        # a = b = 2
    ("q=25;y2=x3+x", [4, 8]),       # a = 2 < b = 3: the count drops at k = 3
    ("q=4;y2+y=x3", [3, 3]),        # an odd p with a = 1
    ("q=13;y2=x3+x", [2, 10]),      # a = 1 at p = 2 beside a cyclic 5-part
    ("q=7;y2=x3+x", [8]),           # 4 | #E but cyclic: a = 0 at p = 2
    ("q=2;y2+y=x3", [3]),           # no p^2 divides #E
    ("q=2;y2+y=x3+x+1", []),        # the trivial group
])
def test_group_structure_on_each_shape_of_p_part(spec, factors):
    curve = curve_from_text(spec)
    pts = enumerate_points(curve)
    assert group_structure(curve, pts) == factors
    assert brute_group_structure(curve, pts) == factors


def test_lpoly_construction_and_hasse_bound():
    lp = lpoly_from_count(3, 2)
    assert lp.coeffs == (1, 0, 2)
    assert lp(1) == 3 and lp(-1) == 3
    with pytest.raises(ValueError):
        lpoly_from_count(9, 2)  # too many points for q = 2
    with pytest.raises(ValueError):
        LPoly((2, 0, 1))  # constant coefficient must be 1
    for coeffs in [(1,), (1, 0), (1, 0, 2, 0, 4)]:  # genus one only
        with pytest.raises(ValueError):
            LPoly(coeffs)


def test_ell_count_is_l_at_minus_one():
    assert ell_count(lpoly_from_count(3, 2)) == 3
    assert ell_count(lpoly_from_count(1, 2)) == 5
    assert ell_count(lpoly_from_count(5, 2)) == 1


def test_class_data_for_the_two_benchmark_curves():
    c1 = curve_from_text(SUPERSINGULAR_F2)
    pts1 = enumerate_points(c1)
    cd1 = class_data(lpoly_from_count(len(pts1), 2), c1, pts1)
    assert (cd1.h, cd1.cl2, cd1.r) == (3, 1, 1)
    assert cd1.ell_eq == 1 and cd1.ell_neq == 2

    c2 = curve_from_text(ANISOTROPIC_F2)
    pts2 = enumerate_points(c2)
    cd2 = class_data(lpoly_from_count(len(pts2), 2), c2, pts2)
    assert (cd2.h, cd2.cl2, cd2.r) == (1, 1, 2)
    assert cd2.ell_eq == 1 and cd2.ell_neq == 4


def test_class_data_identity_on_a_sweep():
    # cl2 + 2 r = L(-1) across assorted nonsingular curves
    specs = ["q=2;y2+y=x3", "q=2;y2+y=x3+x", "q=2;y2+y=x3+x+1",
             "q=3;y2=x3+2x+1", "q=3;y2=x3+x+2", "q=5;y2=x3+x+1",
             "q=4;y2+y=x3", "q=5;y2=x3+x"]
    for spec in specs:
        curve = curve_from_text(spec)
        pts = enumerate_points(curve)
        lp = lpoly_from_count(len(pts), curve.field.q)
        cd = class_data(lp, curve, pts)
        assert cd.cl2 + 2 * cd.r == lp(-1)
        assert cd.h == len(pts)
        assert cd.ell_eq + cd.ell_neq == lp(-1)


def _random_nonsingular_curves(q, count, rng):
    field = field_of_order(q)
    out = []
    while len(out) < count:
        curve = WeierstrassCurve(field, *(field.el(rng.randrange(q)) for _ in range(5)))
        if curve.is_nonsingular():
            out.append(curve)
    return out


@pytest.mark.parametrize("q", ORACLE_FIELDS)
def test_class_data_r_counts_the_x_with_no_rational_point(q):
    # r comes from L(-1) - cl2; the oracle reads only the brute-force points
    rng = random.Random(f"class-data-r:{q}")
    for curve in _random_nonsingular_curves(q, 8, rng):
        pts = enumerate_points(curve)
        cd = class_data(lpoly_from_count(len(pts), q), curve, pts)
        assert cd.r == helpers.brute_r(curve), curve


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_l_at_minus_one_is_the_count_over_f_q2_over_the_count_over_f_q(q):
    # #E(F_{q^2}) = L(1) L(-1), counted over F_{q^2} by brute force
    rng = random.Random(f"l-minus-one:{q}")
    for curve in _random_nonsingular_curves(q, 3, rng):
        n = len(helpers.brute_points(curve))
        big, rem = divmod(helpers.brute_count_over_square(curve), n)
        assert rem == 0 and big == lpoly_from_count(n, q)(-1), curve


def test_class_data_rejects_mismatched_count():
    curve = curve_from_text(SUPERSINGULAR_F2)
    with pytest.raises(ValueError):
        class_data(lpoly_from_count(5, 2), curve, enumerate_points(curve))


def test_cs_order_values():
    assert cs_order(0, 2) == 1
    assert cs_order(1, 2) == 2
    assert cs_order(2, 2) == 8
    assert cs_order(3, 2) == 48
    assert cs_order(1, 3) == 4
    assert cs_order(2, 3) == 32
    with pytest.raises(ValueError):
        cs_order(-1, 2)


def test_cs_order_refuses_orders_past_4300_digits():
    # r! * 2^r has 4300 digits at r = 1423, the most Python prints, and
    # 4301 at r = 1424
    assert cs_order(1423, 2) == math.factorial(1423) * 2 ** 1423
    assert len(str(cs_order(1423, 2))) == 4300
    for r in (1424, 2000):
        with helpers.budget(1):
            with pytest.raises(ValueError, match="more than 4300 digits"):
                cs_order(r, 2)
