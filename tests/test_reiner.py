import itertools
import math
import random

import pytest

import helpers
from gl2aut import nagao, reiner
from gl2aut.matgroup import Mat2, mat_parse
from gl2aut.polyring import MAX_DEGREE
from gl2aut.words import Type1, build_ex1cusp, gen_inverse
from gl2aut.reiner import (LinearAutoSpec, congruence_member, identity_spec,
                           reiner_apply, reiner_inverse, unipotent_fiber,
                           unipotent_upper)


def swap_spec(ring, i, j):
    a, b = f"t^{i}", f"t^{j}"
    return LinearAutoSpec.from_pairs(ring, {i: b, j: a}, {i: b, j: a})


def const_gl2(ring):
    out = []
    q = ring.field.q
    for codes in itertools.product(range(q), repeat=4):
        m = Mat2(ring, *(ring.const(c) for c in codes))
        if not m.det().is_zero():
            out.append(m)
    return out


def test_identity_spec_acts_trivially(rng):
    R = helpers.ring_of(2)
    spec = identity_spec(R)
    for _ in range(25):
        m = helpers.rand_gl2_poly(R, rng, 5)
        assert reiner_apply(spec, m) == m


def test_spec_validation_rejects_bad_images():
    R = helpers.ring_of(2)
    with pytest.raises(ValueError):
        # image with nonzero constant term
        LinearAutoSpec.from_pairs(R, {1: "t+1"}, {1: "t+1"})
    with pytest.raises(ValueError):
        # stored inverse fails to invert
        LinearAutoSpec.from_pairs(R, {1: "t^2", 2: "t"}, {1: "t^2", 2: "t^2"})
    with pytest.raises(ValueError, match=r"on t\^3$"):
        # fails only on t^3, which is in the inverse's support alone
        LinearAutoSpec.from_pairs(R, {1: "t^2", 2: "t"},
                                  {1: "t^2", 2: "t", 3: "t^3+t^4"})
    with pytest.raises(ValueError):
        # support indices must be >= 1
        LinearAutoSpec(R, {0: R.one}, {0: R.one})


def test_tail_application_and_inverse(rng):
    R = helpers.ring_of(2)
    spec = swap_spec(R, 1, 2)
    assert spec.apply(R.t) == R.poly((0, 0, 1))
    assert spec.apply(R.poly((0, 1, 1))) == R.poly((0, 1, 1))
    # the constant term is fixed
    assert spec.apply(R.poly((1, 1))) == R.poly((1, 0, 1))
    inverse = spec.inverted()
    for _ in range(40):
        a = helpers.rand_poly(R, rng, 6)
        assert inverse.apply(spec.apply(a)) == a
        assert spec.apply(a).constant_code() == a.constant_code()


def test_apply_tail_is_linear(rng):
    R = helpers.ring_of(3)
    spec = LinearAutoSpec.from_pairs(R, {1: "t^2", 2: "t"}, {1: "t^2", 2: "t"})
    for _ in range(30):
        u = helpers.rand_poly(R, rng, 5)
        v = helpers.rand_poly(R, rng, 5)
        assert spec.apply(u + v) == spec.apply(u) + spec.apply(v)
        assert spec.apply(u.scale(2)) == spec.apply(u).scale(2)


def test_homomorphism_and_inverse_composition(rng):
    R = helpers.ring_of(2)
    specs = [swap_spec(R, 1, 2), swap_spec(R, 1, 3),
             LinearAutoSpec.from_pairs(R, {2: "t^2+t"}, {2: "t^2+t"})]
    for spec in specs:
        for _ in range(60):
            m1 = helpers.rand_gl2_poly(R, rng, 5)
            m2 = helpers.rand_gl2_poly(R, rng, 5)
            lhs = reiner_apply(spec, m1 * m2)
            rhs = reiner_apply(spec, m1) * reiner_apply(spec, m2)
            assert lhs == rhs
            assert reiner_inverse(spec, reiner_apply(spec, m1)) == m1
            assert reiner_apply(spec, reiner_inverse(spec, m2)) == m2


def wider_specs(ring):
    """Swap t <-> t^2, the shear t^2 -> t^2 + t, and t -> g t for g the
    field generator, each with its inverse."""
    field = ring.field
    g = field.generator.code
    minus_one = field.neg_i(1)
    return [swap_spec(ring, 1, 2),
            LinearAutoSpec(ring, {2: ring.poly((0, 1, 1))},
                           {2: ring.poly((0, minus_one, 1))}),
            LinearAutoSpec(ring, {1: ring.poly((0, g))},
                           {1: ring.poly((0, field.inv_i(g)))})]


@pytest.mark.parametrize("q", helpers.WIDER_QS)
def test_homomorphism_and_inverse_composition_over_wider_fields(q):
    R = helpers.ring_of(q)
    rng = random.Random(600 + q)
    for spec in wider_specs(R):
        for _ in range(25):
            m1 = helpers.rand_gl2_poly(R, rng, 5)
            m2 = helpers.rand_gl2_poly(R, rng, 5)
            assert reiner_apply(spec, m1 * m2) == reiner_apply(spec, m1) * reiner_apply(spec, m2)
            assert reiner_inverse(spec, reiner_apply(spec, m1)) == m1
            assert reiner_apply(spec, reiner_inverse(spec, m2)) == m2


@pytest.mark.parametrize("q", helpers.WIDER_QS)
def test_triangular_matrices_stay_triangular_over_wider_fields(q):
    R = helpers.ring_of(q)
    rng = random.Random(700 + q)
    for spec in wider_specs(R):
        for _ in range(20):
            m = helpers.rand_upper_triangular(R, rng, 5)
            img = reiner_apply(spec, m)
            assert img.is_upper_triangular()
            assert img == helpers.reiner_on_cuspstab(spec, m)
            assert img.a == m.a and img.d == m.d


def _degree_16(ring, rng) -> Mat2:
    """C0 U(p1) W U(p2) W U(p3) W U(p4) W C1 with deg p = 3, 5, 2, 6, W the
    flip and C0, C1 invertible constants: its entries have degree 16."""
    flip = Mat2(ring, ring.zero, ring.one, ring.one, ring.zero)
    m = helpers.rand_gl2_const(ring, rng)
    for d in (3, 5, 2, 6):
        p = helpers.rand_poly(ring, rng, d - 1) + ring.monomial(helpers.rand_unit_code(
            ring.field, rng), d)
        m = m * Mat2(ring, ring.one, p, ring.zero, ring.one) * flip
    m = m * helpers.rand_gl2_const(ring, rng)
    assert max(e.deg for e in m.entries()) == 16
    return m


def _image_cases(ring, rng) -> list:
    """The identity, constants, upper and lower triangular matrices and
    matrices of entry degree 16."""
    cases = [Mat2.identity(ring)] + [helpers.rand_gl2_const(ring, rng) for _ in range(4)]
    for _ in range(4):
        u = helpers.rand_upper_triangular(ring, rng, 6)
        cases += [u, Mat2(ring, u.d, ring.zero, u.b, u.a)]
    return cases + [_degree_16(ring, rng) for _ in range(6)]


@pytest.mark.parametrize("q", (2, 3) + helpers.WIDER_QS)
def test_one_pass_image_matches_the_word_oracle(q):
    R = helpers.ring_of(q)
    rng = random.Random(f"one-pass:{q}")
    for spec in wider_specs(R):
        for m in _image_cases(R, rng):
            image = reiner_apply(spec, m)
            assert image == helpers.word_reiner_apply(spec, m), (spec, m)
            assert reiner_inverse(spec, m) == helpers.word_reiner_apply(spec.inverted(), m)
            assert reiner_inverse(spec, image) == m


@pytest.mark.parametrize("text", ["[[t,1],[0,1]]", "[[0,0],[0,0]]", "[[1,1],[1,1]]",
                                  "[[t,0],[0,1]]", "[[t^2+1,t],[t,2]]"])
def test_a_matrix_that_is_no_unit_is_refused_with_its_text(text):
    R = helpers.ring_of(3)
    m = mat_parse(R, text)
    assert m.text() == text
    for image in (reiner_apply, reiner_inverse):
        with pytest.raises(ValueError) as caught:
            image(swap_spec(R, 1, 2), m)
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"{text} is not invertible over F_q[t]"


def test_reiner_apply_writes_out_no_word(monkeypatch):
    R = helpers.ring_of(3)
    rng = random.Random(17)
    spec = wider_specs(R)[1]
    cases = _image_cases(R, rng)
    calls = [helpers.count_calls(monkeypatch, nagao.Letter, "__init__"),
             helpers.count_calls(monkeypatch, nagao, "evaluate"),
             helpers.count_calls(monkeypatch, Mat2, "__mul__")]
    for m in cases:
        reiner_inverse(spec, reiner_apply(spec, m))
    assert [len(c) for c in calls] == [0, 0, 0]


def test_constant_matrices_are_fixed():
    R = helpers.ring_of(2)
    specs = [swap_spec(R, 1, 2), LinearAutoSpec.from_pairs(R, {2: "t^2+t"},
                                                           {2: "t^2+t"})]
    for spec in specs:
        for m in const_gl2(R):
            assert reiner_apply(spec, m) == m


def test_triangular_matrices_stay_triangular(rng):
    R = helpers.ring_of(2)
    spec = swap_spec(R, 1, 2)
    for _ in range(40):
        m = helpers.rand_upper_triangular(R, rng, 5)
        img = reiner_apply(spec, m)
        assert img.is_upper_triangular()
        assert img == helpers.reiner_on_cuspstab(spec, m)
        # diagonal is untouched, the off-diagonal tail is substituted
        assert img.a == m.a and img.d == m.d


def test_spec_json_roundtrip():
    R = helpers.ring_of(2)
    spec = LinearAutoSpec.from_pairs(R, {1: "t^3", 3: "t"}, {1: "t^3", 3: "t"})
    again = LinearAutoSpec.from_json(R, spec.to_json())
    assert again == spec
    assert again.inverted() == spec.inverted()


def test_spec_degrees_are_capped():
    R = helpers.ring_of(2)
    top = [0] * MAX_DEGREE + [1]
    swap = {"1": top, str(MAX_DEGREE): [0, 1]}
    with helpers.budget(1):
        spec = LinearAutoSpec.from_json(R, {"map": swap, "inverse": swap})
    assert spec.apply(R.t).deg == MAX_DEGREE
    past = {"1": [0, 1], str(MAX_DEGREE + 1): [0, 1]}
    with pytest.raises(ValueError, match=f"index {MAX_DEGREE + 1} exceeds"):
        LinearAutoSpec.from_json(R, {"map": past, "inverse": past})
    long = {"1": top + [1]}
    with pytest.raises(ValueError, match=f"degree past {MAX_DEGREE}"):
        LinearAutoSpec.from_json(R, {"map": long, "inverse": long})


def test_inverting_a_spec_at_the_degree_cap_is_cheap():
    R = helpers.ring_of(2)
    top = [0] * MAX_DEGREE + [1]
    swap = {"1": top, str(MAX_DEGREE): [0, 1]}
    m = Mat2(R, R.one, R.t, R.zero, R.one)
    with helpers.budget(0.5):
        spec = LinearAutoSpec.from_json(R, {"map": swap, "inverse": swap})
        for _ in range(20):
            assert reiner_inverse(spec, m) == Mat2(R, R.one, R.monomial(1, MAX_DEGREE),
                                                   R.zero, R.one)


def test_spec_check_runs_once_per_constructed_spec(monkeypatch):
    decl = build_ex1cusp()
    kind = decl.factors[0].kind
    R = kind.ring
    calls = []
    check = LinearAutoSpec._check
    monkeypatch.setattr(LinearAutoSpec, "_check",
                        lambda self: calls.append(self) or check(self))
    spec = LinearAutoSpec.from_json(R, {"map": {"1": [0, 0, 1], "2": [0, 1]},
                                        "inverse": {"1": [0, 0, 1], "2": [0, 1]}})
    assert spec.inverted().inverted() == spec
    m = helpers.rand_gl2_poly(R, random.Random(5), 4)
    for _ in range(20):
        assert reiner_apply(spec, reiner_inverse(spec, m)) == m
    assert kind.invert_auto(spec) == spec.inverted()
    assert gen_inverse(decl, Type1(0, spec)) == Type1(0, spec.inverted())
    assert calls == [spec]


def test_spec_check_refuses_dense_specs_fast():
    R = helpers.ring_of(2)
    assert LinearAutoSpec.from_json(R, helpers.unitriangular_spec(40, "map")) == \
        LinearAutoSpec.from_json(R, helpers.unitriangular_spec(40, "inverse")).inverted()
    for side in ("map", "inverse"):
        data = helpers.unitriangular_spec(MAX_DEGREE, side)
        with helpers.budget(1):
            try:
                LinearAutoSpec.from_json(R, data)
            except ValueError as err:
                assert "coefficient operations" in str(err)


def test_spec_check_refuses_work_past_the_cap():
    # the dense map of unitriangular_spec(n): checking t^i walks its n - i + 1
    # terms and adds a two-term inverse image (one term for t^n) for each,
    # 3(n - i) + 2 operations from each image's lowest term, n(3n + 1)/2 in all
    R = helpers.ring_of(2)
    cap = reiner._CHECK_WORK_CAP
    n = max(k for k in range(1, MAX_DEGREE) if k * (3 * k + 1) // 2 <= cap)
    LinearAutoSpec.from_json(R, helpers.unitriangular_spec(n, "map"))
    with pytest.raises(ValueError, match=f"needs {(n + 1) * (3 * n + 4) // 2} coefficient "
                                         f"operations, more than {cap}"):
        LinearAutoSpec.from_json(R, helpers.unitriangular_spec(n + 1, "map"))


def test_unipotent_helpers():
    R = helpers.ring_of(2)
    u = unipotent_upper(R, R.t)
    assert u == Mat2(R, R.one, R.t, R.zero, R.one)
    tsq = R.poly((0, 0, 1))
    assert congruence_member(Mat2.identity(R), tsq)
    assert congruence_member(unipotent_upper(R, tsq), tsq)
    assert not congruence_member(u, tsq)


def test_unipotent_fiber_identity_spec_is_the_congruence_ideal():
    R = helpers.ring_of(2)
    spec = identity_spec(R)
    tsq = R.poly((0, 0, 1))
    fiber = unipotent_fiber(spec, tsq, 4)
    # multiples of t^2 with degree <= 4: q^(4 + 1 - 2) of them
    assert len(fiber) == 2 ** 3
    assert all(a % tsq == R.zero for a in fiber)


def test_unipotent_fiber_matches_direct_definition():
    R = helpers.ring_of(2)
    spec = swap_spec(R, 1, 2)
    modulus = R.poly((0, 0, 1))
    got = unipotent_fiber(spec, modulus, 3)
    want = [a for a in R.polys_of_degree_at_most(3)
            if congruence_member(reiner_apply(spec.inverted(),
                                              unipotent_upper(R, a)), modulus)]
    assert got == want


def _rand_fiber_spec(R, rng):
    """A swap t^i <-> t^j, a scaling t^i -> c t^i or a shear t^i -> t^i + c t^j
    (j > i), each with its inverse."""
    q = R.field.q
    i, j = sorted(rng.sample(range(1, 6), 2))
    c = rng.randrange(1, q)
    kind = rng.choice(("swap", "scale", "shear"))
    if kind == "swap":
        return swap_spec(R, i, j)
    if kind == "scale":
        return LinearAutoSpec(R, {i: R.monomial(c, i)},
                              {i: R.monomial(R.field.inv_i(c), i)})
    return LinearAutoSpec(R, {i: R.monomial(1, i) + R.monomial(c, j)},
                          {i: R.monomial(1, i) - R.monomial(c, j)})


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_unipotent_fiber_matches_the_definition_on_random_specs(q):
    # the kernel by elimination, in integer-code order, against the walk over
    # every a of degree <= bound through reiner_apply and congruence_member
    rng = random.Random(f"fiber-kernel:{q}")
    R = helpers.ring_of(q)
    top = max(b for b in range(12) if q ** (b + 1) <= 2000)
    for _ in range(20):
        spec = _rand_fiber_spec(R, rng)
        modulus = helpers.rand_poly(R, rng, rng.randint(1, 4), nonzero=True)
        if modulus.deg < 1:
            modulus = modulus + R.t
        bound = rng.randint(0, top)
        want = [a for a in R.polys_of_degree_at_most(bound)
                if congruence_member(reiner_apply(spec.inverted(),
                                                  unipotent_upper(R, a)), modulus)]
        assert unipotent_fiber(spec, modulus, bound) == want, (spec, modulus, bound)


def test_unipotent_fiber_is_a_subspace():
    R = helpers.ring_of(2)
    spec = swap_spec(R, 1, 3)
    modulus = R.poly((1, 1, 1))
    fiber = unipotent_fiber(spec, modulus, 4)
    members = set(fiber)
    assert R.zero in members
    for a in members:
        for b in members:
            if (a + b).deg <= 4:
                assert a + b in members


def test_unipotent_fiber_rejects_negative_bound():
    R = helpers.ring_of(2)
    with pytest.raises(ValueError):
        unipotent_fiber(identity_spec(R), R.t, -1)


def test_fibers_over_f3(rng):
    R = helpers.ring_of(3)
    spec = LinearAutoSpec.from_pairs(R, {1: "2t^2", 2: "2t"}, {1: "2t^2", 2: "2t"})
    modulus = R.t
    fiber = unipotent_fiber(spec, modulus, 2)
    # membership only constrains the constant coefficient
    assert all(a.constant_code() == 0 for a in fiber)
    assert len(fiber) == 9


def test_unipotent_fiber_refuses_large_fibers_before_listing(monkeypatch):
    R = helpers.ring_of(2)
    spec = identity_spec(R)
    tsq = R.poly((0, 0, 1))
    # the multiples of t^2 of degree <= bound: 2^(bound - 1) of them
    with helpers.budget(1):
        assert len(unipotent_fiber(spec, tsq, 13)) == 4096
    for bound in (14, MAX_DEGREE):
        with helpers.budget(1), pytest.raises(ValueError, match="more than 4096"):
            unipotent_fiber(spec, tsq, bound)
    with helpers.budget(1), pytest.raises(ValueError, match=f"exceeds {MAX_DEGREE}"):
        unipotent_fiber(spec, tsq, 10 ** 9)
    # the cap counts the members listed, inclusive
    monkeypatch.setattr(reiner, "_FIBER_CAP", 2 ** 4)
    assert len(unipotent_fiber(spec, tsq, 5)) == 2 ** 4
    with pytest.raises(ValueError):
        unipotent_fiber(spec, tsq, 6)
    # t <-> t^5 sends t, t^3 and t^4 to 0 mod t^3: at bound 4 the kernel has
    # 2^3 members, past the 2^(5 - 3) the dimension bound counts
    swap, t3 = swap_spec(R, 1, 5), R.poly((0, 0, 0, 1))
    monkeypatch.setattr(reiner, "_FIBER_CAP", 2 ** 2)
    with pytest.raises(ValueError, match="more than 4 polynomials"):
        unipotent_fiber(swap, t3, 4)
    monkeypatch.setattr(reiner, "_FIBER_CAP", 2 ** 3)
    assert [a.text() for a in unipotent_fiber(swap, t3, 4)] == \
        ["0", "t", "t^3", "t^3+t", "t^4", "t^4+t", "t^4+t^3", "t^4+t^3+t"]
