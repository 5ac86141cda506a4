import ast
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from gl2aut.ffield import field_of_order
from gl2aut.matgroup import Mat2, mat_parse
from gl2aut.polyring import MAX_DEGREE, PolyRing, poly_ring


def test_degree_conventions():
    R = helpers.ring_of(2)
    assert R.zero.deg == -1
    assert R.one.deg == 0
    assert R.t.deg == 1
    assert R.poly((1, 0, 1)).deg == 2


def test_trailing_zero_coefficients_are_normalized():
    R = helpers.ring_of(3)
    assert R.poly((1, 2, 0, 0)) == R.poly((1, 2))
    assert R.poly((0, 0, 0)) == R.zero


def test_text_rendering_and_parsing():
    R2 = helpers.ring_of(2)
    R3 = helpers.ring_of(3)
    assert R2.poly((1, 1, 1)).text() == "t^2+t+1"
    assert R2.zero.text() == "0"
    assert R2.one.text() == "1"
    assert R3.poly((2, 1)).text() == "t+2"
    for p in (R2.poly((1, 0, 1, 1)), R3.poly((0, 2, 0, 1)), R2.t, R3.zero):
        assert p.ring.parse_element(p.text()) == p


def test_parse_rejects_garbage():
    R = helpers.ring_of(2)
    for bad in ("x+1", "t^", "", "t^-1"):
        with pytest.raises(ValueError):
            R.parse_element(bad)


def test_minus_signs_subtract_their_term():
    R3, R9 = helpers.ring_of(3), helpers.ring_of(9)
    assert R3.parse_element("t-1") == R3.poly((2, 1))
    assert R3.parse_element("-t") == R3.poly((0, 2))
    assert R3.parse_element("2t^2-t+1") == R3.poly((1, 2, 2))
    assert R3.parse_element("-t+t") == R3.zero
    # -(1,1) in F_9 has the digits (2,2), code 2 + 3 * 2
    assert R9.parse_element("t-(1,1)") == R9.poly((8, 1))
    for bad in ("+t", "t--1", "t+-1", "t-", "-", "t^-1", "-t^-2"):
        with pytest.raises(ValueError):
            R3.parse_element(bad)


def test_parse_refuses_degrees_past_the_cap():
    R = helpers.ring_of(2)
    assert R.parse_element(f"t^{MAX_DEGREE}+1").deg == MAX_DEGREE
    for text in (f"t^{MAX_DEGREE + 1}", f"1+t^{MAX_DEGREE + 1}"):
        with pytest.raises(ValueError, match=f"exceeds {MAX_DEGREE}"):
            R.parse_element(text)


def test_bare_coefficients_are_element_codes():
    R4 = helpers.ring_of(4)
    assert R4.parse_element("3t^2+2t+1") == R4.poly((1, 2, 3))
    assert R4.parse_element("(1,1)t+(1)") == R4.poly((1, 3))
    assert mat_parse(R4, "[[0,1],[1,0]]") == Mat2(R4, R4.zero, R4.one, R4.one, R4.zero)
    for bad in ("4t", "t+9"):
        with pytest.raises(ValueError):
            R4.parse_element(bad)
    # over a prime field a bare integer is read mod p
    assert helpers.ring_of(3).parse_element("5t+4") == helpers.ring_of(3).poly((1, 2))


def test_coefficient_numerals_past_4300_digits(rng):
    # int() reads at most 4300 digits; the lengths straddle that and twice it
    def horner(digits, p):
        value = 0
        for d in digits:
            value = (10 * value + int(d)) % p
        return value

    R3, R7, R9 = helpers.ring_of(3), helpers.ring_of(7), helpers.ring_of(9)
    for n in (4300, 4301, 8600, 8601, 9999):
        a = "".join(rng.choice("0123456789") for _ in range(n))
        b = "".join(rng.choice("0123456789") for _ in range(n))
        assert R7.parse_element(f"{a}t+{b}") == R7.poly((horner(b, 7), horner(a, 7)))
        assert R3.parse_element(f"({a})t") == R3.poly((0, horner(a, 3)))
        assert R9.parse_element(f"({a},{b})t") == R9.poly((0, horner(a, 3) + 3 * horner(b, 3)))
        with pytest.raises(ValueError, match=f"element code of {len(a.lstrip('0'))} digits"):
            R9.parse_element(f"{a}t")
    # leading zeros do not count towards a code's digits
    assert R9.parse_element("0" * 5000 + "8t") == R9.poly((0, 8))


@pytest.mark.parametrize("q", [4, 8, 9])
def test_random_matrices_over_non_prime_fields(q, rng):
    ring = helpers.ring_of(q)
    for _ in range(5):
        m = helpers.rand_gl2_poly(ring, rng, 4)
        assert m.det().is_constant() and not m.det().is_zero()


non_prime_polys = st.sampled_from([4, 8, 9]).flatmap(
    lambda q: st.tuples(st.just(q), st.lists(st.integers(0, q - 1), max_size=6)))


@given(non_prime_polys)
@settings(max_examples=80, deadline=None)
def test_printed_polynomials_parse_back_over_non_prime_fields(case):
    q, coeffs = case
    ring = helpers.ring_of(q)
    p = ring.poly(tuple(coeffs))
    assert ring.parse_element(p.text()) == p


@given(st.sampled_from([4, 8, 9]), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_printed_matrices_parse_back_over_non_prime_fields(q, seed):
    ring = helpers.ring_of(q)
    m = helpers.rand_gl2_poly(ring, random.Random(seed), 4)
    assert mat_parse(ring, m.text()) == m


coeff_lists = st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=7)


@given(a=coeff_lists, b=coeff_lists, c=coeff_lists)
@settings(max_examples=80, deadline=None)
def test_ring_laws_f3(a, b, c):
    R = helpers.ring_of(3)
    x, y, z = R.poly(tuple(a)), R.poly(tuple(b)), R.poly(tuple(c))
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x


@given(a=coeff_lists, b=coeff_lists)
@settings(max_examples=80, deadline=None)
def test_division_invariant_f3(a, b):
    R = helpers.ring_of(3)
    x, y = R.poly(tuple(a)), R.poly(tuple(b))
    if y.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(x, y)
        return
    q, r = divmod(x, y)
    assert q * y + r == x
    assert r.deg < y.deg


def test_degree_of_product_adds(rng):
    R = helpers.ring_of(5)
    for _ in range(50):
        x = helpers.rand_poly(R, rng, 6, nonzero=True)
        y = helpers.rand_poly(R, rng, 6, nonzero=True)
        assert (x * y).deg == x.deg + y.deg


def test_gcd_is_monic_common_divisor():
    R = helpers.ring_of(2)
    t = R.t
    a = (t + R.one) * (t * t + t + R.one)
    b = (t + R.one) * t
    g = helpers.poly_gcd(a, b)
    assert g == t + R.one
    assert g.lead_code() == 1
    assert a % g == R.zero and b % g == R.zero


def test_polys_of_degree_at_most_counts():
    R = helpers.ring_of(3)
    ps = list(R.polys_of_degree_at_most(2))
    assert len(ps) == 27
    assert len(set(ps)) == 27
    assert all(p.deg <= 2 for p in ps)


def test_evaluate_and_shift():
    # evaluation at each x in F_4 is a ring map, and t^2 shifts coefficients
    F = field_of_order(4)
    R = poly_ring(F)
    p, r = R.poly((1, 2, 3)), R.poly((3, 0, 1, 2))

    def at(poly, x):
        return sum((F.el(c) * x ** k for k, c in enumerate(poly.coeffs)), F.zero)

    for x in F.elements():
        assert at(p, x) == F.el(1) + F.el(2) * x + F.el(3) * x * x
        assert at(p * r, x) == at(p, x) * at(r, x)
        assert at(p + r, x) == at(p, x) + at(r, x)
    assert p * R.monomial(1, 2) == R.poly((0, 0, 1, 2, 3))


def test_monic_and_unit_inverse():
    R = helpers.ring_of(5)
    p = R.poly((1, 2, 3))
    assert p.monic().lead_code() == 1
    u = R.const(4)
    assert u * R.invert_unit(u) == R.one
    with pytest.raises(ValueError):
        R.invert_unit(R.t)


def _normalized(p):
    return type(p.coeffs) is tuple and (not p.coeffs or p.coeffs[-1] != 0)


def _oracle_operands(ring, rng, const_codes=None):
    """Random pairs, zero and constants (codes const_codes, all of F_q by
    default) on either side, x with itself, and pairs whose leading terms
    cancel in the sum (and in the difference)."""
    f = ring.field
    polys = [helpers.rand_poly(ring, rng, rng.randrange(7)) for _ in range(30)]
    consts = [ring.zero] + [ring.const(c) for c in const_codes or range(1, f.q)]
    pairs = [(x, y) for x, y in zip(polys, reversed(polys))]
    pairs += [pair for x in polys[:10] for c in consts for pair in ((x, c), (c, x))]
    pairs += [(x, x) for x in polys]
    for x in polys:
        if x.deg >= 1:
            y = helpers.rand_poly(ring, rng, x.deg - 1)
            lead = ring.monomial(x.lead_code(), x.deg)
            pairs += [(x, y - lead), (x, y + lead)]
    return pairs


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_arithmetic_matches_the_schoolbook_oracle(q):
    ring = helpers.ring_of(q)
    f = ring.field
    rng = random.Random(q)
    pairs = _oracle_operands(ring, rng)
    assert any((x + y).deg < max(x.deg, y.deg) for x, y in pairs if x != -y)
    for x, y in pairs:
        a, b = x.coeffs, y.coeffs
        results = [(x + y, helpers.schoolbook_add(f, a, b)),
                   (x - y, helpers.schoolbook_sub(f, a, b)),
                   (-x, helpers.schoolbook_neg(f, a)),
                   (x * y, helpers.schoolbook_mul(f, a, b))]
        results += [(x.scale(c), helpers.schoolbook_scale(f, c, a)) for c in range(f.q)]
        if b:
            quo, rem = divmod(x, y)
            want_quo, want_rem = helpers.schoolbook_divmod(f, a, b)
            results += [(quo, want_quo), (rem, want_rem)]
        for got, want in results:
            assert got.coeffs == want, (x, y)
            assert got.ring is ring and _normalized(got)
    for x, _y in pairs:
        assert (x - x).coeffs == ()


@st.composite
def unit_heavy_operands(draw, qs=(2, 3, 4, 5, 8, 9)):
    """q from qs and two coefficient tuples over F_q, most coefficients 0, 1
    or q - 1; an operand may be made monic or be all ones."""
    q = draw(st.sampled_from(qs))
    coeff = st.sampled_from(sorted({0, 1, q - 1})) | st.integers(0, q - 1)

    def operand():
        shape = draw(st.sampled_from(["drawn", "monic", "ones"]))
        if shape == "ones":
            return (1,) * draw(st.integers(0, 8))
        coeffs = tuple(draw(st.lists(coeff, max_size=8)))
        return coeffs + (1,) if shape == "monic" else coeffs

    return q, operand(), operand()


@given(unit_heavy_operands())
@settings(max_examples=300, deadline=None)
def test_unit_coefficients_match_the_schoolbook_oracle(case):
    # * and divmod add a tuple with no product where a coefficient is 1;
    # no other coefficient may take that path
    q, a, b = case
    ring = helpers.ring_of(q)
    f = ring.field
    x, y = ring.poly(a), ring.poly(b)
    a, b = x.coeffs, y.coeffs
    assert (x * y).coeffs == helpers.schoolbook_mul(f, a, b)
    assert (x - y).coeffs == helpers.schoolbook_sub(f, a, b)
    if b:
        quo, rem = divmod(x, y)
        assert (quo.coeffs, rem.coeffs) == helpers.schoolbook_divmod(f, a, b)
    if f.p == 2:
        assert x - y == x + y


# ---- products over prime fields: one big-int product of packed slots ----

KRONECKER_PS = (2, 3, 5, 7, 17, 251, 65521)

# (p, n): a product slot sums up to min(len a, len b) terms (p - 1)^2, and
# at a shorter operand of n terms that sum just fills its slot, bytes or
# 2, 4 or 8 of them; n + 1 terms take the next size
SLOT_EDGES = ((2, 255), (3, 63), (5, 15), (7, 7), (11, 2), (17, 255), (46337, 2))


def _oracle_product(x, y):
    return helpers.schoolbook_mul(x.ring.field, x.coeffs, y.coeffs)


def _of_degree(ring, rng, d):
    q = ring.field.q
    return ring.poly(tuple(rng.randrange(q) for _ in range(d)) + (rng.randrange(1, q),))


@pytest.mark.parametrize("p, n", SLOT_EDGES)
def test_products_match_the_oracle_on_both_sides_of_each_slot_size(p, n):
    ring = helpers.ring_of(p)
    rng = random.Random(p)
    for m in (n, n + 1):
        # all coefficients p - 1 fill every slot of the product the most
        top = ring.poly((p - 1,) * m)
        longer = ring.poly((p - 1,) * (m + 3))
        drawn = _of_degree(ring, rng, m - 1)
        for x, y in ((top, top), (top, longer), (longer, top), (drawn, longer)):
            assert (x * y).coeffs == _oracle_product(x, y), (p, m)


@pytest.mark.parametrize("p", KRONECKER_PS)
def test_prime_field_products_match_the_oracle(p):
    ring = helpers.ring_of(p)
    for x, y in _oracle_operands(ring, random.Random(p), range(1, min(p, 20))):
        got = x * y
        assert got.coeffs == _oracle_product(x, y), (x, y)
        assert got.ring is ring and _normalized(got)


@given(unit_heavy_operands(KRONECKER_PS))
@settings(max_examples=200, deadline=None)
def test_unit_heavy_prime_field_products_match_the_oracle(case):
    q, a, b = case
    ring = helpers.ring_of(q)
    x, y = ring.poly(a), ring.poly(b)
    assert (x * y).coeffs == _oracle_product(x, y)


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_products_of_degree_max_degree_match_the_oracle(p):
    ring = helpers.ring_of(p)
    rng = random.Random(p)
    top = ring.poly((p - 1,) * (MAX_DEGREE + 1))
    drawn = _of_degree(ring, rng, MAX_DEGREE)
    for x, y in ((top, top), (drawn, top), (drawn, _of_degree(ring, rng, 7))):
        got = x * y
        assert got.deg == x.deg + y.deg
        assert got.coeffs == _oracle_product(x, y)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 27, 49, 128, 243, 256, 512, 2 ** 16])
def test_non_prime_field_products_match_the_oracle(q):
    # byte tables up to q = 256, the mul_i hook past it; either factor the longer
    ring = helpers.ring_of(q)
    f = ring.field
    rng = random.Random(q)
    for da, db in ((1, 1), (3, 16), (16, 3), (16, 16), (40, 25), (2, 40)):
        x, y = _of_degree(ring, rng, da), _of_degree(ring, rng, db)
        assert (x * y).coeffs == _oracle_product(x, y)
        quo, rem = divmod(x, y)
        assert (quo.coeffs, rem.coeffs) == helpers.schoolbook_divmod(f, x.coeffs, y.coeffs)


# the field sizes up to 256 of every kind: prime, 2^n, odd extensions
BYTE_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64, 81, 125, 128, 243, 251, 256)


@pytest.mark.parametrize("q", BYTE_QS)
def test_scaling_matches_the_field_product_for_every_code(q):
    ring = helpers.ring_of(q)
    f = ring.field
    every = ring.poly((*range(q), 1))
    for c in range(q):
        assert every.scale(c).coeffs == helpers.schoolbook_scale(f, c, every.coeffs), c


@pytest.mark.parametrize("q", [3, 4, 9, 251, 256])
def test_scalings_up_to_256_elements_call_no_field_hook(q, monkeypatch):
    field = field_of_order(q)
    calls = helpers.count_calls(monkeypatch, field, "mul_i")
    ring = PolyRing(field)
    assert calls == []  # a new ring builds no table
    rng = random.Random(q)
    x, y = _of_degree(ring, rng, 12), _of_degree(ring, rng, 3)
    x.scale(q - 1)
    assert len(calls) == q  # the table of q - 1, built on first use

    def work():
        return [x.scale(c) for c in range(q)], divmod(x, y), x * y

    work()  # builds the tables the work uses
    calls.clear()
    work()
    assert calls == []


@pytest.mark.parametrize("q", [257, 65521, 2 ** 16])
def test_scalings_past_256_elements_map_the_field_hook(q, monkeypatch):
    ring = helpers.ring_of(q)
    x = _of_degree(ring, random.Random(q), 5)
    codes = (2, q - 1)
    want = [helpers.schoolbook_scale(ring.field, c, x.coeffs) for c in codes]
    calls = helpers.count_calls(monkeypatch, ring.field, "mul_i")
    assert [x.scale(c).coeffs for c in codes] == want
    assert len(calls) == len(codes) * len(x.coeffs)


@pytest.mark.parametrize("q", KRONECKER_PS + (4, 9))
def test_prime_field_products_call_no_field_hook(q, monkeypatch):
    ring = helpers.ring_of(q)
    field = ring.field
    rng = random.Random(q)
    pairs = [(_of_degree(ring, rng, da), _of_degree(ring, rng, db))
             for da, db in ((1, 1), (2, 5), (9, 4), (30, 30))]
    calls = [helpers.count_calls(monkeypatch, field, name) for name in ("mul_i", "add_i")]
    for x, y in pairs:
        x * y
    # a non-prime field still adds its slices through add_i, so the wrap sees them
    assert (sum(map(len, calls)) == 0) == (field.n == 1)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 2 ** 16])
def test_multiplying_by_one_returns_the_operand_itself(q):
    ring = helpers.ring_of(q)
    rng = random.Random(q)
    xs = [ring.zero, ring.one, ring.t] + [helpers.rand_poly(ring, rng, d, nonzero=True)
                                          for d in (0, 1, 3, 6) for _ in range(5)]
    for x in xs:
        assert x.scale(1) is x
        # a constant operand is the one scaled, so for constant x the
        # product shares ring.one instead of x
        if not x.is_constant():
            assert x * ring.one is x
            assert ring.one * x is x
        if x:
            monic = x.monic()
            assert monic.monic() is monic
    assert ring.one * ring.one is ring.one


@pytest.mark.parametrize("q", [2, 3, 4, 9, 2 ** 16])
def test_adding_zero_returns_the_operand_itself(q):
    ring = helpers.ring_of(q)
    other = helpers.ring_of(5 if q == 2 else 2)
    rng = random.Random(q)
    zero = ring.zero
    xs = [ring.zero, ring.one, ring.t] + [helpers.rand_poly(ring, rng, d, nonzero=True)
                                          for d in (0, 1, 3, 6) for _ in range(5)]
    for x in xs:
        assert x + zero is x
        assert zero + x is x
        assert x - zero is x
        # 0 - x is the negation, a new object unless x is zero itself
        neg = zero - x
        assert neg == -x
        assert (neg is not x) or not x
    # a zero of another ring is refused before the shortcut
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError, match="polynomial rings differ"):
            op(zero, other.t)
        with pytest.raises(TypeError, match="polynomial rings differ"):
            op(ring.t, other.zero)


# Sharing is sound only while a Poly never changes: the guard below reads
# every module with `ast` and allows `coeffs` to be written in Poly.__init__
# alone.  The one other writer is curves.LPoly.__init__, which stores the
# field of its own frozen Record (LPoly.__setattr__ raises).

_SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}
_COEFFS_WRITERS = {"polyring.py": ["Poly.__init__"], "curves.py": ["LPoly.__init__"]}


def _coeffs_writes(source: str):
    """(line, enclosing qualified name) for every write to an attribute named
    coeffs: assignment, augmented or annotated assignment, deletion, and
    setattr / object.__setattr__ with the literal name."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Attribute) and node.attr == "coeffs"
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            found.append((node.lineno, ".".join(scope)))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in _SETTERS and any(isinstance(a, ast.Constant) and a.value == "coeffs"
                                        for a in node.args):
                found.append((node.lineno, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_coeffs_guard_flags_each_kind_of_write():
    source = "\n".join([
        "class Poly:",
        "    def __init__(self, ring, coeffs):",
        "        self.coeffs = coeffs",
        "    def grow(self):",
        "        self.coeffs += (0,)",
        "def f(p, q):",
        "    p.coeffs: tuple = ()",
        "    p.coeffs, q.coeffs = q.coeffs, p.coeffs",
        "    setattr(p, 'coeffs', ())",
        "    object.__setattr__(p, 'coeffs', ())",
        "    del p.coeffs",
        "    n = len(p.coeffs) + getattr(p, 'coeffs')[0]",
    ])
    assert _coeffs_writes(source) == [
        (3, "Poly.__init__"), (5, "Poly.grow"), (7, "f"), (8, "f"), (8, "f"),
        (9, "f"), (10, "f"), (11, "f")]


@pytest.mark.parametrize("path", sorted((helpers.SRC / "gl2aut").glob("*.py")),
                         ids=lambda p: p.name)
def test_only_poly_init_writes_coeffs(path):
    writers = [scope for _line, scope in _coeffs_writes(path.read_text())]
    assert writers == _COEFFS_WRITERS.get(path.name, [])


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, divmod])
def test_mixed_rings_raise(op):
    f3, f2 = helpers.ring_of(3).poly((2, 2)), helpers.ring_of(2).poly((1, 1))
    for x, y in ((f3, f2), (f2, f3)):
        with pytest.raises(TypeError, match="polynomial rings differ"):
            op(x, y)
