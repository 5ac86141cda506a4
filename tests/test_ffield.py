import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from gl2aut.ffield import (FieldSpec, aut_rel_count, aut_rel_enumerate, euler_phi,
                           factorize, field_make, field_of_order, is_prime,
                           prime_power, quad_ext)


def _prime_powers(limit):
    """Every q in [2, limit] that its least prime divisor divides down to 1."""
    out = []
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = q
        while m % p == 0:
            m //= p
        if m == 1:
            out.append(q)
    return out


def test_prime_power_factors_valid_orders():
    assert prime_power(2) == (2, 1)
    assert prime_power(49) == (7, 2)
    assert prime_power(32) == (2, 5)
    assert prime_power(27) == (3, 3)


@pytest.mark.parametrize("bad", [0, 1, 6, 12, 15, 100])
def test_prime_power_rejects_composite_orders(bad):
    with pytest.raises(ValueError):
        prime_power(bad)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19}
    for n in range(2, 21):
        assert is_prime(n) == (n in primes)


def test_euler_phi_matches_definition():
    for n in range(1, 60):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1)
                                   if math.gcd(k, n) == 1)


@given(st.integers(min_value=1, max_value=3000))
@settings(max_examples=200, deadline=None)
def test_factorize_matches_divisor_scan(n):
    factors = factorize(n)
    assert math.prod(p ** e for p, e in factors.items()) == n
    assert list(factors) == sorted(factors)
    assert all(e >= 1 for e in factors.values())
    primes = {d for d in range(2, n + 1) if n % d == 0 and all(d % k for k in range(2, d))}
    assert set(factors) == primes


def test_factorize_rejects_non_positive():
    for bad in (0, -12):
        with pytest.raises(ValueError):
            factorize(bad)


def test_prime_power_refuses_oversized_orders():
    assert prime_power(65536) == (2, 16)
    # refused on size before any factoring, prime or not
    for big in (65537, 1000000007, 10 ** 18 + 3, 10 ** 40):
        with helpers.budget(1):
            with pytest.raises(ValueError, match="exceeds 65536"):
                prime_power(big)


def test_field_make_refuses_oversized_fields_before_factoring():
    # a prime near 10^18 would be trial-divided towards 10^9, and 2^(10^9)
    # would be built, if the size were checked last
    assert field_make(65521).q == 65521
    for p, n in ((10 ** 18 + 3, 1), (2, 10 ** 9), (2, 17), (257, 2), (65537, 1)):
        with helpers.budget(1):
            with pytest.raises(ValueError, match="exceeds 65536"):
                field_make(p, n)


@pytest.mark.parametrize("q", _prime_powers(256))
def test_modulus_and_generator_match_counting_oracles(q):
    field = field_of_order(q)
    assert field.modulus == helpers.brute_modulus(field.p, field.n)
    mul = helpers.brute_field_mul(field.p, field.n)
    assert field.generator.code == helpers.brute_generator(range(1, q), q - 1, 1, mul)


@pytest.mark.parametrize("q", _prime_powers(64))
def test_order_of_matches_counting(q):
    field = field_of_order(q)
    for x in (field.el(c) for c in range(1, q)):
        assert field.order_of(x) == helpers.brute_order(x, field.one)


@pytest.mark.parametrize("q", _prime_powers(9))
def test_quad_ext_order_of_matches_counting(q):
    ext = quad_ext(field_of_order(q))
    for x in (ext.el_code(c) for c in range(1, q * q)):
        assert ext.order_of(x) == helpers.brute_order(x, ext.one)


@pytest.mark.parametrize("q", _prime_powers(32))
def test_quad_ext_matches_counting_oracles(q):
    field = field_of_order(q)
    ext = quad_ext(field)
    assert (ext.c1, ext.c0) == helpers.brute_quadratic(field)
    units = [ext.el_code(c) for c in range(1, q * q)]
    assert ext.generator == helpers.brute_generator(units, q * q - 1, ext.one)


@pytest.mark.parametrize("q", [4096, 65521])
def test_quad_ext_of_large_fields_is_fast(q):
    with helpers.budget(2):
        field = field_of_order(q)
        ext = quad_ext(field)
    assert all(x * x + ext.c1 * x + ext.c0 for x in field.elements())
    assert ext.order_of(ext.generator) == q * q - 1


def test_largest_odd_extension_field_builds_fast():
    q = 3 ** 10
    with helpers.budget(5):
        field = field_of_order(q)
    g = field.generator
    # q - 1 = 2^3 * 11^2 * 61
    assert g ** (q - 1) == field.one
    assert all(g ** ((q - 1) // ell) != field.one for ell in (2, 11, 61))


@pytest.mark.parametrize("n", range(1, 17))
def test_characteristic_two_product_matches_the_digit_product(n):
    # _raw_mul builds the exp tables; for p = 2 it works on the integer code
    field = field_make(2, n)
    rng = random.Random(n)
    mul = helpers.brute_field_mul(2, n)
    for _ in range(200):
        a, b = rng.randrange(field.q), rng.randrange(field.q)
        assert field._raw_mul(a, b) == mul(a, b)


@pytest.mark.parametrize("q", [9, 25, 27, 49, 125, 243])
def test_odd_extension_tables_match_the_digit_product(q):
    # exp[i] = g^i is read back by pow_i(g, i), and mul_i(x, g) reads
    # exp[log[x] + 1], so it equals x g only where log[x] is right
    field = field_of_order(q)
    g = field.generator.code
    digit_mul = helpers.brute_field_mul(field.p, field.n)
    x = 1
    for i in range(q - 1):
        assert field.pow_i(g, i) == x
        nxt = digit_mul(x, g)
        assert field.mul_i(x, g) == nxt
        x = nxt
    assert x == 1


@pytest.mark.parametrize("p, n", [(3, 10), (251, 2)])
def test_odd_extension_fields_build_fast(p, n, monkeypatch):
    # one digit product per table entry would be q - 1 of them
    calls = helpers.count_calls(monkeypatch, FieldSpec, "_raw_mul")
    with helpers.budget(0.5):
        field = FieldSpec(p, n)
    assert len(calls) < field.q // 10
    g = field.generator
    assert g ** (field.q - 1) == field.one
    assert all(g ** ((field.q - 1) // ell) != field.one for ell in factorize(field.q - 1))


def test_prime_fields_find_their_generator_without_raw_products(monkeypatch):
    calls = helpers.count_calls(monkeypatch, FieldSpec, "_raw_mul")
    field = FieldSpec(251, 1)
    assert calls == []
    assert field.generator.code == 6 and field.order_of(field.generator) == 250


def _digit_hooks(field):
    """add, sub, neg and mul on element codes from the digit vectors alone:
    digit-wise sums mod p, and the digit product reduced by the oracle's
    modulus.  None of them calls into ffield."""
    p, n = field.p, field.n

    def code(digits):
        return sum(d * p ** i for i, d in enumerate(digits))

    def digits(a):
        return [a // p ** i % p for i in range(n)]

    return {"add_i": lambda a, b: code([(x + y) % p for x, y in zip(digits(a), digits(b))]),
            "sub_i": lambda a, b: code([(x - y) % p for x, y in zip(digits(a), digits(b))]),
            "neg_i": lambda a: code([(-x) % p for x in digits(a)]),
            "mul_i": helpers.brute_field_mul(p, n)}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 64, 256, 2 ** 16, 3 ** 10])
def test_field_hooks_match_digit_arithmetic(q):
    # every pair up to q = 64, then 2 000 random pairs
    field = field_of_order(q)
    if q <= 64:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    oracle = _digit_hooks(field)
    for name in ("add_i", "sub_i", "mul_i"):
        hook, want = getattr(field, name), oracle[name]
        assert [hook(a, b) for a, b in pairs] == [want(a, b) for a, b in pairs], name
    assert [field.neg_i(a) for a, _b in pairs] == [oracle["neg_i"](a) for a, _b in pairs]
    mul = oracle["mul_i"]
    assert all(mul(a, field.inv_i(a)) == 1 for a, _b in pairs if a)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_axioms_on_all_elements(q):
    field = field_of_order(q)
    elems = list(field.elements())
    assert len(elems) == q
    assert len(set(elems)) == q
    one = field.one
    zero = field.zero
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        if bool(a):
            assert a / a == one
            assert a * field.invert_unit(a) == one
    # units form a cyclic group of order q - 1
    units = [field.el(c) for c in range(1, q)]
    assert len(units) == q - 1
    assert any(field.order_of(u) == q - 1 for u in units)


@given(a=st.integers(min_value=0, max_value=8), b=st.integers(min_value=0, max_value=8),
       c=st.integers(min_value=0, max_value=8))
@settings(max_examples=60, deadline=None)
def test_field_distributivity_f9(a, b, c):
    field = field_of_order(9)
    x, y, z = field.el(a), field.el(b), field.el(c)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)


def test_frobenius_in_characteristic_two():
    field = field_of_order(4)
    for a in field.elements():
        for b in field.elements():
            assert (a + b) ** 2 == a ** 2 + b ** 2


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_quadratic_extension_structure(q):
    field = field_of_order(q)
    ext = quad_ext(field)
    elems = list(ext.elements())
    assert len(elems) == q * q
    # the generator has full multiplicative order
    eps = ext.generator
    assert ext.order_of(eps) == q * q - 1
    # conj is the Frobenius x -> x^q: an involution fixing exactly the base
    fixed = 0
    for x in elems:
        assert ext.conj(x) == x ** q
        assert ext.conj(ext.conj(x)) == x
        if ext.conj(x) == x:
            fixed += 1
    assert fixed == q
    for a in field.elements():
        assert ext.conj(ext.embed(a)) == ext.embed(a)
    # norm and trace land in the base field and respect conjugation
    for x in elems:
        xb = ext.conj(x)
        assert ext.norm(x) == ext.norm(xb)
        assert ext.trace(x) == ext.trace(xb)


def test_quad_ext_norm_is_multiplicative():
    field = field_of_order(3)
    ext = quad_ext(field)
    elems = list(ext.elements())
    for x in elems:
        for y in elems:
            assert ext.norm(x * y) == ext.norm(x) * ext.norm(y)
            assert ext.trace(x + y) == ext.trace(x) + ext.trace(y)


def test_admissible_exponents_small_orders():
    assert aut_rel_enumerate(2) == [1, 2]
    assert aut_rel_enumerate(3) == [1, 3, 5, 7]
    assert aut_rel_enumerate(4) == [1, 4, 7, 13]
    assert aut_rel_enumerate(5) == [1, 5, 13, 17]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_admissible_exponent_count_closed_form(q):
    # phi(q + 1) classes for even q, twice that for odd q
    expected = euler_phi(q + 1) * (2 if q % 2 else 1)
    assert aut_rel_count(q) == expected
    assert aut_rel_count(q) == len(aut_rel_enumerate(q))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_admissible_exponents_form_a_group(q):
    n = q * q - 1
    classes = set(aut_rel_enumerate(q))
    assert 1 in classes
    for a in classes:
        assert a * pow(a, -1, n) % n == 1
        assert pow(a, -1, n) in classes
        for b in classes:
            assert (a * b) % n in classes


def test_field_make_rejects_nonprime_characteristic():
    with pytest.raises(ValueError):
        field_make(4, 1)
    with pytest.raises(ValueError):
        field_make(2, 0)
    for p in (-3, 0, 1):
        with pytest.raises(ValueError, match="must be prime"):
            field_make(p, 2)
