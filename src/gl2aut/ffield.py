"""Small finite fields F_q and their quadratic extensions F_{q^2}.

Elements are stored as integer codes (base-p digit vectors, constant digit
first), so arithmetic in hot loops can stay on plain ints via the FieldSpec
hooks add_i(a, b), sub_i(a, b), neg_i(a), mul_i(a, b) and inv_i(a), plus
pow_i(a, k).  FieldElem is the friendly wrapper type.  In characteristic 2
the code is a bit vector, so every F_{2^n} takes add_i = sub_i =
operator.xor and neg_i = operator.pos, and F_2 also mul_i = operator.and_:
C builtins, with no Python frame per call.  Other prime fields reduce mod p;
other extension fields multiply through discrete-log tables and add digit
by digit.

`power` is the one square-and-multiply loop: an extension field finds its
generator with it on raw products (a prime field uses the builtin `pow`),
and F_{q^2}, `Mat2`, `curves.point_mul` and `words.word_pow` raise to
powers through it.

Nothing here counts its way to an order.  `factorize` is the one integer
factorization, and `order_dividing` finds the order of any x with x**n = 1
from it: x has order n exactly when x**(n/l) != 1 for every prime l | n.
Generators are the first candidates of full order, and the canonical
quadratic s^2 + c1 s + c0 is the least one whose discriminant is a
non-square (odd q), or with c1 != 0 and Tr(c0/c1^2) = 1 (even q)
(Lidl and Niederreiter, Finite Fields, ch. 2-3).
"""

from __future__ import annotations

import itertools
import math
import operator

_FIELD_CACHE: dict[tuple[int, int], "FieldSpec"] = {}
_QUAD_CACHE: dict[int, "QuadExt"] = {}

MAX_Q = 1 << 16

# the most digits int() reads from text
_INT_DIGITS = 4300


def factorize(n: int) -> dict[int, int]:
    """The prime factorization {p: e} of n >= 1, primes ascending."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(p: int) -> bool:
    return p >= 2 and factorize(p) == {p: 1}


def prime_power(q: int) -> tuple[int, int]:
    """Split a prime power q <= MAX_Q into (p, n) with q = p**n, else ValueError."""
    if q > MAX_Q:
        raise ValueError(f"field size {brief(q)} exceeds {MAX_Q}")
    factors = factorize(q) if q >= 2 else {}
    if len(factors) != 1:
        raise ValueError(f"not a prime power: {brief(q)}")
    [(p, n)] = factors.items()
    return p, n


def euler_phi(n: int) -> int:
    result = n
    for p in factorize(n):
        result -= result // p
    return result


def power(x, k: int, mul, one):
    """x**k for k >= 0 by square-and-multiply, with the product mul and its
    identity one: for each bit of k from the lowest, multiply the result by
    x when the bit is set, then square x."""
    out = one
    while k:
        if k & 1:
            out = mul(out, x)
        x = mul(x, x)
        k >>= 1
    return out


def order_dividing(x, n: int, pow_fn, one) -> int:
    """The multiplicative order of x, given that pow_fn(x, n) == one.

    Starts at n and divides out each prime l of n while pow_fn(x, d // l)
    is still one.
    """
    d = n
    for ell in factorize(n):
        while d % ell == 0 and pow_fn(x, d // ell) == one:
            d //= ell
    return d


def first_of_order(candidates, n: int, pow_fn, one):
    """The first candidate whose order is n (every candidate has x**n == one)."""
    for x in candidates:
        if order_dividing(x, n, pow_fn, one) == n:
            return x
    raise AssertionError(f"no element of order {n}")


# ---- digit-tuple polynomial helpers over F_p (used only at spec build time) ----

def _pmul(a: tuple, b: tuple, p: int) -> tuple:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _pmod(a: tuple, m: tuple, p: int) -> tuple:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        f = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - f * mi) % p
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def _irreducible(f: tuple, p: int) -> bool:
    # monic f, tested by trial division against all monic polys of degree <= deg/2
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for k in range(p ** d):
            g = _digits(k, p, d) + (1,)
            if not _pmod(f, g, p):
                return False
    return True


def _digits(k: int, p: int, n: int) -> tuple:
    out = []
    for _ in range(n):
        out.append(k % p)
        k //= p
    return tuple(out)


class FieldElem:
    """An element of a FieldSpec, wrapping its integer code."""

    __slots__ = ("spec", "code")

    def __init__(self, spec: "FieldSpec", code: int):
        self.spec = spec
        self.code = code

    @property
    def coeffs(self) -> tuple:
        return _digits(self.code, self.spec.p, self.spec.n)

    def __add__(self, other):
        return FieldElem(self.spec, self.spec.add_i(self.code, other.code))

    def __sub__(self, other):
        return FieldElem(self.spec, self.spec.sub_i(self.code, other.code))

    def __neg__(self):
        return FieldElem(self.spec, self.spec.neg_i(self.code))

    def __mul__(self, other):
        return FieldElem(self.spec, self.spec.mul_i(self.code, other.code))

    def __truediv__(self, other):
        return FieldElem(self.spec, self.spec.mul_i(self.code, self.spec.inv_i(other.code)))

    def __pow__(self, k: int):
        return FieldElem(self.spec, self.spec.pow_i(self.code, k))

    def __eq__(self, other):
        return isinstance(other, FieldElem) and self.spec is other.spec and self.code == other.code

    def __hash__(self):
        return hash((id(self.spec), self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return f"F{self.spec.q}({self.text()})"

    def text(self) -> str:
        return ",".join(str(c) for c in self.coeffs)


class FieldSpec:
    """F_q with q = p**n, q <= 2**16, canonical modulus, cached generator.

    The modulus is the irreducible monic degree-n polynomial whose integer
    code (constant digit least significant) is smallest.
    """

    def __init__(self, p: int, n: int):
        if p < 2:
            raise ValueError(f"p must be prime, got {brief(p)}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {brief(n)}")
        # refused on size before p is factored; 2^n alone exceeds MAX_Q past
        # its bit length, so no huge power is built
        if n >= MAX_Q.bit_length() or p ** n > MAX_Q:
            raise ValueError(f"field size {brief(p)}^{brief(n)} exceeds {MAX_Q}")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {brief(p)}")
        q = p ** n
        self.p = p
        self.n = n
        self.q = q
        self.modulus = self._find_modulus()
        self._modulus_code = self._encode(self.modulus)
        if n == 1:
            g = first_of_order(range(1, q), q - 1, lambda a, k: pow(a, k, p), 1)
        else:
            # the log tables need the generator first, so test on _raw_mul;
            # the codes below p are F_p, whose orders divide p - 1
            g = first_of_order(range(p, q), q - 1,
                               lambda a, k: power(a, k, self._raw_mul, 1), 1)
        self._build_arithmetic(g)
        self.generator = FieldElem(self, g)

    def _find_modulus(self) -> tuple:
        if self.n == 1:
            return (0, 1)  # the polynomial x, unused for prime fields
        for k in range(self.q):
            f = _digits(k, self.p, self.n) + (1,)
            if _irreducible(f, self.p):
                return f
        raise AssertionError("no irreducible polynomial found")

    def _raw_mul(self, a: int, b: int) -> int:
        if self.p == 2:
            # bit i of a code is the coefficient of x^i: shift and xor, and
            # reduce by the modulus each time a carries into bit n
            top, m = 1 << self.n, self._modulus_code
            out = 0
            while a:
                if a & 1:
                    out ^= b
                a >>= 1
                b <<= 1
                if b & top:
                    b ^= m
            return out
        da = _digits(a, self.p, self.n)
        db = _digits(b, self.p, self.n)
        prod = _pmod(_pmul(da, db, self.p), self.modulus, self.p)
        return self._encode(prod)

    def _encode(self, digs) -> int:
        code = 0
        for d in reversed(digs):
            code = code * self.p + d
        return code

    def _build_arithmetic(self, g: int):
        p, n, q = self.p, self.n, self.q
        if p == 2:
            # bit i of a code is the coefficient of x^i: sum and difference
            # are xor, and each element is its own negative
            self.add_i = self.sub_i = operator.xor
            self.neg_i = operator.pos
        elif n == 1:
            self.add_i = lambda a, b: (a + b) % p
            self.sub_i = lambda a, b: (a - b) % p
            self.neg_i = lambda a: (-a) % p
        else:
            digs = [d[::-1] for d in itertools.product(range(p), repeat=n)]
            enc = self._encode
            self.add_i = lambda a, b: enc([(x + y) % p for x, y in zip(digs[a], digs[b])])
            self.sub_i = lambda a, b: enc([(x - y) % p for x, y in zip(digs[a], digs[b])])
            self.neg_i = lambda a: enc([(-x) % p for x in digs[a]])
        if n == 1:
            self.mul_i = operator.and_ if p == 2 else lambda a, b: (a * b) % p
            self.inv_i = self._inv_prime

            def pow_i(a, k):
                if a == 0:
                    if k < 0:
                        raise ZeroDivisionError("inverse of zero field element")
                    return 0 if k else 1
                return pow(a, k % (p - 1), p)

            self.pow_i = pow_i
            return
        # discrete-log tables over the generator give O(1) mul/inv
        exp = self._powers(g)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i

        def mul_i(a, b):
            if a == 0 or b == 0:
                return 0
            return exp[(log[a] + log[b]) % (q - 1)]

        def inv_i(a):
            if a == 0:
                raise ZeroDivisionError("inverse of zero field element")
            return exp[(q - 1 - log[a]) % (q - 1)]

        def pow_i(a, k):
            if a == 0:
                if k < 0:
                    raise ZeroDivisionError("inverse of zero field element")
                return 0 if k else 1
            return exp[(log[a] * k) % (q - 1)]

        self.mul_i, self.inv_i, self.pow_i = mul_i, inv_i, pow_i

    def _powers(self, g: int) -> list:
        """The codes of g^0, ..., g^(q-2), a few int operations each.

        Multiplying by g is F_p-linear, so on a digit vector it is the sum of
        its values on the low and on the high digits, read from two tables of
        about sqrt(q) products.  Vectors are packed w bits a digit, w one more
        than the bit length of p, so two reduced vectors add without a carry
        between digits; adding 2^(w-1) - p to every digit then sets a digit's
        top bit exactly where it is p or more, which is where p comes off.
        """
        p, n = self.p, self.n
        w, h = p.bit_length() + 1, n // 2
        cut, mask = p ** h, (1 << w * h) - 1
        bias = sum(((1 << w - 1) - p) << w * i for i in range(n))
        tops = sum(1 << w * i + w - 1 for i in range(n))

        def pack(code):
            return sum(d << w * i for i, d in enumerate(_digits(code, p, n)))

        low = {pack(c): (pack(self._raw_mul(g, c)), c) for c in range(cut)}
        high = {pack(c): (pack(self._raw_mul(g, c * cut)), c * cut)
                for c in range(p ** (n - h))}
        out = [1] * (self.q - 1)
        v = 1
        for i in range(1, self.q - 1):
            s = low[v & mask][0] + high[v >> w * h][0]
            v = s - (((s + bias) & tops) >> w - 1) * p
            out[i] = low[v & mask][1] + high[v >> w * h][1]
        return out

    def _inv_prime(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return pow(a, self.p - 2, self.p)

    # -- element constructors and ring protocol --

    def el(self, code: int) -> FieldElem:
        if not 0 <= code < self.q:
            raise ValueError(f"element code {code} out of range for F_{self.q}")
        return FieldElem(self, code)

    def from_coeffs(self, coeffs) -> FieldElem:
        if len(coeffs) > self.n:
            raise ValueError(f"too many coefficients for F_{self.q}")
        padded = list(coeffs) + [0] * (self.n - len(coeffs))
        return FieldElem(self, self._encode([c % self.p for c in padded]))

    @property
    def zero(self) -> FieldElem:
        return FieldElem(self, 0)

    @property
    def one(self) -> FieldElem:
        return FieldElem(self, 1)

    def elements(self):
        for code in range(self.q):
            yield FieldElem(self, code)

    def invert_unit(self, x: FieldElem) -> FieldElem:
        return FieldElem(self, self.inv_i(x.code))

    def coerce(self, x) -> FieldElem:
        if isinstance(x, FieldElem) and x.spec is self:
            return x
        raise TypeError(f"cannot coerce {x!r} into F_{self.q}")

    def element_str(self, x: FieldElem) -> str:
        return x.text()

    def read_coeff(self, text: str) -> FieldElem:
        """A coefficient as written in polynomial and curve text: empty for
        one, "(c0,c1,...)" for base-p digits, or a bare integer element code
        (read mod p over a prime field, below q otherwise)."""
        if text == "":
            return self.one
        if text.startswith("(") and text.endswith(")"):
            return self.from_coeffs([_numeral_mod(d, self.p) for d in text[1:-1].split(",")])
        if self.n == 1:
            return self.el(_numeral_mod(text, self.p))
        if text.isascii() and text.isdigit():
            # more digits than q - 1 has make a code of at least q, found
            # without int(), which refuses past _INT_DIGITS digits
            digits = text.lstrip("0")
            if len(digits) > len(str(self.q - 1)):
                # the message names a short code and counts a long one's digits
                shown = digits if len(digits) <= 20 else f"of {len(digits)} digits"
                raise ValueError(f"element code {shown} out of range for F_{self.q}")
            text = digits or "0"
        return self.el(_int_of(text))

    def order_of(self, x: FieldElem) -> int:
        if x.code == 0:
            raise ValueError("zero has no multiplicative order")
        return order_dividing(x.code, self.q - 1, self.pow_i, 1)

    def __repr__(self):
        return f"FieldSpec(p={self.p}, n={self.n})"


def brief(value) -> str:
    """A value as a refusal names it: its repr when that is at most 40
    characters, else its type and length (of the repr for a number), so
    the message stays short whatever the input."""
    text = repr(value)
    if len(text) <= 40:
        return text
    size = len(value) if isinstance(value, (str, list, dict)) else len(text)
    return f"<{type(value).__name__} of length {size}>"


def _int_of(text: str) -> int:
    """int(text), refused as a bad numeral where int() refuses it or where
    it is longer than the _INT_DIGITS characters int() reads."""
    if len(text) <= _INT_DIGITS:
        try:
            return int(text)
        except ValueError:
            pass
    raise ValueError(f"bad numeral {brief(text)}")


def _numeral_mod(text: str, p: int) -> int:
    """int(text) % p.  A plain decimal numeral longer than int() reads is
    reduced _INT_DIGITS digits at a time; text int() refuses is refused."""
    if len(text) <= _INT_DIGITS or not (text.isascii() and text.isdigit()):
        return _int_of(text) % p
    value = 0
    for i in range(0, len(text), _INT_DIGITS):
        chunk = text[i:i + _INT_DIGITS]
        value = (value * pow(10, len(chunk), p) + int(chunk)) % p
    return value


def field_make(p: int, n: int = 1) -> FieldSpec:
    """Build (or fetch the cached) F_{p^n} with canonical modulus and generator."""
    key = (p, n)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FieldSpec(p, n)
    return _FIELD_CACHE[key]


def field_of_order(q: int) -> FieldSpec:
    p, n = prime_power(q)
    return field_make(p, n)


class QuadExtElem:
    """a + b*s in F_{q^2}, with s a root of the canonical quadratic over F_q."""

    __slots__ = ("ext", "a", "b")

    def __init__(self, ext: "QuadExt", a: FieldElem, b: FieldElem):
        self.ext = ext
        self.a = a
        self.b = b

    def __add__(self, other):
        return QuadExtElem(self.ext, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return QuadExtElem(self.ext, self.a - other.a, self.b - other.b)

    def __neg__(self):
        return QuadExtElem(self.ext, -self.a, -self.b)

    def __mul__(self, other):
        # (a + b s)(c + d s) with s^2 = -c1 s - c0
        a, b, c, d = self.a, self.b, other.a, other.b
        bd = b * d
        return QuadExtElem(self.ext, a * c - bd * self.ext.c0, a * d + b * c - bd * self.ext.c1)

    def __truediv__(self, other):
        return self * self.ext.invert_unit(other)

    def __pow__(self, k: int):
        if k < 0:
            return self.ext.invert_unit(self) ** (-k)
        return power(self, k, operator.mul, self.ext.one)

    def __eq__(self, other):
        return (isinstance(other, QuadExtElem) and self.ext is other.ext
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        return hash((id(self.ext), self.a.code, self.b.code))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __repr__(self):
        return f"F{self.ext.base.q}^2({self.text()})"

    def text(self) -> str:
        return f"{self.a.text()};{self.b.text()}"

    def in_base(self) -> FieldElem:
        """Return the F_q part, failing if the s-coefficient is nonzero."""
        if bool(self.b):
            raise ValueError(f"{self!r} is not in the base field")
        return self.a


class QuadExt:
    """F_{q^2} as F_q[s]/(s^2 + c1 s + c0), canonical least quadratic."""

    def __init__(self, base: FieldSpec):
        self.base = base
        self.q = base.q
        self.c1, self.c0 = self._find_quadratic()
        # codes below q lie in F_q, whose orders divide q - 1
        self.generator = first_of_order(map(self.el_code, range(self.q, self.q * self.q)),
                                        self.q * self.q - 1, pow, self.one)

    def _find_quadratic(self) -> tuple[FieldElem, FieldElem]:
        """The least code c1*q + c0 such that s^2 + c1 s + c0 has no root in
        F_q: for odd q the discriminant is a non-square (Euler's criterion),
        for even q c1 != 0 and the absolute trace of c0/c1^2 is 1."""
        base, q = self.base, self.q
        minus_one = -base.one
        four = base.el(4 % base.p)
        for code in range(q * q):
            c1, c0 = base.el(code // q), base.el(code % q)
            if base.p != 2:
                if (c1 * c1 - four * c0) ** ((q - 1) // 2) == minus_one:
                    return c1, c0
            elif c1:
                a = c0 / (c1 * c1)
                trace = a
                for _ in range(base.n - 1):
                    a = a * a
                    trace = trace + a
                if trace == base.one:
                    return c1, c0
        raise AssertionError("no irreducible quadratic found")

    def el_code(self, code: int) -> QuadExtElem:
        return QuadExtElem(self, self.base.el(code % self.q), self.base.el(code // self.q))

    def embed(self, x: FieldElem) -> QuadExtElem:
        return QuadExtElem(self, x, self.base.zero)

    @property
    def zero(self) -> QuadExtElem:
        return self.embed(self.base.zero)

    @property
    def one(self) -> QuadExtElem:
        return self.embed(self.base.one)

    def elements(self):
        for code in range(self.q * self.q):
            yield self.el_code(code)

    def conj(self, x: QuadExtElem) -> QuadExtElem:
        """The nontrivial F_q-automorphism: s -> -c1 - s."""
        return QuadExtElem(self, x.a - x.b * self.c1, -x.b)

    def norm(self, x: QuadExtElem) -> FieldElem:
        return (x * self.conj(x)).in_base()

    def trace(self, x: QuadExtElem) -> FieldElem:
        return (x + self.conj(x)).in_base()

    def invert_unit(self, x: QuadExtElem) -> QuadExtElem:
        nrm = self.norm(x)
        if not bool(nrm):
            raise ZeroDivisionError("inverse of zero")
        inv = self.base.invert_unit(nrm)
        xbar = self.conj(x)
        return QuadExtElem(self, xbar.a * inv, xbar.b * inv)

    def coerce(self, x) -> QuadExtElem:
        if isinstance(x, QuadExtElem) and x.ext is self:
            return x
        if isinstance(x, FieldElem) and x.spec is self.base:
            return self.embed(x)
        raise TypeError(f"cannot coerce {x!r} into F_{self.q}^2")

    def element_str(self, x: QuadExtElem) -> str:
        return x.text()

    def order_of(self, x: QuadExtElem) -> int:
        if not bool(x):
            raise ValueError("zero has no multiplicative order")
        return order_dividing(x, self.q * self.q - 1, pow, self.one)

    def __repr__(self):
        return f"QuadExt(q={self.q})"


def quad_ext(base: FieldSpec) -> QuadExt:
    if id(base) not in _QUAD_CACHE:
        _QUAD_CACHE[id(base)] = QuadExt(base)
    return _QUAD_CACHE[id(base)]


# ---- the exponent group of power maps on F_{q^2}* fixing F_q* pointwise ----

def aut_rel_enumerate(q: int) -> list[int]:
    """All a mod q^2-1 with gcd(a, q^2-1) = 1 and a = 1 mod q-1, sorted.

    Each such exponent gives an automorphism x -> x**a of the cyclic group
    F_{q^2}* which is the identity on the subgroup F_q*.  Only the q+1
    residues 1 + k(q-1) are tested.
    """
    prime_power(q)
    m = q * q - 1
    return [a for a in range(1, m, q - 1) if math.gcd(a, m) == 1]


def aut_rel_count(q: int) -> int:
    """Closed form for len(aut_rel_enumerate(q)): phi(q+1), doubled for odd q."""
    prime_power(q)
    if q % 2 == 1:
        return 2 * euler_phi(q + 1)
    return euler_phi(q + 1)
