"""Small finite fields F_q and their quadratic extensions F_{q^2}.

Elements are stored as integer codes (base-p digit vectors, constant digit
first), so arithmetic in hot loops can stay on plain ints via the FieldSpec
add_i / mul_i / inv_i hooks.  FieldElem is the friendly wrapper type.
"""

from __future__ import annotations

import math

_FIELD_CACHE: dict[tuple[int, int], "FieldSpec"] = {}
_QUAD_CACHE: dict[int, "QuadExt"] = {}

MAX_Q = 1 << 16


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def prime_power(q: int) -> tuple[int, int]:
    """Split a prime power q into (p, n) with q = p**n, else ValueError."""
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    n = 0
    m = q
    while m % p == 0:
        m //= p
        n += 1
    if m != 1:
        raise ValueError(f"not a prime power: {q}")
    return p, n


def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


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
        return FieldElem(self.spec, self.spec.add_i(self.code, self.spec.neg_i(other.code)))

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
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        q = p ** n
        if q > MAX_Q:
            raise ValueError(f"field size {q} exceeds {MAX_Q}")
        self.p = p
        self.n = n
        self.q = q
        self.modulus = self._find_modulus()
        self._build_arithmetic()
        self.generator = FieldElem(self, self._find_generator())

    def _find_modulus(self) -> tuple:
        if self.n == 1:
            return (0, 1)  # the polynomial x, unused for prime fields
        for k in range(self.q):
            f = _digits(k, self.p, self.n) + (1,)
            if _irreducible(f, self.p):
                return f
        raise AssertionError("no irreducible polynomial found")

    def _raw_mul(self, a: int, b: int) -> int:
        da = _digits(a, self.p, self.n)
        db = _digits(b, self.p, self.n)
        prod = _pmod(_pmul(da, db, self.p), self.modulus, self.p)
        return self._encode(prod)

    def _encode(self, digs) -> int:
        code = 0
        for d in reversed(digs):
            code = code * self.p + d
        return code

    def _build_arithmetic(self):
        p, n, q = self.p, self.n, self.q
        if n == 1:
            self.add_i = lambda a, b: (a + b) % p
            self.neg_i = lambda a: (-a) % p
            self.mul_i = lambda a, b: (a * b) % p
            self.inv_i = self._inv_prime

            def pow_i(a, k):
                if a == 0:
                    if k < 0:
                        raise ZeroDivisionError("inverse of zero field element")
                    return 0 if k else 1
                return pow(a, k % (p - 1), p)

            self.pow_i = pow_i
            return
        digs = [_digits(k, p, n) for k in range(q)]
        self._digs = digs
        if p == 2:
            self.add_i = lambda a, b: a ^ b
            self.neg_i = lambda a: a
        else:
            enc = self._encode
            self.add_i = lambda a, b: enc([(x + y) % p for x, y in zip(digs[a], digs[b])])
            self.neg_i = lambda a: enc([(-x) % p for x in digs[a]])
        # discrete-log tables over a generator give O(1) mul/inv
        g = None
        for cand in range(2, q):
            e, seen = cand, 1
            while e != 1:
                e = self._raw_mul(e, cand)
                seen += 1
            if seen == q - 1:
                g = cand
                break
        assert g is not None
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = self._raw_mul(exp[i - 1], g)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp, self._log, self._gen_code = exp, log, g

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

    def _inv_prime(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return pow(a, self.p - 2, self.p)

    def _find_generator(self) -> int:
        if self.q == 2:
            return 1
        if self.n > 1:
            return self._gen_code
        for cand in range(2, self.q):
            e, seen = cand, 1
            while e != 1:
                e = self.mul_i(e, cand)
                seen += 1
            if seen == self.q - 1:
                return cand
        raise AssertionError("no primitive root found")

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

    def units(self):
        for code in range(1, self.q):
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
            return self.from_coeffs([int(d) for d in text[1:-1].split(",")])
        code = int(text)
        return self.el(code % self.p if self.n == 1 else code)

    def parse_element(self, s: str) -> FieldElem:
        parts = s.strip().split(",")
        try:
            coeffs = [int(c) for c in parts]
        except ValueError:
            raise ValueError(f"bad field element {s!r}")
        return self.from_coeffs(coeffs)

    def order_of(self, x: FieldElem) -> int:
        if x.code == 0:
            raise ValueError("zero has no multiplicative order")
        e, k = x.code, 1
        while e != 1:
            e = self.mul_i(e, x.code)
            k += 1
        return k

    def __repr__(self):
        return f"FieldSpec(p={self.p}, n={self.n})"


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
        out = self.ext.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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
        self.generator = self._find_generator()

    def _find_quadratic(self) -> tuple[FieldElem, FieldElem]:
        # least (c1*q + c0) integer code such that s^2 + c1 s + c0 has no root in F_q
        for code in range(self.q * self.q):
            c1 = self.base.el(code // self.q)
            c0 = self.base.el(code % self.q)
            if all(bool(x * x + c1 * x + c0) for x in self.base.elements()):
                return c1, c0
        raise AssertionError("no irreducible quadratic found")

    def _find_generator(self) -> QuadExtElem:
        target = self.q * self.q - 1
        for code in range(1, self.q * self.q):
            x = self.el_code(code)
            e, k = x, 1
            while e != self.one:
                e = e * x
                k += 1
                if k > target:
                    break
            if k == target:
                return x
        raise AssertionError("no generator found")

    def el(self, a: FieldElem, b: FieldElem) -> QuadExtElem:
        return QuadExtElem(self, a, b)

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

    def units(self):
        for code in range(1, self.q * self.q):
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

    def parse_element(self, s: str) -> QuadExtElem:
        parts = s.strip().split(";")
        if len(parts) != 2:
            raise ValueError(f"bad quadratic extension element {s!r}")
        return QuadExtElem(self, self.base.parse_element(parts[0]),
                           self.base.parse_element(parts[1]))

    def order_of(self, x: QuadExtElem) -> int:
        if not bool(x):
            raise ValueError("zero has no multiplicative order")
        e, k = x, 1
        while e != self.one:
            e = e * x
            k += 1
        return k

    def __repr__(self):
        return f"QuadExt(q={self.q})"


def quad_ext(base: FieldSpec) -> QuadExt:
    if id(base) not in _QUAD_CACHE:
        _QUAD_CACHE[id(base)] = QuadExt(base)
    return _QUAD_CACHE[id(base)]


def frobenius(x: QuadExtElem) -> QuadExtElem:
    """x -> x**q on F_{q^2}; an involution fixing exactly F_q."""
    return x.ext.conj(x)


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
