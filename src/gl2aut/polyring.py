"""Polynomials F_q[t] over a finite field F_q.

A Poly's coefficients are a normalized tuple of integer codes of the base
field: constant term first, no trailing zero, so the zero polynomial is ().
Sums and differences make one pass over the tuples through the FieldSpec
int hooks; scalings, division and products are described below.  Both
operands of +, -, * and divmod must come from one ring; mixed rings raise
TypeError.

A Poly never changes once built: only Poly.__init__ assigns `coeffs`.  So
scaling by one returns the operand itself rather than a copy, and through
it x * one, one * x and the monic() of a monic polynomial do too; likewise
x + 0, 0 + x and x - 0 return x (0 - x is a new -x).  The ring check comes
first, so a zero from another ring still raises.  Most Nagao letters have
entries 0 and 1, so matrix work over F_q[t] makes these calls far more than
any other sum or scaling.

Over a prime field F_p a product of two non-constant polynomials is one
big-int product (Kronecker substitution; von zur Gathen and Gerhard, Modern
Computer Algebra, 8.4).  Each tuple is packed into an int, a coefficient
per fixed-width slot, the two ints are multiplied, and each slot of the
result is read back mod p.  A slot of the product sums at most
min(len a, len b) terms of (p - 1)^2, and the slot is chosen wide enough
that no sum carries into the next.  Where that sum fits a byte (F_2 up to
255 terms, F_3 up to 63, F_5 up to 15, F_7 up to 7, F_11 up to 2) the
packing is bytes(a) and the reading one bytes.translate through the ring's
table of residues mod p; otherwise slots are 2, 4 or 8 bytes, packed
through `array`.  The top slot is lead(a) * lead(b), nonzero mod p, so
nothing is stripped, and no field hook is called.

Over a field of at most 256 elements every code fits a byte, so c times
a run of coefficients is one bytes.translate through the ring's table for
c, which the ring builds from mul_i the first time c is used.  Scalings,
the elimination step of divmod and the products below take that path;
over a larger field they map mul_i.

Over a non-prime field * adds slices instead: for each coefficient of the
shorter factor it adds the longer factor's tuple into the slice, as it is
where the coefficient is 1 and scaled otherwise, and zero coefficients are
skipped.  Where a quotient coefficient is 1, divmod likewise adds the
negated low part of the divisor as it is.  x - y maps the field's one
sub_i hook over the common part.
"""

from __future__ import annotations

import re
import sys
from array import array
from itertools import repeat

from .ffield import FieldSpec, brief

# largest degree read from text or JSON: with no cap a 30-byte matrix text
# could ask for gigabytes.
MAX_DEGREE = 1000

_TERM_RE = re.compile(r"^(?P<coeff>\([0-9]+(?:,[0-9]+)*\)|[0-9]+)?"
                      r"(?P<var>t(?:\^(?P<pow>[0-9]+))?)?$")
_SIGN_RE = re.compile(r"([+-])")

# (size, typecode) of the array slots wider than a byte, one typecode per
# itemsize: C fixes only the least size of each type
_WIDE_SLOTS = sorted({array(code).itemsize: code for code in "QLIH"}.items())


def brief_text(text: str) -> str:
    """A text as a refusal names it: as it is when it has at most 40
    characters, else by its length, as ffield.brief names a long value."""
    return text if len(text) <= 40 else brief(text)


class Poly:
    """Element of F_q[t]; degree of the zero polynomial is -1."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: "PolyRing", coeffs: tuple):
        self.ring = ring
        self.coeffs = coeffs

    @property
    def deg(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_code(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def lead_code(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff_code(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _common_ring(self, other) -> "PolyRing":
        if other.ring is not self.ring:
            raise TypeError("polynomial rings differ")
        return self.ring

    def __add__(self, other):
        ring = self._common_ring(other)
        a, b = self.coeffs, other.coeffs
        if not b:  # a Poly is never mutated, so the other operand can be shared
            return self
        if not a:
            return other
        out = [*map(ring.field.add_i, a, b)]
        if len(a) != len(b):  # the longer tail passes through; only equal lengths cancel
            return Poly(ring, (*out, *a[len(b):], *b[len(a):]))
        return ring._make(out)

    def __sub__(self, other):
        ring = self._common_ring(other)
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        out = [*map(ring.field.sub_i, a, b)]
        if len(a) != len(b):
            return Poly(ring, (*out, *a[len(b):], *map(ring.field.neg_i, b[len(a):])))
        return ring._make(out)

    def __neg__(self):
        return Poly(self.ring, (*map(self.ring.field.neg_i, self.coeffs),))

    def __mul__(self, other):
        ring = self._common_ring(other)
        a, b = self.coeffs, other.coeffs
        if len(a) <= 1:
            return other.scale(a[0]) if a else ring.zero
        if len(b) <= 1:
            return self.scale(b[0]) if b else ring.zero
        # over a field the leading product is nonzero, so nothing to strip
        n, m = len(a) + len(b) - 1, min(len(a), len(b))
        if m <= ring._byte_terms:
            c = int.from_bytes(bytes(a), "little") * int.from_bytes(bytes(b), "little")
            return Poly(ring, (*c.to_bytes(n, "little").translate(ring._residues),))
        for terms, size, code in ring._wide_slots:
            if m <= terms:
                c = (int.from_bytes(array(code, a), sys.byteorder)
                     * int.from_bytes(array(code, b), sys.byteorder))
                slots = array(code, c.to_bytes(n * size, sys.byteorder))
                return Poly(ring, (*map(ring.field.p.__rmod__, slots),))
        # no slot fits: add slices of the longer factor, one per term of the shorter
        if len(a) > len(b):
            a, b = b, a
        add, mul, tables = ring.field.add_i, ring.field.mul_i, ring._scale_tables
        if tables is not None:
            b = bytes(b)
        nb = len(b)
        out = [0] * (len(a) + nb - 1)
        for i, ai in enumerate(a):
            if ai == 1:
                out[i:i + nb] = map(add, out[i:i + nb], b)
            elif ai:
                step = map(mul, repeat(ai), b) if tables is None else b.translate(tables[ai])
                out[i:i + nb] = map(add, out[i:i + nb], step)
        return Poly(ring, (*out,))

    def scale(self, code: int) -> "Poly":
        if code == 1:  # a Poly is never mutated, so the operand can be shared
            return self
        ring, tables = self.ring, self.ring._scale_tables
        if not code:
            return ring.zero
        if tables is None:
            return Poly(ring, (*map(ring.field.mul_i, repeat(code), self.coeffs),))
        return Poly(ring, (*bytes(self.coeffs).translate(tables[code]),))

    def __divmod__(self, other):
        ring = self._common_ring(other)
        a, b = self.coeffs, other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if len(a) < len(b):
            return ring.zero, self
        f, tables = ring.field, ring._scale_tables
        add, mul, db = f.add_i, f.mul_i, len(b) - 1
        # subtract c t^k b from the top down: the top entry cancels, so only the
        # db below it change, and quo's lead is self's lead over b's, nonzero
        rem, low = [*a], [*map(f.neg_i, b[:db])]
        inv_lead = f.inv_i(b[-1])
        if tables is not None:
            low, over_lead = bytes(low), tables[inv_lead]
        quo = [0] * (len(a) - db)
        for k in reversed(range(len(quo))):
            c = rem[k + db]
            if not c:
                continue
            if tables is None:
                c = quo[k] = mul(c, inv_lead)
                step = low if c == 1 else map(mul, repeat(c), low)
            else:
                c = quo[k] = over_lead[c]
                step = low if c == 1 else low.translate(tables[c])
            rem[k:k + db] = map(add, rem[k:k + db], step)
        return Poly(ring, (*quo,)), ring._make(rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def monic(self) -> "Poly":
        return self.scale(self.ring.field.inv_i(self.coeffs[-1])) if self.coeffs else self

    def text(self) -> str:
        return self.ring.element_str(self)

    def __repr__(self):
        return f"Poly({self.text()})"


class _ScaleTables(dict):
    """The byte tables of x -> c*x over a field of at most 256 elements, keyed
    by the code c; each is built from mul_i the first time c is looked up.
    A table has 256 entries, as bytes.translate asks, zero past q."""

    __slots__ = ("field",)

    def __init__(self, field: FieldSpec):
        super().__init__()
        self.field = field

    def __missing__(self, code: int) -> bytes:
        field = self.field
        table = self[code] = bytes([*map(field.mul_i, repeat(code), range(field.q)),
                                    *repeat(0, 256 - field.q)])
        return table


class PolyRing:
    """F_q[t] for a given FieldSpec."""

    def __init__(self, field: FieldSpec):
        self.field = field
        self.zero = Poly(self, ())
        self.one = Poly(self, (1,))
        self.t = Poly(self, (0, 1))
        # Kronecker slots over a prime field F_p: a product slot sums up to
        # min(len a, len b) terms (p - 1)^2, so bytes serve while the shorter
        # operand has at most _byte_terms terms, and past that the first
        # (terms, size, code) slot with terms enough.  Eight bytes hold
        # 2^32 - 1 terms for every prime p < MAX_Q; a non-prime field has
        # no slots, and its products add slices.
        self._byte_terms, self._wide_slots = 0, ()
        self._scale_tables = _ScaleTables(field) if field.q <= 256 else None
        if field.n == 1:
            top = (field.p - 1) ** 2
            self._byte_terms = 255 // top
            self._residues = bytes(v % field.p for v in range(256))
            self._wide_slots = tuple((((1 << 8 * size) - 1) // top, size, code)
                                     for size, code in _WIDE_SLOTS)

    def _make(self, coeffs) -> Poly:
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return Poly(self, tuple(coeffs))

    def poly(self, coeff_codes) -> Poly:
        q = self.field.q
        for c in coeff_codes:
            if not 0 <= c < q:
                raise ValueError(f"coefficient code {brief(c)} out of range for F_{q}")
        return self._make(coeff_codes)

    def const(self, code: int) -> Poly:
        return self._make([code])

    def from_code(self, code: int) -> Poly:
        q = self.field.q
        coeffs = []
        while code:
            coeffs.append(code % q)
            code //= q
        return Poly(self, tuple(coeffs))

    def monomial(self, code: int, power: int) -> Poly:
        if code == 0:
            return self.zero
        return Poly(self, (0,) * power + (code,))

    def polys_of_degree_at_most(self, n: int):
        """All polynomials of degree <= n, in integer-code order."""
        for code in range(self.field.q ** (n + 1)):
            yield self.from_code(code)

    def invert_unit(self, x: Poly) -> Poly:
        if not x.is_constant() or x.is_zero():
            raise ValueError(f"{brief(x)} is not a unit in F_q[t]")
        return self.const(self.field.inv_i(x.coeffs[0]))

    def element_str(self, x: Poly) -> str:
        if x.is_zero():
            return "0"
        terms = []
        for i in range(x.deg, -1, -1):
            c = x.coeffs[i]
            if c == 1 and i > 0:
                terms.append("t" if i == 1 else f"t^{i}")
            elif c:
                head = str(c) if self.field.n == 1 else f"({self.field.el(c).text()})"
                terms.append(head + ("" if i == 0 else "t" if i == 1 else f"t^{i}"))
        return "+".join(terms)

    def parse_element(self, s: str) -> Poly:
        s = s.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial string")
        if s == "0":
            return self.zero
        acc = self.zero
        # ["", sign, term, sign, term, ...]: a term follows "+" or "-", the
        # first one "-" or nothing
        pieces = _SIGN_RE.split(s if s.startswith("-") else "+" + s)
        for sign, term in zip(pieces[1::2], pieces[2::2]):
            m = _TERM_RE.match(term)
            if not m or (m.group("coeff") is None and m.group("var") is None):
                raise ValueError(f"bad polynomial term {brief(term)}")
            coeff = self.field.read_coeff(m.group("coeff") or "")
            power = (m.group("pow") or "1") if m.group("var") else "0"
            power = power.lstrip("0") or "0"
            # count digits first: int() refuses past 4300 of them
            if len(power) > len(str(MAX_DEGREE)) or int(power) > MAX_DEGREE:
                raise ValueError(f"degree {brief_text(power)} exceeds {MAX_DEGREE}")
            mono = self.monomial(coeff.code, int(power))
            acc = acc - mono if sign == "-" else acc + mono
        return acc

    def __repr__(self):
        return f"PolyRing(F_{self.field.q}[t])"


_RING_CACHE: dict[int, PolyRing] = {}


def poly_ring(field: FieldSpec) -> PolyRing:
    if id(field) not in _RING_CACHE:
        _RING_CACHE[id(field)] = PolyRing(field)
    return _RING_CACHE[id(field)]
