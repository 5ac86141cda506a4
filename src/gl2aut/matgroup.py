"""2x2 matrices over exact rings and Moebius actions on projective lines."""

from __future__ import annotations

import operator

from .ffield import (FieldElem, FieldSpec, QuadExt, QuadExtElem, brief, order_dividing,
                     power)
from .record import Record


class Mat2:
    """A 2x2 matrix over a tagged coefficient ring."""

    __slots__ = ("ring", "a", "b", "c", "d")

    def __init__(self, ring, a, b, c, d):
        self.ring = ring
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls, ring) -> "Mat2":
        return cls(ring, ring.one, ring.zero, ring.zero, ring.one)

    def __mul__(self, other: "Mat2") -> "Mat2":
        if self.ring is not other.ring:
            raise TypeError("matrix rings differ")
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return Mat2(self.ring, a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def det(self):
        return self.a * self.d - self.b * self.c

    def has_unit_det(self) -> bool:
        """Whether det is a nonzero constant, so that a matrix over F_q[t]
        is invertible there.  When b or c is zero, det is the product of the
        diagonal, a nonzero constant exactly when both entries are (degrees
        add in F_q[t]), so no product is made."""
        if not self.b.coeffs or not self.c.coeffs:
            return self.a.deg == 0 and self.d.deg == 0
        return self.det().deg == 0

    def inverse(self) -> "Mat2":
        inv_det = self.ring.invert_unit(self.det())
        return Mat2(self.ring, self.d * inv_det, -self.b * inv_det,
                    -self.c * inv_det, self.a * inv_det)

    def __pow__(self, k: int) -> "Mat2":
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, operator.mul, Mat2.identity(self.ring))

    def __eq__(self, other):
        return (isinstance(other, Mat2) and self.ring is other.ring
                and self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self):
        return hash((id(self.ring), self.a, self.b, self.c, self.d))

    def is_identity(self) -> bool:
        one, zero = self.ring.one, self.ring.zero
        return self.a == one and self.b == zero and self.c == zero and self.d == one

    def is_upper_triangular(self) -> bool:
        return self.c == self.ring.zero

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def text(self) -> str:
        es = self.ring.element_str
        return f"[[{es(self.a)},{es(self.b)}],[{es(self.c)},{es(self.d)}]]"

    def __repr__(self):
        return f"Mat2({self.text()})"


def mat_parse(ring, s: str) -> Mat2:
    """Parse "[[a,b],[c,d]]" with ring-element entry syntax."""
    s = s.replace(" ", "")
    if not (s.startswith("[[") and s.endswith("]]")):
        raise ValueError(f"bad matrix literal {brief(s)}")
    rows = s[2:-2].split("],[")
    if len(rows) != 2:
        raise ValueError(f"bad matrix literal {brief(s)}")
    entries = []
    for row in rows:
        cells = _split_top_level(row)
        if len(cells) != 2:
            raise ValueError(f"bad matrix row {brief(row)}")
        entries.extend(ring.parse_element(cell) for cell in cells)
    return Mat2(ring, *entries)


def _split_top_level(s: str) -> list[str]:
    # split on commas not nested inside parentheses
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


class ProjPoint:
    """A point of P^1 over a coefficient field, stored as (x : 1) or (1 : 0)."""

    __slots__ = ("field", "x", "infinite")

    def __init__(self, field, x, infinite: bool):
        self.field = field
        self.x = x
        self.infinite = infinite

    @classmethod
    def of(cls, field, x) -> "ProjPoint":
        return cls(field, field.coerce(x), False)

    @classmethod
    def infinity(cls, field) -> "ProjPoint":
        return cls(field, field.one, True)

    @classmethod
    def make(cls, field, x, y) -> "ProjPoint":
        x, y = field.coerce(x), field.coerce(y)
        if not bool(y):
            if not bool(x):
                raise ValueError("(0 : 0) is not projective")
            return cls.infinity(field)
        return cls(field, x * field.invert_unit(y), False)

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and self.field is other.field
                and self.infinite == other.infinite
                and (self.infinite or self.x == other.x))

    def __hash__(self):
        return hash((id(self.field), self.infinite, None if self.infinite else self.x))

    def text(self) -> str:
        return "inf" if self.infinite else self.field.element_str(self.x)

    def __repr__(self):
        return f"ProjPoint({self.text()})"


class AllPoints:
    """Sentinel: a scalar matrix fixes every point of the projective line."""

    def __repr__(self):
        return "ALL_POINTS"


ALL_POINTS = AllPoints()


def mobius(m: Mat2, pt: ProjPoint) -> ProjPoint:
    """Fractional linear action (a x + b y : c x + d y), entries coerced to pt's field."""
    fld = pt.field
    a, b, c, d = (fld.coerce(e) for e in m.entries())
    x = pt.x if not pt.infinite else fld.one
    y = fld.zero if pt.infinite else fld.one
    num = a * x + b * y
    den = c * x + d * y
    if not bool(num) and not bool(den):
        raise ValueError("matrix is singular at this point")
    return ProjPoint.make(fld, num, den)


def fixed_points(m: Mat2, field):
    """All fixed points of m on P^1(field) for an enumerable field.

    Returns ALL_POINTS when m acts as a scalar, otherwise a list of at
    most two points sorted by element code (infinity last).
    """
    if not isinstance(field, (FieldSpec, QuadExt)):
        raise TypeError("fixed point scan needs a finite coefficient field")
    a, b, c, d = (field.coerce(e) for e in m.entries())
    if not bool(b) and not bool(c) and a == d:
        return ALL_POINTS
    found = []
    for x in field.elements():
        # x fixed iff c x^2 + (d - a) x - b = 0
        if not bool(c * x * x + (d - a) * x - b):
            found.append(ProjPoint.of(field, x))
    found.sort(key=lambda pt: _elem_code(field, pt.x))
    if not bool(c):
        found.append(ProjPoint.infinity(field))
    return found


def _elem_code(field, x) -> int:
    if isinstance(x, FieldElem):
        return x.code
    if isinstance(x, QuadExtElem):
        return x.a.code + field.q * x.b.code
    raise TypeError(f"no code order for {x!r}")


class EllipticStab(Record):
    """Generators of the stabilizer of a quadratic point eps and its conjugate."""

    __slots__ = ("g", "g_swap", "lam", "mu")


def elliptic_stab(field: FieldSpec, eps: QuadExtElem) -> EllipticStab:
    """Order q^2-1 cyclic stabilizer generator g of {eps, eps^q} plus the swap g'.

    eps must generate F_{q^2}*; with lam = eps^(q+1) and mu = eps + eps^q,

        g = [[0, lam], [-1, mu]],   g' = [[0, lam], [1, 0]].

    g fixes eps and its conjugate; g' exchanges them; g' g g'^{-1} = g^q.
    """
    ext = eps.ext
    if ext.base is not field:
        raise ValueError("eps must live in the quadratic extension of the given field")
    if ext.order_of(eps) != field.q ** 2 - 1:
        raise ValueError("eps must generate the unit group of F_{q^2}")
    lam = ext.norm(eps)
    mu = ext.trace(eps)
    g = Mat2(field, field.zero, lam, -field.one, mu)
    g_swap = Mat2(field, field.zero, lam, field.one, field.zero)
    return EllipticStab(g, g_swap, lam, mu)


def matrix_order(m: Mat2) -> int:
    """The order of m in GL2(F_q), a divisor of |GL2(F_q)| = (q^2-1)(q^2-q)."""
    if not isinstance(m.ring, FieldSpec):
        raise TypeError("matrix order needs a finite coefficient field")
    if not bool(m.det()):
        raise ValueError("a singular matrix has no order")
    q = m.ring.q
    return order_dividing(m, (q * q - 1) * (q * q - q), pow, Mat2.identity(m.ring))
