"""Weierstrass curves over small F_q: point enumeration, group law,
counting polynomials, and the derived class-number data.

For a nonsingular curve with N rational points the numerator of the zeta
function is L(u) = 1 + (N - q - 1) u + q u^2; then L(1) = N recovers the
point count, and L(-1) counts the quadratic points used to split the
class group contributions: L(-1) = cl2 + 2 r with cl2 the number of
2-torsion points (identity included).

Everything is genus one: `LPoly` is 1 + a u + q u^2 only, and
`class_data`, `group_structure` and `two_torsion_count` take the curve
together with its enumerated points.  `point_mul` is `ffield.power` over
`point_add`.
"""

from __future__ import annotations

from functools import partial

from .ffield import FieldElem, FieldSpec, aut_rel_count, brief, factorize, field_of_order, power
from .record import Record


class AffinePoint(Record):
    # point enumeration builds, hashes and compares these by the thousand
    __slots__ = ("x", "y")

    def __init__(self, x: FieldElem, y: FieldElem):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __eq__(self, other):
        if other.__class__ is AffinePoint:
            return (self.x, self.y) == (other.x, other.y)
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y))

    def text(self) -> str:
        return f"({self.x.text()},{self.y.text()})"


class _Infinity:
    def __repr__(self):
        return "INF"

    def text(self) -> str:
        return "inf"


INFINITY = _Infinity()


class WeierstrassCurve:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 over a FieldSpec."""

    def __init__(self, field: FieldSpec, a1, a2, a3, a4, a6):
        self.field = field
        self.a1, self.a2, self.a3, self.a4, self.a6 = (
            field.coerce(a) for a in (a1, a2, a3, a4, a6))

    def discriminant(self) -> FieldElem:
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        two = self.field.one + self.field.one
        three = two + self.field.one
        four = two + two
        b2 = a1 * a1 + four * a2
        b4 = two * a4 + a1 * a3
        b6 = a3 * a3 + four * a6
        b8 = a1 * a1 * a6 + four * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        nine = three * three
        eight = four + four
        twenty_seven = nine * three
        return (-b2 * b2 * b8 - eight * b4 * b4 * b4
                - twenty_seven * b6 * b6 + nine * b2 * b4 * b6)

    def is_nonsingular(self) -> bool:
        return bool(self.discriminant())

    def coeff_text(self) -> dict:
        return {"q": self.field.q,
                "a1": self.a1.text(), "a2": self.a2.text(), "a3": self.a3.text(),
                "a4": self.a4.text(), "a6": self.a6.text()}

    def __repr__(self):
        c = self.coeff_text()
        return ("Curve(q={q}; a1={a1} a2={a2} a3={a3} a4={a4} a6={a6})".format(**c))


def enumerate_points(curve: WeierstrassCurve) -> list:
    """All rational points, infinity first, affine points in code order.

    For each x the curve equation reads y^2 + b y = r with b = a1 x + a3
    and r = x^3 + a2 x^2 + a4 x + a6; its roots y come from tables built
    once per call, so the whole count is O(q):

    - odd p: (2y + b)^2 = b^2 + 4r, read from a square-root table;
    - p = 2, b = 0: y is the unique square root of r;
    - p = 2, b != 0: y = b z with z^2 + z = r / b^2, read from an
      Artin-Schreier table (the roots are z and z + 1).
    """
    field = curve.field
    add, neg, mul, inv = field.add_i, field.neg_i, field.mul_i, field.inv_i
    a1, a2, a3, a4, a6 = (c.code for c in (curve.a1, curve.a2, curve.a3,
                                           curve.a4, curve.a6))
    sqrt = [[] for _ in range(field.q)]
    for w in range(field.q):
        sqrt[mul(w, w)].append(w)
    if field.p == 2:
        artin_schreier = [[] for _ in range(field.q)]
        for z in range(field.q):
            artin_schreier[add(mul(z, z), z)].append(z)
    else:
        four = add(add(1, 1), add(1, 1))
        half = inv(add(1, 1))
    pts = [INFINITY]
    for x in range(field.q):
        b = add(mul(a1, x), a3)
        xx = mul(x, x)
        r = add(add(mul(xx, x), mul(a2, xx)), add(mul(a4, x), a6))
        if field.p != 2:
            ys = sorted(mul(add(w, neg(b)), half)
                        for w in sqrt[add(mul(b, b), mul(four, r))])
        elif b == 0:
            ys = sqrt[r]
        else:
            ys = sorted(mul(b, z) for z in artin_schreier[mul(r, inv(mul(b, b)))])
        for y in ys:
            pts.append(AffinePoint(FieldElem(field, x), FieldElem(field, y)))
    return pts


def point_neg(curve: WeierstrassCurve, pt):
    if pt is INFINITY:
        return INFINITY
    return AffinePoint(pt.x, -pt.y - curve.a1 * pt.x - curve.a3)


def point_add(curve: WeierstrassCurve, p, r):
    """Chord-tangent addition in the full Weierstrass form (Silverman,
    AEC III.2.3): the line y = lam x + nu through p and r, tangent when
    p = r, passes through p, so nu = y1 - lam x1 in both cases."""
    if p is INFINITY:
        return r
    if r is INFINITY:
        return p
    a1, a2, a3, a4 = curve.a1, curve.a2, curve.a3, curve.a4
    x1, y1 = p.x, p.y
    x2, y2 = r.x, r.y
    if x1 == x2 and r == point_neg(curve, p):
        return INFINITY
    if p == r:
        two = curve.field.one + curve.field.one
        three = two + curve.field.one
        lam = (three * x1 * x1 + two * a2 * x1 + a4 - a1 * y1) / (two * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - (y1 - lam * x1) - a3
    return AffinePoint(x3, y3)


def point_mul(curve: WeierstrassCurve, k: int, pt):
    if k < 0:
        return point_mul(curve, -k, point_neg(curve, pt))
    return power(pt, k, partial(point_add, curve), INFINITY)


def group_structure(curve: WeierstrassCurve, points) -> list[int]:
    """Invariant factors [d1, d2] with d1 | d2, the trivial ones left out.

    E(F_q) is Z/d1 x Z/d2 with d1 | d2 (Silverman, AEC III.6.4), so its
    p-part is Z/p^a x Z/p^b with a <= b, and the p^k-torsion has exactly
    p^(2k) points for k <= a and fewer from k = a + 1 on.  So d1 is the
    product of the p^a.  A prime p with p^2 not dividing the order has
    a = 0; for the others the map P -> pP is built once over all points as
    an index table, and iterated while the count is p^(2k).
    """
    n = len(points)
    d1 = 1
    for p in factorize(n):
        if n % (p * p):
            continue
        index = {pt: i for i, pt in enumerate(points)}
        zero = index[INFINITY]
        times_p = images = [index[point_mul(curve, p, pt)] for pt in points]
        full = p * p
        while images.count(zero) == full:
            d1 *= p
            full *= p * p
            images = [times_p[i] for i in images]
    return [d for d in (d1, n // d1) if d > 1]


def two_torsion_count(curve: WeierstrassCurve, points) -> int:
    """Number of points with 2P = infinity, i.e. P = -P, the identity
    included: on codes, the affine (x, y) with 2y + a1 x + a3 = 0."""
    f, a1, a3 = curve.field, curve.a1.code, curve.a3.code
    return sum(1 for pt in points if pt is INFINITY or f.add_i(
        f.add_i(pt.y.code, pt.y.code), f.add_i(f.mul_i(a1, pt.x.code), a3)) == 0)


class LPoly(Record):
    """Zeta numerator 1 + a u + q u^2 of an elliptic curve over F_q, kept as
    its coefficient tuple (1, a, q)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        if len(coeffs) != 3 or coeffs[0] != 1:
            raise ValueError("an elliptic L-polynomial has coefficients (1, a, q)")
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, u: int) -> int:
        return sum(c * u ** i for i, c in enumerate(self.coeffs))


def lpoly_from_count(n_points: int, q: int) -> LPoly:
    """L(u) = 1 + (N - q - 1) u + q u^2 for an elliptic count N, Hasse-checked."""
    a = n_points - q - 1
    if a * a > 4 * q:
        raise ValueError(f"point count {n_points} violates the Hasse bound for q={q}")
    return LPoly((1, a, q))


def ell_count(lpoly: LPoly) -> int:
    """L(-1): the number of quadratic (conjugate-pair or rational-pair) classes."""
    v = lpoly(-1)
    if v <= 0:
        raise ValueError("L(-1) must be positive")
    return v


class ClassData(Record):
    """Counting data attached to a curve: h = L(1), cl2 two-torsion size,
    r conjugate pairs, and the split of L(-1) = ell_eq + ell_neq."""

    __slots__ = ("h", "cl2", "r", "ell_eq", "ell_neq")


def class_data(lpoly: LPoly, curve: WeierstrassCurve, points) -> ClassData:
    """Derive (h, cl2, r) from L and the rational points of the curve."""
    h = lpoly(1)
    if h != len(points):
        raise ValueError("L(1) does not match the rational point count")
    cl2 = two_torsion_count(curve, points)
    total = ell_count(lpoly)
    if total < cl2 or (total - cl2) % 2:
        raise ValueError("L(-1) - cl2 must be an even nonnegative integer")
    r = (total - cl2) // 2
    return ClassData(h=h, cl2=cl2, r=r, ell_eq=cl2, ell_neq=2 * r)


# orders from 10^4300 on have more digits than Python converts to text
_CS_ORDER_LIMIT = 10 ** 4300


def cs_order(r: int, q: int) -> int:
    """r! * a^r with a = aut_rel_count(q): the order of the wreath group
    permuting r interchangeable quadratic classes.  Built as the product of
    k * a for k = 1..r, refused as soon as it reaches 4301 digits."""
    if r < 0:
        raise ValueError("r must be >= 0")
    a = aut_rel_count(q)
    order = 1
    for k in range(1, r + 1):
        order *= k * a
        if order >= _CS_ORDER_LIMIT:
            raise ValueError(f"r! * {a}^r has more than 4300 digits for r = {r}")
    return order


def curve_from_text(spec: str) -> WeierstrassCurve:
    """Parse "q=<prime power>;y2+a1xy+a3y=x3+a2x2+a4x+a6".

    Terms may be omitted when their coefficient vanishes; coefficients are
    read by FieldSpec.read_coeff (element codes or (c0,c1,...) vectors).
    """
    spec = spec.replace(" ", "")
    parts = spec.split(";")
    if len(parts) != 2 or not parts[0].startswith("q="):
        raise ValueError(f"bad curve spec {brief(spec)}")
    try:
        q = int(parts[0][2:])
    except ValueError:
        raise ValueError(f"bad field size in {brief(spec)}")
    field = field_of_order(q)
    lhs, eq, rhs = parts[1].partition("=")
    if not eq:
        raise ValueError(f"curve spec needs an equation: {brief(spec)}")
    coeffs = {"a1": field.zero, "a2": field.zero, "a3": field.zero,
              "a4": field.zero, "a6": field.zero}

    lhs_terms = lhs.split("+")
    if not lhs_terms or lhs_terms[0] != "y2":
        raise ValueError(f"left side must start with y2: {brief(spec)}")
    for term in lhs_terms[1:]:
        if term.endswith("xy"):
            coeffs["a1"] = field.read_coeff(term[:-2])
        elif term.endswith("y"):
            coeffs["a3"] = field.read_coeff(term[:-1])
        else:
            raise ValueError(f"unexpected left-side term {brief(term)}")
    rhs_terms = rhs.split("+")
    if not rhs_terms or rhs_terms[0] != "x3":
        raise ValueError(f"right side must start with x3: {brief(spec)}")
    for term in rhs_terms[1:]:
        if term.endswith("x2"):
            coeffs["a2"] = field.read_coeff(term[:-2])
        elif term.endswith("x"):
            coeffs["a4"] = field.read_coeff(term[:-1])
        else:
            coeffs["a6"] = field.read_coeff(term)
    curve = WeierstrassCurve(field, coeffs["a1"], coeffs["a2"], coeffs["a3"],
                             coeffs["a4"], coeffs["a6"])
    if not curve.is_nonsingular():
        raise ValueError(f"curve {brief(spec)} is singular")
    return curve
