"""Amalgam normal form in GL2(F_q[t]).

GL2(F_q[t]) is the amalgamated product of GL2(F_q) and the upper
triangular group B2(F_q[t]) over their intersection J = B2(F_q).  Fixing
right-coset transversals of J in the two factors,

    GL2(F_q):      {I} u { [[0,1],[1,x]] : x in F_q }
    B2(F_q[t]):    { [[1,v],[0,1]] : v in t F_q[t] }

every element has a unique expression j * r1 * ... * rn with the ri
drawn alternately from the two transversals (none the identity) and
j in J.  Words here fold j into the first letter, so the canonical word
is a list of alternating letters; a lone element of J is typed "G".
(Nagao, "On GL(2, K[x])", 1959; Serre, Trees, II.1.6.)

Since the expression is unique, any alternating factorization is the
canonical one.  One Euclidean pass on the bottom row, `peel`, takes the
transversal letters off the right of a matrix and leaves an upper
triangular remainder, and it has two consumers: `decompose` writes the
letters out as the canonical word, folding J into the first, and
`reiner.reiner_apply` maps them as they come off, with no word at all.
`normalize` of a letter sequence is `decompose` of its product.

`peel` works on the four entries by column operations: right
multiplication by a unipotent [[1, v], [0, 1]] adds v times the first
column to the second, and by [[0, 1], [1, x]] (x constant) swaps the
columns and adds x times the new first column to the second.  Peeling a
unipotent takes its v from dividing d by c, and the remainder of that
division gives the new d as d <- r + v0*c (v0 the quotient's constant
term), so a B peel makes one full polynomial product, for b.
`decompose` forms a 2x2 product only to fold j into the first letter.
`evaluate` is
`decompose` run backwards: it starts from the first letter's matrix and
applies each transversal letter as its column operation, writing out a
2x2 product only for a letter of any other shape.
"""

from __future__ import annotations

from .ffield import brief
from .matgroup import Mat2
from .polyring import Poly, PolyRing, brief_text
from .record import Record

G_SIDE = "G"
B_SIDE = "B"


class Letter(Record):
    # decompose builds one per peeled letter, so the fields are stored directly
    __slots__ = ("side", "mat")

    def __init__(self, side: str, mat: Mat2):
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "mat", mat)

    def text(self) -> str:
        return f"{self.side}:{self.mat.text()}"


def _is_constant_mat(m: Mat2) -> bool:
    return all(e.is_constant() for e in m.entries())


def _in_side(m: Mat2, side: str) -> bool:
    if side == G_SIDE:
        return _is_constant_mat(m)
    if side == B_SIDE:
        return m.c.is_zero()
    raise ValueError(f"unknown side {brief(side)}")


def letter(side: str, mat: Mat2) -> Letter:
    """Validated letter: a G letter is constant, a B letter upper triangular."""
    if not mat.has_unit_det():
        raise ValueError(f"letter matrix {brief_text(mat.text())} is not invertible over F_q[t]")
    if not _in_side(mat, side):
        raise ValueError(f"matrix {brief_text(mat.text())} does not lie in the {side} factor")
    return Letter(side, mat)


def normalize(ring: PolyRing, letters) -> tuple[Letter, ...]:
    """Canonical form of a letter sequence; [] represents the identity."""
    letters = tuple(letters)
    for lt in letters:
        if not isinstance(lt, Letter):
            raise TypeError(f"expected Letter, got {lt!r}")
        if not _in_side(lt.mat, lt.side) or not lt.mat.has_unit_det():
            raise ValueError(f"invalid letter {brief_text(lt.text())}")
    return decompose(evaluate(ring, letters))


def peel(m: Mat2) -> tuple[list, tuple]:
    """The Euclidean peel of m: its transversal letters from the right, and
    the triangular remainder R = [[alpha, b], [0, beta]] they leave, with
    m = R * (the letters, the last peeled leftmost).

    A letter is (B_SIDE, v) for [[1, v], [0, 1]] with v a polynomial of zero
    constant term, or (G_SIDE, x) for [[0, 1], [1, x]] with x a field code.
    The Euclidean algorithm runs on the bottom row (c, d), with the entries
    a, b, c, d kept as locals.  When deg d > deg c the last letter has v the
    quotient d div c less its constant term v0, and peeling it is the column
    operation b -= a*v, d -= c*v.  The new d is r + v0*c, r the remainder
    the division has just returned, so only b takes a full product, and a
    quotient with v0 = 0 leaves d = r.  Otherwise x is the coefficient of
    t^deg(c) in d over the leading coefficient of c; peeling the letter
    (right multiplication by [[-x, 1], [1, 0]]) sets (a, b, c, d) to
    (b - x*a, a, d - x*c, c).  Each peel lowers the bottom row, and the
    letters alternate because after a B letter deg d <= deg c and after a G
    letter deg d > deg c.  Every letter has determinant +-1, so m is
    invertible exactly when alpha and beta are nonzero constants, and m is
    refused otherwise; no determinant is computed up front.
    """
    ring: PolyRing = m.ring
    if not isinstance(ring, PolyRing):
        raise TypeError("decompose expects a matrix over F_q[t]")
    field = ring.field
    a, b, c, d = m.a, m.b, m.c, m.d
    peeled = []  # rightmost letter first
    while not c.is_zero():
        if d.deg > c.deg:
            v, r = divmod(d, c)
            v0 = v.coeffs[0]
            v = Poly(ring, (0, *v.coeffs[1:]))  # deg v >= 1, so the lead stays
            peeled.append((B_SIDE, v))
            # d - c*(v - v0) = r + v0*c: the remainder is reused
            b, d = b - a * v, r + c.scale(v0)
        else:
            x = field.mul_i(d.coeff_code(c.deg), field.inv_i(c.lead_code()))
            peeled.append((G_SIDE, x))
            a, b, c, d = b - a.scale(x), a, d - c.scale(x), c
    if a.deg != 0 or d.deg != 0:
        raise ValueError(f"{brief_text(m.text())} is not invertible over F_q[t]")
    return peeled, (a, b, d)


def decompose(m: Mat2) -> tuple[Letter, ...]:
    """Canonical word of m in GL2(F_q[t]); evaluate(decompose(m)) == m exactly.

    The letters are those of `peel`, and its remainder
    [[alpha, b], [0, beta]] is j * [[1, v], [0, 1]] with j in J; j folds
    into the first letter, the one 2x2 product made.
    """
    ring = m.ring
    peeled, (a, b, d) = peel(m)
    one, zero = ring.one, ring.zero
    # a B letter comes with its v, a G letter with its code x
    letters = [Letter(B_SIDE, Mat2(ring, one, vx, zero, one)) if side == B_SIDE
               else Letter(G_SIDE, Mat2(ring, zero, one, one, ring.const(vx)))
               for side, vx in peeled]
    # [[alpha, b], [0, beta]] = [[alpha, b0], [0, beta]] * [[1, (b-b0)/alpha], [0, 1]]
    b0 = ring.const(b.constant_code())
    j = Mat2(ring, a, b0, zero, d)
    v = (b - b0).scale(ring.field.inv_i(a.constant_code()))
    if not v.is_zero():
        letters.append(Letter(B_SIDE, Mat2(ring, one, v, zero, one)))
    if not letters:
        return () if j.is_identity() else (Letter(G_SIDE, j),)
    first = letters.pop()
    return (Letter(first.side, j * first.mat),) + tuple(reversed(letters))


def evaluate(ring: PolyRing, letters) -> Mat2:
    """The left-to-right product of the letters; () gives the identity.

    The running entries a, b, c, d start as the first letter's matrix.  A
    transversal letter is one column operation, read off the coefficient
    tuples: [[1, v], [0, 1]] sets b += a*v, d += c*v, and [[0, 1], [1, x]]
    with x constant sets (a, b, c, d) to (b, a + x*b, d, c + x*d).  Any
    other letter is multiplied in by the 2x2 product written out on the
    entries, so a word from `decompose` costs no Mat2 product at all.
    """
    letters = iter(letters)
    first = next(letters, None)
    if first is None:
        return Mat2.identity(ring)
    if first.mat.ring is not ring:
        raise TypeError("matrix rings differ")
    a, b, c, d = first.mat.entries()
    for lt in letters:
        m = lt.mat
        if m.ring is not ring:
            raise TypeError("matrix rings differ")
        e, f, g, h = m.a, m.b, m.c, m.d
        if not g.coeffs and e.coeffs == h.coeffs == (1,):
            b, d = b + a * f, d + c * f
        elif not e.coeffs and f.coeffs == g.coeffs == (1,) and len(h.coeffs) <= 1:
            x = h.constant_code()
            a, b, c, d = b, a + b.scale(x), d, c + d.scale(x)
        else:
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return Mat2(ring, a, b, c, d)


def word_text(letters) -> str:
    return ";".join(lt.text() for lt in letters)
