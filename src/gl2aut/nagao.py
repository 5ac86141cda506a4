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
"""

from __future__ import annotations

from dataclasses import dataclass

from .matgroup import Mat2, mat_parse
from .polyring import Poly, PolyRing

G_SIDE = "G"
B_SIDE = "B"


@dataclass(frozen=True)
class Letter:
    side: str
    mat: Mat2

    def text(self) -> str:
        return f"{self.side}:{self.mat.text()}"


def _is_constant_mat(m: Mat2) -> bool:
    return all(e.is_constant() for e in m.entries())


def _in_side(m: Mat2, side: str) -> bool:
    if side == G_SIDE:
        return _is_constant_mat(m)
    if side == B_SIDE:
        return m.c.is_zero()
    raise ValueError(f"unknown side {side!r}")


def _unit_det(m: Mat2) -> bool:
    det = m.det()
    return det.is_constant() and not det.is_zero()


def _in_j(m: Mat2) -> bool:
    return m.c.is_zero() and _is_constant_mat(m)


def letter(side: str, mat: Mat2) -> Letter:
    """Validated letter: a G letter is constant, a B letter upper triangular."""
    if not _unit_det(mat):
        raise ValueError(f"letter matrix {mat.text()} is not invertible over F_q[t]")
    if not _in_side(mat, side):
        raise ValueError(f"matrix {mat.text()} does not lie in the {side} factor")
    return Letter(side, mat)


def _coset_split(ring: PolyRing, side: str, m: Mat2) -> tuple[Mat2, Mat2]:
    """Write m = j * r with j in J and r the transversal representative."""
    field = ring.field
    if side == B_SIDE:
        # [[alpha, a], [0, beta]] = [[alpha, a0], [0, beta]] * [[1, (a-a0)/alpha], [0, 1]]
        a0 = ring.const(m.b.constant_code())
        j = Mat2(ring, m.a, a0, ring.zero, m.d)
        v = (m.b - a0).scale(field.inv_i(m.a.constant_code()))
        r = Mat2(ring, ring.one, v, ring.zero, ring.one)
        return j, r
    if m.c.is_zero():
        return m, Mat2.identity(ring)
    # m = j * [[0,1],[1,x]] with x = d/c;  j = [[b - a*x, a], [0, c]]
    x = m.d.scale(field.inv_i(m.c.constant_code()))
    j = Mat2(ring, m.b - m.a * x, m.a, ring.zero, m.c)
    r = Mat2(ring, ring.zero, ring.one, ring.one, x)
    return j, r


def _fold(ring: PolyRing, state, side: str, x: Mat2):
    """Append the factor element x (living in the given side) to a canonical
    state (j, reps) and restore canonical shape."""
    if x.is_identity():
        return state
    j, reps = state
    if not reps:
        w = j * x
        if _in_j(w):
            return w, reps
        j2, r = _coset_split(ring, side, w)
        return j2, [(side, r)]
    last_side, last_rep = reps[-1]
    if last_side == side or _in_j(x):
        return _fold(ring, (j, reps[:-1]), last_side, last_rep * x)
    j1, r = _coset_split(ring, side, x)
    if j1.is_identity():
        return j, reps + [(side, r)]
    new_reps = []
    carry = j1
    for s, rep in reversed(reps):
        j2, r2 = _coset_split(ring, s, rep * carry)
        new_reps.append((s, r2))
        carry = j2
    new_reps.reverse()
    return j * carry, new_reps + [(side, r)]


def _state_to_word(ring: PolyRing, state) -> tuple[Letter, ...]:
    j, reps = state
    if not reps:
        if j.is_identity():
            return ()
        return (Letter(G_SIDE, j),)
    side0, rep0 = reps[0]
    out = [Letter(side0, j * rep0)]
    out.extend(Letter(s, r) for s, r in reps[1:])
    return tuple(out)


def normalize(ring: PolyRing, letters) -> tuple[Letter, ...]:
    """Canonical form of a letter sequence; [] represents the identity."""
    state = (Mat2.identity(ring), [])
    for lt in letters:
        if not isinstance(lt, Letter):
            raise TypeError(f"expected Letter, got {lt!r}")
        if not _in_side(lt.mat, lt.side) or not _unit_det(lt.mat):
            raise ValueError(f"invalid letter {lt.text()}")
        state = _fold(ring, state, lt.side, lt.mat)
    return _state_to_word(ring, state)


def decompose(m: Mat2) -> tuple[Letter, ...]:
    """Canonical word of m in GL2(F_q[t]) by the Euclidean descent on the
    bottom row; evaluate(decompose(m)) == m exactly."""
    ring: PolyRing = m.ring
    if not isinstance(ring, PolyRing):
        raise TypeError("decompose expects a matrix over F_q[t]")
    if not _unit_det(m):
        raise ValueError(f"{m.text()} is not invertible over F_q[t]")
    raw: list[Letter] = []
    weyl = Mat2(ring, ring.zero, ring.one, ring.one, ring.zero)
    cur = m
    while not cur.c.is_zero():
        a, c = cur.a, cur.c
        if a.is_zero() or a.deg < c.deg:
            raw.append(Letter(G_SIDE, weyl))
            cur = weyl * cur
        else:
            f = a // c
            raw.append(Letter(B_SIDE, Mat2(ring, ring.one, f, ring.zero, ring.one)))
            cur = Mat2(ring, ring.one, -f, ring.zero, ring.one) * cur
    raw.append(Letter(B_SIDE, cur))
    # raw now satisfies m = raw[0] * raw[1] * ... * raw[-1]
    return normalize(ring, raw)


def evaluate(ring: PolyRing, letters) -> Mat2:
    out = Mat2.identity(ring)
    for lt in letters:
        out = out * lt.mat
    return out


def word_concat(ring: PolyRing, w1, w2) -> tuple[Letter, ...]:
    return normalize(ring, tuple(w1) + tuple(w2))


def word_inverse(ring: PolyRing, w) -> tuple[Letter, ...]:
    return normalize(ring, tuple(Letter(lt.side, lt.mat.inverse()) for lt in reversed(w)))


def word_text(letters) -> str:
    return ";".join(lt.text() for lt in letters)


def word_parse(ring: PolyRing, s: str) -> tuple[Letter, ...]:
    """Parse "G:[[...]];B:[[...]]" into a validated (not normalized) word."""
    s = s.strip()
    if not s:
        return ()
    out = []
    for chunk in s.split(";"):
        side, sep, matstr = chunk.partition(":")
        if not sep or side not in (G_SIDE, B_SIDE):
            raise ValueError(f"bad word chunk {chunk!r}")
        out.append(letter(side, mat_parse(ring, matstr)))
    return tuple(out)


def is_canonical(ring: PolyRing, letters) -> bool:
    return tuple(letters) == normalize(ring, letters)
