"""Shared random generators and brute-force oracles for the test suite.

Everything random takes an explicit random.Random so each test controls its
seed and stays reproducible.
"""

import argparse
import functools
import itertools
import json
import math
import operator
import os
import re
import time
from contextlib import contextmanager
from pathlib import Path

from gl2aut.closure import closure
from gl2aut.cosets import (FiniteGroup, QuotRing, SubgroupSpec, mat_det_r,
                           mat_inv_r, mat_mul_r, quotient_context)
from gl2aut.curves import INFINITY, AffinePoint, WeierstrassCurve, point_add, point_neg
from gl2aut.ffield import aut_rel_enumerate, field_of_order, quad_ext
from gl2aut.graphs import (Edge, QuotientGraph, RayMarker, StabDescriptor, Vertex,
                           validate_graph)
from gl2aut.matgroup import Mat2, mat_parse
from gl2aut.nagao import B_SIDE, G_SIDE, Letter
from gl2aut.polyring import PolyRing, poly_ring
from gl2aut.words import (DIHEDRAL_A, DIHEDRAL_B, ComposedAuto, FiniteCyclic,
                          MatrixBacked, VectorFactor, WreathReport, isom_mul,
                          word_reduce)
from gl2aut import nagao

SRC = Path(__file__).resolve().parents[1] / "src"

_RINGS: dict[int, PolyRing] = {}

# fields past F_2 and F_3, non-prime codes included
WIDER_QS = (4, 7, 8, 9)


@contextmanager
def budget(seconds):
    """Fail the enclosed block if it takes `seconds` or longer."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds:g}s"


def count_calls(monkeypatch, cls, name) -> list:
    """Record each call of cls.name for the rest of the test: the returned
    list gains the call's positional arguments, the receiver first."""
    calls = []
    original = getattr(cls, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def apply_gen(decl, gen, w):
    """The image of the word w under one generator automorphism."""
    return ComposedAuto(decl, (gen,)).apply(w)


def src_first_env():
    """The caller's environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([rest] if rest else []))
    return env


def ring_of(q: int) -> PolyRing:
    """Cached polynomial ring over the field with q elements."""
    if q not in _RINGS:
        _RINGS[q] = poly_ring(field_of_order(q))
    return _RINGS[q]


def rand_poly(ring, rng, max_deg, nonzero=False):
    while True:
        coeffs = tuple(rng.randrange(ring.field.q) for _ in range(max_deg + 1))
        p = ring.poly(coeffs)
        if not nonzero or not p.is_zero():
            return p


def poly_gcd(a, b):
    """The monic gcd of two polynomials by Euclid's algorithm; 0 for two zeros."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


# ---- the former tuple arithmetic of Poly, kept as the oracle for polyring ----

def _stripped(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padded_zip(a, b, op):
    n = max(len(a), len(b))
    for i in range(n):
        yield op(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)


def schoolbook_add(f, a: tuple, b: tuple) -> tuple:
    return _stripped(_padded_zip(a, b, f.add_i))


def schoolbook_sub(f, a: tuple, b: tuple) -> tuple:
    return _stripped(_padded_zip(a, b, lambda x, y: f.add_i(x, f.neg_i(y))))


def schoolbook_neg(f, a: tuple) -> tuple:
    return tuple(f.neg_i(c) for c in a)


def schoolbook_scale(f, code: int, a: tuple) -> tuple:
    return _stripped([f.mul_i(code, c) for c in a])


def schoolbook_mul(f, a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = f.add_i(out[i + j], f.mul_i(ai, bj))
    return _stripped(out)


def schoolbook_divmod(f, a: tuple, b: tuple) -> tuple[tuple, tuple]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    dq = len(b) - 1
    inv_lead = f.inv_i(b[-1])
    quo = [0] * max(len(rem) - dq, 0)
    while len(rem) - 1 >= dq and rem:
        if rem[-1] == 0:
            rem.pop()
            continue
        c = f.mul_i(rem[-1], inv_lead)
        shift = len(rem) - 1 - dq
        quo[shift] = c
        for i, bc in enumerate(b):
            rem[shift + i] = f.add_i(rem[shift + i], f.neg_i(f.mul_i(c, bc)))
        while rem and rem[-1] == 0:
            rem.pop()
    return _stripped(quo), _stripped(rem)


def rand_unit_code(field, rng) -> int:
    return rng.randrange(1, field.q)


def rand_gl2_const(ring, rng) -> Mat2:
    """Invertible matrix with constant entries over the polynomial ring."""
    q = ring.field.q
    while True:
        m = Mat2(ring, *(ring.const(rng.randrange(q)) for _ in range(4)))
        if not m.det().is_zero():
            return m


def rand_gl2_poly(ring, rng, max_total_deg=8) -> Mat2:
    """Unit-determinant matrix over F_q[t] with entry degrees <= max_total_deg.

    Built as a product of upper unipotents, the flip [[0,1],[1,0]] and
    invertible constants; entry degrees of such a product are bounded by
    the sum of the unipotent degrees, which is kept within the budget.
    """
    flip = mat_parse(ring, "[[0,1],[1,0]]")
    m = rand_gl2_const(ring, rng)
    budget = max_total_deg
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(0, budget)
        budget -= d
        p = rand_poly(ring, rng, d)
        m = m * Mat2(ring, ring.one, p, ring.zero, ring.one)
        if rng.random() < 0.7:
            m = m * flip
    if rng.random() < 0.5:
        m = m * rand_gl2_const(ring, rng)
    assert max(e.deg for e in m.entries()) <= max_total_deg
    return m


def rand_upper_triangular(ring, rng, max_deg=4) -> Mat2:
    """Invertible upper triangular matrix over F_q[t]."""
    a = ring.const(rand_unit_code(ring.field, rng))
    d = ring.const(rand_unit_code(ring.field, rng))
    b = rand_poly(ring, rng, max_deg)
    return Mat2(ring, a, b, ring.zero, d)


def rand_nagao_letters(ring, rng, max_len=6, max_deg=3):
    """Random (not necessarily reduced) letter sequence for the amalgam."""
    letters = []
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.5:
            letters.append(nagao.letter("G", rand_gl2_const(ring, rng)))
        else:
            letters.append(nagao.letter("B", rand_upper_triangular(ring, rng, max_deg)))
    return letters


def nagao_word_parse(ring, s: str) -> tuple:
    """Parse the text of nagao.word_text, "G:[[...]];B:[[...]]", into a
    validated (not normalized) word."""
    s = s.strip()
    if not s:
        return ()
    out = []
    for chunk in s.split(";"):
        side, sep, matstr = chunk.partition(":")
        if not sep or side not in (G_SIDE, B_SIDE):
            raise ValueError(f"bad word chunk {chunk!r}")
        out.append(nagao.letter(side, mat_parse(ring, matstr)))
    return tuple(out)


def rand_elem(kind, rng, mat_deg=2):
    """Random nonidentity element of a free-factor kind."""
    if isinstance(kind, FiniteCyclic):
        return rng.randrange(1, kind.order)
    if isinstance(kind, MatrixBacked):
        while True:
            m = rand_gl2_poly(kind.ring, rng, mat_deg)
            if not m.is_identity():
                return m
    if isinstance(kind, VectorFactor):
        while True:
            v = kind.ring.poly([0] + [rng.randrange(kind.ring.field.q)
                                      for _ in range(rng.randint(1, 3))])
            if not v.is_zero():
                return v
    raise TypeError(f"no random element for {kind!r}")


def rand_word(decl, rng, max_len=8, mat_deg=2):
    """Random reduced word in the declared free product."""
    letters = []
    for _ in range(rng.randint(0, max_len)):
        i = rng.randrange(len(decl.factors))
        letters.append((i, rand_elem(decl.factors[i].kind, rng, mat_deg)))
    return word_reduce(decl, letters)


# ---- fold normal form oracle ----
#
# The amalgam normal form built letter by letter, independent of the
# Euclidean descent in nagao.decompose.

def _in_j(m: Mat2) -> bool:
    return m.c.is_zero() and all(e.is_constant() for e in m.entries())


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


def fold_normalize(ring: PolyRing, letters) -> tuple[Letter, ...]:
    """Canonical form of a letter sequence by folding one letter at a time
    into a canonical state (j, reps), carrying J leftwards through the
    transversal representatives; [] represents the identity.  The letters
    must be valid (as built by nagao.letter)."""
    state = (Mat2.identity(ring), [])
    for lt in letters:
        state = _fold(ring, state, lt.side, lt.mat)
    return _state_to_word(ring, state)


# ---- word-based Reiner images, the oracle for reiner_apply ----

def reiner_on_cuspstab(spec, m: Mat2) -> Mat2:
    """The automorphism on an upper triangular matrix over F_q[t]."""
    ring = spec.ring
    if m.ring is not ring:
        raise ValueError("matrix ring does not match the spec ring")
    if not m.c.is_zero():
        raise ValueError("reiner_on_cuspstab expects an upper triangular matrix")
    if not (m.a.is_constant() and m.d.is_constant()):
        raise ValueError("diagonal entries must be units of F_q")
    return Mat2(ring, m.a, spec.apply(m.b), ring.zero, m.d)


def word_reiner_apply(spec, m: Mat2) -> Mat2:
    """The automorphism on any matrix through its canonical word: constant
    letters are fixed, triangular letters map by reiner_on_cuspstab, and
    the image word is multiplied back out."""
    image = [Letter(B_SIDE, reiner_on_cuspstab(spec, lt.mat)) if lt.side == B_SIDE else lt
             for lt in nagao.decompose(m)]
    return nagao.evaluate(spec.ring, image)


# ---- counting oracles for orders, generators and moduli ----

def brute_order(x, one, mul=operator.mul, limit=1 << 16) -> int:
    """Multiplicative order of x, by multiplying until it returns to one;
    AssertionError past `limit` steps (x is then no unit of a finite group)."""
    acc, k = x, 1
    while acc != one:
        acc = mul(acc, x)
        k += 1
        assert k <= limit, f"{x!r} does not return to one within {limit} steps"
    return k


def brute_generator(candidates, n, one, mul=operator.mul):
    """The first candidate whose counted order is n."""
    for x in candidates:
        if brute_order(x, one, mul) == n:
            return x
    raise AssertionError(f"no element of order {n}")


def brute_quadratic(base):
    """(c1, c0) of least code c1*q + c0 with s^2 + c1 s + c0 rootless in F_q."""
    q = base.q
    for code in range(q * q):
        c1, c0 = base.el(code // q), base.el(code % q)
        if all(bool(x * x + c1 * x + c0) for x in base.elements()):
            return c1, c0
    raise AssertionError("no irreducible quadratic found")


def _digit_product(f, g, p) -> tuple:
    """The product of two digit tuples (constant first) over F_p, unreduced."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


@functools.cache
def brute_modulus(p, n):
    """Digits (constant first) of the least-code monic irreducible of degree
    n over F_p, found by ruling out every product of two monic factors; the
    polynomial x for n = 1, as FieldSpec stores it."""
    def monic(d):
        return [low + (1,) for low in itertools.product(range(p), repeat=d)]

    if n == 1:
        return (0, 1)
    reducible = {_digit_product(f, g, p)
                 for d in range(1, n // 2 + 1) for f in monic(d) for g in monic(n - d)}
    candidates = sorted(monic(n), key=lambda f: sum(c * p ** i for i, c in enumerate(f[:-1])))
    return next(f for f in candidates if f not in reducible)


def brute_field_mul(p, n):
    """The product of F_{p^n} on element codes (base-p digits, constant digit
    least significant): the digit product, with each digit above degree n - 1
    cancelled by a multiple of the monic brute_modulus(p, n), from the top."""
    modulus = brute_modulus(p, n)

    def digits(code):
        return tuple(code // p ** i % p for i in range(n))

    def mul(a, b):
        out = list(_digit_product(digits(a), digits(b), p))
        for top in range(len(out) - 1, n - 1, -1):
            c = out[top]
            for i, m in enumerate(modulus):
                out[top - n + i] = (out[top - n + i] - c * m) % p
        return sum(d * p ** i for i, d in enumerate(out[:n]))

    return mul


# ---- brute-force curve oracles ----

def point_order(curve, pt, count) -> int:
    """The order of pt on a curve of `count` points, by adding it to itself
    until infinity; AssertionError past `count` steps, so a broken group law
    fails instead of looping."""
    return brute_order(pt, INFINITY, functools.partial(point_add, curve), limit=count)


def brute_points(curve):
    """Every rational point by testing all q^2 pairs (x, y): infinity first,
    then affine points by x code, then by y code.  The equation is read as
    y (y + a1 x + a3) = ((x + a2) x + a4) x + a6."""
    elems = list(curve.field.elements())
    pts = [INFINITY]
    for x in elems:
        b = curve.a1 * x + curve.a3
        rhs = ((x + curve.a2) * x + curve.a4) * x + curve.a6
        pts += [AffinePoint(x, y) for y in elems if y * (y + b) == rhs]
    return pts


def brute_r(curve) -> int:
    """The number of x in F_q with no rational point over x."""
    return curve.field.q - len({pt.x for pt in brute_points(curve)[1:]})


def brute_count_over_square(curve) -> int:
    """#E(F_{q^2}) by testing every pair (x, y) over F_{q^2} = quad_ext(F_q),
    in which F_q embeds as a + 0*s."""
    ext = quad_ext(curve.field)
    coeffs = (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)
    return len(brute_points(WeierstrassCurve(ext, *map(ext.embed, coeffs))))


def brute_group_structure(curve, points):
    """Invariant factors from the order of every point.

    E(F_q) is Z/d1 x Z/d2 with d1 | d2, so d2 is the largest point order
    and d1 = #E / d2; the d1-torsion then has exactly d1^2 points.
    """
    orders = [point_order(curve, pt, len(points)) for pt in points]
    d2 = max(orders)
    d1, rem = divmod(len(points), d2)
    assert rem == 0 and d2 % d1 == 0
    assert sum(1 for k in orders if d1 % k == 0) == d1 * d1
    return [d for d in (d1, d2) if d > 1]


def brute_two_torsion_count(curve, points):
    """Points with 2P = infinity, by the group law: P = -P, with -P built on
    field elements (point_add doubles to infinity exactly then)."""
    return sum(1 for pt in points if point_neg(curve, pt) == pt)


# ---- brute-force matrix-group oracles ----

def gl2_elements(field):
    """All of GL2(F_q), ordered by entry codes."""
    elems = list(field.elements())
    for a, b, c, d in itertools.product(elems, repeat=4):
        if bool(a * d - b * c):
            yield Mat2(field, a, b, c, d)


def unitriangular_spec(n, dense_side):
    """Spec JSON over F_2: t^i -> t^i + ... + t^n, whose inverse is
    t^i -> t^i + t^(i+1) (t^n fixed), with the dense map on the given side."""
    dense = {str(i): [0] * i + [1] * (n - i + 1) for i in range(1, n + 1)}
    sparse = {str(i): [0] * i + [1, 1][:n - i + 1] for i in range(1, n + 1)}
    if dense_side == "map":
        return {"map": dense, "inverse": sparse}
    return {"map": sparse, "inverse": dense}


# ---- brute-force quotient-group oracles ----

def poly_code(p) -> int:
    """The base-q code of p's coefficient codes, constant digit least
    significant: the residue code QuotRing uses."""
    code = 0
    for c in reversed(p.coeffs):
        code = code * p.ring.field.q + c
    return code


class DivisionQuotRing:
    """The tables of F_q[t]/(m) by polynomial division: every sum and product
    of two residues, each reduced mod m and encoded (QuotRing's former
    build, kept as the oracle for its division-free tables)."""

    def __init__(self, ring: PolyRing, modulus):
        self.modulus = modulus.monic()
        residues = [ring.from_code(c) for c in range(ring.field.q ** modulus.deg)]
        self.mul_tab = [[self.reduce_poly(x * y) for y in residues] for x in residues]
        self.add_tab = [[poly_code(x + y) for y in residues] for x in residues]
        self.neg = [row.index(0) for row in self.add_tab]
        self.inv = {a: row.index(1) for a, row in enumerate(self.mul_tab) if 1 in row}

    def reduce_poly(self, p) -> int:
        return poly_code(p % self.modulus)


def full_gl2(R: QuotRing) -> FiniteGroup:
    """All of GL2(F_q[t]/m), by scanning entry tuples (small moduli only)."""
    elems = []
    n = R.size
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if R.is_unit(mat_det_r(R, (a, b, c, d))):
                        elems.append((a, b, c, d))
    return FiniteGroup(R, frozenset(elems))


def subgroup_from_members(G: FiniteGroup, members: frozenset) -> SubgroupSpec:
    """The subgroup with the given member 4-tuples, every member a generator."""
    return SubgroupSpec(G, tuple(sorted(members)))


def all_subgroups(G: FiniteGroup) -> list[frozenset]:
    """Every subgroup of G (as frozensets of 4-tuples), found by closing
    each known subgroup H with one extra element g until the lattice
    stabilizes.

    <H, g> = <H, h g h'> for h, h' in H, so one g per double coset HgH is
    tried.  <H, g> is closed from the members of H: they are already closed
    under H's generators, so only g moves them, and only the new elements
    need every generator."""
    R = G.R

    def extend(sub):
        gens, members = sub
        out = []
        tried = set(members)
        for g in G.elems - members:
            if g in tried:
                continue
            tried.update(closure([g], lambda x: [mat_mul_r(R, h, x) for h in gens]
                                 + [mat_mul_r(R, x, h) for h in gens]))
            more = gens + (g,)
            out.append((more, frozenset(closure(
                members, lambda x: [mat_mul_r(R, x, g)] if x in members
                else [mat_mul_r(R, x, h) for h in more]))))
        return out

    subs = closure([((), frozenset({(1, 0, 0, 1)}))], extend, key=lambda s: s[1])
    return sorted((members for _gens, members in subs),
                  key=lambda s: (len(s), sorted(s)))


@functools.cache
def subgroup_lattice(q: int, modulus: tuple) -> tuple:
    """all_subgroups of the reduction image mod the modulus with the given
    coefficient codes, computed once per (q, modulus)."""
    ring = ring_of(q)
    return tuple(all_subgroups(quotient_context(ring, ring.poly(modulus)).group))


def double_coset_count(G: FiniteGroup, H: SubgroupSpec, K: SubgroupSpec) -> int:
    """|H \\ G / K| by orbit sweeping; the class sizes always sum to |G|."""
    if H.group is not G or K.group is not G:
        raise ValueError("subgroups must live in the ambient group")
    R = G.R
    hgens = [g for g in H.gens] + [mat_inv_r(R, g) for g in H.gens]
    kgens = [g for g in K.gens] + [mat_inv_r(R, g) for g in K.gens]
    visited = set()
    classes = 0
    total = 0
    for start in sorted(G.elems):
        if start in visited:
            continue
        classes += 1
        stack = [start]
        visited.add(start)
        size = 0
        while stack:
            x = stack.pop()
            size += 1
            for h in hgens:
                y = mat_mul_r(R, h, x)
                if y not in visited:
                    visited.add(y)
                    stack.append(y)
            for k in kgens:
                y = mat_mul_r(R, x, k)
                if y not in visited:
                    visited.add(y)
                    stack.append(y)
        total += size
    assert total == len(G)
    return classes


# ---- dihedral coset-search oracle ----

def dihedral_coset_search(gen_isoms, cap) -> int:
    """Index in D_inf = <DIHEDRAL_A, DIHEDRAL_B> of the subgroup generated by
    the integer isometries gen_isoms, by closing its right cosets under A
    and B; raises RuntimeError past cap cosets (no finite index found).
    closure steps once per coset found, so the step counts them.

    A coset is keyed by a normal form of the subgroup: a translation step
    plus an optional reflection residue."""
    gens = list(gen_isoms)
    trans = [o for s, o in gens if s == 1 and o != 0]
    refl = [o for s, o in gens if s == -1]
    diffs = trans + [o - refl[0] for o in refl[1:]]
    step = 0
    for d in diffs:
        step = math.gcd(step, d)

    def norm(v):
        return v % step if step else v

    def coset_key(g):
        s, o = g
        cands = [(s, norm(o))]
        if refl:
            cands.append((-s, norm(refl[0] - o)))
        return min(cands)

    found = itertools.count(1)

    def neighbours(g):
        if next(found) > cap:
            raise RuntimeError(f"more than {cap} cosets")
        return [isom_mul(g, DIHEDRAL_A), isom_mul(g, DIHEDRAL_B)]

    return len(closure([(1, 0)], neighbours, key=coset_key))


# ---- wreath-closure oracle ----

def wreath_report_all_generators(r: int, q: int) -> WreathReport:
    """The former `cs_wreath_check`: the identity closed under every power
    and swap spike generator on r factors, not a generating subset."""
    n = q * q - 1
    classes = tuple(aut_rel_enumerate(q))
    ident_perm = tuple(range(r))
    gens = []
    for a in classes:
        for i in range(r):
            exps = [1] * r
            exps[i] = a
            gens.append((ident_perm, tuple(exps)))
        back = pow(a, -1, n)
        for i in range(r):
            for j in range(i + 1, r):
                perm = list(ident_perm)
                perm[i], perm[j] = j, i
                exps = [1] * r
                exps[i], exps[j] = a, back
                gens.append((tuple(perm), tuple(exps)))

    def mul(g, f):
        pg, eg = g
        pf, ef = f
        return (tuple(pg[pf[i]] for i in range(r)),
                tuple(eg[pf[i]] * ef[i] % n for i in range(r)))

    seen = closure([(ident_perm, (1,) * r)], lambda x: [mul(g, x) for g in gens])
    expected = math.factorial(r) * len(classes) ** r
    full = len({p for p, _ in seen}) == math.factorial(r)
    return WreathReport(r, q, classes, len(seen), expected, full,
                        len(seen) == expected and full)


# ---- quotient-graph JSON reader ----

_STAB_TEXT = re.compile(r"(\w+)(?:\(q=(\d+)(?:,n=(\d+))?\))?")
_STAB_KINDS = {"Trivial": "trivial", "GL2": "gl2", "CyclicQsqMinus1": "cyclic",
               "UnipotentDim": "unipotent"}


def parse_stab(text: str) -> StabDescriptor:
    """The descriptor whose text() is text."""
    m = _STAB_TEXT.fullmatch(text)
    if not m or m.group(1) not in _STAB_KINDS:
        raise ValueError(f"bad stabilizer descriptor {text!r}")
    return StabDescriptor(_STAB_KINDS[m.group(1)], int(m.group(2) or 0), int(m.group(3) or 0))


def parse_graph_json(text: str) -> QuotientGraph:
    """The validated graph that export_json wrote as text."""
    doc = json.loads(text)
    g = QuotientGraph(
        tuple(Vertex(v["id"], v["label"], parse_stab(v["stab"])) for v in doc["vertices"]),
        tuple(Edge(e["u"], e["v"], parse_stab(e["stab"])) for e in doc["edges"]),
        tuple(RayMarker(r["cusp"], r["depth"], r["at"]) for r in doc["rays"]))
    validate_graph(g)
    return g


# ---- the former argparse front end of the CLI, kept as the parser oracle ----

def build_parser() -> argparse.ArgumentParser:
    """The argparse parser `gl2aut.cli` used before its command table: the
    same commands, flags, defaults and choices.  Its namespace holds the
    command in `command` and every flag under its own name."""
    parser = argparse.ArgumentParser(prog="gl2aut")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aut-count")
    p.add_argument("--q", type=int, required=True)

    for name in ("ell-count", "class-data"):
        sub.add_parser(name).add_argument("--curve", required=True)

    p = sub.add_parser("cs-order")
    p.add_argument("--curve")
    p.add_argument("--r", type=int)
    p.add_argument("--q", type=int)

    p = sub.add_parser("nagao-decompose")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--matrix", required=True)

    p = sub.add_parser("reiner-image")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--inverse", action="store_true")

    p = sub.add_parser("unipotent-fiber")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--modulus", required=True)
    p.add_argument("--bound", type=int, required=True)

    p = sub.add_parser("cusp-count")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--modulus", required=True)
    p.add_argument("--subgroup", choices=["trivial", "borel", "full"], default="trivial")
    p.add_argument("--gens")

    p = sub.add_parser("cs-wreath-check")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    sub.add_parser("dihedral-demo")

    p = sub.add_parser("graph-export")
    p.add_argument("--graph", choices=["ex1", "ex3"], required=True)
    p.add_argument("--format", choices=["dot", "json"], default="json")
    p.add_argument("--depth", type=int, default=3)

    p = sub.add_parser("aut-apply")
    p.add_argument("--decl", required=True)
    p.add_argument("--script", required=True)
    p.add_argument("--word", required=True)

    return parser
