"""Cusp counts through finite quotients of GL2(F_q[t]).

Reducing mod a polynomial modulus m sends GL2(F_q[t]) onto the subgroup G
of GL2(R), R = F_q[t]/m, whose determinant lies in F_q* (a proper subgroup
once R has extra units: order 48 inside the order 96 group for q = 2,
m = t^2).  The cusps of a finite-index subgroup with reduction H are its
orbits on the boundary, which in the quotient are the double cosets

    H \\ G / B

with B the image of the infinity-cusp stabilizer (a single B: base ring
F_q[t] has class number one, so one orbit of points at the boundary).  B
is the stabilizer in G of the line through the column (1, 0), whose orbit
under G is every unimodular column of R^2, so G/B is P^1(R): the unimodular
columns up to F_q*.  The quotient context numbers those lines once, and a
cusp count turns each generator of H into a permutation of the line
numbers and counts the orbits of those permutations.

A matrix over R is a 4-tuple (a, b, c, d) of residue codes, and that is
its only representation: G is a frozenset of 4-tuples, a subgroup is a
tuple of generator 4-tuples, and every group or subgroup is built by
`generated`.
"""

from __future__ import annotations

from functools import cached_property

from .closure import closure
from .matgroup import Mat2
from .polyring import Poly, PolyRing
from .record import Record

# largest quotient group built; past it a count fails fast instead of
# exhausting time and memory
_GROUP_CAP = 100_000


class QuotRing:
    """F_q[t]/(m) with residues encoded as ints: the base-q code of the
    remainder's coefficient codes, constant digit least significant, so the
    constants of F_q are the residues 0, ..., q-1.

    Refused at once when the image of GL2(F_q[t]) would exceed the group
    cap: that image has (q-1)|SL2(F_q[t]/m)| >= (q-1) q^d (q^2-1)^d
    elements for deg m = d, since |SL2(F_q[t]/m)| = q^(3d) times the product
    of (1 - q^(-2 deg p)) over the primes p dividing m.  Every ring that
    passes has at most 64 residues, so addition, negation and multiplication
    are tables.

    The tables come from the field's int hooks, with no polynomial division.
    Sums and negatives go digit by digit.  Multiplying by t shifts the digits
    up, and since m is monic the carried c t^d is -c (m_0 + ... +
    m_(d-1) t^(d-1)).  A product is Horner's rule: x y = t (x' y) + x_0 y for
    x = x_0 + t x', so each row of the product table comes from two earlier
    rows.  A polynomial reduces by the same rule over its coefficients."""

    def __init__(self, ring: PolyRing, modulus: Poly):
        if modulus.deg < 1:
            raise ValueError("modulus must have degree >= 1")
        q, d = ring.field.q, modulus.deg
        # the bound is at least 2^d, so a long modulus is refused before the powers
        if d >= _GROUP_CAP.bit_length() or (q - 1) * q ** d * (q * q - 1) ** d > _GROUP_CAP:
            raise ValueError(f"the quotient group has more than {_GROUP_CAP} elements")
        self.ring = ring
        self.field = f = ring.field
        self.modulus = modulus.monic()
        self.deg = d
        self.size = n = q ** d
        # over the codes, x // q is the residue x' and x % q its constant x_0
        add = [list(range(n))]
        for x in range(1, n):
            hi, lo = add[x // q], x % q
            add.append([q * hi[y // q] + f.add_i(lo, y % q) for y in range(n)])
        neg = [0] * n
        mul = [[0] * n for _c in range(q)]
        for y in range(1, n):
            neg[y] = q * neg[y // q] + f.neg_i(y % q)
            for c in range(1, q):
                mul[c][y] = q * mul[c][y // q] + f.mul_i(c, y % q)
        low = 0
        for c in reversed(self.modulus.coeffs[:d]):
            low = low * q + c
        top = n // q
        # x t = (x mod t^(d-1)) t + x_(d-1) t^d
        mul_t = [add[x % top * q][mul[x // top][neg[low]]] for x in range(n)]
        for x in range(q, n):
            hi, lo = mul[x // q], mul[x % q]
            mul.append([add[mul_t[hi[y]]][lo[y]] for y in range(n)])
        self._add_tab, self._mul_tab, self._neg, self._mul_t = add, mul, neg, mul_t
        # the units are the residues with a 1 in their row of the table
        self._inv = {a: row.index(1) for a, row in enumerate(mul) if 1 in row}

    def reduce_poly(self, p: Poly) -> int:
        add, mul_t, r = self._add_tab, self._mul_t, 0
        for c in reversed(p.coeffs):
            r = add[mul_t[r]][c]
        return r

    def add(self, a: int, b: int) -> int:
        return self._add_tab[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul_tab[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def is_unit(self, a: int) -> bool:
        return a in self._inv

    def inv(self, a: int) -> int:
        if not self.is_unit(a):
            raise ZeroDivisionError(f"residue {self.ring.from_code(a).text()} is not a unit")
        return self._inv[a]

    def __repr__(self):
        return f"QuotRing(F_{self.field.q}[t]/({self.modulus.text()}))"


def mat_mul_r(R: QuotRing, x: tuple, y: tuple) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return (R.add(R.mul(a, e), R.mul(b, g)), R.add(R.mul(a, f), R.mul(b, h)),
            R.add(R.mul(c, e), R.mul(d, g)), R.add(R.mul(c, f), R.mul(d, h)))


def mat_det_r(R: QuotRing, x: tuple) -> int:
    a, b, c, d = x
    return R.add(R.mul(a, d), R.neg(R.mul(b, c)))


def mat_inv_r(R: QuotRing, x: tuple) -> tuple:
    a, b, c, d = x
    di = R.inv(mat_det_r(R, x))
    return (R.mul(d, di), R.neg(R.mul(b, di)), R.neg(R.mul(c, di)), R.mul(a, di))


def check_unit(m: Mat2) -> Mat2:
    """m, refused unless its determinant is a unit of F_q[t]."""
    if not m.has_unit_det():
        raise ValueError(f"{m.text()} is not invertible over F_q[t]")
    return m


def reduce_mat(R: QuotRing, m: Mat2) -> tuple:
    """Reduce a unit-determinant matrix over F_q[t] mod the modulus."""
    return tuple(map(R.reduce_poly, check_unit(m).entries()))


class FiniteGroup(Record):
    """A finite matrix group over a QuotRing, its elements as 4-tuples.
    Two groups are equal only when they are the same object."""

    __slots__ = ("R", "elems")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __len__(self):
        return len(self.elems)


def generated(R: QuotRing, gens) -> frozenset:
    """The subgroup of GL2(R) generated by the 4-tuples gens (in a finite
    group the closure of the identity under right multiplication)."""
    gens = list(dict.fromkeys(gens))
    return frozenset(closure([(1, 0, 0, 1)],
                             lambda x: [mat_mul_r(R, x, g) for g in gens]))


def cusp_stab_generators(R: QuotRing) -> list:
    """Generators of the image of the infinity-cusp stabilizer (upper
    triangular with F_q* diagonal): the diagonal F_q*-units and the upper
    unipotents with entry c t^i, i below the modulus degree."""
    q = R.field.q
    gens = []
    for alpha in range(2, q):
        gens.append((alpha, 0, 0, 1))
        gens.append((1, 0, 0, alpha))
    for i in range(R.deg):
        for c in range(1, q):
            gens.append((1, R.reduce_poly(R.ring.monomial(c, i)), 0, 1))
    return gens


def reduction_generators(R: QuotRing) -> list:
    """Generators of the image of GL2(F_q[t]) in GL2(F_q[t]/m): the cusp
    stabilizer generators plus the transposed (lower) unipotents."""
    stab = cusp_stab_generators(R)
    return stab + [(1, 0, b, 1) for _a, b, _c, _d in stab if b]


def image_order(R: QuotRing) -> int:
    """|G| = (q-1) |SL2(R)|, and |SL2(R)| = |R|^3 times the product of
    (1 - |R/M|^-2) over the maximal ideals M of R, one for each prime
    dividing m.  Every ideal of R is principal, so the ideals are the sets
    xR, the rows of the product table as sets, and the maximal ones are the
    proper ideals that lie in no other proper ideal."""
    n = R.size
    proper = {frozenset(row) for row in R._mul_tab} - {frozenset(range(n))}
    order, denominator = (R.field.q - 1) * n ** 3, 1
    for ideal in proper:
        if not any(ideal < other for other in proper):
            s = (n // len(ideal)) ** 2
            order, denominator = order * (s - 1), denominator * s
    return order // denominator


def reduction_image(R: QuotRing) -> FiniteGroup:
    """The image of GL2(F_q[t]) in GL2(F_q[t]/m), refused by its order
    before anything is generated when it exceeds the group cap."""
    if image_order(R) > _GROUP_CAP:
        raise ValueError(f"the quotient group has more than {_GROUP_CAP} elements")
    return FiniteGroup(R, generated(R, reduction_generators(R)))


def column_orbit(R: QuotRing, gens, v: tuple) -> list:
    """The orbit of the column v under the finite group generated by the
    matrices gens (in a finite group the forward closure is the orbit)."""
    def step(w):
        x, y = w
        return [(R.add(R.mul(a, x), R.mul(b, y)), R.add(R.mul(c, x), R.mul(d, y)))
                for a, b, c, d in gens]
    return closure([v], step)


class SubgroupSpec(Record):
    """A subgroup of a FiniteGroup: generator 4-tuples plus the closed set,
    which is found on first use (a cusp count needs only the generators)."""

    # __dict__ holds the cached members
    __slots__ = ("group", "gens", "__dict__")

    @cached_property
    def members(self) -> frozenset:
        return generated(self.group.R, self.gens)

    @classmethod
    def from_matrices(cls, group: FiniteGroup, R: QuotRing, mats) -> "SubgroupSpec":
        gens = tuple(reduce_mat(R, m) if isinstance(m, Mat2) else tuple(m) for m in mats)
        for g in gens:
            if g not in group.elems:
                raise ValueError(f"generator {g} lies outside the ambient group")
        return cls(group, gens)

    def conjugate(self, g: tuple) -> "SubgroupSpec":
        """The subgroup g H g^-1, generated by the conjugated generators."""
        R = self.group.R
        g_inv = mat_inv_r(R, g)
        return SubgroupSpec(self.group, tuple(mat_mul_r(R, mat_mul_r(R, g, h), g_inv)
                                              for h in self.gens))


class QuotientContext(Record):
    """Ambient data for cusp counting mod a fixed modulus.

    lines: one unimodular column (x, y) of R^2 per F_q*-class, in the order
    the orbit of (1, 0) under the group first meets them; these are the
    points of P^1(R) = G/B.  line_of: over the column codes x |R| + y, the
    index in lines of each unimodular column's class, None for the rest."""

    __slots__ = ("R", "group", "cusp_stab", "lines", "line_of")


_CTX_CACHE: dict[tuple, QuotientContext] = {}


def quotient_context(ring: PolyRing, modulus: Poly) -> QuotientContext:
    key = (id(ring), modulus.monic().coeffs)
    if key not in _CTX_CACHE:
        R = QuotRing(ring, modulus)
        group = reduction_image(R)
        stab = SubgroupSpec.from_matrices(group, R, cusp_stab_generators(R))
        n, lines = R.size, []
        line_of = [None] * (n * n)
        for x, y in column_orbit(R, reduction_generators(R), (1, 0)):
            if line_of[x * n + y] is None:
                # the constants 1, ..., q-1 are the residues with those codes
                for a in range(1, R.field.q):
                    line_of[R.mul(a, x) * n + R.mul(a, y)] = len(lines)
                lines.append((x, y))
        _CTX_CACHE[key] = QuotientContext(R, group, stab, lines, line_of)
    return _CTX_CACHE[key]


def cusp_count(ctx: QuotientContext, hbar: SubgroupSpec) -> int:
    """Number of cusps of the subgroup with reduction hbar: the orbits of
    its generators on the lines of the context.  The scalars F_q* fix every
    line, so they take no part.  Each generator becomes one permutation of
    the line indices, read off the ring's tables."""
    if hbar.group is not ctx.group:
        raise ValueError("the subgroup lies in another quotient context")
    n, lines, line_of = ctx.R.size, ctx.lines, ctx.line_of
    mul, add = ctx.R._mul_tab, ctx.R._add_tab
    perms = []
    for a, b, c, d in dict.fromkeys(hbar.gens):
        ma, mb, mc, md = mul[a], mul[b], mul[c], mul[d]
        perms.append([line_of[add[ma[x]][mb[y]] * n + add[mc[x]][md[y]]]
                      for x, y in lines])
    seen = [0] * len(lines)
    orbits = 0
    for start in range(len(lines)):
        if seen[start]:
            continue
        orbits += 1
        seen[start] = 1
        stack = [start]
        while stack:
            k = stack.pop()
            for perm in perms:
                j = perm[k]
                if not seen[j]:
                    seen[j] = 1
                    stack.append(j)
    return orbits


def cusp_count_from_matrices(ring: PolyRing, modulus: Poly, mats) -> int:
    ctx = quotient_context(ring, modulus)
    return cusp_count(ctx, SubgroupSpec.from_matrices(ctx.group, ctx.R, mats))


def conj_invariance_check(ctx: QuotientContext, hbar: SubgroupSpec) -> bool:
    """Cusp counts agree for every conjugate of hbar inside the ambient group.

    The conjugacy class of hbar is its orbit under conjugation by the
    generators of the ambient group."""
    gens = reduction_generators(ctx.R)
    base = cusp_count(ctx, hbar)
    conjugates = closure([hbar], lambda h: [h.conjugate(g) for g in gens],
                         key=lambda h: h.members)
    return all(cusp_count(ctx, conj) == base for conj in conjugates)
