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
under G is every unimodular column of R^2, so G/B is the set of unimodular
columns up to F_q* and a cusp is an orbit of H and the scalars on them.

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
    """F_q[t]/(m) with residues encoded as ints (base-q coefficient codes).

    Refused at once when the image of GL2(F_q[t]) would exceed the group
    cap: that image has (q-1)|SL2(F_q[t]/m)| >= (q-1) q^d (q^2-1)^d
    elements for deg m = d, since |SL2(F_q[t]/m)| = q^(3d) times the product
    of (1 - q^(-2 deg p)) over the primes p dividing m.  Every ring that
    passes has at most 64 residues, so addition, negation and multiplication
    are tables."""

    def __init__(self, ring: PolyRing, modulus: Poly):
        if modulus.deg < 1:
            raise ValueError("modulus must have degree >= 1")
        q, d = ring.field.q, modulus.deg
        # the bound is at least 2^d, so a long modulus is refused before the powers
        if d >= _GROUP_CAP.bit_length() or (q - 1) * q ** d * (q * q - 1) ** d > _GROUP_CAP:
            raise RuntimeError(f"the quotient group has more than {_GROUP_CAP} elements")
        self.ring = ring
        self.field = ring.field
        self.modulus = modulus.monic()
        self.deg = d
        self.size = q ** d
        residues = [ring.from_code(c) for c in range(self.size)]
        self._unit = [self._coprime(p) for p in residues]
        self.one = 1
        self.zero = 0
        self._mul_tab = [[self.reduce_poly(x * y) for y in residues] for x in residues]
        self._add_tab = [[(x + y).encode() for y in residues] for x in residues]
        self._neg = [row.index(0) for row in self._add_tab]
        self._inv = {}
        for a in range(self.size):
            if self._unit[a]:
                self._inv[a] = self._mul_tab[a].index(1)

    def _coprime(self, p: Poly) -> bool:
        return self.ring.gcd(p, self.modulus).deg == 0 if not p.is_zero() else False

    def reduce_poly(self, p: Poly) -> int:
        return (p % self.modulus).encode()

    def add(self, a: int, b: int) -> int:
        return self._add_tab[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul_tab[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def is_unit(self, a: int) -> bool:
        return self._unit[a]

    def inv(self, a: int) -> int:
        if a not in self._inv:
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


def reduce_mat(R: QuotRing, m: Mat2) -> tuple:
    """Reduce a unit-determinant matrix over F_q[t] mod the modulus."""
    det = m.det()
    if not det.is_constant() or det.is_zero():
        raise ValueError(f"{m.text()} is not invertible over F_q[t]")
    return tuple(R.reduce_poly(e) for e in m.entries())


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
    """|G| = (q-1) |SL2(R)|, where |SL2(R)| is the product over the prime
    powers p^e exactly dividing m of q^(3 deg p e - 2 deg p) (q^(2 deg p) - 1).
    The primes come from trial division of m by the monic polynomials in
    order of degree, so every divisor found is irreducible."""
    ring, q = R.ring, R.field.q
    m, order, k = R.modulus, q - 1, 1
    while m.deg > 0:
        for code in range(q ** k):
            p = ring.from_code(code) + ring.monomial(1, k)
            e = 0
            while (m % p).is_zero():
                m, e = m // p, e + 1
            if e:
                order *= q ** (3 * k * e - 2 * k) * (q ** (2 * k) - 1)
        k += 1
    return order


def reduction_image(R: QuotRing) -> FiniteGroup:
    """The image of GL2(F_q[t]) in GL2(F_q[t]/m), refused by its order
    before anything is generated when it exceeds the group cap."""
    if image_order(R) > _GROUP_CAP:
        raise RuntimeError(f"the quotient group has more than {_GROUP_CAP} elements")
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

    @property
    def order(self) -> int:
        return len(self.members)

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
    """Ambient data for cusp counting mod a fixed modulus; mutable, so it
    has no hash."""

    # boundary: the unimodular columns of R^2, the orbit of (1, 0) under the group
    __slots__ = ("R", "group", "cusp_stab", "boundary")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


_CTX_CACHE: dict[tuple, QuotientContext] = {}


def quotient_context(ring: PolyRing, modulus: Poly) -> QuotientContext:
    key = (id(ring), modulus.monic().coeffs)
    if key not in _CTX_CACHE:
        R = QuotRing(ring, modulus)
        group = reduction_image(R)
        stab = SubgroupSpec.from_matrices(group, R, cusp_stab_generators(R))
        boundary = column_orbit(R, reduction_generators(R), (1, 0))
        _CTX_CACHE[key] = QuotientContext(R, group, stab, boundary)
    return _CTX_CACHE[key]


def cusp_count(ctx: QuotientContext, hbar: SubgroupSpec) -> int:
    """Number of cusps of the subgroup with reduction hbar: the orbits of
    its generators and the scalars F_q* on the boundary columns."""
    R = ctx.R
    gens = list(hbar.gens) + [(a, 0, 0, a) for a in range(2, R.field.q)]
    orbits = 0
    seen = set()
    for v in ctx.boundary:
        if v not in seen:
            orbits += 1
            seen.update(column_orbit(R, gens, v))
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
