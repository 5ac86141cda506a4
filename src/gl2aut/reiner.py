"""Automorphisms of GL2(F_q[t]) induced by F_q-linear substitutions.

An invertible F_q-linear map phi of t*F_q[t] that moves only finitely
many monomials extends to a group automorphism: constant matrices are
fixed, and an upper triangular [[alpha, a], [0, beta]] maps to
[[alpha, a0 + phi(a - a0)], [0, beta]] where a0 is the constant term of
a.  A general element m is peeled once, as Nagao's normal form peels it
(`nagao.peel`), into m = R * S with R upper triangular and S a product of
transversal letters; then phi(m) = phi(R) * phi(S), and phi(S) is built by
row operations as the letters come off, with no word written out.
"""

from __future__ import annotations

import json
import re
from itertools import repeat

from .ffield import brief
from .matgroup import Mat2
from .nagao import B_SIDE, peel
from .polyring import MAX_DEGREE, Poly, PolyRing, brief_text

# a spec key names the exponent i of t^i in plain decimal, so no two keys
# ("1", "01", " +1 ") can name the same monomial
_INDEX_RE = re.compile(r"[1-9][0-9]*")

# most coefficient operations the inverse check of one spec may make,
# counted from each image's lowest term before it starts.  At the cap the
# spec t^i -> t^i + ... + t^447 loads in about 0.43 s over F_(3^10), whose
# additions are the slowest, and 0.22 s over F_2 (2-vCPU Xeon, Python 3.11)
_CHECK_WORK_CAP = 300_000


class LinearAutoSpec:
    """Finite-support invertible F_q-linear map phi on span{t, t^2, ...}.

    map_images[i] is the image of t^i, a polynomial with zero constant term
    kept as (k, codes): its lowest term is t^k and codes are its coefficient
    codes from t^k on.  inverse_images[i] is that of the stored inverse psi;
    monomials outside a support are fixed.  The constructor checks the pair
    once, on t^i for i in the union of the two supports only, since both
    maps fix every other monomial.  It tests one composition, psi(phi(t^i)) = t^i: both maps
    carry span{t, ..., t^N} into itself, N the largest index or image
    degree, and on a finite-dimensional space a one-sided inverse of a
    linear map is two-sided.  `inverted()` swaps the two checked images and
    checks nothing.
    """

    def __init__(self, ring: PolyRing, map_images: dict[int, Poly],
                 inverse_images: dict[int, Poly]):
        self.ring = ring
        self.map_images = _terms(ring, map_images)
        self.inverse_images = _terms(ring, inverse_images)
        self._check()

    def _check(self):
        support = sorted(self.map_images.keys() | self.inverse_images.keys())
        mapped = [self.map_images.get(i) or (i, (1,)) for i in support]
        # psi(p) touches each coefficient of p from its lowest term once and
        # adds an image from its lowest term for each nonzero one in psi's support
        sizes = {i: len(tail) for i, (_low, tail) in self.inverse_images.items()}
        work = sum(len(tail) + sum(sizes.get(k, 0) for k, c in enumerate(tail, low) if c)
                   for low, tail in mapped)
        if work > _CHECK_WORK_CAP:
            raise ValueError(f"spec check needs {work} coefficient operations, "
                             f"more than {_CHECK_WORK_CAP}")
        inverse = self.inverted()
        for i, (low, tail) in zip(support, mapped):
            out = inverse._substitute(low, tail)
            if out[i:i + 1] != [1] or any(out[:i]) or any(out[i + 1:]):
                raise ValueError(f"stored inverse does not invert the map on t^{i}")

    def apply(self, a: Poly) -> Poly:
        """a0 + phi(a - a0): the constant term a0 is fixed and each
        coefficient above it is substituted, in one pass over a."""
        return self.ring._make(self._substitute(0, a.coeffs))

    def _substitute(self, low: int, coeffs) -> list:
        """The codes of a0 + phi(a - a0) for the a whose coefficient codes
        from t^low on are coeffs, and zero below."""
        f, images = self.ring.field, self.map_images
        add, mul = f.add_i, f.mul_i
        out = [0] * (low + len(coeffs))
        for k, c in enumerate(coeffs, low):
            if not c:
                continue
            img = images.get(k)
            if img is None:
                out[k] = add(out[k], c)
                continue
            lo, tail = img
            hi = lo + len(tail)
            if hi > len(out):
                out += [0] * (hi - len(out))
            out[lo:hi] = map(add, out[lo:hi], map(mul, repeat(c), tail))
        return out

    def inverted(self) -> "LinearAutoSpec":
        spec = object.__new__(LinearAutoSpec)
        spec.ring = self.ring
        spec.map_images, spec.inverse_images = self.inverse_images, self.map_images
        return spec

    def to_json(self) -> dict:
        def dump(images):
            return {str(i): [0] * low + list(tail)
                    for i, (low, tail) in sorted(images.items())}

        return {"map": dump(self.map_images), "inverse": dump(self.inverse_images)}

    @classmethod
    def from_json(cls, ring: PolyRing, data: dict) -> "LinearAutoSpec":
        if not isinstance(data, dict):
            raise ValueError("spec JSON must be an object with 'map' and 'inverse'")

        def load(key):
            if key not in data:
                raise ValueError(f"spec JSON missing key {key!r}")
            images = data[key]
            if not isinstance(images, dict):
                raise ValueError(f"spec {key!r} must be an object from index "
                                 "to coefficient list")
            for i, coeffs in images.items():
                if not (isinstance(i, str) and _INDEX_RE.fullmatch(i)):
                    raise ValueError(f"spec {key!r} index {brief(i)} is not a positive "
                                     "decimal exponent")
                # count digits first: int() refuses past 4300 of them
                if len(i) > len(str(MAX_DEGREE)) or int(i) > MAX_DEGREE:
                    raise ValueError(f"spec {key!r} index {brief_text(i)} exceeds {MAX_DEGREE}")
                # type, not isinstance: a JSON true or false is no code
                if not (isinstance(coeffs, list)
                        and all(type(c) is int for c in coeffs)):
                    raise ValueError(f"spec {key!r} image of t^{i} must be a "
                                     f"list of integer codes, not {brief(coeffs)}")
                if len(coeffs) > MAX_DEGREE + 1:
                    raise ValueError(f"spec {key!r} image of t^{i} has degree "
                                     f"past {MAX_DEGREE}")
            return {int(i): ring.poly(coeffs) for i, coeffs in images.items()}

        return cls(ring, load("map"), load("inverse"))

    @classmethod
    def from_pairs(cls, ring: PolyRing, pairs: dict[int, str],
                   inverse_pairs: dict[int, str]) -> "LinearAutoSpec":
        return cls(ring,
                   {i: ring.parse_element(s) for i, s in pairs.items()},
                   {i: ring.parse_element(s) for i, s in inverse_pairs.items()})

    def __eq__(self, other):
        return (isinstance(other, LinearAutoSpec) and self.ring is other.ring
                and self.map_images == other.map_images
                and self.inverse_images == other.inverse_images)

    def __repr__(self):
        return f"LinearAutoSpec({json.dumps(self.to_json()['map'])})"


def _terms(ring: PolyRing, images: dict[int, Poly]) -> dict[int, tuple[int, tuple]]:
    """Each image of t^i, checked, as (k, codes): its lowest term is t^k and
    codes are its coefficient codes from t^k on."""
    out = {}
    for i, p in images.items():
        i = int(i)
        if i < 1:
            raise ValueError("support indices must be >= 1")
        if p.ring is not ring:
            raise ValueError("image polynomial over the wrong ring")
        if p.is_zero() or p.constant_code() != 0:
            raise ValueError(f"image of t^{i} must be nonzero with zero constant term")
        low = next(k for k, c in enumerate(p.coeffs) if c)
        out[i] = (low, p.coeffs[low:])
    return out


def identity_spec(ring: PolyRing) -> LinearAutoSpec:
    return LinearAutoSpec(ring, {}, {})


def reiner_apply(spec: LinearAutoSpec, m: Mat2) -> Mat2:
    """The substitution automorphism phi on any matrix of GL2(F_q[t]).

    `peel` writes m = R * S, S the product of its transversal letters and
    R = [[alpha, b], [0, beta]], so phi(m) = phi(R) * phi(S) with
    phi(R) = [[alpha, b0 + phi(b - b0)], [0, beta]].  X = phi(S) is built
    from the right, one letter at a time, as it is peeled: phi fixes a G
    letter [[0, 1], [1, x]] and carries a B letter [[1, v], [0, 1]] (v with
    no constant term) to [[1, phi(v)], [0, 1]], and multiplying X on the
    left by either is a row operation.  A B letter sets xa += phi(v)*xc and
    xb += phi(v)*xd; a G letter sets (xa, xb, xc, xd) to
    (xc, xd, xa + x*xc, xb + x*xd).  No word, letter or 2x2 product is made.
    """
    ring = spec.ring
    if m.ring is not ring:
        raise ValueError("matrix ring does not match the spec ring")
    peeled, (alpha, b, beta) = peel(m)
    apply = spec.apply
    xa, xb, xc, xd = ring.one, ring.zero, ring.zero, ring.one
    for side, vx in peeled:
        if side == B_SIDE:
            w = apply(vx)
            xa, xb = xa + w * xc, xb + w * xd
        else:
            xa, xb, xc, xd = xc, xd, xa + xc.scale(vx), xb + xd.scale(vx)
    # apply fixes the constant term b0 and substitutes the rest
    b, alpha, beta = apply(b), alpha.coeffs[0], beta.coeffs[0]
    return Mat2(ring, xa.scale(alpha) + b * xc, xb.scale(alpha) + b * xd,
                xc.scale(beta), xd.scale(beta))


def reiner_inverse(spec: LinearAutoSpec, m: Mat2) -> Mat2:
    return reiner_apply(spec.inverted(), m)


def unipotent_upper(ring: PolyRing, a: Poly) -> Mat2:
    """T(a) = [[1, a], [0, 1]]."""
    return Mat2(ring, ring.one, a, ring.zero, ring.one)


def congruence_member(m: Mat2, modulus: Poly) -> bool:
    """Principal congruence test: det = 1 and m = I mod the modulus."""
    ring = m.ring
    if modulus.deg < 1:
        raise ValueError("modulus must have degree >= 1")
    if m.det() != ring.one:
        return False
    ident = Mat2.identity(ring)
    return all((x - y) % modulus == ring.zero for x, y in
               zip(m.entries(), ident.entries()))


# most members unipotent_fiber lists; a larger fiber is refused
_FIBER_CAP = 4096


def unipotent_fiber(spec: LinearAutoSpec, modulus: Poly, bound: int) -> list[Poly]:
    """All a with deg a <= bound whose unipotent T(a) is carried into the
    principal congruence subgroup of the modulus by the inverse substitution,
    in integer-code order.

    The image of T(a) is T(a0 + phi^{-1}(a - a0)), which has determinant 1,
    so a is a member exactly when a0 + phi^{-1}(a - a0) = 0 mod modulus.
    That map is F_q-linear, so the members are its kernel, found by
    elimination on the images of 1, t, ..., t^bound in degree order.  Each
    t^f whose image depends on those below it gives a kernel vector b_f:
    t^f less a combination of the monomials whose images did not, so b_f
    vanishes at every other such degree.  The member sum x_f b_f is then
    listed in integer-code order when the x_f are, the highest f first.  A
    fiber of more than _FIBER_CAP members is refused, at once when the
    dimension bound + 1 - deg(modulus) already exceeds it.
    """
    ring = spec.ring
    if bound < 0:
        raise ValueError("degree bound must be >= 0")
    if bound > MAX_DEGREE:
        raise ValueError(f"degree bound {bound} exceeds {MAX_DEGREE}")
    if modulus.deg < 1:
        raise ValueError("modulus must have degree >= 1")
    field, n = ring.field, modulus.deg
    too_big = ValueError(f"degree bound {bound} over F_{field.q} gives a fiber of "
                         f"more than {_FIBER_CAP} polynomials")
    # the image has dimension at most n, so the kernel at least bound + 1 - n
    if field.q ** max(bound + 1 - n, 0) > _FIBER_CAP:
        raise too_big
    sub, mul, inv = field.sub_i, field.mul_i, field.inv_i
    inverse = spec.inverted()
    # a row is the image of t^k mod the modulus (n codes) followed by the
    # combination of 1, ..., t^bound it is the image of; echelon maps the
    # lowest nonzero image position of a row to the row, scaled to 1 there
    echelon, kernel = {}, []
    for k in range(bound + 1):
        image = (inverse.apply(ring.monomial(1, k)) % modulus).coeffs
        row = [*image, *repeat(0, n - len(image) + k), 1, *repeat(0, bound - k)]
        for j in range(n):
            if not row[j]:
                continue
            if j not in echelon:
                echelon[j] = list(map(mul, repeat(inv(row[j])), row))
                break
            row[j:] = map(sub, row[j:], map(mul, repeat(row[j]), echelon[j][j:]))
        else:
            kernel.append(row[n:])
    if field.q ** len(kernel) > _FIBER_CAP:
        raise too_big
    members = [ring.zero]
    for vec in kernel:
        b = ring._make(vec)
        members = [m + b.scale(x) for x in range(field.q) for m in members]
    return members
