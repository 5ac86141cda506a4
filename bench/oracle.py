"""Independent reference arithmetic for checking gl2aut's outputs.

Nothing here imports gl2aut.  Field elements are integer codes with the
convention the library documents (base-p digits, constant digit first;
F_{p^n} is taken modulo the irreducible monic degree-n polynomial with the
smallest code), but every algorithm is written afresh and, where it can be,
is a different algorithm from the one under test:

* irreducibility by Ben-Or's gcd test instead of trial division;
* point counts by root counting per x instead of scanning all (x, y);
* cusp counts as H-orbits on unimodular columns modulo F_q* instead of
  double cosets in the finite group;
* Reiner images from the homomorphism property over the letters an input
  was built from, instead of through the amalgam normal form.

``self_test()`` checks the oracles on hand-worked cases.
"""

from __future__ import annotations

import math
from fractions import Fraction


def prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            n, m = 0, q
            while m % p == 0:
                m //= p
                n += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, n
    raise ValueError(f"{q} is not a prime power")


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# F_p[x] on digit lists, used to build extension fields


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _pp_mod(a, m, p):
    a = list(a)
    inv = pow(m[-1], p - 2, p)
    while len(a) >= len(m):
        f = a[-1] * inv % p
        s = len(a) - len(m)
        for i, c in enumerate(m):
            a[s + i] = (a[s + i] - f * c) % p
        _trim(a)
    return a


def _pp_sub(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def _pp_gcd(a, b, p):
    while b:
        a, b = b, _pp_mod(a, b, p)
    return a


def _pp_powmod(base, e, m, p):
    out, base = [1], _pp_mod(base, m, p)
    while e:
        if e & 1:
            out = _pp_mod(_pp_mul(out, base, p), m, p)
        base = _pp_mod(_pp_mul(base, base, p), m, p)
        e >>= 1
    return out


def _irreducible(f, p) -> bool:
    """Ben-Or: f is irreducible iff gcd(x^(p^i) - x, f) = 1 for i <= deg/2."""
    n = len(f) - 1
    xp = [0, 1]
    for _ in range(n // 2):
        xp = _pp_powmod(xp, p, f, p)
        if len(_pp_gcd(f, _pp_sub(xp, [0, 1], p), p)) > 1:
            return False
    return True


class OField:
    """F_q on integer codes, with add/neg/mul/inv tables."""

    def __init__(self, q: int):
        p, n = prime_power(q)
        self.p, self.n, self.q = p, n, q
        if n == 1:
            self.modulus = None
            self.add_t = None
            self.inv_t = [0] + [pow(a, p - 2, p) for a in range(1, p)]
            return
        self.digits = [[(k // p ** i) % p for i in range(n)] for k in range(q)]
        for k in range(q):
            f = self.digits[k] + [1]
            if _irreducible(f, p):
                self.modulus = f
                break

        def enc(d):
            return sum(c * p ** i for i, c in enumerate(d))

        def raw_mul(a, b):
            return enc(_pp_mod(_pp_mul(_trim(list(self.digits[a])),
                                       _trim(list(self.digits[b])), p),
                               self.modulus, p))

        # a primitive element: order q-1, tested on the prime factors of q-1
        for g in range(2, q):
            if all(self._pow_raw(raw_mul, g, (q - 1) // r) != 1
                   for r in prime_factors(q - 1)):
                break
        exp = [1]
        for _ in range(q - 2):
            exp.append(raw_mul(exp[-1], g))
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self.exp, self.log = exp, log
        self.inv_t = [0] + [exp[(q - 1 - log[a]) % (q - 1)] for a in range(1, q)]
        self.add_t = [[enc([(x + y) % p for x, y in zip(self.digits[a], self.digits[b])])
                       for b in range(q)] for a in range(q)]
        self.neg_t = [enc([(-x) % p for x in self.digits[a]]) for a in range(q)]

    @staticmethod
    def _pow_raw(mul, a, e):
        out = 1
        while e:
            if e & 1:
                out = mul(out, a)
            a = mul(a, a)
            e >>= 1
        return out

    def add(self, a, b):
        return (a + b) % self.p if self.add_t is None else self.add_t[a][b]

    def neg(self, a):
        return (-a) % self.p if self.add_t is None else self.neg_t[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.add_t is None:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.inv_t[a]

    def to_digits(self, a) -> list:
        return [(a // self.p ** i) % self.p for i in range(self.n)]


_FIELDS: dict[int, OField] = {}


def ofield(q: int) -> OField:
    if q not in _FIELDS:
        _FIELDS[q] = OField(q)
    return _FIELDS[q]


# ---------------------------------------------------------------------------
# F_q[t] on code tuples (constant first, no trailing zeros) and 2x2 matrices


def ptrim(a) -> tuple:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def padd(F, a, b):
    n = max(len(a), len(b))
    return ptrim(F.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
                 for i in range(n))


def pneg(F, a):
    return tuple(F.neg(c) for c in a)


def psub(F, a, b):
    return padd(F, a, pneg(F, b))


def pmul(F, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return ptrim(out)


def pscale(F, c, a):
    return ptrim(F.mul(c, x) for x in a)


def pdivmod(F, a, b):
    a = list(a)
    inv = F.inv(b[-1])
    quo = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        f = F.mul(a[-1], inv)
        s = len(a) - len(b)
        quo[s] = f
        for i, c in enumerate(b):
            a[s + i] = F.sub(a[s + i], F.mul(f, c))
        a = list(ptrim(a))
    return ptrim(quo), tuple(a)


def pmod(F, a, b):
    return pdivmod(F, a, b)[1]


def pmonic(F, a):
    return pscale(F, F.inv(a[-1]), a) if a else a


def pgcd(F, a, b):
    while b:
        a, b = b, pmod(F, a, b)
    return pmonic(F, a)


def mmul(F, x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (padd(F, pmul(F, a, e), pmul(F, b, g)), padd(F, pmul(F, a, f), pmul(F, b, h)),
            padd(F, pmul(F, c, e), pmul(F, d, g)), padd(F, pmul(F, c, f), pmul(F, d, h)))


def mprod(F, mats):
    out = ((1,), (), (), (1,))
    for m in mats:
        out = mmul(F, out, m)
    return out


def mdet(F, x):
    a, b, c, d = x
    return psub(F, pmul(F, a, d), pmul(F, b, c))


def minv(F, x):
    """Inverse of a matrix over F_q[t] whose determinant is a nonzero constant."""
    det = mdet(F, x)
    if len(det) != 1:
        raise ValueError("determinant is not a unit")
    u = F.inv(det[0])
    a, b, c, d = x
    return (pscale(F, u, d), pscale(F, u, pneg(F, b)), pscale(F, u, pneg(F, c)),
            pscale(F, u, a))


IDENTITY = ((1,), (), (), (1,))


def mreduce(F, x, m):
    return tuple(pmod(F, e, m) for e in x)


# ---------------------------------------------------------------------------
# the amalgam normal form: shape of a canonical word


def canonical_word_problem(F, word, target) -> str | None:
    """None when ``word`` (a list of (side, matrix)) is the canonical Nagao
    word of ``target``, otherwise a description of what is wrong.

    The canonical word is unique, so the checks are: sides alternate; every
    letter after the first is a transversal letter [[0,1],[1,x]] (x in F_q)
    or [[1,v],[0,1]] (v != 0, v(0) = 0); the first letter lies in its factor
    and outside J = B2(F_q) unless it is a lone G letter; and the product of
    the letters is the target matrix.
    """
    def const(e):
        return len(e) <= 1

    for i, (side, mat) in enumerate(word):
        a, b, c, d = mat
        if i and word[i - 1][0] == side:
            return f"letters {i - 1} and {i} are both on side {side}"
        det = mdet(F, mat)
        if len(det) != 1:
            return f"letter {i} is not invertible over F_q[t]"
        if side == "G":
            if not all(const(e) for e in mat):
                return f"G letter {i} is not constant"
            if i and not (a == () and b == (1,) and c == (1,)):
                return f"G letter {i} is not a transversal letter [[0,1],[1,x]]"
            if i == 0 and len(word) > 1 and c == ():
                return "first G letter lies in J"
        elif side == "B":
            if c != () or not const(a) or not const(d):
                return f"B letter {i} is not upper triangular with constant diagonal"
            if i and not (a == (1,) and d == (1,) and b and b[0] == 0):
                return f"B letter {i} is not a transversal letter [[1,v],[0,1]]"
            if i == 0 and len(b) <= 1:
                return "first B letter lies in J"
        else:
            return f"unknown side {side!r}"
    if mprod(F, [m for _s, m in word]) != target:
        return "the letters do not multiply to the matrix"
    return None


# ---------------------------------------------------------------------------
# Reiner substitution automorphisms


def phi_tail(F, images: dict, tail) -> tuple:
    """The linear map t^i -> images[i] (identity off the support) on a tail."""
    out = ()
    for i in range(1, len(tail)):
        c = tail[i]
        if c:
            img = images.get(i, (0,) * i + (1,))
            out = padd(F, out, pscale(F, c, img))
    return out


def phi_letter(F, images: dict, mat) -> tuple:
    """Image of a constant or constant-diagonal upper triangular matrix."""
    a, b, c, d = mat
    if all(len(e) <= 1 for e in mat):
        return mat
    if c != ():
        raise ValueError("letter is neither constant nor upper triangular")
    a0 = b[:1]
    return (a, padd(F, ptrim(a0), phi_tail(F, images, (0,) + b[1:])), (), d)


def phi_matrix(F, images: dict, letters) -> tuple:
    """phi of the product of letters, by the homomorphism property."""
    return mprod(F, [phi_letter(F, images, m) for m in letters])


def linear_map_images(mat_cols) -> dict:
    """{i: image of t^i} for the matrix acting on span{t, ..., t^k}."""
    return {i + 1: ptrim((0,) + tuple(col)) for i, col in enumerate(mat_cols)}


def invert_square(F, rows):
    """Inverse of an invertible square matrix over F (Gauss-Jordan)."""
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = F.inv(aug[col][col])
        aug[col] = [F.mul(inv, x) for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# cusp counts as orbits on the boundary


def irreducible_factorization(F, m) -> list[tuple[tuple, int]]:
    """[(monic irreducible P, e)] with m = unit * prod P^e, by trial division."""
    m = pmonic(F, m)
    out = []
    deg = 1
    while len(m) > 1:
        if 2 * deg > len(m) - 1:
            out.append((m, 1))
            break
        for code in range(F.q ** deg):
            cand = ptrim([(code // F.q ** i) % F.q for i in range(deg)] + [1])
            e = 0
            while len(m) > 1:
                quo, rem = pdivmod(F, m, cand)
                if rem:
                    break
                m, e = quo, e + 1
            if e:
                out.append((cand, e))
        deg += 1
    merged: dict = {}
    for P, e in out:
        merged[P] = merged.get(P, 0) + e
    return sorted(merged.items())


def gl2_image_order(q: int, m) -> int:
    """|image of GL2(F_q[t]) in GL2(F_q[t]/m)| =
    (q-1) * prod Q(Q^2-1) Q^(3(e-1)) over m = prod P^e, Q = q^deg P."""
    F = ofield(q)
    order = q - 1
    for P, e in irreducible_factorization(F, m):
        Q = q ** (len(P) - 1)
        order *= Q * (Q * Q - 1) * Q ** (3 * (e - 1))
    return order


def cusp_stab_order(q: int, m) -> int:
    return (q - 1) ** 2 * q ** (len(m) - 1)


def boundary_orbit_count(q: int, m, gens) -> int:
    """Number of H-orbits on unimodular columns (a, c) in (F_q[t]/m)^2 modulo
    F_q*, H generated by the given matrices over F_q[t]; this is |H\\G/B|."""
    F = ofield(q)
    d = len(m) - 1
    residues = [ptrim([(k // q ** i) % q for i in range(d)]) for k in range(q ** d)]
    code = {r: k for k, r in enumerate(residues)}

    def canon(a, c):
        best = None
        for u in range(1, q):
            key = (code[pscale(F, u, a)], code[pscale(F, u, c)])
            if best is None or key < best:
                best = key
        return best

    reps = {}
    for a in residues:
        for c in residues:
            if len(pgcd(F, pgcd(F, a, c), m)) == 1:
                reps.setdefault(canon(a, c), (a, c))
    parent = {k: k for k in reps}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    gens_r = [mreduce(F, g, m) for g in gens]
    for key, (a, c) in reps.items():
        for ga, gb, gc, gd in gens_r:
            na = pmod(F, padd(F, pmul(F, ga, a), pmul(F, gb, c)), m)
            nc = pmod(F, padd(F, pmul(F, gc, a), pmul(F, gd, c)), m)
            r1, r2 = find(key), find(canon(na, nc))
            if r1 != r2:
                parent[r1] = r2
    return len({find(k) for k in reps})


def unimodular_class_count(q: int, m) -> int:
    """|G/B| = #unimodular columns / (q - 1)."""
    return boundary_orbit_count(q, m, [])


# ---------------------------------------------------------------------------
# Weierstrass curves


class CurveTables:
    """Per-field root counts: roots[(b, c)] = #{y : y^2 + b y = c}."""

    def __init__(self, F: OField):
        self.F = F
        roots: dict = {}
        for b in range(F.q):
            for y in range(F.q):
                key = (b, F.add(F.mul(y, y), F.mul(b, y)))
                roots[key] = roots.get(key, 0) + 1
        self.roots = roots


_CURVE_TABLES: dict[int, CurveTables] = {}


def curve_tables(q: int) -> CurveTables:
    if q not in _CURVE_TABLES:
        _CURVE_TABLES[q] = CurveTables(ofield(q))
    return _CURVE_TABLES[q]


def curve_counts(q: int, coeffs) -> tuple[int, int]:
    """(N, cl2) for y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6.

    N counts the roots in y for each x; cl2 counts the identity plus the
    affine points with P = -P, i.e. 2y + a1 x + a3 = 0.
    """
    F = ofield(q)
    roots = curve_tables(q).roots
    a1, a2, a3, a4, a6 = coeffs
    n, two_tors = 1, 1
    two = F.add(1, 1) if F.p != 2 else 0
    for x in range(q):
        b = F.add(F.mul(a1, x), a3)
        xx = F.mul(x, x)
        c = F.add(F.add(F.mul(xx, x), F.mul(a2, xx)), F.add(F.mul(a4, x), a6))
        n += roots.get((b, c), 0)
        if F.p == 2:
            # 2y = 0 always; P = -P needs b = 0, and y^2 = c has one root
            two_tors += 1 if b == 0 else 0
        else:
            y = F.mul(F.neg(b), F.inv(two))
            if F.add(F.mul(y, y), F.mul(b, y)) == c:
                two_tors += 1
    return n, two_tors


def discriminant(q: int, coeffs) -> int:
    F = ofield(q)
    a1, a2, a3, a4, a6 = coeffs
    add, mul, neg = F.add, F.mul, F.neg

    def k(n):
        out = 0
        for _ in range(n):
            out = add(out, 1)
        return out

    b2 = add(mul(a1, a1), mul(k(4), a2))
    b4 = add(mul(k(2), a4), mul(a1, a3))
    b6 = add(mul(a3, a3), mul(k(4), a6))
    b8 = add(add(add(mul(mul(a1, a1), a6), mul(mul(k(4), a2), a6)),
                 neg(mul(mul(a1, a3), a4))),
             add(mul(mul(a2, a3), a3), neg(mul(a4, a4))))
    terms = [neg(mul(mul(b2, b2), b8)), neg(mul(k(8), mul(mul(b4, b4), b4))),
             neg(mul(k(27), mul(b6, b6))), mul(k(9), mul(mul(b2, b4), b6))]
    out = 0
    for t in terms:
        out = add(out, t)
    return out


def group_structure_problem(n: int, cl2: int, q: int, factors) -> str | None:
    """Properties invariant factors of E(F_q) must have, or what is wrong."""
    factors = list(factors)
    if math.prod(factors) != n:
        return f"factors {factors} do not multiply to {n}"
    if any(f < 2 for f in factors):
        return f"factors {factors} contain a trivial factor"
    if any(factors[i + 1] % factors[i] for i in range(len(factors) - 1)):
        return f"factors {factors} do not divide each other in turn"
    if len(factors) > 2:
        return f"an elliptic curve group has at most two factors, got {factors}"
    if len(factors) == 2 and (q - 1) % factors[0]:
        return f"first factor {factors[0]} does not divide q - 1 = {q - 1}"
    if math.prod(math.gcd(2, f) for f in factors) != cl2:
        return f"factors {factors} give the wrong 2-torsion size (expected {cl2})"
    return None


# ---------------------------------------------------------------------------
# small closed forms


def admissible_classes(q: int) -> list[int]:
    m = q * q - 1
    return [a for a in range(1, m) if math.gcd(a, m) == 1 and (a - 1) % (q - 1) == 0]


def wreath_order(r: int, q: int) -> int:
    return math.factorial(r) * len(admissible_classes(q)) ** r


def dihedral_indices() -> dict:
    """Indices in D_inf = <a, b> (reflections of Z at 0 and at 1/2).

    A subgroup generated by the reflections at centres c1 != c2 has index
    2|c1 - c2|: its translations are 2(c1 - c2) Z.  Conjugating a by the
    translation ab (k -> k - 1) moves its centre to -1, b by it to -1/2,
    and b a b is the reflection at 1.
    """
    half = Fraction(1, 2)
    return {"index": int(2 * abs(Fraction(-1) - half)),
            "inner_index": int(2 * abs(Fraction(-1) - Fraction(-1, 2))),
            "single_factor_index": int(2 * abs(Fraction(1) - half))}


def stab_order(text: str) -> int:
    """Order of a quotient-graph stabilizer from its descriptor text."""
    if text == "Trivial":
        return 1
    name, _, rest = text.partition("(")
    params = dict(kv.split("=") for kv in rest.rstrip(")").split(","))
    q = int(params["q"])
    n = int(params.get("n", 0))
    return {"GL2": (q * q - 1) * (q * q - q), "CyclicQsqMinus1": q * q - 1,
            "UnipotentDim": q ** n, "BType": (q - 1) ** 2 * q ** n}[name]


def graph_problem(doc: dict, cusps: int, depth: int) -> str | None:
    """Shape checks on an exported quotient graph."""
    orders = {v["id"]: stab_order(v["stab"]) for v in doc["vertices"]}
    if len(orders) != len(doc["vertices"]):
        return "vertex ids repeat"
    adj = {v: [] for v in orders}
    for e in doc["edges"]:
        if e["u"] not in orders or e["v"] not in orders:
            return f"edge {e} leaves the vertex set"
        o = stab_order(e["stab"])
        if orders[e["u"]] % o or orders[e["v"]] % o:
            return f"edge stabilizer of {e} is not a subgroup of its ends"
        adj[e["u"]].append(e["v"])
        adj[e["v"]].append(e["u"])
    if len(doc["rays"]) != cusps:
        return f"{len(doc['rays'])} rays, expected {cusps}"
    seen, stack = set(), [next(iter(adj))]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(adj[v])
    if len(seen) != len(adj):
        return "graph is not connected"
    for r in doc["rays"]:
        if r["depth"] != depth or (depth > 1 and len(adj.get(r["at"], ())) != 1):
            return f"ray {r} is not cut at depth {depth} on a leaf"
    return None


# ---------------------------------------------------------------------------
# free products for the ex1cusp declaration: factor 0 is GL2(F_2[t]),
# factors 1 and 2 are cyclic of order 3


def free_reduce(F, letters) -> tuple:
    stack = []
    for idx, elem in letters:
        if (idx == 0 and elem == IDENTITY) or (idx != 0 and elem % 3 == 0):
            continue
        if stack and stack[-1][0] == idx:
            prev = stack.pop()[1]
            merged = mmul(F, prev, elem) if idx == 0 else (prev + elem) % 3
            if not ((idx == 0 and merged == IDENTITY) or (idx != 0 and merged == 0)):
                stack.append((idx, merged))
        else:
            stack.append((idx, elem if idx == 0 else elem % 3))
    return tuple(stack)


def partial_conj(F, word, source, target, h) -> tuple:
    """Conjugate every target letter by h from the source factor."""
    h_inv = minv(F, h) if source == 0 else (-h) % 3
    out = []
    for idx, elem in word:
        if idx == target:
            out.extend([(source, h), (idx, elem), (source, h_inv)])
        else:
            out.append((idx, elem))
    return free_reduce(F, out)


# ---------------------------------------------------------------------------
# hand-worked cases


def self_test() -> None:
    """Raise AssertionError if an oracle disagrees with a hand-worked case."""
    F2, F4 = ofield(2), ofield(4)
    assert F4.modulus == [1, 1, 1]                    # x^2 + x + 1
    assert F4.mul(2, 2) == 3 and F4.mul(2, 3) == 1    # x*x = x+1, x(x+1) = 1
    assert ofield(8).modulus == [1, 1, 0, 1]          # x^3 + x + 1
    assert ofield(9).modulus == [1, 0, 1]               # x^2 + 1
    # q = 2, m = t: G = GL2(F_2) of order 6, B of order 2
    t = (0, 1)
    assert gl2_image_order(2, t) == 6
    assert unimodular_class_count(2, t) == 3                       # trivial
    assert boundary_orbit_count(2, t, [((1,), (1,), (), (1,))]) == 2  # Borel
    full = [((1,), (1,), (), (1,)), ((1,), (), (1,), (1,))]
    assert boundary_orbit_count(2, t, full) == 1                   # full
    # Borel over F_4 mod t: diagonal units and the unipotents, 2 cusps
    borel4 = ([((u,), (), (), (1,)) for u in (2, 3)]
              + [((1,), (c,), (), (1,)) for c in (1, 2, 3)])
    assert boundary_orbit_count(4, t, borel4) == 2
    # the closed form for q = 2, m = t^3 and q = 5, m = t^2
    assert gl2_image_order(2, (0, 0, 0, 1)) == 384
    assert gl2_image_order(5, (0, 0, 1)) == 60000
    assert unimodular_class_count(5, (0, 0, 1)) == 60000 // cusp_stab_order(5, (0, 0, 1))
    # y^2 + y = x^3 over F_2: (0,0), (0,1) and infinity; L(-1) = 2q+2-N = 3
    n, cl2 = curve_counts(2, (0, 0, 1, 0, 0))
    assert (n, cl2) == (3, 1) and 2 * 2 + 2 - n == 3
    assert discriminant(2, (0, 0, 1, 0, 0)) != 0
    assert discriminant(3, (0, 0, 0, 0, 0)) == 0
    # admissible classes and the wreath order
    assert admissible_classes(5) == [1, 5, 13, 17]
    assert wreath_order(2, 2) == 8
    assert dihedral_indices() == {"index": 3, "inner_index": 1,
                                  "single_factor_index": 1}
    # the documented normal form of [[1,0],[t,1]] over F_2
    w = [("G", ((), (1,), (1,), ())), ("B", ((1,), t, (), (1,))),
         ("G", ((), (1,), (1,), ()))]
    assert canonical_word_problem(F2, w, ((1,), (), t, (1,))) is None
    assert canonical_word_problem(F2, w[:2], ((1,), (), t, (1,))) is not None
    # t -> t^2, t^2 -> t swaps the upper entries t and t^2
    swap = {1: (0, 0, 1), 2: (0, 1)}
    assert phi_letter(F2, swap, ((1,), (1, 1), (), (1,))) == ((1,), (1, 0, 1), (), (1,))
