"""Seeded input generation on coefficient codes, and the conversions between
codes and the library's objects.

Inputs are generated as code tuples by the benchmark and only then turned
into library objects, so every input is known to the oracles exactly and no
input goes through the library's text grammar unless a workload means it to.
"""

from __future__ import annotations

import random

import oracle as O

W = ((), (1,), (1,), ())          # [[0,1],[1,0]]


def poly_codes(p) -> tuple:
    return tuple(p.coeff_code(i) for i in range(p.deg + 1))


def mat_codes(m) -> tuple:
    return tuple(poly_codes(e) for e in (m.a, m.b, m.c, m.d))


def make_mat(lib, ring, codes):
    return lib.matgroup.Mat2(ring, *(ring.poly(e) for e in codes))


def rand_poly(rng: random.Random, q: int, deg: int) -> tuple:
    """A polynomial of exactly the given degree."""
    return tuple(rng.randrange(q) for _ in range(deg)) + (rng.randrange(1, q),)


def rand_const_gl2(rng: random.Random, F) -> tuple:
    while True:
        m = tuple(O.ptrim((rng.randrange(F.q),)) for _ in range(4))
        if O.mdet(F, m):
            return m


def rand_upper(rng: random.Random, F, deg: int) -> tuple:
    """Upper triangular, unit diagonal entries, upper entry of degree deg."""
    return ((rng.randrange(1, F.q),), rand_poly(rng, F.q, deg), (),
            (rng.randrange(1, F.q),))


def degree_letters(rng: random.Random, F, parts) -> list:
    """Letters C0 U(p1) W U(p2) W ... U(pk) C1 with deg p_i = parts[i] >= 1.

    The product has entries of degree exactly sum(parts), as in a continued
    fraction.  Every letter is constant or upper triangular with constant
    diagonal, so Reiner images follow letter by letter.  The shape is fixed
    and only the coefficients are random, so the work per input hardly
    depends on the seed."""
    letters = [rand_const_gl2(rng, F)]
    for i, d in enumerate(parts):
        if i:
            letters.append(W)
        letters.append(((1,), rand_poly(rng, F.q, d), (), (1,)))
    letters.append(rand_const_gl2(rng, F))
    return letters


def small_letters(rng: random.Random, F, deg: int) -> list:
    """C W U(p1) W U(p2) with deg p1 = deg and deg p2 = 1: generators and
    conjugators of entry degree deg + 1."""
    return degree_letters(rng, F, (deg, 1))[:-1]


def random_curve(rng: random.Random, q: int) -> tuple:
    """Coefficient codes (a1, a2, a3, a4, a6) of a nonsingular curve over F_q."""
    while True:
        coeffs = tuple(rng.randrange(q) for _ in range(5))
        if O.discriminant(q, coeffs):
            return coeffs


def rand_linear_spec(rng: random.Random, F, k: int):
    """A random invertible map of span{t..t^k}: (images, inverse images)."""
    while True:
        rows = [[rng.randrange(F.q) for _ in range(k)] for _ in range(k)]
        try:
            inv = O.invert_square(F, rows)
        except StopIteration:
            continue
        cols = [[rows[r][c] for r in range(k)] for c in range(k)]
        inv_cols = [[inv[r][c] for r in range(k)] for c in range(k)]
        return O.linear_map_images(cols), O.linear_map_images(inv_cols)


def poly_text(codes) -> str:
    """The CLI's polynomial text for a prime field: "2t^3+t+1"."""
    terms = []
    for i in range(len(codes) - 1, -1, -1):
        c = codes[i]
        if c == 0:
            continue
        head = "" if (c == 1 and i > 0) else str(c)
        terms.append(head if i == 0 else f"{head}t" if i == 1 else f"{head}t^{i}")
    return "+".join(terms) or "0"


def mat_text(m) -> str:
    a, b, c, d = (poly_text(e) for e in m)
    return f"[[{a},{b}],[{c},{d}]]"


def parse_poly_text(s: str, p: int) -> tuple:
    """Inverse of poly_text over F_p (coefficients as plain integers)."""
    if s == "0":
        return ()
    coeffs: dict = {}
    for term in s.split("+"):
        if "t" in term:
            head, _, power = term.partition("t")
            k = int(power[1:]) if power else 1
            c = int(head) if head else 1
        else:
            k, c = 0, int(term)
        coeffs[k] = (coeffs.get(k, 0) + c) % p
    return O.ptrim(coeffs.get(i, 0) for i in range(max(coeffs) + 1))


def parse_mat_text(s: str, p: int) -> tuple:
    rows = s.strip()[2:-2].split("],[")
    cells = [c for row in rows for c in row.split(",")]
    if len(cells) != 4:
        raise ValueError(f"bad matrix text {s!r}")
    return tuple(parse_poly_text(c, p) for c in cells)


def verified_once(check, digest):
    """Run the full oracle check on outputs until one passes; later outputs
    with the same digest as a verified one pass without the oracle."""
    seen = set()

    def wrapped(out):
        key = digest(out)
        if key in seen:
            return None
        problem = check(out)
        if problem is None:
            seen.add(key)
        return problem
    return wrapped
