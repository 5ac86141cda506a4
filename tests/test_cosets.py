import random

import pytest

import helpers
from gl2aut import cosets
from gl2aut.cosets import (QuotRing, SubgroupSpec, conj_invariance_check,
                           cusp_count, cusp_count_from_matrices, image_order,
                           mat_mul_r, quotient_context, reduction_generators,
                           reduction_image)
from gl2aut.matgroup import mat_parse
from helpers import full_gl2, subgroup_from_members


def ctx_mod_t():
    R = helpers.ring_of(2)
    return quotient_context(R, R.t)


def ctx_mod_tsq():
    R = helpers.ring_of(2)
    return quotient_context(R, R.poly((0, 0, 1)))


def test_quotient_ring_sizes():
    R = helpers.ring_of(2)
    assert QuotRing(R, R.t).size == 2
    assert QuotRing(R, R.poly((0, 0, 1))).size == 4
    assert QuotRing(R, R.poly((1, 1, 1))).size == 4


def test_quotient_ring_rejects_constant_modulus():
    R = helpers.ring_of(2)
    with pytest.raises(ValueError):
        QuotRing(R, R.one)


def test_quotient_ring_refuses_groups_above_the_cap_before_building():
    # for a prime modulus of degree 1 the bound (q-1) q (q^2-1) is |G| itself:
    # 78 336 for q = 17 and 123 120 for q = 19
    assert QuotRing(helpers.ring_of(17), helpers.ring_of(17).t).size == 17
    with pytest.raises(RuntimeError, match="more than 100000 elements"):
        QuotRing(helpers.ring_of(19), helpers.ring_of(19).t)
    # over F_2 the bound is 6^d: t^6 passes (|R| = 64, the largest ring
    # admitted), t^7 is refused at once, with or without extra factors
    R = helpers.ring_of(2)
    assert QuotRing(R, R.monomial(1, 6)).size == 64
    for modulus in (R.monomial(1, 7), R.monomial(1, 8), R.poly((1, 1, 0, 0, 0, 0, 0, 1)),
                    R.monomial(1, 10 ** 6)):
        with helpers.budget(1), pytest.raises(RuntimeError, match="more than 100000"):
            QuotRing(R, modulus)


def _oracle_moduli(q):
    """Over F_2, ..., F_5 every monic modulus with at most 32 residues, and
    over F_2 also t^6 and t^6+t+1, rings of 64 residues, the largest the
    cap admits; over the larger fields t + alpha for every alpha."""
    ring = helpers.ring_of(q)
    if q > 5:
        return [ring.t + ring.const(a) for a in range(q)]
    moduli = [ring.from_code(code) + ring.monomial(1, d)
              for d in range(1, 6) if q ** d <= 32 for code in range(q ** d)]
    if q == 2:
        moduli += [ring.monomial(1, 6), ring.poly((1, 1, 0, 0, 0, 0, 1))]
    return moduli


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 17])
def test_quot_ring_tables_match_the_division_oracle(q):
    ring = helpers.ring_of(q)
    rng = random.Random(q)
    for m in _oracle_moduli(q):
        R, want = QuotRing(ring, m), helpers.DivisionQuotRing(ring, m)
        assert R._add_tab == want.add_tab, m
        assert R._mul_tab == want.mul_tab, m
        assert R._neg == want.neg, m
        assert R._inv == want.inv, m
        polys = [ring.zero] + [helpers.rand_poly(ring, rng, rng.randrange(3 * m.deg + 1))
                               for _ in range(20)]
        assert [R.reduce_poly(p) for p in polys] == [want.reduce_poly(p) for p in polys], m


def test_quot_ring_tables_build_within_budget_on_the_largest_rings():
    # 64 residues over F_2 is the most the cap admits; 25 and 17 are the
    # most over F_5 and F_17
    for q, modulus, size in ((2, "t^6", 64), (2, "t^6+t+1", 64), (5, "t^2+2", 25),
                             (17, "t+3", 17)):
        ring = helpers.ring_of(q)
        with helpers.budget(1):
            R = QuotRing(ring, ring.parse_element(modulus))
        assert R.size == size


def test_reduction_image_orders():
    ctx = ctx_mod_t()
    assert len(ctx.group) == 6  # all of GL2(F_2)
    ctx2 = ctx_mod_tsq()
    Q2 = ctx2.R
    assert len(full_gl2(Q2)) == 96
    assert len(ctx2.group) == 48
    # every element of the image has determinant reducing from a constant unit
    one = Q2.reduce_poly(helpers.ring_of(2).one)
    from gl2aut.cosets import mat_det_r
    assert all(mat_det_r(Q2, g) == one for g in ctx2.group.elems)


def test_image_cusp_stab_is_the_triangular_image():
    ctx = ctx_mod_t()
    stab = ctx.cusp_stab
    assert len(stab.members) == 2
    # mod t^2 the diagonal entries still reduce from constant units, so only
    # the upper entry ranges over the residue ring
    ctx2 = ctx_mod_tsq()
    assert len(ctx2.cusp_stab.members) == 4


def test_benchmark_cusp_counts_mod_t():
    ctx = ctx_mod_t()
    G = ctx.group
    triv = SubgroupSpec.from_matrices(G, ctx.R, [])
    assert cusp_count(ctx, triv) == 3
    assert cusp_count(ctx, ctx.cusp_stab) == 2
    full = subgroup_from_members(G, G.elems)
    assert cusp_count(ctx, full) == 1


def test_cusp_count_from_matrices_agrees():
    R = helpers.ring_of(2)
    mats = [mat_parse(R, "[[1,1],[0,1]]")]
    got = cusp_count_from_matrices(R, R.t, mats)
    ctx = ctx_mod_t()
    hbar = SubgroupSpec.from_matrices(ctx.group, ctx.R, mats)
    assert got == cusp_count(ctx, hbar) == 2


def test_cusp_count_matches_the_double_coset_sweep_on_every_subgroup():
    for q, modulus in ((2, (0, 1)), (2, (0, 0, 1)), (3, (0, 1))):
        ring = helpers.ring_of(q)
        ctx = quotient_context(ring, ring.poly(modulus))
        G = ctx.group
        B = ctx.cusp_stab
        for members in helpers.subgroup_lattice(q, modulus):
            hbar = subgroup_from_members(G, members)
            assert cusp_count(ctx, hbar) == helpers.double_coset_count(G, hbar, B), \
                (q, modulus, len(members))
        # trivial x B double cosets are right B-cosets; full x B is one class
        triv = SubgroupSpec.from_matrices(G, ctx.R, [])
        full = subgroup_from_members(G, G.elems)
        assert cusp_count(ctx, triv) == helpers.double_coset_count(G, triv, B) \
            == len(G) // len(B.members)
        assert helpers.double_coset_count(G, B, triv) == len(G) // len(B.members)
        assert cusp_count(ctx, full) == helpers.double_coset_count(G, full, B) == 1


@pytest.mark.parametrize("q", [4, 7, 8, 9])
def test_cusp_count_matches_the_double_coset_sweep_mod_t(q):
    # the presets, then a random cyclic subgroup of G and one of B, each with
    # a random conjugate.  The sweep's cost grows with the generators, so it
    # takes B and G from a few: mod t the residues are F_q, and B is made by
    # a generator of F_q* on either diagonal entry and the unipotents of an
    # F_p-basis of F_q, G by those and the transposed unipotents.
    ring = helpers.ring_of(q)
    ctx = quotient_context(ring, ring.t)
    G, B = ctx.group, ctx.cusp_stab
    field, g = ring.field, ring.field.generator.code
    basis = [field.p ** k for k in range(field.n)]
    b_gens = ((g, 0, 0, 1), (1, 0, 0, g)) + tuple((1, c, 0, 1) for c in basis)
    small_b = SubgroupSpec(G, b_gens)
    small_g = SubgroupSpec(G, b_gens + tuple((1, 0, c, 1) for c in basis))
    assert small_b.members == B.members and small_g.members == G.elems
    trivial = SubgroupSpec(G, ())
    cases = [(trivial, trivial), (B, small_b),
             (SubgroupSpec(G, tuple(reduction_generators(ctx.R))), small_g)]
    rng = random.Random(q)
    elems = sorted(G.elems)
    for pool in (elems, sorted(B.members)):
        h = SubgroupSpec(G, (rng.choice(pool),))
        cases += [(h, h), (h.conjugate(rng.choice(elems)),) * 2]
    for h, same in cases:
        assert cusp_count(ctx, h) == helpers.double_coset_count(G, same, small_b), \
            (q, h.gens)
    # mod t the boundary is P^1(F_q): q + 1 cusps for the trivial subgroup
    assert cusp_count(ctx, trivial) == q + 1


def _monic_divisors(ring, m):
    out = []
    for deg in range(m.deg + 1):
        for code in range(ring.field.q ** deg):
            d = ring.from_code(code) + ring.monomial(1, deg)
            if (m % d).is_zero():
                out.append(d)
    return out


def _unit_classes(ring, g) -> int:
    """|(F_q[t]/g)* / F_q*|, by counting the residues prime to g; 1 for g = 1."""
    if g.deg == 0:
        return 1
    units = sum(1 for code in range(ring.field.q ** g.deg)
                if helpers.poly_gcd(ring.from_code(code), g).deg == 0
                and not ring.from_code(code).is_zero())
    return units // (ring.field.q - 1)


GAMMA0_MODULI = [
    (2, "t"), (2, "t^2"), (2, "t^3"), (2, "t^4"), (2, "t^2+t"), (2, "t^2+t+1"),
    (2, "t^3+t"), (3, "t"), (3, "t^2"), (3, "t^3"), (3, "t^2+1"), (3, "t^2+t"),
    (4, "t"), (5, "t"), (7, "t")]


@pytest.mark.parametrize("q, modulus", GAMMA0_MODULI)
def test_image_order_formula_matches_the_generated_group(q, modulus):
    ring = helpers.ring_of(q)
    ctx = quotient_context(ring, ring.parse_element(modulus))
    assert image_order(ctx.R) == len(ctx.group)


def test_reduction_image_refuses_by_exact_order_before_generating():
    # QuotRing admits t^6 over F_2 by its degree bound 6^6 = 46 656, but
    # |G| = 2^16 * 3 = 196 608 is past the cap
    ring = helpers.ring_of(2)
    R = QuotRing(ring, ring.monomial(1, 6))
    assert image_order(R) == 196_608
    with helpers.budget(0.2), pytest.raises(RuntimeError, match="more than 100000"):
        reduction_image(R)


@pytest.mark.parametrize("q, modulus", GAMMA0_MODULI)
def test_gamma0_cusp_count_matches_gekeler_formula(q, modulus):
    """Gamma_0(m), the matrices upper triangular mod m, has
    sum over monic d | m of |(A / gcd(d, m/d))* / F_q*| cusps, A = F_q[t]
    (Gekeler, Drinfeld Modular Curves, LNM 1231, 1986): the function-field
    analogue of sum phi(gcd(d, N/d)).  Its image is generated by
    diag(u, u^-1) for u in R*, diag(alpha, 1) for alpha in F_q* and the
    upper unipotents (1, t^i; 0, 1)."""
    ring = helpers.ring_of(q)
    m = ring.parse_element(modulus)
    ctx = quotient_context(ring, m)
    R = ctx.R
    gens = ([(u, 0, 0, R.inv(u)) for u in range(R.size) if R.is_unit(u)]
            + [(alpha, 0, 0, 1) for alpha in range(1, q)]
            + [(1, R.reduce_poly(ring.monomial(1, i)), 0, 1) for i in range(m.deg)])
    gamma0 = SubgroupSpec.from_matrices(ctx.group, R, gens)
    want = sum(_unit_classes(ring, helpers.poly_gcd(d, m // d)) for d in _monic_divisors(ring, m))
    assert cusp_count(ctx, gamma0) == want


@pytest.mark.parametrize("q, modulus", [(2, "t^3"), (2, "t^2+t"), (2, "t^3+t"), (4, "t")])
def test_boundary_is_the_first_columns_of_the_group(q, modulus):
    ring = helpers.ring_of(q)
    ctx = quotient_context(ring, ring.parse_element(modulus))
    G, n = ctx.group, ctx.R.size
    first = {(a, c) for a, _b, c, _d in G.elems}
    assert len(ctx.lines) == len(set(ctx.lines)) and set(ctx.lines) <= first
    assert ctx.lines[0] == (1, 0)
    # the first columns are the lines' scalar multiples, and nothing else has a line
    assert {ctx.line_of[a * n + c] for a, c in first} == set(range(len(ctx.lines)))
    assert sum(k is not None for k in ctx.line_of) == len(first) == (q - 1) * len(ctx.lines)
    # |B| = (q-1)^2 |R|: F_q* diagonal, any upper entry
    assert len(ctx.lines) == len(G) // ((q - 1) ** 2 * n)


LINE_MODULI = [(q, "t") for q in (2, 3, 4, 5, 7, 8, 9)] + [
    (2, "t^2"), (2, "t^2+t"), (2, "t^2+t+1"), (3, "t^2"), (3, "t^2+1"), (3, "t^2+t"),
    (2, "t^3"), (2, "t^3+t"), (2, "t^3+t+1"), (2, "t^3+t^2+t+1")]


@pytest.mark.parametrize("q, modulus", LINE_MODULI)
def test_lines_index_every_unimodular_column_once(q, modulus):
    ring = helpers.ring_of(q)
    m = ring.parse_element(modulus)
    ctx = quotient_context(ring, m)
    R, n = ctx.R, ctx.R.size
    # (x, y) is unimodular when x, y and m have no common factor
    for x in range(n):
        for y in range(n):
            common = helpers.poly_gcd(ring.from_code(x), ring.from_code(y))
            unimodular = helpers.poly_gcd(common, m).deg == 0
            assert (ctx.line_of[x * n + y] is not None) == unimodular, (x, y)
    # each line is its representative's q - 1 multiples, and no other column
    sizes = [0] * len(ctx.lines)
    for k in ctx.line_of:
        if k is not None:
            sizes[k] += 1
    assert sizes == [q - 1] * len(ctx.lines)
    for k, (x, y) in enumerate(ctx.lines):
        assert all(ctx.line_of[R.mul(a, x) * n + R.mul(a, y)] == k for a in range(1, q))
    # G acts transitively on P^1(R) = G/B
    assert len(ctx.lines) == image_order(R) // len(ctx.cusp_stab.members)


def test_cusp_count_ignores_repeated_scalar_and_identity_generators():
    rng = random.Random(19)
    for q, modulus in ((2, "t^3"), (3, "t^2+1"), (4, "t"), (5, "t")):
        ring = helpers.ring_of(q)
        ctx = quotient_context(ring, ring.parse_element(modulus))
        G = ctx.group
        elems = sorted(G.elems)
        scalars = [(a, 0, 0, a) for a in range(1, q)]
        for size in (1, 2, 3):
            gens = tuple(rng.choice(elems) for _ in range(size))
            want = cusp_count(ctx, SubgroupSpec(G, gens))
            for more in (gens[:1], (rng.choice(scalars),), ((1, 0, 0, 1),)):
                assert cusp_count(ctx, SubgroupSpec(G, gens + more)) == want, (q, gens, more)


# the moduli of the cusp benchmark workload, as (q, modulus codes)
CUSP_WORKLOAD_MODULI = [(2, (0, 1)), (2, (0, 0, 1)), (2, (0, 1, 1)), (2, (1, 1, 1)),
                        (3, (0, 1)), (4, (0, 1)), (2, (0, 0, 0, 1)), (5, (0, 1)),
                        (2, (0, 0, 0, 0, 1))]


@pytest.mark.parametrize("q, modulus", CUSP_WORKLOAD_MODULI)
def test_cli_presets_match_the_double_coset_sweep(q, modulus):
    ring = helpers.ring_of(q)
    ctx = quotient_context(ring, ring.poly(modulus))
    G, B = ctx.group, ctx.cusp_stab
    trivial = SubgroupSpec(G, ())
    full = SubgroupSpec(G, tuple(reduction_generators(ctx.R)))
    assert cusp_count(ctx, trivial) == len(G) // len(B.members)
    assert cusp_count(ctx, B) == helpers.double_coset_count(G, B, B)
    assert cusp_count(ctx, full) == 1


def test_cusp_count_refuses_a_subgroup_of_another_context():
    ctx, other = ctx_mod_tsq(), ctx_mod_t()
    hbar = SubgroupSpec.from_matrices(other.group, other.R,
                                      [mat_parse(helpers.ring_of(2), "[[1,1],[0,1]]")])
    with pytest.raises(ValueError, match="another quotient context"):
        cusp_count(ctx, hbar)


def test_subgroup_closure_and_conjugation():
    ctx = ctx_mod_t()
    R2 = ctx.R
    flip = mat_parse(helpers.ring_of(2), "[[0,1],[1,0]]")
    sub = SubgroupSpec.from_matrices(ctx.group, R2, [flip])
    assert len(sub.members) == 2
    for g in ctx.group.elems:
        conj = sub.conjugate(g)
        assert len(conj.members) == 2
        assert cusp_count(ctx, conj) == cusp_count(ctx, sub)


def test_group_cap_admits_exactly_cap_elements(monkeypatch):
    # |G| = 48 for q = 2, m = t^2
    Q = QuotRing(helpers.ring_of(2), helpers.ring_of(2).poly((0, 0, 1)))
    monkeypatch.setattr(cosets, "_GROUP_CAP", 48)
    assert len(cosets.reduction_image(Q)) == 48
    monkeypatch.setattr(cosets, "_GROUP_CAP", 47)
    with pytest.raises(RuntimeError, match="more than 47 elements"):
        cosets.reduction_image(Q)


def test_subgroup_generator_outside_ambient_group_is_rejected():
    ctx = ctx_mod_tsq()
    R = helpers.ring_of(2)
    # determinant reduces to the unit 1 + t, which is outside the image
    bad = mat_parse(R, "[[1,0],[0,t+1]]")
    with pytest.raises(ValueError):
        SubgroupSpec.from_matrices(ctx.group, ctx.R, [bad])


def test_generator_is_checked_over_f_q_t_not_on_its_residues():
    # det = t^2 + 1 reduces to 1 mod t^2, but is no unit of F_2[t]
    ctx = ctx_mod_tsq()
    bad = mat_parse(helpers.ring_of(2), "[[1,0],[0,t^2+1]]")
    with pytest.raises(ValueError, match="not invertible over F_q\\[t\\]"):
        SubgroupSpec.from_matrices(ctx.group, ctx.R, [bad])


def test_all_subgroups_mod_t():
    ctx = ctx_mod_t()
    subs = helpers.subgroup_lattice(2, (0, 1))
    assert len(subs) == 6
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 3, 6]
    for members in subs:
        hbar = subgroup_from_members(ctx.group, members)
        assert conj_invariance_check(ctx, hbar)


def test_subgroup_count_mod_tsq():
    ctx = ctx_mod_tsq()
    subs = helpers.subgroup_lattice(2, (0, 0, 1))
    assert len(subs) == 98
    orders = {len(s) for s in subs}
    assert orders <= {1, 2, 3, 4, 6, 8, 12, 16, 24, 48}
    assert {1, 48} <= orders


def test_cusp_count_monotone_under_inclusion():
    # a larger subgroup can only merge classes
    ctx = ctx_mod_tsq()
    subs = helpers.subgroup_lattice(2, (0, 0, 1))
    counts = {members: cusp_count(ctx, subgroup_from_members(ctx.group, members))
              for members in subs}
    for a in subs:
        for b in subs:
            if a < b:
                assert counts[a] >= counts[b]


@pytest.mark.parametrize("q, modulus", [(2, (0, 1)), (2, (0, 0, 1)), (3, (0, 1))])
def test_tuple_subgroups_are_closed_and_conjugate_by_brute_force(q, modulus):
    ring = helpers.ring_of(q)
    ctx = quotient_context(ring, ring.poly(modulus))
    G, R = ctx.group, ctx.R
    ident = (1, 0, 0, 1)
    # inverses found by search, not by the adjugate formula
    inverse = {g: next(x for x in G.elems if mat_mul_r(R, g, x) == ident)
               for g in G.elems}
    for members in helpers.subgroup_lattice(q, modulus):
        assert ident in members
        assert all(mat_mul_r(R, x, y) in members for x in members for y in members)
        sub = subgroup_from_members(G, members)
        assert sub.members == members
        for g in G.elems:
            want = {mat_mul_r(R, mat_mul_r(R, g, h), inverse[g]) for h in members}
            assert sub.conjugate(g).members == want
