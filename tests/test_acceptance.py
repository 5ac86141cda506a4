"""Acceptance suite: eleven exact criteria, one test per criterion.

Each test carries its own wall-clock budget; the terminal summary prints one
pass/fail line per criterion (see conftest.py).
"""

import math
import random

import helpers
from helpers import budget
from gl2aut import nagao
from gl2aut.cosets import (SubgroupSpec, conj_invariance_check, cusp_count,
                           quotient_context)
from gl2aut.curves import (class_data, curve_from_text, ell_count,
                           enumerate_points, lpoly_from_count)
from gl2aut.ffield import (aut_rel_count, aut_rel_enumerate, field_of_order,
                           quad_ext)
from gl2aut.matgroup import (Mat2, ProjPoint, elliptic_stab, fixed_points,
                             matrix_order, mobius)
from gl2aut.reiner import (LinearAutoSpec, congruence_member, identity_spec,
                           reiner_apply, reiner_inverse, unipotent_fiber,
                           unipotent_upper)
from gl2aut.words import (FiniteCyclic, PartialConj, build_ex1cusp,
                          build_ex3cusps, aut_cusp_orbit_report,
                          compose_autos, cs_wreath_check,
                          dihedral_cohopf_demo, inner_auto, word_reduce)
from gl2aut.graphs import (build_graph_ex1, build_graph_ex3, isolated_cyclic,
                           validate_serre)


PRIME_POWERS_LE_49 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                      29, 31, 32, 37, 41, 43, 47, 49]


def test_c01_admissible_class_count_matches_brute_force():
    with budget(1):
        for q in PRIME_POWERS_LE_49:
            n = q * q - 1
            brute = [a for a in range(1, n)
                     if math.gcd(a, n) == 1 and (a - 1) % (q - 1) == 0]
            assert aut_rel_enumerate(q) == brute
            assert aut_rel_count(q) == len(brute)


def test_c02_elliptic_counting_identities():
    with budget(1):
        c1 = curve_from_text("q=2;y2+y=x3")
        pts1 = enumerate_points(c1)
        lp1 = lpoly_from_count(len(pts1), 2)
        assert lp1.coeffs == (1, 0, 2)
        assert ell_count(lp1) == lp1(-1) == 3
        d1 = class_data(lp1, c1, pts1)
        assert (d1.h, d1.cl2, d1.r) == (3, 1, 1)
        assert d1.cl2 + 2 * d1.r == lp1(-1)

        c2 = curve_from_text("q=2;y2+y=x3+x+1")
        pts2 = enumerate_points(c2)
        lp2 = lpoly_from_count(len(pts2), 2)
        assert lp2.coeffs == (1, -2, 2)
        assert ell_count(lp2) == lp2(-1) == 5
        d2 = class_data(lp2, c2, pts2)
        assert (d2.h, d2.cl2, d2.r) == (1, 1, 2)
        assert d2.cl2 + 2 * d2.r == lp2(-1)


def test_c03_wreath_closure_orders():
    with budget(5):
        rep = cs_wreath_check(2, 2)
        assert rep.order == 8 == math.factorial(2) * 2 ** 2
        assert rep.order == rep.expected_order
        assert rep.permutations_full
        assert rep.ok

        rep3 = cs_wreath_check(3, 2)
        assert rep3.order == 48 == rep3.expected_order
        assert rep3.permutations_full
        assert rep3.ok


def test_c04_normal_form_roundtrips_on_1000_matrices_per_ring():
    with budget(30):
        for q in (2, 3):
            ring = helpers.ring_of(q)
            rng = random.Random(900 + q)
            for _ in range(1000):
                m = helpers.rand_gl2_poly(ring, rng, 8)
                w = nagao.decompose(m)
                assert nagao.evaluate(ring, w) == m
            for _ in range(1000):
                letters = helpers.rand_nagao_letters(ring, rng)
                normal = nagao.normalize(ring, letters)
                assert nagao.decompose(nagao.evaluate(ring, letters)) == normal


def test_c05_linear_substitution_laws_on_500_pairs_per_spec():
    with budget(60):
        ring = helpers.ring_of(2)
        specs = [
            LinearAutoSpec.from_pairs(ring, {1: "t^2", 2: "t"},
                                      {1: "t^2", 2: "t"}),
            LinearAutoSpec.from_pairs(ring, {1: "t^3", 3: "t"},
                                      {1: "t^3", 3: "t"}),
            LinearAutoSpec.from_pairs(ring, {2: "t^2+t"}, {2: "t^2+t"}),
        ]
        assert len({repr(s) for s in specs}) == 3
        consts = [Mat2(ring, *(ring.const(c) for c in codes))
                  for codes in [(1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1),
                                (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 0)]]
        rng = random.Random(505)
        for spec in specs:
            for m in consts:
                assert not m.det().is_zero()
                assert reiner_apply(spec, m) == m
            for _ in range(500):
                m1 = helpers.rand_gl2_poly(ring, rng, 6)
                m2 = helpers.rand_gl2_poly(ring, rng, 6)
                assert reiner_apply(spec, m1 * m2) == \
                    reiner_apply(spec, m1) * reiner_apply(spec, m2)
                assert reiner_inverse(spec, reiner_apply(spec, m1)) == m1
                tri = helpers.rand_upper_triangular(ring, rng, 6)
                assert reiner_apply(spec, tri).is_upper_triangular()


def test_c06_unipotent_fibers_against_direct_definition():
    with budget(10):
        ring = helpers.ring_of(2)
        specs = [
            identity_spec(ring),
            LinearAutoSpec.from_pairs(ring, {1: "t^2", 2: "t"},
                                      {1: "t^2", 2: "t"}),
            LinearAutoSpec.from_pairs(ring, {1: "t^3", 3: "t"},
                                      {1: "t^3", 3: "t"}),
            LinearAutoSpec.from_pairs(ring, {2: "t^2+t"}, {2: "t^2+t"}),
        ]
        moduli = [ring.t, ring.poly((0, 0, 1)), ring.poly((1, 1, 1))]
        for spec in specs:
            for modulus in moduli:
                # the closed form against the definition through reiner_apply
                got = unipotent_fiber(spec, modulus, 4)
                want = [a for a in ring.polys_of_degree_at_most(4)
                        if congruence_member(
                            reiner_apply(spec.inverted(),
                                         unipotent_upper(ring, a)), modulus)]
                assert got == want
        tsq = ring.poly((0, 0, 1))
        fibers = [tuple(p.text() for p in unipotent_fiber(s, tsq, 4))
                  for s in specs]
        assert len(set(fibers)) == len(fibers)


def test_c07_cusp_counts_and_exhaustive_conjugation_invariance():
    with budget(60):
        ring = helpers.ring_of(2)
        ctx = quotient_context(ring, ring.t)
        trivial = SubgroupSpec.from_matrices(ctx.group, ctx.R, [])
        assert cusp_count(ctx, trivial) == 3
        assert cusp_count(ctx, ctx.cusp_stab) == 2
        full = helpers.subgroup_from_members(ctx.group, ctx.group.elems)
        assert cusp_count(ctx, full) == 1

        for modulus in ((0, 1), (0, 0, 1)):
            c = quotient_context(ring, ring.poly(modulus))
            for members in helpers.subgroup_lattice(2, modulus):
                hbar = helpers.subgroup_from_members(c.group, members)
                assert conj_invariance_check(c, hbar)


def test_c08_quadratic_stabilizer_generators():
    with budget(1):
        for q in (2, 3, 4, 5):
            field = field_of_order(q)
            ext = quad_ext(field)
            eps = ext.generator
            eps_bar = ext.conj(eps)
            stab = elliptic_stab(field, eps)
            n = q * q - 1
            assert matrix_order(stab.g) == n
            powers = {(stab.g ** k).text() for k in range(n)}
            assert len(powers) == n
            fps = fixed_points(stab.g, ext)
            assert {pt.x for pt in fps} == {eps, eps_bar}
            assert not any(pt.infinite for pt in fps)
            p_eps = ProjPoint.of(ext, eps)
            p_bar = ProjPoint.of(ext, eps_bar)
            assert mobius(stab.g, p_eps) == p_eps
            assert mobius(stab.g, p_bar) == p_bar
            assert mobius(stab.g_swap, p_eps) == p_bar
            assert mobius(stab.g_swap, p_bar) == p_eps


def test_c09_dihedral_partial_conjugation_index_three():
    with budget(5):
        rep = dihedral_cohopf_demo()
        assert rep.index == 3
        assert rep.injective_up_to == 12


def test_c10_example_coherence():
    with budget(1):
        decl1 = build_ex1cusp()
        assert len(decl1.factors) == 3
        assert all(isinstance(f.kind, FiniteCyclic) and f.kind.order == 3
                   for f in decl1.factors[1:])

        g1 = build_graph_ex1()
        curve = curve_from_text("q=2;y2+y=x3+x+1")
        pts = enumerate_points(curve)
        data = class_data(lpoly_from_count(len(pts), 2), curve, pts)
        assert len(isolated_cyclic(g1)) == 2 == data.r

        report = aut_cusp_orbit_report(build_ex3cusps())
        assert len(report.orbits) == 2

        assert len(validate_serre(g1).rays) == 1
        assert len(validate_serre(build_graph_ex3()).rays) == 3


def test_c11_partial_conjugation_replacement_identity():
    with budget(30):
        decl = build_ex1cusp()
        ring = decl.factors[0].kind.ring
        rng = random.Random(1111)
        words = [helpers.rand_word(decl, rng, 8) for _ in range(100)]
        for _ in range(20):
            h = helpers.rand_gl2_poly(ring, rng, 2)
            h_inv = h.inverse()
            gens = [PartialConj(0, 1, h_inv), PartialConj(0, 2, h_inv)]
            gens.extend(inner_auto(decl, 0, h).gens)
            composite = compose_autos(decl, gens)
            for w in words:
                img = composite.apply(w)
                expected = word_reduce(
                    decl, [(i, e if i else h * e * h_inv)
                           for i, e in w])
                assert img == expected
                for (i, e), (j, f) in zip(w, img):
                    assert i == j
                    if i:
                        assert f == e  # spike letters are fixed
                    else:
                        assert f == h * e * h_inv
