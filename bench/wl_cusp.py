"""cusp: cusp counts H\\G/B in finite quotients of GL2(F_q[t]).

cosets does nearly all the work.  The moduli sit on both sides of the
library's 2048-element multiplication-table limit and include a non-prime
field, so a change that helps one path at the cost of the other shows.
Every modulus starts without a cached quotient context, as every
`gl2aut cusp-count` process does, so the context build is timed.
"""

from __future__ import annotations

import random

import oracle as O
from common import make_mat, small_letters
from harness import Op

NAME = "cusp"
TAIL_PCT = 97.0
CHILD_PROCESSES = False
# (q, modulus codes), |G| from 6 to 3072.  q=2, m=t^3 (|G| = 384), q=4, m=t
# (180) and q=5, m=t (480) take the |G|^2 multiplication-table path;
# q=2, m=t^4 (3072) is above the 2048-element limit and takes the other.
# Moduli whose table takes seconds to build (q=3, m=t^2: |G| = 1296, 2.7 s)
# are left out: the reference speed is sampled between operations, and one
# operation that long cannot be scaled reliably.
MODULI = ((2, (0, 1)), (2, (0, 0, 1)), (2, (0, 1, 1)), (2, (1, 1, 1)), (3, (0, 1)),
          (4, (0, 1)), (2, (0, 0, 0, 1)), (5, (0, 1)), (2, (0, 0, 0, 0, 1)))
# Moduli with |G| up to SMALL_G get one random subgroup and its conjugate
# plus conj_invariance_check, which visits every element of G; larger ones
# get RANDOM_SUBGROUPS, with 1 and 2 generators in turn.  The counts on the
# larger moduli are then the middle of a round, so the median is a count.
SMALL_G = 60
RANDOM_SUBGROUPS = 4


def _unip(c, i):
    return ((1,), (0,) * i + (c,), (), (1,))


def _lower(c, i):
    return ((1,), (), (0,) * i + (c,), (1,))


def _diag(a, d):
    return ((a,), (), (), (d,))


def subgroups(rng: random.Random, q: int, m, randoms: int) -> list:
    """[(label, generators)] for one modulus; generators are matrices over
    F_q[t] with constant nonzero determinant, as code tuples."""
    F = O.ofield(q)
    deg = len(m) - 1
    units = range(2, q)
    stab = ([_diag(u, 1) for u in units] + [_diag(1, u) for u in units]
            + [_unip(c, i) for i in range(deg) for c in range(1, q)])
    borel = ([_diag(u, 1) for u in units] + [_diag(1, u) for u in units]
             + [_unip(c, 0) for c in range(1, q)])
    full = stab + [_lower(c, i) for i in range(deg) for c in range(1, q)]
    g = O.mprod(F, small_letters(rng, F, 3))
    g_inv = O.minv(F, g)

    def conj(gens):
        return [O.mmul(F, O.mmul(F, g, h), g_inv) for h in gens]
    groups = [("trivial", []), ("stabilizer", stab), ("borel", borel), ("full", full),
              ("borel conjugated", conj(borel))]
    for k in range(randoms):
        gens = [O.mprod(F, small_letters(rng, F, 3)) for _ in range(1 + k % 2)]
        groups += [(f"random #{k}", gens), (f"random #{k} conjugated", conj(gens))]
    return groups


class Workload:
    def __init__(self, seed: int):
        rng = random.Random(f"{NAME}:{seed}")
        self.plan = []
        for q, m in MODULI:
            order = O.gl2_image_order(q, m)
            groups = subgroups(rng, q, m, 1 if order <= SMALL_G else RANDOM_SUBGROUPS)
            expected = {label: O.boundary_orbit_count(q, m, gens) for label, gens in groups}
            # closed forms and invariance, so the orbit oracle is itself checked
            assert expected["trivial"] == order // O.cusp_stab_order(q, m), (q, m)
            assert expected["full"] == 1, (q, m)
            for label in expected:
                if label.endswith(" conjugated"):
                    assert expected[label] == expected[label[:-11]], (q, m, label)
            self.plan.append((q, m, order, groups, expected))

    def build(self, lib) -> list:
        cosets = lib.cosets
        ops = []
        for q, m, order, groups, expected in self.plan:
            ring = lib.polyring.poly_ring(lib.ffield.field_of_order(q))
            modulus = ring.poly(m)
            for k, (label, gens) in enumerate(groups):
                mats = [make_mat(lib, ring, g) for g in gens]
                ops.append(Op(f"cusp q={q} m={m} {label}",
                              _count_run(cosets, ring, modulus, mats),
                              _equals(expected[label]),
                              before=_drop_contexts(cosets) if k == 0 else None))
            if order <= SMALL_G:
                label, gens = groups[-2]
                mats = [make_mat(lib, ring, g) for g in gens]
                ops.append(Op(f"conj invariance q={q} m={m} {label}",
                              _conj_run(cosets, ring, modulus, mats), _equals(True)))
        return ops


def _count_run(cosets, ring, modulus, mats):
    return lambda: cosets.cusp_count_from_matrices(ring, modulus, mats)


def _conj_run(cosets, ring, modulus, mats):
    def run():
        ctx = cosets.quotient_context(ring, modulus)
        hbar = cosets.SubgroupSpec.from_matrices(ctx.group, ctx.R, mats)
        return cosets.conj_invariance_check(ctx, hbar)
    return run


def _drop_contexts(cosets):
    cache = getattr(cosets, "_CTX_CACHE", None)
    return cache.clear if cache is not None else None


def _equals(want):
    return lambda got: None if got == want else f"got {got}, expected {want}"
