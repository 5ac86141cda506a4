"""curves: points, class data and group structure of Weierstrass curves.

curves and ffield do the work and polyring none: the point count shows
here, and a polynomial-kernel change must show nothing.  The fields cover
the three ffield arithmetic paths: mod p, XOR (characteristic-2 extensions)
and digit-wise addition (odd extensions).
"""

from __future__ import annotations

import random

import oracle as O
from common import random_curve
from harness import Op

NAME = "curves"
TAIL_PCT = 97.0
CHILD_PROCESSES = False
# field size -> curves per round.  Small fields get three curves each, so a
# round has many operations of similar cost around its median and the
# random draw of one curve moves little.  The tail (p97) is the third
# slowest operation of a round: the enumeration over F_125 or the group
# structure over F_251, F_125 or F_256, depending on the curves drawn.
FIELDS = {13: 3, 31: 3, 61: 3, 127: 1, 251: 1,      # prime
          16: 3, 32: 3, 64: 3, 256: 1,               # characteristic-2 extensions
          9: 3, 27: 3, 81: 1, 125: 1}                # odd extensions


class Workload:
    def __init__(self, seed: int):
        rng = random.Random(f"{NAME}:{seed}")
        self.plan = []
        for q, count in FIELDS.items():
            for _ in range(count):
                coeffs = random_curve(rng, q)
                n, cl2 = O.curve_counts(q, coeffs)
                self.plan.append((q, coeffs, n, cl2))

    def build(self, lib) -> list:
        curves = lib.curves
        ops = []
        for q, coeffs, n, cl2 in self.plan:
            field = lib.ffield.field_of_order(q)
            curve = curves.WeierstrassCurve(field, *(field.el(c) for c in coeffs))
            state = {}
            tag = f"q={q} {coeffs}"

            def enumerate_run(curve=curve, state=state):
                state["points"] = curves.enumerate_points(curve)
                return state["points"]

            def class_run(curve=curve, state=state, q=q):
                points = state["points"]
                return curves.class_data(curves.lpoly_from_count(len(points), q),
                                         curve, points)

            def structure_run(curve=curve, state=state):
                return curves.group_structure(curve, state["points"])

            ops.append(Op(f"enumerate {tag}", enumerate_run, _points_check(q, n)))
            ops.append(Op(f"class data {tag}", class_run, _class_check(q, n, cl2)))
            ops.append(Op(f"group structure {tag}", structure_run,
                          lambda got, n=n, cl2=cl2, q=q:
                          O.group_structure_problem(n, cl2, q, got)))
        return ops


def _points_check(q, n):
    def check(points):
        if len(points) != n:
            return f"{len(points)} points, the oracle counts {n}"
        if (n - q - 1) ** 2 > 4 * q:
            return f"{n} points break the Hasse bound"
        if len({(p.x.code, p.y.code) for p in points[1:]}) != n - 1:
            return "affine points repeat"
        return None
    return check


def _class_check(q, n, cl2):
    l_minus_1 = 2 * q + 2 - n          # L(-1) for L(u) = 1 + (N-q-1)u + qu^2

    def check(data):
        if data.h != n:
            return f"h = {data.h}, expected N = {n}"
        if data.cl2 != cl2:
            return f"cl2 = {data.cl2}, the oracle counts {cl2}"
        if data.cl2 + 2 * data.r != l_minus_1:
            return f"cl2 + 2r = {data.cl2 + 2 * data.r} != L(-1) = {l_minus_1}"
        if (data.ell_eq, data.ell_neq) != (data.cl2, 2 * data.r):
            return "ell_eq/ell_neq do not split L(-1) as cl2 + 2r"
        return None
    return check
