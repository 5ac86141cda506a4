#!/usr/bin/env python3
"""Compare unipotent congruence fibers across Reiner automorphisms.

Every invertible F_q-linear transformation of the additive group of
polynomials with zero constant term induces an automorphism of
GL2(F_q[t]) that fixes constant matrices (a Reiner automorphism).
Pulling the principal congruence subgroup mod m back through such an
automorphism and intersecting with the upper unipotent matrices
[[1, a], [0, 1]] gives a fiber of admissible entries a.  The script
prints these fibers for a few linear maps and moduli, double-checking
each member against the direct matrix-level definition, and shows that
distinct maps are separated by their fibers.

Usage:
    python3 scripts/fiber_explorer.py              # F_2, bound 4
    python3 scripts/fiber_explorer.py -q 3 -b 3    # F_3, degree bound 3
"""

import argparse
import itertools

from gl2aut.ffield import field_of_order
from gl2aut.polyring import poly_ring
from gl2aut.reiner import (LinearAutoSpec, congruence_member, identity_spec,
                           reiner_apply, unipotent_fiber, unipotent_upper)


def specs_for(ring):
    """A handful of invertible tail-linear maps over the given field."""
    named = [("identity", identity_spec(ring))]
    if ring.field.q == 2:
        named += [
            ("swap t, t^2", LinearAutoSpec.from_pairs(
                ring, {1: "t^2", 2: "t"}, {1: "t^2", 2: "t"})),
            ("t -> t + t^2", LinearAutoSpec.from_pairs(
                ring, {1: "t+t^2"}, {1: "t+t^2"})),
            ("t^2 -> t + t^2", LinearAutoSpec.from_pairs(
                ring, {2: "t+t^2"}, {2: "t+t^2"})),
        ]
    elif ring.field.q == 3:
        named += [
            ("t -> 2t", LinearAutoSpec.from_pairs(ring, {1: "2t"}, {1: "2t"})),
            ("t -> t + t^3", LinearAutoSpec.from_pairs(
                ring, {1: "t+t^3"}, {1: "t+2t^3"})),
        ]
    return named


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-q", type=int, default=2, choices=[2, 3],
                        help="coefficient field order (default 2)")
    parser.add_argument("-b", "--bound", type=int, default=4,
                        help="degree bound for fiber members (default 4)")
    args = parser.parse_args()

    ring = poly_ring(field_of_order(args.q))
    moduli = [ring.t, ring.t * ring.t, ring.parse_element("t^2+t+1")]
    named = specs_for(ring)

    for modulus in moduli:
        print(f"modulus {modulus.text()}, degree bound {args.bound}")
        fibers = {}
        for name, spec in named:
            fiber = unipotent_fiber(spec, modulus, args.bound)
            fibers[name] = set(a.text() for a in fiber)
            # independent re-check straight from the definition
            for a in fiber:
                image = reiner_apply(spec.inverted(), unipotent_upper(ring, a))
                assert congruence_member(image, modulus)
            members = ", ".join(sorted(fibers[name])) or "(none)"
            print(f"  {name:<16} -> {len(fiber):>3} members: {members}")
        pairs = itertools.combinations(fibers, 2)
        separated = [f"{x} vs {y}" for x, y in pairs if fibers[x] != fibers[y]]
        print(f"  separated pairs: {len(separated)}")
        print()


if __name__ == "__main__":
    main()
