"""Command-line front end.

Every computation is exposed as a subcommand with deterministic output:
scalars and words print bare, structured reports print as single-line JSON,
and graph-export prints a DOT or JSON document.  Exit code 0 on success and
2 on any input error (malformed curve, matrix, spec, or flag).

A subcommand loads only the library modules it runs: each handler imports
what it calls inside its body, so `aut-count` loads `ffield` alone and only
the free-product commands (cs-wreath-check, dihedral-demo, aut-apply) load
`words` and the modules under it.
"""

import argparse
import json
import sys


def _ring_for(q: int):
    from .ffield import field_of_order
    from .polyring import poly_ring
    return poly_ring(field_of_order(q))


def _load_json_arg(text: str):
    """Accept a path to a JSON file or an inline JSON string."""
    try:
        with open(text) as fh:
            return json.load(fh)
    except OSError:
        pass
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise ValueError(f"{text!r} is neither a readable file nor inline JSON")


def _curve_report(curve_text: str):
    from .curves import curve_from_text, enumerate_points, lpoly_from_count
    curve = curve_from_text(curve_text)
    q = curve.field.q
    points = enumerate_points(curve)
    lp = lpoly_from_count(len(points), q)
    return curve, q, points, lp


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_aut_count(args) -> str:
    from .ffield import aut_rel_count, aut_rel_enumerate, prime_power
    prime_power(args.q)
    return json.dumps({"q": args.q, "count": aut_rel_count(args.q),
                       "classes": aut_rel_enumerate(args.q)})


def cmd_ell_count(args) -> str:
    from .curves import ell_count
    _curve, _q, _points, lp = _curve_report(args.curve)
    return str(ell_count(lp))


def cmd_class_data(args) -> str:
    from .curves import class_data
    curve, q, points, lp = _curve_report(args.curve)
    data = class_data(lp, curve, points)
    return json.dumps({"q": q, "points": len(points),
                       "lpoly": list(lp.coeffs), "h": data.h, "cl2": data.cl2,
                       "r": data.r, "ell_eq": data.ell_eq,
                       "ell_neq": data.ell_neq})


def cmd_cs_order(args) -> str:
    from .curves import class_data, cs_order
    if args.curve is not None:
        curve, q, points, lp = _curve_report(args.curve)
        r = class_data(lp, curve, points).r
    elif args.r is not None and args.q is not None:
        r, q = args.r, args.q
    else:
        raise ValueError("give either --curve or both --r and --q")
    return str(cs_order(r, q))


def cmd_nagao_decompose(args) -> str:
    from .matgroup import mat_parse
    from .nagao import decompose, word_text
    ring = _ring_for(args.q)
    word = decompose(mat_parse(ring, args.matrix))
    return word_text(word)


def cmd_reiner_image(args) -> str:
    from .matgroup import mat_parse
    from .reiner import LinearAutoSpec, reiner_apply, reiner_inverse
    ring = _ring_for(args.q)
    spec = LinearAutoSpec.from_json(ring, _load_json_arg(args.spec))
    mat = mat_parse(ring, args.matrix)
    image = reiner_inverse(spec, mat) if args.inverse else reiner_apply(spec, mat)
    return image.text()


def cmd_unipotent_fiber(args) -> str:
    from .reiner import LinearAutoSpec, unipotent_fiber
    ring = _ring_for(args.q)
    spec = LinearAutoSpec.from_json(ring, _load_json_arg(args.spec))
    modulus = ring.parse_element(args.modulus)
    members = unipotent_fiber(spec, modulus, args.bound)
    return json.dumps({"q": args.q, "modulus": modulus.text(),
                       "bound": args.bound, "count": len(members),
                       "members": [p.text() for p in members]})


def _subgroup_for(ctx, ring, name, gens_text):
    from .cosets import SubgroupSpec, reduction_generators
    from .matgroup import mat_parse
    if gens_text is not None:
        mats = [mat_parse(ring, part) for part in gens_text.split(";") if part.strip()]
    elif name == "borel":
        return ctx.cusp_stab
    elif name == "full":
        mats = reduction_generators(ctx.R)
    else:
        mats = []
    return SubgroupSpec.from_matrices(ctx.group, ctx.R, mats)


def cmd_cusp_count(args) -> str:
    from .cosets import cusp_count, quotient_context
    ring = _ring_for(args.q)
    modulus = ring.parse_element(args.modulus)
    ctx = quotient_context(ring, modulus)
    hbar = _subgroup_for(ctx, ring, args.subgroup, args.gens)
    return str(cusp_count(ctx, hbar))


def cmd_cs_wreath_check(args) -> str:
    from .words import cs_wreath_check
    rep = cs_wreath_check(args.r, args.q)
    return json.dumps({"r": rep.r, "q": rep.q,
                       "classes": list(rep.exponent_classes),
                       "order": rep.order, "expected_order": rep.expected_order,
                       "permutations_full": rep.permutations_full, "ok": rep.ok})


def cmd_dihedral_demo(_args) -> str:
    from .words import dihedral_cohopf_demo
    rep = dihedral_cohopf_demo()
    return json.dumps({"index": rep.index, "injective_up_to": rep.injective_up_to,
                       "inner_index": rep.inner_index,
                       "single_factor_index": rep.single_factor_index})


def cmd_graph_export(args) -> str:
    from .graphs import export_dot, export_json, graph_by_name
    g = graph_by_name(args.graph, args.depth)
    text = export_dot(g) if args.format == "dot" else export_json(g)
    return text.rstrip("\n")


def cmd_aut_apply(args) -> str:
    from .words import decl_by_name, gens_from_json, word_parse, word_text
    decl = decl_by_name(args.decl)
    auto = gens_from_json(decl, _load_json_arg(args.script))
    word = word_parse(decl, args.word)
    return word_text(decl, auto.apply(word))


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gl2aut",
        description="Exact computations for GL2(F_q[t]): normal forms, "
                    "automorphisms, cusp counts, curve class data, and "
                    "quotient graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aut-count",
                       help="admissible unit classes mod q^2-1 (count and list)")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_aut_count)

    p = sub.add_parser("ell-count",
                       help="number of elliptic points for a curve (L(-1))")
    p.add_argument("--curve", required=True,
                   help='curve text, e.g. "q=2;y2+y=x3"')
    p.set_defaults(func=cmd_ell_count)

    p = sub.add_parser("class-data",
                       help="class number, 2-torsion, and spike count for a curve")
    p.add_argument("--curve", required=True)
    p.set_defaults(func=cmd_class_data)

    p = sub.add_parser("cs-order",
                       help="order r! * |classes|^r of the spike wreath group")
    p.add_argument("--curve")
    p.add_argument("--r", type=int)
    p.add_argument("--q", type=int)
    p.set_defaults(func=cmd_cs_order)

    p = sub.add_parser("nagao-decompose",
                       help="canonical amalgam word of a matrix over F_q[t]")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--matrix", required=True, help='e.g. "[[1,0],[t,1]]"')
    p.set_defaults(func=cmd_nagao_decompose)

    p = sub.add_parser("reiner-image",
                       help="image of a matrix under a Reiner automorphism")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--spec", required=True,
                   help="linear spec as a JSON file path or inline JSON")
    p.add_argument("--matrix", required=True)
    p.add_argument("--inverse", action="store_true",
                   help="apply the inverse automorphism")
    p.set_defaults(func=cmd_reiner_image)

    p = sub.add_parser("unipotent-fiber",
                       help="unipotents carried into a congruence subgroup "
                            "by the inverse Reiner automorphism")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--modulus", required=True, help='e.g. "t^2"')
    p.add_argument("--bound", type=int, required=True,
                   help="degree bound for the enumeration")
    p.set_defaults(func=cmd_unipotent_fiber)

    p = sub.add_parser("cusp-count",
                       help="cusp count of a subgroup image modulo a "
                            "polynomial: its orbits on the boundary")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--modulus", required=True)
    p.add_argument("--subgroup", choices=["trivial", "borel", "full"],
                   default="trivial")
    p.add_argument("--gens",
                   help='explicit generators "[[..],[..]];[[..],[..]]" '
                        "(overrides --subgroup)")
    p.set_defaults(func=cmd_cusp_count)

    p = sub.add_parser("cs-wreath-check",
                       help="closure check: spike generators give the wreath "
                            "product of unit classes by the symmetric group")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_cs_wreath_check)

    p = sub.add_parser("dihedral-demo",
                       help="infinite dihedral subgroup-index demonstration")
    p.set_defaults(func=cmd_dihedral_demo)

    p = sub.add_parser("graph-export",
                       help="quotient graph of a built-in example as DOT or JSON")
    p.add_argument("--graph", choices=["ex1", "ex3"], required=True)
    p.add_argument("--format", choices=["dot", "json"], default="json")
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(func=cmd_graph_export)

    p = sub.add_parser("aut-apply",
                       help="apply a generator-automorphism script to a word")
    p.add_argument("--decl", required=True,
                   help="declaration name: ex1cusp, ex3cusps, or dihedral")
    p.add_argument("--script", required=True,
                   help="JSON array of generator records (file path or inline)")
    p.add_argument("--word", required=True,
                   help='word text "f0:[[1,t],[0,1]].f1:2" ("." or the '
                        "middle dot separate letters)")
    p.set_defaults(func=cmd_aut_apply)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.func(args)
    except (ValueError, RuntimeError, ZeroDivisionError, AssertionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
