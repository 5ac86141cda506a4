"""Command-line front end.

    gl2aut <command> [--flag value | --flag=value | --switch]...

Every computation is exposed as a subcommand with deterministic output:
scalars and words print bare, structured reports print as single-line JSON,
and graph-export prints a DOT or JSON document.  There are three exits: 0
with an answer on stdout; 2 with one `error:` line on stderr when the input
is refused, which every check in the library does by raising ValueError; and
1 with a traceback for any other exception, which is a defect.

One table, `_COMMANDS`, drives parsing, help and dispatch.  The last
occurrence of a flag wins, a unique prefix names its flag (`--mod t`), a
value may start with `-`, and int flags are read with int().  A usage error
prints `error:` and a usage line to stderr and exits 2; `-h` or `--help`
prints the commands, or after a command its flags, and exits 0.

A subcommand loads only the library modules it runs: each handler imports
what it calls inside its body, so `aut-count` loads `ffield` alone and only
the free-product commands (cs-wreath-check, dihedral-demo, aut-apply) load
`words` and the modules under it.  `json` is imported the same way, by the
handlers that read or print it.
"""

import sys


def _ring_for(q: int):
    from .ffield import field_of_order
    from .polyring import poly_ring
    return poly_ring(field_of_order(q))


def _brief(value) -> str:
    """ffield.brief, imported only when a refusal names a value, so that
    parsing a command line loads no library module."""
    from .ffield import brief
    return brief(value)


def _load_json_arg(text: str):
    """Accept a path to a JSON file or an inline JSON string."""
    import json
    try:
        with open(text) as fh:
            source, refusal = fh.read(), f"the file {_brief(text)} holds no valid JSON"
    except OSError:
        source, refusal = text, f"{_brief(text)} is neither a readable file nor inline JSON"
    try:
        return json.loads(source)
    except (json.JSONDecodeError, RecursionError):
        raise ValueError(refusal)


def _curve_report(curve):
    from .curves import enumerate_points, lpoly_from_count
    points = enumerate_points(curve)
    return points, lpoly_from_count(len(points), curve.field.q)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_aut_count(args) -> str:
    import json
    from .ffield import aut_rel_count, aut_rel_enumerate, prime_power
    prime_power(args.q)
    return json.dumps({"q": args.q, "count": aut_rel_count(args.q),
                       "classes": aut_rel_enumerate(args.q)})


def cmd_ell_count(args) -> str:
    from .curves import curve_from_text, ell_count
    _points, lp = _curve_report(curve_from_text(args.curve))
    return str(ell_count(lp))


def cmd_class_data(args) -> str:
    import json
    from .curves import class_data, curve_from_text
    curve = curve_from_text(args.curve)
    points, lp = _curve_report(curve)
    data = class_data(lp, curve, points)
    return json.dumps({"q": curve.field.q, "points": len(points),
                       "lpoly": list(lp.coeffs), "h": data.h, "cl2": data.cl2,
                       "r": data.r, "ell_eq": data.ell_eq,
                       "ell_neq": data.ell_neq})


def cmd_cs_order(args) -> str:
    from math import isqrt
    from .curves import class_data, cs_order, curve_from_text
    if args.curve is None:
        if args.r is None or args.q is None:
            raise ValueError("give either --curve or both --r and --q")
        return str(cs_order(args.r, args.q))
    curve = curve_from_text(args.curve)
    q = curve.field.q
    # Hasse and cl2 <= 4 give r >= (q - 3 - 2 sqrt(q)) / 2 on every curve over F_q,
    # and the order grows with r: past the limit there, no point is enumerated
    r_least = max(q - 3 - isqrt(4 * q), 0) // 2
    try:
        cs_order(r_least, q)
    except ValueError as err:
        raise ValueError(f"every curve over F_{q} has r >= {r_least}, and {err}")
    points, lp = _curve_report(curve)
    return str(cs_order(class_data(lp, curve, points).r, q))


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
    import json
    from .reiner import LinearAutoSpec, unipotent_fiber
    ring = _ring_for(args.q)
    spec = LinearAutoSpec.from_json(ring, _load_json_arg(args.spec))
    modulus = ring.parse_element(args.modulus)
    members = unipotent_fiber(spec, modulus, args.bound)
    return json.dumps({"q": args.q, "modulus": modulus.text(),
                       "bound": args.bound, "count": len(members),
                       "members": [p.text() for p in members]})


def cmd_cusp_count(args) -> str:
    from .cosets import (SubgroupSpec, check_unit, cusp_count, quotient_context,
                         reduction_generators)
    from .matgroup import mat_parse
    ring = _ring_for(args.q)
    modulus = ring.parse_element(args.modulus)
    # the generators are read and checked over F_q[t] before the quotient is built
    mats = [check_unit(mat_parse(ring, g)) for g in (args.gens or "").split(";") if g.strip()]
    ctx = quotient_context(ring, modulus)
    if args.gens is None and args.subgroup == "borel":
        return str(cusp_count(ctx, ctx.cusp_stab))
    if args.gens is None and args.subgroup == "full":
        gens = reduction_generators(ctx.R)
    else:  # checked above, so reduced without reduce_mat's second check
        gens = [map(ctx.R.reduce_poly, m.entries()) for m in mats]
    return str(cusp_count(ctx, SubgroupSpec.from_matrices(ctx.group, ctx.R, gens)))


def cmd_cs_wreath_check(args) -> str:
    import json
    from .words import cs_wreath_check
    rep = cs_wreath_check(args.r, args.q)
    return json.dumps({"r": rep.r, "q": rep.q,
                       "classes": list(rep.exponent_classes),
                       "order": rep.order, "expected_order": rep.expected_order,
                       "permutations_full": rep.permutations_full, "ok": rep.ok})


def cmd_dihedral_demo(_args) -> str:
    import json
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
# command table


def _flag(kind=str, required=False, default=None, choices=None, help=""):
    """A flag's (kind, required, default, choices, help).  The kind is int,
    str (text) or bool (a switch, False unless given)."""
    return kind, required, default, choices, help


_COMMANDS = {
    "aut-count": (
        "admissible unit classes mod q^2-1 (count and list)",
        {"q": _flag(int, required=True, help="field size")}),
    "ell-count": (
        "number of elliptic points for a curve (L(-1))",
        {"curve": _flag(required=True, help='curve text, e.g. "q=2;y2+y=x3"')}),
    "class-data": (
        "class number, 2-torsion, and spike count for a curve",
        {"curve": _flag(required=True, help='curve text, e.g. "q=2;y2+y=x3"')}),
    "cs-order": (
        "order r! * |classes|^r of the spike wreath group",
        {"curve": _flag(help="curve text, in place of --r and --q"),
         "r": _flag(int, help="number of spikes"),
         "q": _flag(int, help="field size")}),
    "nagao-decompose": (
        "canonical amalgam word of a matrix over F_q[t]",
        {"q": _flag(int, required=True, help="field size"),
         "matrix": _flag(required=True, help='e.g. "[[1,0],[t,1]]"')}),
    "reiner-image": (
        "image of a matrix under a Reiner automorphism",
        {"q": _flag(int, required=True, help="field size"),
         "spec": _flag(required=True,
                       help="linear spec as a JSON file path or inline JSON"),
         "matrix": _flag(required=True, help='e.g. "[[1,t],[0,1]]"'),
         "inverse": _flag(bool, help="apply the inverse automorphism")}),
    "unipotent-fiber": (
        "unipotents carried into a congruence subgroup by the inverse Reiner "
        "automorphism",
        {"q": _flag(int, required=True, help="field size"),
         "spec": _flag(required=True,
                       help="linear spec as a JSON file path or inline JSON"),
         "modulus": _flag(required=True, help='e.g. "t^2"'),
         "bound": _flag(int, required=True, help="degree bound for the enumeration")}),
    "cusp-count": (
        "cusp count of a subgroup image modulo a polynomial: its orbits on the "
        "boundary",
        {"q": _flag(int, required=True, help="field size"),
         "modulus": _flag(required=True, help='e.g. "t^2"'),
         "subgroup": _flag(default="trivial", choices=("trivial", "borel", "full"),
                           help="preset subgroup"),
         "gens": _flag(help='explicit generators "[[..],[..]];[[..],[..]]" '
                            "(overrides --subgroup)")}),
    "cs-wreath-check": (
        "closure check: spike generators give the wreath product of unit "
        "classes by the symmetric group",
        {"r": _flag(int, required=True, help="number of spikes"),
         "q": _flag(int, required=True, help="field size")}),
    "dihedral-demo": (
        "infinite dihedral subgroup-index demonstration",
        {}),
    "graph-export": (
        "quotient graph of a built-in example as DOT or JSON",
        {"graph": _flag(required=True, choices=("ex1", "ex3"), help="built-in example"),
         "format": _flag(default="json", choices=("dot", "json"), help="output format"),
         "depth": _flag(int, default=3, help="ray depth at which the graph is cut")}),
    "aut-apply": (
        "apply a generator-automorphism script to a word",
        {"decl": _flag(required=True,
                       help="declaration name: ex1cusp, ex3cusps, or dihedral"),
         "script": _flag(required=True,
                         help="JSON array of generator records (file path or inline)"),
         "word": _flag(required=True,
                       help='word text "f0:[[1,t],[0,1]].f1:2" ("." or the '
                            "middle dot separate letters)")}),
}

_DESCRIPTION = ("Exact computations for GL2(F_q[t]): normal forms, automorphisms, "
                "cusp counts, curve class data, and quotient graphs.")


def _flag_usage(name, spec) -> str:
    kind, required, _default, choices, _text = spec
    if kind is bool:
        return f"[--{name}]"
    value = "{" + ",".join(choices) + "}" if choices else "N" if kind is int else "TEXT"
    return f"--{name} {value}" if required else f"[--{name} {value}]"


def _usage(command) -> str:
    if command is None:
        return "usage: gl2aut <command> [--flag value]...  (gl2aut --help lists them)"
    return " ".join(["usage: gl2aut", command]
                    + [_flag_usage(n, s) for n, s in _COMMANDS[command][1].items()])


def _usage_error(command, what):
    print(f"error: {what}\n{_usage(command)}", file=sys.stderr)
    raise SystemExit(2)


def _help(command):
    if command is None:
        width = max(map(len, _COMMANDS))
        lines = [_usage(None), "", _DESCRIPTION, "", "commands:"]
        lines += [f"  {n:<{width}}  {h}" for n, (h, _flags) in _COMMANDS.items()]
    else:
        summary, flags = _COMMANDS[command]
        lines = [_usage(command), "", summary]
        if flags:
            lines += ["", "flags:"]
        for name, (kind, _required, default, _choices, text) in flags.items():
            note = f" (default {default})" if default is not None and kind is not bool else ""
            lines.append(f"  --{name:<10} {text}{note}")
    print("\n".join(lines))
    raise SystemExit(0)


def _parse(argv):
    """The command name and its flag values (missing ones at their defaults)
    read from argv by `_COMMANDS`.  A usage error or a help request raises
    SystemExit.  A refusal names a value as ffield.brief does, so its line
    stays short whatever the input."""
    from types import SimpleNamespace
    if not argv:
        _usage_error(None, "no command given")
    command, rest = argv[0], argv[1:]
    if command in ("-h", "--help"):
        _help(None)
    if command not in _COMMANDS:
        _usage_error(None, f"unknown command {_brief(command)}")
    flags = _COMMANDS[command][1]
    values = {}
    i = 0
    while i < len(rest):
        arg = rest[i]
        i += 1
        if arg == "-h":
            _help(command)
        if not arg.startswith("--") or arg == "--":
            _usage_error(command, f"unexpected argument {_brief(arg)}")
        key, eq, value = arg[2:].partition("=")
        names = [key] if key in flags else \
            [n for n in (*flags, "help") if n.startswith(key)]
        if not names:
            from .polyring import brief_text
            _usage_error(command, f"unknown flag {brief_text('--' + key)}")
        if len(names) > 1:
            _usage_error(command, f"--{key} is ambiguous: "
                         + ", ".join(f"--{n}" for n in names))
        key = names[0]
        if key == "help":
            _help(command)
        kind, _required, _default, choices, _text = flags[key]
        if kind is bool:
            if eq:
                _usage_error(command, f"--{key} takes no value")
            values[key] = True
            continue
        if not eq:
            if i == len(rest):
                _usage_error(command, f"--{key} needs a value")
            value = rest[i]
            i += 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(command, f"--{key} takes an integer, not {_brief(value)}")
        if choices and value not in choices:
            _usage_error(command, f"--{key} takes one of {', '.join(choices)}, "
                                  f"not {_brief(value)}")
        values[key] = value
    missing = [f"--{n}" for n, spec in flags.items() if spec[1] and n not in values]
    if missing:
        _usage_error(command, "missing " + ", ".join(missing))
    for name, (kind, _required, default, _choices, _text) in flags.items():
        values.setdefault(name, False if kind is bool else default)
    return command, SimpleNamespace(**values)


def main(argv=None) -> int:
    command, args = _parse(sys.argv[1:] if argv is None else argv)
    # looked up by name on each call, so a wrapper set on the module after
    # import is the function that runs
    handler = globals()["cmd_" + command.replace("-", "_")]
    try:
        out = handler(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
