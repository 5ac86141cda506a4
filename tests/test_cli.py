import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gl2aut import cli
from gl2aut.cli import main
from gl2aut.polyring import MAX_DEGREE
from gl2aut.graphs import build_graph_ex1
from gl2aut.matgroup import Mat2, mat_parse
from gl2aut.reiner import LinearAutoSpec
from gl2aut.words import build_ex1cusp

import helpers

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_ok(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    assert code == 0, out.err
    assert out.err == ""
    return out.out.rstrip("\n")


def run_err(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("error:")
    return out.err


def test_aut_count(capsys):
    out = run_ok(capsys, ["aut-count", "--q", "5"])
    data = json.loads(out)
    assert data == {"q": 5, "count": 4, "classes": [1, 5, 13, 17]}


def test_ell_count_documented_example(capsys):
    assert run_ok(capsys, ["ell-count", "--curve", "q=2;y2+y=x3"]) == "3"


def test_class_data(capsys):
    out = run_ok(capsys, ["class-data", "--curve", "q=2;y2+y=x3+x+1"])
    data = json.loads(out)
    assert data["q"] == 2
    assert data["points"] == 1
    assert data["lpoly"] == [1, -2, 2]
    assert (data["h"], data["cl2"], data["r"]) == (1, 1, 2)
    assert data["cl2"] + 2 * data["r"] == data["ell_eq"] + data["ell_neq"] == 5


def test_cs_order_from_r_and_q(capsys):
    assert run_ok(capsys, ["cs-order", "--r", "2", "--q", "2"]) == "8"


def test_cs_order_from_curve(capsys):
    assert run_ok(capsys, ["cs-order", "--curve", "q=2;y2+y=x3+x+1"]) == "8"
    assert run_ok(capsys, ["cs-order", "--curve", "q=2;y2+y=x3"]) == "2"


def test_cs_order_requires_an_input(capsys):
    run_err(capsys, ["cs-order", "--q", "2"])


def test_nagao_decompose_documented_example(capsys):
    out = run_ok(capsys, ["nagao-decompose", "--q", "2",
                          "--matrix", "[[1,0],[t,1]]"])
    assert out == "G:[[0,1],[1,0]];B:[[1,t],[0,1]];G:[[0,1],[1,0]]"
    # bare coefficients are element codes over F_4 too
    out = run_ok(capsys, ["nagao-decompose", "--q", "4",
                          "--matrix", "[[0,1],[1,0]]"])
    assert out == "G:[[0,(1,0)],[(1,0),0]]"


def test_nagao_decompose_rejects_singular(capsys):
    run_err(capsys, ["nagao-decompose", "--q", "2",
                     "--matrix", "[[1,1],[1,1]]"])


def test_reiner_image_and_inverse(capsys):
    R = helpers.ring_of(2)
    spec = LinearAutoSpec.from_pairs(R, {1: "t^2", 2: "t"}, {1: "t^2", 2: "t"})
    spec_json = json.dumps(spec.to_json())
    matrix = "[[1,t],[0,1]]"
    out = run_ok(capsys, ["reiner-image", "--q", "2", "--spec", spec_json,
                          "--matrix", matrix])
    assert out == "[[1,t^2],[0,1]]"
    back = run_ok(capsys, ["reiner-image", "--q", "2", "--spec", spec_json,
                           "--matrix", out, "--inverse"])
    assert back == matrix


def test_reiner_image_spec_from_file(tmp_path, capsys):
    R = helpers.ring_of(2)
    spec = LinearAutoSpec.from_pairs(R, {1: "t^3", 3: "t"}, {1: "t^3", 3: "t"})
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json()))
    out = run_ok(capsys, ["reiner-image", "--q", "2", "--spec", str(path),
                          "--matrix", "[[1,t],[0,1]]"])
    assert out == "[[1,t^3],[0,1]]"


def test_unipotent_fiber(capsys):
    R = helpers.ring_of(2)
    spec = LinearAutoSpec.from_pairs(R, {1: "t^2", 2: "t"}, {1: "t^2", 2: "t"})
    out = run_ok(capsys, ["unipotent-fiber", "--q", "2",
                          "--spec", json.dumps(spec.to_json()),
                          "--modulus", "t^2", "--bound", "3"])
    data = json.loads(out)
    assert data["q"] == 2 and data["modulus"] == "t^2" and data["bound"] == 3
    assert data["count"] == len(data["members"])
    from gl2aut.reiner import unipotent_fiber
    want = [p.text() for p in unipotent_fiber(spec, R.poly((0, 0, 1)), 3)]
    assert data["members"] == want


def test_cusp_count_presets(capsys):
    base = ["cusp-count", "--q", "2", "--modulus", "t"]
    assert run_ok(capsys, base + ["--subgroup", "trivial"]) == "3"
    assert run_ok(capsys, base + ["--subgroup", "borel"]) == "2"
    assert run_ok(capsys, base + ["--subgroup", "full"]) == "1"
    # over F_4 the diagonal units have codes 2 and 3; as --gens text the
    # same generators give the same count
    assert run_ok(capsys, ["cusp-count", "--q", "4", "--modulus", "t",
                           "--subgroup", "borel"]) == "2"
    borel_f4 = ";".join(["[[2,0],[0,1]]", "[[1,0],[0,2]]", "[[3,0],[0,1]]",
                         "[[1,0],[0,3]]", "[[1,1],[0,1]]", "[[1,2],[0,1]]",
                         "[[1,3],[0,1]]"])
    assert run_ok(capsys, ["cusp-count", "--q", "4", "--modulus", "t",
                           "--gens", borel_f4]) == "2"


def test_cusp_count_full_preset_passes_generators(capsys):
    # |G| = 3072 for q = 2, m = t^4: the preset passes the reduction image's
    # generators, not its members
    with helpers.budget(5):
        assert run_ok(capsys, ["cusp-count", "--q", "2", "--modulus", "t^4",
                               "--subgroup", "full"]) == "1"


def test_cusp_count_oversized_quotient_fails_fast(capsys):
    # both quotient groups have far more than 100 000 elements, which the
    # modulus degree shows before anything is built
    with helpers.budget(1):
        run_err(capsys, ["cusp-count", "--q", "5", "--modulus", "t^3",
                         "--subgroup", "trivial"])
    with helpers.budget(1):
        run_err(capsys, ["cusp-count", "--q", "2", "--modulus", "t^8",
                         "--subgroup", "borel"])


def test_aut_count_largest_field(capsys):
    with helpers.budget(5):
        data = json.loads(run_ok(capsys, ["aut-count", "--q", "65536"]))
    # q + 1 = 65537 is prime, so every admissible residue is a unit
    assert data["count"] == 65536 == len(data["classes"])


def _phi(n: int) -> int:
    """Euler's phi by trial division."""
    out, d = n, 2
    while d * d <= n:
        if n % d == 0:
            out -= out // d
            while n % d == 0:
                n //= d
        d += 1
    return out - out // n if n > 1 else out


# a prime, 2^16 and an odd prime power near the 2^16 cap, each with its
# characteristic p: -1 has the code p - 1 in all three
LARGE_FIELDS = [(65521, 65521), (1 << 16, 2), (3 ** 10, 3)]

# the commands that refuse every large field: their flags after --q and a
# part of their message
LARGE_FIELD_REFUSALS = {
    "cusp-count": (["--modulus", "t"], "more than 100000 elements"),
    "cs-wreath-check": (["--r", "1"], "q must be one of"),
}


# a curve over each large field: its equation, its coefficients
# (a1, a2, a3, a4, a6) in F_p, its point count N and the seconds class-data
# and ell-count may each take (F_(3^10), the slowest, about 2 s in-process
# on a 2-vCPU Xeon)
LARGE_CURVES = {65521: ("y2=x3+1", (0, 0, 0, 0, 1), 65856, 3),
                1 << 16: ("y2+y=x3", (0, 0, 1, 0, 0), 65025, 3),
                3 ** 10: ("y2=x3+2x+1", (0, 0, 0, 2, 1), 58807, 6)}


def _independent_count(q, p, coeffs):
    """#E(F_q) without the library.  Over a prime field y^2 = f(x) has
    1 + chi(f(x)) roots y for each x, chi by Euler's criterion.  Over F_(p^n)
    the count over F_p is lifted: with a = p + 1 - #E(F_p), s_0 = 2, s_1 = a
    and s_k = a s_(k-1) - p s_(k-2), #E(F_(p^n)) = p^n + 1 - s_n."""
    a1, a2, a3, a4, a6 = coeffs
    if q == p:
        assert a1 == a3 == 0
        chi = [0] + [1 if pow(v, (p - 1) // 2, p) == 1 else -1 for v in range(1, p)]
        return 1 + sum(1 + chi[(x ** 3 + a2 * x * x + a4 * x + a6) % p] for x in range(p))
    n1 = 1 + sum(1 for x in range(p) for y in range(p)
                 if (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % p == 0)
    a, n = p + 1 - n1, next(k for k in range(2, 17) if p ** k == q)
    s = [2, a]
    while len(s) <= n:
        s.append(a * s[-1] - p * s[-2])
    return q + 1 - s[n]


@pytest.mark.parametrize("q, p", LARGE_FIELDS)
def test_large_fields_answer_by_an_oracle_or_refuse_by_the_table(capsys, q, p):
    field = ["--q", str(q)]
    # det = t^3 + 2t^2 + 1 - (t + 2) t^2 = 1, where 2 is any element code
    matrix = "[[1,t+2],[t^2,t^3+2t^2+1]]"
    with helpers.budget(1):  # the first call builds F_q
        word = run_ok(capsys, ["nagao-decompose", *field, "--matrix", matrix])
    ring = helpers.ring_of(q)
    letters = [letter.mat for letter in helpers.nagao_word_parse(ring, word)]
    assert math.prod(letters, start=Mat2.identity(ring)) == mat_parse(ring, matrix)

    # t^2 -> t^2 + t, so T(t^2) -> T(t^2 + t), and the inverse undoes it
    spec = ["--spec", json.dumps({"map": {"2": [0, 1, 1]}, "inverse": {"2": [0, p - 1, 1]}})]
    with helpers.budget(1):
        image = run_ok(capsys, ["reiner-image", *field, *spec, "--matrix", "[[1,t^2],[0,1]]"])
    t2 = ring.parse_element("t^2+t")
    assert mat_parse(ring, image) == Mat2(ring, ring.one, t2, ring.zero, ring.one)
    with helpers.budget(1):
        image = run_ok(capsys, ["reiner-image", *field, *spec, "--matrix", matrix])
        back = run_ok(capsys, ["reiner-image", *field, *spec, "--matrix", image, "--inverse"])
    assert mat_parse(ring, back) == mat_parse(ring, matrix)

    # the classes are the units mod q^2 - 1 that are 1 mod q - 1: the kernel
    # of the onto map of unit groups mod q^2 - 1 and mod q - 1
    units = _phi(q * q - 1) // _phi(q - 1)
    with helpers.budget(1):
        data = json.loads(run_ok(capsys, ["aut-count", *field]))
    classes = data["classes"]
    assert data["count"] == units == len(set(classes))
    assert all(math.gcd(a, q * q - 1) == 1 and a % (q - 1) == 1 for a in classes)
    with helpers.budget(1):
        assert run_ok(capsys, ["cs-order", "--r", "2", *field]) == str(2 * units ** 2)

    # the identity spec fixes a, and of degree <= 0 only a = 0 is 0 mod t^2
    with helpers.budget(1):
        fiber = json.loads(run_ok(capsys, ["unipotent-fiber", *field, "--spec",
                                           '{"map":{},"inverse":{}}', "--modulus", "t^2",
                                           "--bound", "0"]))
    assert (fiber["count"], fiber["members"]) == (1, ["0"])

    # h = L(1) = N and L(-1) = 2q + 2 - N for L(u) = 1 + (N - q - 1)u + qu^2
    equation, coeffs, n, seconds = LARGE_CURVES[q]
    assert _independent_count(q, p, coeffs) == n
    curve = ["--curve", f"q={q};{equation}"]
    with helpers.budget(seconds):
        assert json.loads(run_ok(capsys, ["class-data", *curve]))["h"] == n
    with helpers.budget(seconds):
        assert run_ok(capsys, ["ell-count", *curve]) == str(2 * q + 2 - n)

    for command, (flags, message) in LARGE_FIELD_REFUSALS.items():
        with helpers.budget(1):
            assert message in run_err(capsys, [command, *field, *flags])


def test_oversized_field_fails_fast(capsys):
    # both are refused on size before any factoring or residue walk
    with helpers.budget(1):
        err = run_err(capsys, ["aut-count", "--q", "1000000007"])
    assert "exceeds 65536" in err
    with helpers.budget(1):
        err = run_err(capsys, ["cs-order", "--r", "1", "--q", "1000000000000000003"])
    assert "exceeds 65536" in err


def test_oversized_degrees_and_orders_exit_2_fast(capsys):
    past = MAX_DEGREE + 1
    spec = {"map": {"1": [0, 1], str(past): [0, 1]}, "inverse": {"1": [0, 1]}}
    # past 4300 digits int() would refuse with its own message
    huge = "9" * 5000
    huge_spec = {"map": {"1": [0, 1], huge: [0, 1]}, "inverse": {"1": [0, 1]}}
    for argv in (["nagao-decompose", "--q", "2", "--matrix", f"[[1,t^{past}],[0,1]]"],
                 ["reiner-image", "--q", "2", "--matrix", "[[1,t],[0,1]]",
                  "--spec", json.dumps(spec)],
                 ["cusp-count", "--q", "2", "--modulus", f"t^{past}"],
                 ["nagao-decompose", "--q", "2", "--matrix", f"[[1,t^{huge}],[0,1]]"],
                 ["reiner-image", "--q", "2", "--matrix", "[[1,t],[0,1]]",
                  "--spec", json.dumps(huge_spec)]):
        with helpers.budget(1):
            assert f"exceeds {MAX_DEGREE}" in run_err(capsys, argv)
    with helpers.budget(1):
        assert "more than 4300 digits" in run_err(capsys, ["cs-order", "--r", "2000",
                                                           "--q", "2"])
    # a coefficient numeral past those 4300 digits is read mod p over a prime
    # field, and refused by its digit count as a bare code over F_4
    with helpers.budget(1):
        assert run_ok(capsys, ["nagao-decompose", "--q", "2", "--matrix",
                               f"[[1,{huge}t],[0,1]]"]) == "B:[[1,t],[0,1]]"
        assert run_ok(capsys, ["nagao-decompose", "--q", "4", "--matrix",
                               f"[[1,({huge},1)t],[0,1]]"]) == "B:[[(1,0),(1,1)t],[0,(1,0)]]"
        assert run_ok(capsys, ["ell-count", "--curve", f"q=5;y2=x3+{huge}x+1"]) == \
            run_ok(capsys, ["ell-count", "--curve", "q=5;y2=x3+4x+1"])
    for argv in (["nagao-decompose", "--q", "4", "--matrix", f"[[1,{huge}t],[0,1]]"],
                 ["ell-count", "--curve", f"q=4;y2+xy=x3+{huge}"]):
        with helpers.budget(1):
            err = run_err(capsys, argv)
        assert err == "error: element code of 5000 digits out of range for F_4\n"


def test_spec_past_the_check_cap_exits_2_fast(capsys):
    # checking the spec at n = MAX_DEGREE takes 1.5e6 coefficient operations
    spec = json.dumps(helpers.unitriangular_spec(MAX_DEGREE, "map"))
    with helpers.budget(1):
        err = run_err(capsys, ["reiner-image", "--q", "2", "--matrix", "[[1,t],[0,1]]",
                               "--spec", spec])
    assert "coefficient operations, more than" in err


def test_spec_under_the_check_cap_loads_fast(capsys):
    # at n = 400 the check adds each image from its lowest term, about 2.4e5
    # operations; counting the zeros below those terms would be 2e7
    n = 400
    spec = json.dumps(helpers.unitriangular_spec(n, "map"))
    with helpers.budget(1):
        out = run_ok(capsys, ["reiner-image", "--q", "2", "--matrix", "[[1,t],[0,1]]",
                              "--spec", spec])
    image = "+".join([f"t^{i}" for i in range(n, 1, -1)] + ["t"])
    assert out == f"[[1,{image}],[0,1]]"


def test_cusp_count_mod_t_over_f7_counts_the_points_of_p1(capsys):
    # |G| = 2016; the trivial subgroup's cusps are the q + 1 points of
    # P^1(F_7)
    with helpers.budget(2):
        assert run_ok(capsys, ["cusp-count", "--q", "7", "--modulus", "t"]) == "8"


def test_unipotent_fiber_oversized_bound_fails_fast(capsys):
    spec = json.dumps({"map": {"2": [0, 1, 1]}, "inverse": {"2": [0, 1, 1]}})
    with helpers.budget(1):
        err = run_err(capsys, ["unipotent-fiber", "--q", "2", "--spec", spec,
                               "--modulus", "t^2", "--bound", "14"])
    assert "more than 4096 polynomials" in err


@pytest.mark.parametrize("modulus", ["0", "1"])
def test_unipotent_fiber_refuses_a_modulus_of_degree_below_one(capsys, modulus):
    # the zero modulus too is refused before any division by it
    err = run_err(capsys, ["unipotent-fiber", "--q", "2", "--spec",
                           '{"map":{},"inverse":{}}', "--modulus", modulus,
                           "--bound", "2"])
    assert err == "error: modulus must have degree >= 1\n"


def test_graph_export_oversized_depth_fails_fast(capsys):
    with helpers.budget(1):
        run_err(capsys, ["graph-export", "--graph", "ex3", "--depth", "20000"])


def test_cusp_count_generators(capsys):
    out = run_ok(capsys, ["cusp-count", "--q", "2", "--modulus", "t",
                          "--gens", "[[1,1],[0,1]]"])
    assert out == "2"
    out = run_ok(capsys, ["cusp-count", "--q", "2", "--modulus", "t",
                          "--gens", "[[1,1],[0,1]];[[0,1],[1,0]]"])
    assert out == "1"


def test_cusp_count_tests_each_generator_determinant_once(capsys, monkeypatch):
    calls = helpers.count_calls(monkeypatch, Mat2, "has_unit_det")
    gens = "[[1,1],[0,1]];[[0,1],[1,0]];[[1,t],[0,1]]"
    assert run_ok(capsys, ["cusp-count", "--q", "2", "--modulus", "t^2",
                           "--gens", gens]) == "1"
    assert len(calls) == 3


def test_cs_wreath_check(capsys):
    out = run_ok(capsys, ["cs-wreath-check", "--r", "2", "--q", "2"])
    data = json.loads(out)
    assert data["order"] == 8
    assert data["expected_order"] == 8
    assert data["ok"] is True
    assert data["permutations_full"] is True


def test_dihedral_demo(capsys):
    out = run_ok(capsys, ["dihedral-demo"])
    data = json.loads(out)
    assert data["index"] == 3
    assert data["inner_index"] == 1


def test_graph_export_json(capsys):
    out = run_ok(capsys, ["graph-export", "--graph", "ex1", "--format", "json"])
    assert helpers.parse_graph_json(out) == build_graph_ex1()


def test_graph_export_dot_with_depth(capsys):
    out = run_ok(capsys, ["graph-export", "--graph", "ex3", "--format", "dot",
                          "--depth", "2"])
    assert out.startswith("graph quotient {")
    assert "toward (0,1)" in out


def test_aut_apply_spike_script(capsys):
    script = json.dumps([{"type": "spike", "factor": 1, "exponent": 2,
                          "q": 2}])
    out = run_ok(capsys, ["aut-apply", "--decl", "ex1cusp",
                          "--script", script, "--word", "f1:1.f2:1"])
    assert out == "f1:2·f2:1"


def test_aut_apply_partial_conjugation(capsys):
    script = json.dumps([{"type": "partial_conj", "source": 0, "target": 1,
                          "conjugator": "[[1,t],[0,1]]"}])
    out = run_ok(capsys, ["aut-apply", "--decl", "ex1cusp",
                          "--script", script, "--word", "f1:1"])
    assert out == "f0:[[1,t],[0,1]]·f1:1·f0:[[1,t],[0,1]]"


def test_aut_apply_script_from_file(tmp_path, capsys):
    path = tmp_path / "script.json"
    path.write_text(json.dumps([{"type": "swap", "left": 1, "right": 2,
                                 "exponent": 1}]))
    out = run_ok(capsys, ["aut-apply", "--decl", "ex1cusp",
                          "--script", str(path), "--word", "f1:1·f2:2"])
    assert out == "f2:1·f1:2"


def test_polynomial_text_may_subtract(capsys):
    # the output never prints a minus sign: t - 1 is t + 2 over F_3
    want = "B:[[1,t+2],[0,1]]"
    assert run_ok(capsys, ["nagao-decompose", "--q", "3", "--matrix", "[[1,t+2],[0,1]]"]) == want
    assert run_ok(capsys, ["nagao-decompose", "--q", "3", "--matrix", "[[1,t-1],[0,1]]"]) == want


def test_error_paths_exit_2(capsys):
    run_err(capsys, ["ell-count", "--curve", "q=2;y2=x3"])  # singular
    run_err(capsys, ["aut-count", "--q", "6"])  # not a prime power
    run_err(capsys, ["aut-apply", "--decl", "missing", "--script", "[]",
                     "--word", "e"])
    run_err(capsys, ["unipotent-fiber", "--q", "2", "--spec", "{not json",
                     "--modulus", "t", "--bound", "2"])
    run_err(capsys, ["cusp-count", "--q", "2", "--modulus", "1",
                     "--subgroup", "full"])
    # the determinant t^2 + 1 is 1 mod t^2 but no unit of F_2[t]
    err = run_err(capsys, ["cusp-count", "--q", "2", "--modulus", "t^2",
                           "--gens", "[[1,0],[0,t^2+1]]"])
    assert err == "error: [[1,0],[0,t^2+1]] is not invertible over F_q[t]\n"


_VALID_INVERSE = {"1": [0, 1]}
_WRONG_SHAPED_SPECS = [
    [1], None, "abc", {"map": 3},
    {"map": {"1": 5}, "inverse": _VALID_INVERSE},
    {"map": {"1": [0, "a"]}, "inverse": _VALID_INVERSE},
    {"map": {"1": [0, 1]}, "inverse": {"1": [0, None]}},
    {"map": {"1": [False, True]}, "inverse": {"1": [False, True]}},
]


@pytest.mark.parametrize("spec", [json.dumps(s) for s in _WRONG_SHAPED_SPECS],
                         ids=["list", "null", "string", "map-int", "image-int",
                              "image-str-code", "inverse-null-code", "image-bool-codes"])
@pytest.mark.parametrize("command", [
    ["reiner-image", "--q", "2", "--matrix", "[[1,t],[0,1]]"],
    ["unipotent-fiber", "--q", "2", "--modulus", "t", "--bound", "2"],
], ids=["reiner-image", "unipotent-fiber"])
def test_wrong_shaped_spec_exits_2(capsys, command, spec):
    run_err(capsys, command + ["--spec", spec])


@pytest.mark.parametrize("key", ["01", "0_1", " +1 ", "x"])
def test_spec_keys_must_be_plain_decimal_exponents(capsys, key):
    # int() would read the first three as 1, so two images of t would collide
    spec = {"map": {"1": [0, 1], key: [0, 1]}, "inverse": {"1": [0, 1]}}
    err = run_err(capsys, ["reiner-image", "--q", "2", "--matrix", "[[1,t],[0,1]]",
                           "--spec", json.dumps(spec)])
    assert repr(key) in err


@pytest.mark.parametrize("record", [
    {"type": "type1", "factor": 1, "exponent": [2]},
    {"type": "type1", "factor": None, "exponent": 2},
    {"type": "type1", "factor": 0, "linear": [1]},
    {"type": "spike", "factor": 1, "exponent": 1.9, "q": 2},
    {"type": "type1", "factor": 1, "exponent": 2.0},
    {"type": "type1", "factor": "1", "exponent": 2},
    {"type": "type1", "factor": True, "exponent": 2},
    {"type": "swap", "left": 1, "right": 2, "exponent": "1"},
], ids=["exponent-list", "factor-null", "linear-list", "spike-exponent-float",
        "exponent-float", "factor-str", "factor-bool", "swap-exponent-str"])
def test_wrong_shaped_script_exits_2(capsys, record):
    run_err(capsys, ["aut-apply", "--decl", "ex1cusp",
                     "--script", json.dumps([record]), "--word", "f1:1"])


def _readme_commands():
    """The argv of every `$ gl2aut ...` line in README's "Command line" block."""
    text = (REPO_ROOT / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```", 2)[1]
    return [shlex.split(line[len("$ gl2aut"):], comments=True)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("$ gl2aut ")]


def _bench_commands():
    """The argv of every command the `cli` benchmark runs on seeds 1-5."""
    probe = ("import json, wl_cli; print(json.dumps([argv for seed in range(1, 6) "
             "for argv, _check in wl_cli.commands(seed)]))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=REPO_ROOT / "bench",
                          capture_output=True, text=True, env=helpers.src_first_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_GRAMMAR_CASES = [
    ["cusp-count", "--q=2", "--modulus=t", "--subgroup=borel"],
    ["aut-count", "--q", "3", "--q", "5"],  # the last occurrence wins
    ["cusp-count", "--mod", "t^2", "--q", "2", "--sub", "full", "--g", "[[1,1],[0,1]]"],
    ["reiner-image", "--q", "2", "--spec", "{}", "--matrix", "[[1,t],[0,1]]", "--inverse"],
    ["reiner-image", "--inv", "--q", "2", "--spec", "{}", "--matrix", "m", "--inverse"],
    ["graph-export", "--graph", "ex3", "--depth", "-2", "--format", "dot"],
    ["cs-order", "--r", " +1_0 ", "--q=0"],
    ["dihedral-demo"],
]


def test_table_parser_matches_the_argparse_oracle():
    cases = _readme_commands() + _bench_commands() + _GRAMMAR_CASES
    assert len(cases) == 12 + 5 * 13 + len(_GRAMMAR_CASES)
    parser = helpers.build_parser()
    for argv in cases:
        want = vars(parser.parse_args(argv))
        command = want.pop("command")
        got_command, got = cli._parse(argv)
        assert (got_command, vars(got)) == (command, want), argv


def test_usage_errors_exit_2(capsys, monkeypatch):
    # one command with two flags of a common prefix, for the ambiguous case
    monkeypatch.setitem(cli._COMMANDS, "probe",
                        ("", {"spec": cli._flag(), "subgroup": cli._flag()}))
    cases = [
        [],  # no command
        ["no-such-command"],
        ["--q", "5"],
        ["aut-count", "--p", "5"],  # unknown flag
        ["probe", "--s", "x"],  # ambiguous flag
        ["aut-count", "--q"],  # missing value
        ["aut-count"],  # missing required flag
        ["nagao-decompose", "--q", "2"],
        ["aut-count", "--q", "five"],  # bad int
        ["aut-count", "--q", "5.0"],
        ["graph-export", "--graph", "ex2"],  # choice outside its list
        ["cusp-count", "--q", "2", "--modulus", "t", "--subgroup", "Borel"],
        ["aut-count", "--q", "5", "extra"],  # stray positional argument
        ["aut-count", "5"],
        ["aut-count", "--q", "5", "--"],
        ["aut-count", "--q", "5", "-q", "5"],
        ["reiner-image", "--q", "2", "--spec", "{}", "--matrix", "m", "--inverse=1"],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        out = capsys.readouterr()
        assert out.out == ""
        first, usage = out.err.splitlines()
        assert first.startswith("error: ") and usage.startswith("usage: gl2aut "), argv
    # a bad int of more than 4300 digits is refused by the parser, at once
    with helpers.budget(1), pytest.raises(SystemExit) as exc:
        main(["aut-count", "--q", "9" * 5000])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: --q takes an integer")


def test_readme_shows_every_command_and_help_names_every_flag(capsys):
    assert sorted({argv[0] for argv in _readme_commands()}) == sorted(cli._COMMANDS)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(re.search(rf"^  {name} ", out, re.M) for name in cli._COMMANDS)
    for command, (_summary, flags) in cli._COMMANDS.items():
        for ask in ("--help", "-h"):
            with pytest.raises(SystemExit) as exc:
                main([command, ask])
            assert exc.value.code == 0
            out = capsys.readouterr()
            assert out.err == "" and out.out.startswith(f"usage: gl2aut {command}")
            assert all(re.search(rf"--{flag}\b", out.out) for flag in flags), command


def _console_script(tmp_path):
    """The `gl2aut` console script declared in pyproject.toml.

    An installed script on PATH is used as is.  Without one, the launcher that
    pip would generate for the `[project.scripts]` entry is written to tmp_path.
    """
    found = shutil.which("gl2aut")
    if found:
        return found
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["gl2aut"]
    module, func = target.split(":")
    launcher = tmp_path / "gl2aut"
    launcher.write_text(f"#!{sys.executable}\n"
                        "import sys\n"
                        f"from {module} import {func}\n"
                        "if __name__ == '__main__':\n"
                        f"    sys.exit({func}())\n")
    launcher.chmod(0o755)
    return str(launcher)


def test_installed_entry_point_runs(tmp_path):
    script = _console_script(tmp_path)
    env = helpers.src_first_env()
    proc = subprocess.run([script, "ell-count", "--curve", "q=2;y2+y=x3"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "3"
    proc = subprocess.run([script, "ell-count", "--curve", "q=2;y2=x3"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


_DEFECTS = [AssertionError, ZeroDivisionError, RuntimeError]


@pytest.mark.parametrize("defect", _DEFECTS, ids=lambda e: e.__name__)
def test_a_defect_escapes_main_and_the_script_exits_1(tmp_path, monkeypatch, capsys, defect):
    # only ValueError is a refusal; any other exception from the library is a
    # defect, which leaves main as it is and reaches the launcher as a traceback
    from gl2aut import ffield

    def planted(_q):
        raise defect("planted defect")

    monkeypatch.setattr(ffield, "aut_rel_count", planted)
    with pytest.raises(defect, match="planted defect"):
        main(["aut-count", "--q", "2"])
    assert capsys.readouterr() == ("", "")
    # the same defect in a fresh process, planted by a sitecustomize module
    (tmp_path / "sitecustomize.py").write_text(
        "import gl2aut.ffield\n\n\n"
        "def planted(_q):\n"
        f"    raise {defect.__name__}('planted defect')\n\n\n"
        "gl2aut.ffield.aut_rel_count = planted\n")
    env = helpers.src_first_env()
    env["PYTHONPATH"] = f"{tmp_path}{os.pathsep}{env['PYTHONPATH']}"
    proc = subprocess.run([_console_script(tmp_path), "aut-count", "--q", "2"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("Traceback") and "error:" not in proc.stderr
    assert proc.stderr.endswith(f"{defect.__name__}: planted defect\n")


def test_module_invocation_runs():
    proc = subprocess.run([sys.executable, "-m", "gl2aut.cli", "cs-order",
                           "--r", "3", "--q", "2"],
                          capture_output=True, text=True, env=helpers.src_first_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "48"


# Which gl2aut modules a fresh interpreter holds after importing the CLI and
# running one command, which of the slow-to-import standard modules
# `argparse`, `dataclasses`, `gettext` and `inspect` it holds, and whether it
# holds `json`.  The modules are listed before the probe imports json itself.
# "import" alone as the argument means the import of the CLI alone.
_FOOTPRINT = """
import io, sys
import gl2aut.cli
code = None
if sys.argv[1:] != ["import"]:
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = gl2aut.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout = stdout
loaded = set(sys.modules)
import json
print(json.dumps([code, sorted(m for m in loaded if m.startswith("gl2aut")),
                  [m for m in ("argparse", "dataclasses", "gettext", "inspect")
                   if m in loaded], "json" in loaded]))
"""

_CURVES = ["curves", "ffield", "record"]
_NAGAO = ["ffield", "matgroup", "nagao", "polyring", "record"]
_WORDS = ["closure", "curves", "ffield", "graphs", "matgroup", "nagao", "polyring",
          "record", "reiner", "words"]
_SPEC = json.dumps({"map": {"2": [0, 1, 1]}, "inverse": {"2": [0, 1, 1]}})
# the commands that print no JSON and read none
_NO_JSON = ("--help", "ell-count", "cs-order", "nagao-decompose", "cusp-count")


_FOOTPRINTS = [
    (None, []),
    (["--help"], []),
    (["aut-count", "--q", "5"], ["ffield"]),
    (["ell-count", "--curve", "q=2;y2+y=x3"], _CURVES),
    (["class-data", "--curve", "q=2;y2+y=x3"], _CURVES),
    (["cs-order", "--r", "1", "--q", "2"], _CURVES),
    (["nagao-decompose", "--q", "2", "--matrix", "[[1,0],[t,1]]"], _NAGAO),
    (["reiner-image", "--q", "2", "--spec", _SPEC, "--matrix", "[[1,t],[0,1]]"],
     _NAGAO + ["reiner"]),
    (["unipotent-fiber", "--q", "2", "--spec", _SPEC, "--modulus", "t^2",
      "--bound", "3"], _NAGAO + ["reiner"]),
    (["cusp-count", "--q", "2", "--modulus", "t", "--subgroup", "borel"],
     ["closure", "cosets", "ffield", "matgroup", "polyring", "record"]),
    (["graph-export", "--graph", "ex1"], ["closure", "ffield", "graphs", "record"]),
    (["cs-wreath-check", "--r", "2", "--q", "2"], _WORDS),
    (["dihedral-demo"], _WORDS),
    (["aut-apply", "--decl", "ex1cusp", "--script", "[]", "--word", "f1:1"],
     _WORDS),
]


@pytest.mark.parametrize("argv, loaded", _FOOTPRINTS,
                         ids=["import" if a is None else a[0] for a, _ in _FOOTPRINTS])
def test_subcommand_loads_only_the_modules_it_runs(argv, loaded):
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT] + (argv or ["import"]),
                          capture_output=True, text=True,
                          env=helpers.src_first_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, modules, slow, has_json = json.loads(proc.stdout)
    assert code == (None if argv is None else 0)
    assert modules == sorted(["gl2aut", "gl2aut.cli"]
                             + [f"gl2aut.{m}" for m in loaded])
    assert slow == []
    if argv is None or argv[0] in _NO_JSON:
        assert not has_json
