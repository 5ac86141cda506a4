"""The CLI contract, held by a budgeted fuzzer over the command table.

Every command line either answers (exit 0, the answer on stdout, nothing on
stderr) within ANSWER_S, or is refused (exit 2, nothing on stdout, one
`error:` line on stderr, followed by a usage line for a usage error) within
REFUSE_S.  No example allocates more than PEAK_MB at its tracemalloc peak.
Any exception that escapes `cli.main` is a defect and fails the test: the
library refuses input only by raising ValueError.

The command comes from `cli._COMMANDS` and each flag's value from a small
grammar for its kind of text (polynomials, matrices, specs, scripts, words,
curves, integers), near valid and at the edges: long numerals, high
exponents, field sizes at both ends of the accepted range, JSON nested past
the recursion limit.  Each example runs in-process twice: timed, then under
tracemalloc for its peak, since tracing costs 2x (a quotient context) to 8x
(points over F_(2^16)) the time.  Every field the grammars name is built
before the first example, so no example pays for its tables, and the
quotient contexts of `cusp-count` are dropped before each run, so every run
builds its own.  Curves stop at F_4096: past it the traced run of one curve
takes seconds, and the large-field test of test_cli.py times those fields.

The seed corpus (`@example`) holds every input that CHANGES.md records as
MENDED and the CLI can express, the inputs that refuse before they compute,
and the deep JSON texts.
"""

import io
import json
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gl2aut import cli, cosets
from gl2aut.ffield import field_of_order
from gl2aut.polyring import poly_ring

import helpers

# Times are seconds in-process on a 2-vCPU Xeon (Python 3.11) after the field
# tables are built; between runs there they vary by up to half.  Outside
# SLOW_CUSP_ROWS the slowest answers the grammars reach are cusp-count over
# F_3 mod t^3 (0.57 s) and over F_4 mod t^2 (0.27 s); every other command
# answers within 0.16 s (reiner-image of a 400-deep unitriangular spec), and
# the slowest refusal seen in 3 000 examples took 0.002 s.  The answer budget
# is HEADROOM times the slowest answer, so an answer has to slow down
# five-fold to fail: a busy or slower machine stays inside it, a regression
# of that size does not.  The refusal budget is the contract's one second.
HEADROOM = 5
ANSWER_S = HEADROOM * 0.6
REFUSE_S = 1.0
PEAK_MB = 64

# cusp-count inputs whose quotient context takes a second or more, keyed by
# (q, degree of the modulus), with the seconds of their slowest subgroup in
# the slowest run seen.  Their quotient groups have 26 208 (F_13), 60 000
# (F_5 mod t^2), 61 200 (F_16) and 78 336 (F_17) elements, all of which the
# context enumerates.  The fuzzer skips a line that builds one of these
# contexts; making them fast removes them, and a new row is a regression.
SLOW_CUSP_ROWS = {(5, 2): 2.1, (13, 1): 1.3, (16, 1): 3.7, (17, 1): 5.7}

def _near(valid, edge):
    """Five draws in six from the valid grammar, the rest from the edges."""
    return st.one_of(*[valid] * 5, edge)


# valid field sizes: both ends of the range, every kind of field between
VALID_QS = (2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 25, 27, 64, 81, 243, 256,
            4096, 19683, 59049, 65521, 65536)
HUGE = "9" * 5000
BAD_INTS = st.sampled_from((
    "0", "1", "-1", "6", "12", "19", "65537", "1000000000000000003", str(2 ** 61 - 1),
    str(-(2 ** 16)), HUGE, "", "x", "1.5", "2e3", "0x10"))
INT_TEXT = _near(st.integers(-1, 8).map(str), BAD_INTS)
Q_TEXT = _near(st.sampled_from(VALID_QS).map(str), BAD_INTS)
CURVE_Q_TEXT = _near(st.sampled_from([q for q in VALID_QS if q <= 4096]).map(str), BAD_INTS)

COEFFS = ("", "1", "2", "3", "0", "(1,1)", "(0,1)", "(2,1,1)", HUGE, f"({HUGE},1)", "-")
POWERS = ("", "^0", "^1", "^2", "^3", "^6", "^1000", "^1001", "^" + HUGE, "^-1", "^")
POLY = _near(
    st.sampled_from(("0", "1", "2", "t", "-t", "t^2+1", "t+1", "2t+1", "t^2+t+1",
                     "(1,1)t", "t^3+t", "t^1000")),
    st.one_of(st.sampled_from(("", "x", "+", "t-", "t^", "()")),
              st.lists(st.tuples(st.sampled_from(("+", "-")), st.sampled_from(COEFFS),
                                 st.booleans(), st.sampled_from(POWERS)),
                       min_size=1, max_size=4).map(
                  lambda terms: "".join(s + c + ("t" + p if v else "")
                                        for s, c, v, p in terms))))
# the moduli of cusp-count stay few, since each one builds a quotient context
MODULUS = _near(st.sampled_from(("t", "t+1", "t^2", "t^2+1", "t^3", "2t")),
                st.sampled_from(("0", "1", "t^7", "t^1001", "x", "")))

MATRIX = _near(
    st.one_of(st.sampled_from(("[[1,0],[0,1]]", "[[0,1],[1,0]]", "[[2,0],[0,1]]",
                               "[[t,1],[t^2+t+1,t+1]]")),
              st.builds("[[1,{}],[0,1]]".format, POLY),
              st.builds("[[1,0],[{}, 1]]".format, POLY)),
    st.one_of(st.sampled_from(("[[t,0],[0,1]]", "[[1,t]]", "[]", "[[1,0],[0,1],[1,1]]",
                               "[[1,t],[0,1]", "[[(1,1),t],[0,1]]")),
              st.builds("[[{},{}],[{},{}]]".format, POLY, POLY, POLY, POLY)))
GENS = st.lists(MATRIX, max_size=3).map(";".join)


def _nested(depth):
    return "[" * depth + "]" * depth


DEEP = (_nested(100_000), _nested(5000), _nested(900), '{"map":' * 5000 + "1" + "}" * 5000)
CODES = st.one_of(st.lists(st.integers(-1, 3), max_size=5),
                  st.sampled_from(([0, 1], [0, 0, 1], [0, 2], [], [0], 1, None, "a",
                                   [0, 10 ** 30], [False, True])))
SPEC_KEYS = _near(st.integers(1, 4).map(str),
                  st.sampled_from(("0", "01", "-1", " 1", "1001", HUGE, "x")))
SPEC_OBJ = _near(
    st.sampled_from(({"map": {}, "inverse": {}},
                     {"map": {"1": [0, 0, 1], "2": [0, 1]},
                      "inverse": {"1": [0, 0, 1], "2": [0, 1]}},
                     {"map": {"2": [0, 1, 1]}, "inverse": {"2": [0, 1, 1]}},
                     {"map": {"1": [0, 1, 1]}, "inverse": {"1": [0, 1, 1]}})),
    st.one_of(st.sampled_from(({"map": {"1": [0, 1], "1000": [0, 1]}, "inverse": {}},
                               {"map": {"1": [0, 1] * 500}, "inverse": {"1": [0, 1]}},
                               [1], None, "abc", 3)),
              st.fixed_dictionaries({"map": st.dictionaries(SPEC_KEYS, CODES, max_size=3),
                                     "inverse": st.dictionaries(SPEC_KEYS, CODES,
                                                                max_size=3)})))
SPEC = _near(SPEC_OBJ.map(json.dumps), st.sampled_from(DEEP + ("{not json", "", "[")))

FIELD_VALUES = _near(st.integers(0, 3), st.sampled_from((-1, 10 ** 30, "1", 1.5, None,
                                                         [2], {}, True)))
RECORD = _near(
    st.sampled_from(({"type": "type1", "factor": 1, "exponent": 2},
                     {"type": "type1", "factor": 0, "conjugate_by": "[[1,t],[0,1]]"},
                     {"type": "type1", "factor": 0, "linear": {"map": {}, "inverse": {}}},
                     {"type": "partial_conj", "source": 0, "target": 1,
                      "conjugator": "[[0,1],[1,0]]"},
                     {"type": "swap", "left": 1, "right": 2},
                     {"type": "spike", "factor": 1, "exponent": 2, "q": 2},
                     {"type": "spike_swap", "left": 1, "right": 2, "exponent": 1, "q": 2})),
    st.one_of(
        st.fixed_dictionaries({"type": st.just("type1"), "factor": FIELD_VALUES,
                               "exponent": FIELD_VALUES}),
        st.fixed_dictionaries({"type": st.just("type1"), "factor": FIELD_VALUES,
                               "conjugate_by": MATRIX}),
        st.fixed_dictionaries({"type": st.just("type1"), "factor": FIELD_VALUES,
                               "linear": SPEC_OBJ}),
        st.fixed_dictionaries({"type": st.just("partial_conj"), "source": FIELD_VALUES,
                               "target": FIELD_VALUES, "conjugator": MATRIX}),
        st.fixed_dictionaries({"type": st.just("swap"), "left": FIELD_VALUES,
                               "right": FIELD_VALUES, "exponent": FIELD_VALUES}),
        st.fixed_dictionaries({"type": st.sampled_from(("spike", "spike_swap")),
                               "factor": FIELD_VALUES, "left": FIELD_VALUES,
                               "right": FIELD_VALUES, "exponent": FIELD_VALUES,
                               "q": FIELD_VALUES}),
        st.sampled_from(({}, {"type": "mystery"}, [], None, {"type": "type1"}))))
SCRIPT = _near(st.lists(RECORD, max_size=4).map(json.dumps),
               st.sampled_from(DEEP + ("{}", "[", "1")))

LETTER = _near(
    st.sampled_from(("f0:[[1,t],[0,1]]", "f0:[[0,1],[1,0]]", "f0:[[1,0],[t^2,1]]", "f1:1",
                     "f1:1", "f2:1", "f2:(1)", "f2:(0,1)", "f3:(1,1)", "f0:1")),
    st.builds("f{}:{}".format, st.integers(0, 4),
              st.one_of(st.sampled_from(("0", "3", "-1", HUGE, "()", "(9)", "(", "x", "")),
                        MATRIX)))
WORD = _near(st.lists(LETTER, min_size=1, max_size=3).map(".".join),
             st.sampled_from(("e", "", "f0", "f9:1", "f1:1·f2:1", "f99999:1",
                              "f" + HUGE + ":1", "f1:1..f2:1")))

CURVE = _near(
    st.sampled_from(("q=2;y2+y=x3", "q=2;y2+y=x3+x+1", "q=5;y2=x3+x+1", "q=4;y2+xy=x3+1",
                     "q=4096;y2+xy=x3+1", "q=243;y2=x3+x+1", "q=7;y2=x3+3",
                     "q=8;y2+xy=x3+(1,1)", "q=9;y2=x3+x+(0,1)")),
    st.one_of(
        st.sampled_from(("q=2;y2=x3", "q=65537;y2=x3+x+1", f"q={HUGE};y2=x3+1",
                         "q=1000000000000000003;y2=x3+1", "y2=x3", "q=3", "q=3;y2=x3-x",
                         "")),
        st.builds(lambda q, a1, a3, a2, a4, a6: (
                      f"q={q};y2" + (f"+{a1}xy" if a1 else "") + (f"+{a3}y" if a3 else "")
                      + "=x3" + (f"+{a2}x2" if a2 else "") + (f"+{a4}x" if a4 else "")
                      + (f"+{a6}" if a6 else "")),
                  CURVE_Q_TEXT, *[st.sampled_from(COEFFS[1:])] * 5)))

# the grammar of each flag's value, by flag name
VALUES = {"q": Q_TEXT, "r": INT_TEXT, "bound": INT_TEXT, "depth": INT_TEXT,
          "curve": CURVE, "matrix": MATRIX, "modulus": MODULUS, "gens": GENS,
          "spec": SPEC, "script": SCRIPT, "word": WORD,
          "decl": _near(st.sampled_from(("ex1cusp", "ex3cusps", "dihedral")),
                        st.sampled_from(("ex2", ""))),
          "subgroup": _near(st.sampled_from(("trivial", "borel", "full")), st.just("none")),
          "graph": _near(st.sampled_from(("ex1", "ex3")), st.just("ex2")),
          "format": _near(st.sampled_from(("dot", "json")), st.just("svg"))}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command]
    for name, (kind, required, _default, _choices, _text) in cli._COMMANDS[command][1].items():
        # a required flag is left out one time in twenty, an optional one half the time
        if not draw(st.sampled_from((True,) * 19 + (False,) if required else (True, False))):
            continue
        if kind is bool:
            argv.append(f"--{name}")
        elif draw(st.booleans()):
            argv += [f"--{name}", draw(VALUES[name])]
        else:
            argv.append(f"--{name}={draw(VALUES[name])}")
    # one line in twenty ends in a stray argument
    if not draw(st.sampled_from((True,) * 19 + (False,))):
        argv.append(draw(st.sampled_from(("--nope", "stray", "--q", "--"))))
    return argv


def _slow_row(argv):
    """Whether the line builds a quotient context of SLOW_CUSP_ROWS.  A
    cusp-count line runs first with the context replaced by a stub that
    records its key and refuses, so a line refused before its context is
    built is still held to the contract."""
    if argv[0] != "cusp-count":
        return False
    keys = []

    def stub(ring, modulus):
        keys.append((ring.field.q, modulus.deg))
        raise ValueError("stub")

    real, cosets.quotient_context = cosets.quotient_context, stub
    try:
        _run(argv)
    finally:
        cosets.quotient_context = real
    return bool(keys) and keys[0] in SLOW_CUSP_ROWS


def _run(argv):
    """Exit code, stdout, stderr and seconds of one line."""
    cosets._CTX_CACHE.clear()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _peak(argv):
    """The tracemalloc peak of a second run of the line, in bytes."""
    tracemalloc.start()
    try:
        _run(argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def warm_fields():
    for q in VALID_QS:
        poly_ring(field_of_order(q))


CORPUS = [
    # MENDED inputs from CHANGES.md
    ["cusp-count", "--q", "2", "--modulus", "t^4", "--subgroup", "full"],
    ["cusp-count", "--q", "7", "--modulus", "t"],
    ["cusp-count", "--q", "3", "--modulus", "t^2+1", "--subgroup", "trivial"],
    ["cusp-count", "--q", "4", "--modulus", "t", "--subgroup", "borel"],
    ["nagao-decompose", "--q", "4", "--matrix", "[[0,1],[1,0]]"],
    ["cusp-count", "--q", "2", "--modulus", "t^8", "--subgroup", "borel"],
    ["cusp-count", "--q", "2", "--modulus", "t^6", "--subgroup", "borel"],
    ["aut-count", "--q", "1000000000000000003"],
    ["ell-count", "--curve", "q=1000000000000000003;y2=x3+x+1"],
    ["nagao-decompose", "--q", "65536", "--matrix", "[[1,t],[0,1]]"],
    ["nagao-decompose", "--q", "59049", "--matrix", "[[1,t],[0,1]]"],
    ["aut-apply", "--decl", "ex1cusp", "--script",
     '[{"type":"type1","factor":1,"exponent":[2]}]', "--word", "f1:1"],
    ["aut-apply", "--decl", "ex1cusp", "--script",
     '[{"type":"spike","factor":1,"exponent":1.9,"q":2}]', "--word", "f1:1"],
    ["reiner-image", "--q", "2", "--matrix", "[[1,t],[0,1]]", "--spec",
     '{"map":{"1":[0,1],"01":[0,1]},"inverse":{"1":[0,1]}}'],
    ["reiner-image", "--q", "2", "--matrix", "[[1,t],[0,1]]", "--spec",
     json.dumps(helpers.unitriangular_spec(400, "map"))],
    ["reiner-image", "--q", "2", "--matrix", "[[1,t],[0,1]]", "--spec",
     json.dumps(helpers.unitriangular_spec(200, "map"))],
    ["reiner-image", "--q", "3", "--matrix", "[[1,t],[0,1]]", "--spec",
     json.dumps({"map": {str(i): [0] * i + [2] for i in range(1, 600)},
                 "inverse": {str(i): [0] * i + [2] for i in range(1, 600)}})],
    ["reiner-image", "--q", "2", "--matrix", "[[1,t],[0,1]]", "--inverse", "--spec",
     json.dumps({"map": {"1": [0] * 1000 + [1], "1000": [0, 1]},
                 "inverse": {"1": [0] * 1000 + [1], "1000": [0, 1]}})],
    ["nagao-decompose", "--q", "2", "--matrix", f"[[1,t^{HUGE}],[0,1]]"],
    ["nagao-decompose", "--q", "2", "--matrix", f"[[1,{HUGE}t],[0,1]]"],
    ["nagao-decompose", "--q", "4", "--matrix", f"[[1,({HUGE},1)t],[0,1]]"],
    ["unipotent-fiber", "--q", "65521", "--spec", '{"map":{},"inverse":{}}',
     "--modulus", "t^2", "--bound", "0"],
    # refused before the quotient context is built
    ["cusp-count", "--q", "5", "--modulus", "t^2", "--gens", "[[t,0],[0,1]]"],
    ["cusp-count", "--q", "19", "--modulus", "t"],
    # refused before the points are enumerated
    ["cs-order", "--curve", "q=59049;y2=x3+x+1"],
    ["cs-order", "--curve", "q=65536;y2+xy=x3+1"],
    # JSON nested past the recursion limit
    ["reiner-image", "--q", "2", "--matrix", "[[1,t],[0,1]]", "--spec", DEEP[0]],
    ["aut-apply", "--decl", "ex1cusp", "--script", DEEP[0], "--word", "f1:1"],
]


def _with_corpus(test):
    for argv in reversed(CORPUS):
        test = example(argv=argv)(test)
    return test


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(argv=command_lines())
@_with_corpus
def test_every_command_line_answers_or_is_refused_in_budget(warm_fields, argv):
    if _slow_row(argv):
        return
    code, out, err, seconds = _run(argv)
    shown = " ".join(a if len(a) <= 60 else f"<{len(a)} characters>" for a in argv)
    if code == 0:
        assert out.endswith("\n") and err == "", shown
        assert seconds < ANSWER_S, f"{shown}: answered in {seconds:.2f} s"
    else:
        lines = err.splitlines()
        assert code == 2 and out == "", shown
        assert lines[0].startswith("error: ") and (
            len(lines) == 1 or len(lines) == 2 and lines[1].startswith("usage: gl2aut")), \
            f"{shown}: {err!r}"
        assert seconds < REFUSE_S, f"{shown}: refused in {seconds:.2f} s"
    peak = _peak(argv)
    assert peak < PEAK_MB << 20, f"{shown}: tracemalloc peak {peak >> 20} MB"
