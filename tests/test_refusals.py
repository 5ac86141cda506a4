"""Inputs outside the group are refused where they enter, each with one fixed
message: word letters, generators, Nagao letters, cusp-count generators, the
quotient-group cap, coefficients that are no numeral, the CLI commands that
read matrices and JSON text that does not parse.  The messages are pinned,
so moving a check does not change what a caller sees.  A refusal names a
long value by its type and length, so its line stays short."""

import json

import pytest

from gl2aut import cosets, curves, nagao
from gl2aut.cli import main as cli_main
from gl2aut.ffield import field_make
from gl2aut.matgroup import mat_parse
from gl2aut.polyring import PolyRing, poly_ring
from gl2aut.words import (CentralAmalgamDecl, FactorDecl, FreeWord, MatrixBacked,
                          PartialConj, Swap, build_ex1cusp, compose_autos, word_parse,
                          word_reduce)

EX1 = build_ex1cusp()
RING = EX1.factors[0].kind.ring
DIAGONAL_T = mat_parse(RING, "[[t,0],[0,1]]")   # det t: no unit
UPPER_T = mat_parse(RING, "[[t,1],[0,1]]")      # det t, upper triangular
F19_RING = poly_ring(field_make(19))  # |G| = 123 120 mod t, past the cap

# two matrix factors over distinct ring objects of F_2: unequal kinds, with
# no letter of one in the other, so no swap exchanges them
_F2 = field_make(2)
TWO_RINGS = CentralAmalgamDecl((FactorDecl(MatrixBacked(poly_ring(_F2))),
                                FactorDecl(MatrixBacked(PolyRing(_F2)))))

LIBRARY_ROWS = {
    "word_reduce": (lambda: word_reduce(EX1, [(1, 1), (0, DIAGONAL_T)]),
                    "element Mat2([[t,0],[0,1]]) is not in factor 0"),
    "word_parse": (lambda: word_parse(EX1, "f1:1.f0:[[t,0],[0,1]]"),
                   "matrix '[[t,0],[0,1]]' is not invertible over the factor ring"),
    "conjugator": (lambda: compose_autos(EX1, [PartialConj(0, 1, DIAGONAL_T)]),
                   "conjugator is not an element of the source factor"),
    "apply": (lambda: compose_autos(EX1, [PartialConj(1, 0, 1), Swap(1, 2)]).apply(
                  FreeWord(((1, 2), (0, DIAGONAL_T)))),
              "element Mat2([[t,0],[0,1]]) is not in factor 0"),
    "cross-ring swap": (lambda: compose_autos(TWO_RINGS, [Swap(0, 1)]),
                        "swap requires isomorphic factors"),
    "nagao letter": (lambda: nagao.letter("B", UPPER_T),
                     "letter matrix [[t,1],[0,1]] is not invertible over F_q[t]"),
    "normalize": (lambda: nagao.normalize(RING, [nagao.Letter("B", UPPER_T)]),
                  "invalid letter B:[[t,1],[0,1]]"),
    "group cap": (lambda: cosets.QuotRing(F19_RING, F19_RING.t),
                  "the quotient group has more than 100000 elements"),
    # a coefficient that is no numeral is named up to 40 characters, else counted
    "numeral": (lambda: curves.curve_from_text("q=7;y2=x3+-x+2"), "bad numeral '-'"),
    "long numeral": (lambda: curves.curve_from_text("q=9;y2=x3+" + "z" * 41 + "x+2"),
                     "bad numeral <str of length 41>"),
}


@pytest.mark.parametrize("row", sorted(LIBRARY_ROWS))
def test_library_refusals_keep_their_message(row):
    call, message = LIBRARY_ROWS[row]
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError and str(caught.value) == message


_DEEP = "[" * 100_000 + "]" * 100_000
_BAD_CONJUGATOR = json.dumps([{"type": "partial_conj", "source": 0, "target": 1,
                               "conjugator": "[[t,0],[0,1]]"}])
CLI_ROWS = {
    "cusp-count": (["cusp-count", "--q", "2", "--modulus", "t^2",
                    "--gens", "[[t,1],[0,1]]"],
                   "[[t,1],[0,1]] is not invertible over F_q[t]"),
    "aut-apply word": (["aut-apply", "--decl", "ex1cusp", "--script", "[]",
                        "--word", "f0:[[t,0],[0,1]]"],
                       "matrix '[[t,0],[0,1]]' is not invertible over the factor ring"),
    "aut-apply conjugator": (["aut-apply", "--decl", "ex1cusp", "--script",
                              _BAD_CONJUGATOR, "--word", "f1:1"],
                             "matrix '[[t,0],[0,1]]' is not invertible over the "
                             "factor ring"),
    "nagao-decompose": (["nagao-decompose", "--q", "2", "--matrix", "[[t,1],[0,1]]"],
                        "[[t,1],[0,1]] is not invertible over F_q[t]"),
    "ell-count numeral": (["ell-count", "--curve", "q=7;y2=x3+-x+2"], "bad numeral '-'"),
    "cusp-count cap": (["cusp-count", "--q", "19", "--modulus", "t"],
                       "the quotient group has more than 100000 elements"),
    # json.loads meets the recursion limit, and the text is named by its length
    "deep spec": (["reiner-image", "--q", "2", "--matrix", "[[1,t],[0,1]]",
                   "--spec", _DEEP],
                  "<str of length 200000> is neither a readable file nor inline JSON"),
    "deep script": (["aut-apply", "--decl", "ex1cusp", "--script", _DEEP, "--word", "f1:1"],
                    "<str of length 200000> is neither a readable file nor inline JSON"),
    # the same texts read from a file, which each test writes to its directory
    "deep spec file": (["reiner-image", "--q", "2", "--matrix", "[[1,t],[0,1]]",
                        "--spec", "deep.json"],
                       "the file 'deep.json' holds no valid JSON"),
    "deep script file": (["aut-apply", "--decl", "ex1cusp", "--script", "deep.json",
                          "--word", "f1:1"],
                         "the file 'deep.json' holds no valid JSON"),
    # a field size and a factor index are named by their length
    "aut-count long field size": (["aut-count", "--q", "9" * 4000],
                                  "field size <int of length 4000> exceeds 65536"),
    "ell-count long field size": (["ell-count", "--curve", "q=" + "9" * 4000 + ";y2=x3+1"],
                                  "field size <int of length 4000> exceeds 65536"),
    "aut-apply long factor index": (["aut-apply", "--decl", "ex1cusp", "--script", "[]",
                                     "--word", "f" + "9" * 5000 + ":1"],
                                    "no factor with index <str of length 5000>"),
    # refused before the points are enumerated, naming the least r over the field
    "cs-order large field": (["cs-order", "--curve", "q=59049;y2=x3+x+1"],
                             "every curve over F_59049 has r >= 29280, and r! * 47200^r "
                             "has more than 4300 digits for r = 29280"),
}


@pytest.mark.parametrize("row", sorted(CLI_ROWS))
def test_cli_refusals_keep_their_message(row, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text(_DEEP)
    argv, message = CLI_ROWS[row]
    code = cli_main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _unreached(*_args):
    raise AssertionError("the costly step ran")


# CLI_ROWS refused before the costly step of their command: that step is
# replaced by one that fails, and the line still exits 2 with its message
COSTLY_STEPS = {"cusp-count": (cosets, "quotient_context"),
                "cs-order large field": (curves, "enumerate_points")}


@pytest.mark.parametrize("row", sorted(COSTLY_STEPS))
def test_cli_refuses_before_the_costly_step(row, capsys, monkeypatch):
    monkeypatch.setattr(*COSTLY_STEPS[row], _unreached)
    argv, message = CLI_ROWS[row]
    code = cli_main(argv)
    assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")


_LONG = "a" * 3000
_SPEC = ["reiner-image", "--q", "2", "--matrix", "[[1,t],[0,1]]", "--spec"]
_SCRIPT = ["aut-apply", "--decl", "ex1cusp", "--word", "f1:1", "--script"]
LONG_VALUES = {
    "script string": _SCRIPT + [json.dumps([{"type": "type1", "factor": _LONG,
                                             "exponent": 2}])],
    "script list": _SCRIPT + [json.dumps([{"type": "swap", "left": [[0]] * 3000,
                                           "right": 1}])],
    "spec index": _SPEC + [json.dumps({"map": {_LONG: [0, 1]}, "inverse": {}})],
    "spec digits": _SPEC + [json.dumps({"map": {"1" * 3000: [0, 1]}, "inverse": {}})],
    "spec image": _SPEC + [json.dumps({"map": {"1": [_LONG]}, "inverse": {}})],
    "spec code": _SPEC + [json.dumps({"map": {"1": [0, int("9" * 3000)]}, "inverse": {}})],
    "curve numeral": ["ell-count", "--curve", f"q=7;y2=x3+{_LONG}x+2"],
}


@pytest.mark.parametrize("row", sorted(LONG_VALUES))
def test_a_long_value_is_named_in_a_short_refusal(row, capsys):
    code = cli_main(LONG_VALUES[row])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert len(err.encode()) < 200, err
