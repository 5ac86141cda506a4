"""Inputs outside the group are refused where they enter, each with one fixed
message: word letters, generators, Nagao letters, cusp-count generators, the
quotient-group cap, the CLI commands that read matrices and JSON text that
does not parse.  The messages are pinned, so moving a check does not change
what a caller sees."""

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
UNIPOTENT = mat_parse(RING, "[[1,t],[0,1]]")
F19_RING = poly_ring(field_make(19))  # |G| = 123 120 mod t, past the cap

# two matrix factors over distinct ring objects of F_2: a swap is allowed,
# since they share an iso_key, but no letter of one lies in the other
_F2 = field_make(2)
TWO_RINGS = CentralAmalgamDecl((FactorDecl(0, MatrixBacked(poly_ring(_F2))),
                                FactorDecl(1, MatrixBacked(PolyRing(_F2)))))

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
    "cross-ring swap": (lambda: compose_autos(TWO_RINGS, [Swap(0, 1)]).apply(
                            word_reduce(TWO_RINGS, [(0, UNIPOTENT)])),
                        "element Mat2([[1,t],[0,1]]) is not in factor 1"),
    "nagao letter": (lambda: nagao.letter("B", UPPER_T),
                     "letter matrix [[t,1],[0,1]] is not invertible over F_q[t]"),
    "normalize": (lambda: nagao.normalize(RING, [nagao.Letter("B", UPPER_T)]),
                  "invalid letter B:[[t,1],[0,1]]"),
    "group cap": (lambda: cosets.QuotRing(F19_RING, F19_RING.t),
                  "the quotient group has more than 100000 elements"),
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
    "cusp-count cap": (["cusp-count", "--q", "19", "--modulus", "t"],
                       "the quotient group has more than 100000 elements"),
    # json.loads meets the recursion limit, and the text is named by its length
    "deep spec": (["reiner-image", "--q", "2", "--matrix", "[[1,t],[0,1]]",
                   "--spec", _DEEP],
                  "a text of 200000 characters is neither a readable file nor inline JSON"),
    "deep script": (["aut-apply", "--decl", "ex1cusp", "--script", _DEEP, "--word", "f1:1"],
                    "a text of 200000 characters is neither a readable file nor inline JSON"),
    # the same texts read from a file, which each test writes to its directory
    "deep spec file": (["reiner-image", "--q", "2", "--matrix", "[[1,t],[0,1]]",
                        "--spec", "deep.json"],
                       "the file 'deep.json' holds no valid JSON"),
    "deep script file": (["aut-apply", "--decl", "ex1cusp", "--script", "deep.json",
                          "--word", "f1:1"],
                         "the file 'deep.json' holds no valid JSON"),
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
