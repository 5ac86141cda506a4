"""Inputs outside the group are refused where they enter, each with one fixed
message: word letters, generators, Nagao letters, cusp-count generators and
the CLI commands that read matrices.  The messages are pinned, so moving a
check does not change what a caller sees."""

import json

import pytest

from gl2aut import nagao
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
}


@pytest.mark.parametrize("row", sorted(LIBRARY_ROWS))
def test_library_refusals_keep_their_message(row):
    call, message = LIBRARY_ROWS[row]
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError and str(caught.value) == message


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
}


@pytest.mark.parametrize("row", sorted(CLI_ROWS))
def test_cli_refusals_keep_their_message(row, capsys):
    argv, message = CLI_ROWS[row]
    code = cli_main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message}\n")
