"""normal_form: word arithmetic in GL2(F_q[t]) over F_2, F_3 and F_4.

polyring and matgroup do most of the work and cosets none, so a polynomial
kernel or a normal-form change shows here.  F_4 puts a case on the far side
of any path that only serves prime fields.
"""

from __future__ import annotations

import random

import oracle as O
from common import (W, degree_letters, make_mat, mat_codes, rand_const_gl2,
                    rand_linear_spec, rand_upper, small_letters, verified_once)
from harness import Op

NAME = "normal_form"
TAIL_PCT = 99.0
CHILD_PROCESSES = False
FIELDS = (2, 3, 4)
REINER_FIELDS = (2, 3)
# Every input has a fixed shape with random coefficients, so the work of a
# round hardly depends on the seed.
PARTS = (1, 2, 1, 3, 1)       # unipotent degrees: matrices of entry degree 8
MATRICES = 16                 # per field
SIDES = "GBBGBGGB"            # letter sides of the sequences given to normalize
SEQUENCES = 16                # per field
PAIRS = 6                     # (m1, m2) pairs for the homomorphism checks
SPEC_DIM = 3                  # the substitution moves span{t, t^2, t^3}
FACTORS = (0, 1, 0, 2, 0, 1, 2, 0, 2, 0)   # factor of each letter of a word
WORDS = 12                    # ex1cusp words for the partial conjugations


def _word_codes(word) -> tuple:
    return tuple((lt.side, mat_codes(lt.mat)) for lt in word)


def joined_pair(rng, F) -> tuple:
    """Letters of m1 and m2 (entry degree 8 each) whose product m1 m2 has
    entry degree 16: the constants where they meet multiply to j W with j in
    J = B2(F_q), which no fold can absorb, so m1 m2 always has the same shape."""
    l1, l2 = degree_letters(rng, F, PARTS), degree_letters(rng, F, PARTS)
    j = ((rng.randrange(1, F.q),), O.ptrim((rng.randrange(F.q),)), (),
         (rng.randrange(1, F.q),))
    l2[0] = O.mmul(F, O.minv(F, l1[-1]), O.mmul(F, j, W))
    return l1, l2


class Workload:
    def __init__(self, seed: int):
        rng = random.Random(f"{NAME}:{seed}")
        self.plan = {}
        for q in FIELDS:
            F = O.ofield(q)
            mats = [degree_letters(rng, F, PARTS) for _ in range(MATRICES)]
            seqs = [[(side, rand_const_gl2(rng, F) if side == "G" else rand_upper(rng, F, 3))
                     for side in SIDES] for _ in range(SEQUENCES)]
            self.plan[q] = {"mats": mats, "seqs": seqs}
            if q in REINER_FIELDS:
                images, inverse = rand_linear_spec(rng, F, SPEC_DIM)
                self.plan[q]["spec"] = (images, inverse)
                self.plan[q]["pairs"] = [joined_pair(rng, F) for _ in range(PAIRS)]
                self.plan[q]["const"] = rand_const_gl2(rng, F)
                self.plan[q]["upper"] = rand_upper(rng, F, 5)
        F2 = O.ofield(2)
        words = []
        for _ in range(WORDS):
            letters = [(idx, O.mprod(F2, small_letters(rng, F2, 2)) if idx == 0
                         else rng.randrange(1, 3)) for idx in FACTORS]
            # conjugate factor 0 by a spike element, a spike factor by a
            # matrix, then factor 0 by the other spike
            gens = [(1, 0, rng.randrange(1, 3)),
                    (0, rng.choice((1, 2)), O.mprod(F2, small_letters(rng, F2, 2))),
                    (2, 0, rng.randrange(1, 3))]
            words.append((letters, gens))
        self.plan["words"] = words

    def build(self, lib) -> list:
        """Library objects for every input, then the round's operations."""
        ops = []
        nagao, reiner, words = lib.nagao, lib.reiner, lib.words
        for q in FIELDS:
            F = O.ofield(q)
            ring = lib.polyring.poly_ring(lib.ffield.field_of_order(q))
            plan = self.plan[q]
            for i, letters in enumerate(plan["mats"]):
                target = O.mprod(F, letters)
                m = make_mat(lib, ring, target)
                ops.append(self._roundtrip_op(lib, ring, F, f"decompose q={q} #{i}", m, target))
            for i, seq in enumerate(plan["seqs"]):
                lts = [nagao.letter(side, make_mat(lib, ring, mat)) for side, mat in seq]
                target = O.mprod(F, [mat for _s, mat in seq])
                ops.append(self._normalize_op(lib, ring, F, f"normalize q={q} #{i}", lts, target))
            if q not in REINER_FIELDS:
                continue
            images, inverse = plan["spec"]
            spec = reiner.LinearAutoSpec(
                ring, {i: ring.poly(c) for i, c in images.items()},
                {i: ring.poly(c) for i, c in inverse.items()})
            for k, (l1, l2) in enumerate(plan["pairs"]):
                for tag, letters in (("m1", l1), ("m2", l2), ("m1m2", l1 + l2)):
                    m = make_mat(lib, ring, O.mprod(F, letters))
                    want = O.phi_matrix(F, images, letters)
                    ops.append(self._reiner_op(lib, "reiner_apply", spec, m, want,
                                               f"reiner q={q} pair {k} {tag}"))
                image = make_mat(lib, ring, O.phi_matrix(F, images, l1))
                ops.append(self._reiner_op(lib, "reiner_inverse", spec, image,
                                           O.mprod(F, l1), f"reiner inverse q={q} pair {k}"))
            const = plan["const"]
            ops.append(self._reiner_op(lib, "reiner_apply", spec, make_mat(lib, ring, const),
                                       const, f"reiner fixes a constant q={q}"))
            upper = plan["upper"]
            ops.append(self._reiner_op(lib, "reiner_apply", spec, make_mat(lib, ring, upper),
                                       O.phi_letter(F, images, upper),
                                       f"reiner on an upper triangular q={q}"))
        decl = words.build_ex1cusp()
        ring2 = decl.factors[0].kind.ring
        F2 = O.ofield(2)
        for i, (letters, gens) in enumerate(self.plan["words"]):
            word = words.word_reduce(decl, [(idx, make_mat(lib, ring2, e) if idx == 0 else e)
                                            for idx, e in letters])
            auto = words.compose_autos(decl, [
                words.PartialConj(s, t, make_mat(lib, ring2, h) if s == 0 else h)
                for s, t, h in gens])
            want = O.free_reduce(F2, letters)
            for s, t, h in gens:
                want = O.partial_conj(F2, want, s, t, h)
            ops.append(self._auto_op(auto, word, want, f"partial conjugation #{i}"))
        return ops

    @staticmethod
    def _roundtrip_op(lib, ring, F, label, m, target):
        def run():
            word = lib.nagao.decompose(m)
            return word, lib.nagao.evaluate(ring, word)

        def check(out):
            word, back = out
            if mat_codes(back) != target:
                return "evaluate(decompose(m)) != m"
            return O.canonical_word_problem(F, _word_codes(word), target)
        return Op(label, run, verified_once(
            check, lambda out: (_word_codes(out[0]), mat_codes(out[1]))))

    @staticmethod
    def _normalize_op(lib, ring, F, label, letters, target):
        def run():
            return lib.nagao.normalize(ring, letters)

        def check(word):
            return O.canonical_word_problem(F, _word_codes(word), target)
        return Op(label, run, verified_once(check, _word_codes))

    @staticmethod
    def _reiner_op(lib, fn, spec, m, want, label):
        def check(image):
            got = mat_codes(image)
            return None if got == want else f"image {got} != expected {want}"
        return Op(label, lambda: getattr(lib.reiner, fn)(spec, m), check)

    @staticmethod
    def _auto_op(auto, word, want, label):
        def check(image):
            got = tuple((idx, mat_codes(e) if idx == 0 else e) for idx, e in image.letters)
            return None if got == want else "partial conjugation image differs from the oracle"
        return Op(label, lambda: auto.apply(word), check)
