"""Reduced words in free products and their generator automorphisms.

A declaration lists free factors of three kinds: finite cyclic groups,
matrix-backed groups (invertible 2x2 matrices over F_q[t]) and vector
groups, the additive group tF_q[t] on the countable basis t, t^2, ...
Elements of the product are reduced words: sequences of (factor index,
nonidentity element) letters with adjacent letters in distinct factors.
`word_pow` is `ffield.power` over `word_mul`.

Automorphisms are generated by three record kinds, the standard generating
set for automorphism groups of free products:

  * ``Type1``       an automorphism of one factor, extended by the identity:
    an exponent (cyclic), a conjugating matrix or a Reiner twist (matrix),
    or a linear substitution of tF_q[t] (vector);
  * ``PartialConj`` conjugation of exactly one factor by a fixed element of
    another factor;
  * ``Swap``        exchange of two isomorphic factors through a chosen
    identification, applied forward one way and backward the other, so every
    swap generator is an involution.

Each factor kind checks, applies, inverts and reads from JSON its own
automorphisms, so no generator function branches on a Type1 factor's kind.

Membership is checked once, where a letter enters: the letters given to
`word_reduce`, each element `word_parse` reads, the letters of the word
handed to `ComposedAuto.apply` (once per call, not per generator) and each
letter a swap moves into another factor, since two matrix factors over
distinct rings of one field share an `iso_key`.  Each generator is checked
once, when its `ComposedAuto` is built.  Letters made inside one factor are
not checked again: the product and inverse of members, the image of a
member under a checked automorphism of its factor, and a checked
conjugator and its inverse are members.  The reduction loop behind these
checks checks nothing, which matters most for matrix letters, whose check
takes a determinant.

On top of these the module builds the cyclic-spike machinery (power and swap
generators for order q^2-1 cyclic factors with exponents drawn from the
admissible unit classes), a wreath-product closure check for the group those
generators generate, an infinite dihedral subgroup-index demonstration, and
the free-product declarations for the two one-curve examples over F_2.
"""

from __future__ import annotations

import math
import re
from functools import partial

from .closure import closure
from .ffield import aut_rel_enumerate, field_make, power
from .matgroup import Mat2, mat_parse
from .polyring import Poly, poly_ring
from .record import Record
from .reiner import LinearAutoSpec, reiner_apply


def _json_int(value, field: str) -> int:
    """A JSON record field that must be an integer; anything else (a float,
    string, boolean, list, object or null) is a ValueError."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, not {value!r}")
    return value


# ---------------------------------------------------------------------------
# factor kinds and their automorphisms


class FiniteCyclic(Record):
    """Cyclic factor of finite order; elements are exponents 0..order-1.
    Its automorphisms are the exponents coprime to the order."""

    __slots__ = ("order",)

    def __init__(self, order: int):
        if order < 2:
            raise ValueError("cyclic factor order must be at least 2")
        object.__setattr__(self, "order", order)

    def is_identity(self, e) -> bool:
        return e == 0

    def is_member(self, e) -> bool:
        return isinstance(e, int) and 0 <= e < self.order

    def mul(self, x, y):
        return (x + y) % self.order

    def inv(self, x):
        return (-x) % self.order

    def elem_text(self, e) -> str:
        return str(e)

    def parse_elem(self, s: str):
        try:
            k = int(str(s).strip())
        except ValueError:
            raise ValueError(f"bad cyclic element {s!r}")
        if not 0 <= k < self.order:
            raise ValueError(f"cyclic exponent {k} out of range 0..{self.order - 1}")
        return k

    def iso_key(self):
        return ("cyclic", self.order)

    def check_auto(self, auto) -> None:
        if not isinstance(auto, int):
            raise ValueError("cyclic factors take an integer exponent")
        if math.gcd(auto, self.order) != 1:
            raise ValueError(f"exponent {auto} not invertible mod {self.order}")

    def auto_map(self, auto):
        return lambda e: e * auto % self.order

    def invert_auto(self, auto):
        return pow(auto, -1, self.order)

    def auto_from_json(self, key: str, value):
        if key != "exponent":
            raise ValueError(f"cyclic factors take an exponent, not {key}")
        return _json_int(value, "exponent")


class MatrixBacked(Record):
    """Factor whose elements are the invertible 2x2 matrices over a
    polynomial ring F_q[t], those with unit (constant nonzero) determinant.
    Its automorphisms are conjugation by a member matrix and the Reiner
    twist of a LinearAutoSpec over the same ring.
    """

    __slots__ = ("ring",)

    def is_identity(self, e) -> bool:
        return isinstance(e, Mat2) and e.is_identity()

    def is_member(self, e) -> bool:
        return isinstance(e, Mat2) and e.ring is self.ring and e.has_unit_det()

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        return x.inverse()

    def elem_text(self, e) -> str:
        return e.text()

    def parse_elem(self, s: str):
        m = mat_parse(self.ring, str(s))
        if not self.is_member(m):
            raise ValueError(f"matrix {s!r} is not invertible over the factor ring")
        return m

    def iso_key(self):
        return ("matrix-poly", self.ring.field.q)

    def check_auto(self, auto) -> None:
        if isinstance(auto, LinearAutoSpec):
            if auto.ring is not self.ring:
                raise ValueError("linear twist ring does not match the matrix factor")
        elif not self.is_member(auto):
            raise ValueError("matrix factors take a linear twist or an invertible "
                             "matrix over the factor ring")

    def auto_map(self, auto):
        if isinstance(auto, LinearAutoSpec):
            return partial(reiner_apply, auto)
        inverse = auto.inverse()
        return lambda e: auto * e * inverse

    def invert_auto(self, auto):
        return auto.inverted() if isinstance(auto, LinearAutoSpec) else auto.inverse()

    def auto_from_json(self, key: str, value):
        if key == "conjugate_by":
            return self.parse_elem(value)
        if key == "linear":
            return LinearAutoSpec.from_json(self.ring, value)
        raise ValueError(f"matrix factors take conjugate_by or linear, not {key}")


class VectorFactor(Record):
    """The additive group tF_q[t], a vector group over F_q on the countable
    basis t, t^2, ...

    Elements are polynomials of ``ring`` with zero constant term, written as
    their coefficient list from t on: (c1,...,ck).  Its automorphisms are
    the linear substitutions, LinearAutoSpec over the same ring.
    """

    __slots__ = ("ring",)

    def is_identity(self, e) -> bool:
        return e == self.ring.zero

    def is_member(self, e) -> bool:
        return isinstance(e, Poly) and e.ring is self.ring and e.constant_code() == 0

    def mul(self, x, y):
        return x + y

    def inv(self, x):
        return -x

    def elem_text(self, e) -> str:
        return "(" + ",".join(str(e.coeff_code(i)) for i in range(1, e.deg + 1)) + ")"

    def parse_elem(self, s: str):
        text = str(s).strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"bad vector element {s!r}")
        body = text[1:-1].strip()
        try:
            codes = [int(c) for c in body.split(",")] if body else []
        except ValueError:
            raise ValueError(f"bad vector element {s!r}")
        return self.ring.poly([0, *codes])

    def iso_key(self):
        return ("vector", self.ring.field.q)

    def check_auto(self, auto) -> None:
        if not (isinstance(auto, LinearAutoSpec) and auto.ring is self.ring):
            raise ValueError("vector factors take linear twists over the same field")

    def auto_map(self, auto):
        return auto.apply

    def invert_auto(self, auto):
        return auto.inverted()

    def auto_from_json(self, key: str, value):
        if key != "linear":
            raise ValueError(f"vector factors take linear, not {key}")
        return LinearAutoSpec.from_json(self.ring, value)


# ---------------------------------------------------------------------------
# declarations and words


class FactorDecl(Record):
    """One free factor: its position index plus its element arithmetic."""

    __slots__ = ("index", "kind")


class CentralAmalgamDecl(Record):
    """Free product of declared factors.

    ``cusps`` records which factor carries the stabilizer of each labelled
    boundary point, for the orbit report.
    """

    __slots__ = ("factors", "cusps")

    def __init__(self, factors: tuple, cusps: tuple = ()):
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "cusps", cusps)
        for pos, fac in enumerate(factors):
            if not isinstance(fac, FactorDecl) or fac.index != pos:
                raise ValueError("factor indices must run 0..k-1 in order")
        for _label, idx in cusps:
            self.factor(idx)

    def factor(self, i: int) -> FactorDecl:
        if not (isinstance(i, int) and 0 <= i < len(self.factors)):
            raise ValueError(f"no factor with index {i!r}")
        return self.factors[i]


class FreeWord(Record):
    """Reduced word: (factor index, nonidentity element) letters, adjacent
    letters in distinct factors.  Build through word_reduce."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple = ()):
        object.__setattr__(self, "letters", letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


LETTER_SEP = "·"


def _check_letters(decl: CentralAmalgamDecl, letters) -> None:
    """Refuse the first letter that is not a member of its factor."""
    for idx, elem in letters:
        if not decl.factor(idx).kind.is_member(elem):
            raise ValueError(f"element {elem!r} is not in factor {idx}")


def _reduce(decl: CentralAmalgamDecl, letters) -> FreeWord:
    """Drop identities and merge same-factor runs of member letters."""
    factors = decl.factors
    stack = []
    for idx, elem in letters:
        kind = factors[idx].kind
        if kind.is_identity(elem):
            continue
        if stack and stack[-1][0] == idx:
            merged = kind.mul(stack.pop()[1], elem)
            if not kind.is_identity(merged):
                stack.append((idx, merged))
        else:
            stack.append((idx, elem))
    return FreeWord(tuple(stack))


def word_reduce(decl: CentralAmalgamDecl, letters) -> FreeWord:
    """Reduce a letter sequence: drop identities, merge same-factor runs.
    Every letter must be a member of its factor."""
    letters = tuple(letters)
    _check_letters(decl, letters)
    return _reduce(decl, letters)


def word_mul(decl: CentralAmalgamDecl, u: FreeWord, v: FreeWord) -> FreeWord:
    return _reduce(decl, u.letters + v.letters)


def word_inv(decl: CentralAmalgamDecl, w: FreeWord) -> FreeWord:
    return _reduce(decl, [(idx, decl.factor(idx).kind.inv(elem))
                          for idx, elem in reversed(w.letters)])


def word_pow(decl: CentralAmalgamDecl, w: FreeWord, k: int) -> FreeWord:
    if k < 0:
        return word_pow(decl, word_inv(decl, w), -k)
    return power(w, k, partial(word_mul, decl), FreeWord())


def word_text(decl: CentralAmalgamDecl, w: FreeWord) -> str:
    """Letters as "f<i>:<element>" joined by a middle dot; empty word is "e"."""
    if not w.letters:
        return "e"
    return LETTER_SEP.join(f"f{idx}:{decl.factor(idx).kind.elem_text(elem)}"
                           for idx, elem in w.letters)


_LETTER_RE = re.compile(r"^f(\d+):(.+)$")


def word_parse(decl: CentralAmalgamDecl, s: str) -> FreeWord:
    """Inverse of word_text; "." is accepted as an ASCII letter separator."""
    text = s.strip()
    if text in ("", "e"):
        return FreeWord()
    sep = LETTER_SEP if LETTER_SEP in text else "."
    letters = []
    for part in text.split(sep):
        m = _LETTER_RE.match(part.strip())
        if not m:
            raise ValueError(f"bad word letter {part!r}")
        idx = int(m.group(1))
        letters.append((idx, decl.factor(idx).kind.parse_elem(m.group(2))))
    return _reduce(decl, letters)  # parse_elem returns members only


# ---------------------------------------------------------------------------
# generator automorphisms


class Type1(Record):
    """Automorphism of one factor, extended by the identity elsewhere; auto
    is a value the factor's kind accepts (see its check_auto)."""

    __slots__ = ("factor", "auto")


class PartialConj(Record):
    """Conjugate every letter of the target factor by a fixed element of the
    source factor; all other letters are fixed."""

    __slots__ = ("source", "target", "conjugator")


class Swap(Record):
    """Exchange two isomorphic factors.  Going left to right applies the
    identification (exponent map on cyclic factors), going right to left its
    inverse, so a swap is always an involution."""

    __slots__ = ("left", "right", "exponent")

    def __init__(self, left: int, right: int, exponent: int = 1):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "exponent", exponent)


def validate_gen(decl: CentralAmalgamDecl, gen) -> None:
    if isinstance(gen, Type1):
        decl.factor(gen.factor).kind.check_auto(gen.auto)
    elif isinstance(gen, PartialConj):
        if gen.source == gen.target:
            raise ValueError("partial conjugation needs distinct source and target")
        decl.factor(gen.target)
        if not decl.factor(gen.source).kind.is_member(gen.conjugator):
            raise ValueError("conjugator is not an element of the source factor")
    elif isinstance(gen, Swap):
        if gen.left == gen.right:
            raise ValueError("swap needs two distinct factors")
        kl = decl.factor(gen.left).kind
        kr = decl.factor(gen.right).kind
        if kl.iso_key() != kr.iso_key():
            raise ValueError("swap requires isomorphic factors")
        if isinstance(kl, FiniteCyclic):
            kl.check_auto(gen.exponent)
        elif gen.exponent != 1:
            raise ValueError("only the exponent-1 identification exists for this kind")
    else:
        raise ValueError(f"unknown generator {gen!r}")


def _apply_gen(decl: CentralAmalgamDecl, gen, w: FreeWord) -> FreeWord:
    """Letterwise image of a word of member letters under one validated
    generator, re-reduced.  Only a letter a swap moves into another factor
    is checked there."""
    out = []
    if isinstance(gen, Type1):
        image = decl.factor(gen.factor).kind.auto_map(gen.auto)
        for idx, elem in w.letters:
            out.append((idx, image(elem) if idx == gen.factor else elem))
    elif isinstance(gen, PartialConj):
        inv = decl.factor(gen.source).kind.inv(gen.conjugator)
        for idx, elem in w.letters:
            if idx == gen.target:
                out.extend([(gen.source, gen.conjugator), (idx, elem), (gen.source, inv)])
            else:
                out.append((idx, elem))
    else:
        # an exponent other than 1 is a cyclic automorphism (validate_gen)
        kind = decl.factor(gen.left).kind
        back = 1 if gen.exponent == 1 else kind.invert_auto(gen.exponent)
        moves = {gen.left: (gen.right, gen.exponent), gen.right: (gen.left, back)}
        moved = []
        for idx, elem in w.letters:
            if idx in moves:
                idx, e = moves[idx]
                elem = elem if e == 1 else kind.auto_map(e)(elem)
                moved.append((idx, elem))
            out.append((idx, elem))
        _check_letters(decl, moved)
    return _reduce(decl, out)


def gen_inverse(decl: CentralAmalgamDecl, gen):
    """The inverse of a validated generator."""
    if isinstance(gen, Type1):
        return Type1(gen.factor, decl.factor(gen.factor).kind.invert_auto(gen.auto))
    if isinstance(gen, PartialConj):
        src = decl.factor(gen.source).kind
        return PartialConj(gen.source, gen.target, src.inv(gen.conjugator))
    return gen


class ComposedAuto(Record):
    """Composite of generator automorphisms, applied left to right.  Each
    generator is validated once, here."""

    __slots__ = ("decl", "gens")

    def __init__(self, decl: CentralAmalgamDecl, gens: tuple = ()):
        for g in gens:
            validate_gen(decl, g)
        object.__setattr__(self, "decl", decl)
        object.__setattr__(self, "gens", gens)

    def apply(self, w: FreeWord) -> FreeWord:
        """The image of w; its letters are checked once, before the first
        generator."""
        _check_letters(self.decl, w.letters)
        for g in self.gens:
            w = _apply_gen(self.decl, g, w)
        return w

    def __call__(self, w: FreeWord) -> FreeWord:
        return self.apply(w)

    def inverse(self) -> "ComposedAuto":
        return ComposedAuto(self.decl, tuple(gen_inverse(self.decl, g)
                                             for g in reversed(self.gens)))


def compose_autos(decl: CentralAmalgamDecl, gens) -> ComposedAuto:
    return ComposedAuto(decl, tuple(gens))


def inner_auto(decl: CentralAmalgamDecl, factor_index: int, h) -> ComposedAuto:
    """Global conjugation by a factor element, assembled from generators:
    partial conjugations into every other factor plus (for a nonabelian
    factor) the inner automorphism of the element's own factor."""
    kind = decl.factor(factor_index).kind
    if not kind.is_member(h):
        raise ValueError("conjugating element lies outside the chosen factor")
    gens = [PartialConj(factor_index, j, h)
            for j in range(len(decl.factors)) if j != factor_index]
    if isinstance(kind, MatrixBacked):
        gens.append(Type1(factor_index, h))
    return compose_autos(decl, gens)


# ---------------------------------------------------------------------------
# cyclic-spike generators and the wreath closure


def _spike_exponent(decl: CentralAmalgamDecl, factors, exponent: int, q: int) -> int:
    """The exponent mod q^2-1, once every factor is cyclic of order q^2-1
    and the exponent is an admissible unit class."""
    n = q * q - 1
    for k in factors:
        kind = decl.factor(k).kind
        if not (isinstance(kind, FiniteCyclic) and kind.order == n):
            raise ValueError(f"factor {k} is not cyclic of order q^2-1 = {n}")
    if exponent % n not in aut_rel_enumerate(q):
        raise ValueError(f"exponent {exponent} is not an admissible unit class mod {n}")
    return exponent % n


def spike_power(decl: CentralAmalgamDecl, i: int, exponent: int, q: int) -> Type1:
    """Power generator of an order q^2-1 cyclic factor; the exponent must be
    an admissible unit class (invertible mod q^2-1 and trivial mod q-1)."""
    return Type1(i, _spike_exponent(decl, (i,), exponent, q))


def spike_swap(decl: CentralAmalgamDecl, i: int, j: int, exponent: int, q: int) -> Swap:
    """Swap of two order q^2-1 cyclic factors through an admissible exponent."""
    return Swap(i, j, _spike_exponent(decl, (i, j), exponent, q))


class WreathReport(Record):
    """Closure data for the group generated by all spike generators on r
    order q^2-1 factors: it should be the wreath product of the admissible
    unit-class group by the symmetric group on the factors."""

    __slots__ = ("r", "q", "exponent_classes", "order", "expected_order",
                 "permutations_full", "ok")


def cs_wreath_check(r: int, q: int) -> WreathReport:
    """Generate all power and swap spike generators on r factors as decorated
    permutations (factor permutation plus one exponent per source factor);
    check the group they generate has order r! * |classes|^r and that its
    permutation projection is all of the symmetric group.

    The closure runs over a generating subset: the power generators on
    factor 0 and the swaps (i, i+1) with exponent 1.  Every spike generator
    must then lie in it, so it is the group that all of them generate."""
    if not 1 <= r <= 4:
        raise ValueError("spike count r must be between 1 and 4")
    if q not in (2, 3, 4, 5):
        raise ValueError("q must be one of 2, 3, 4, 5")
    n = q * q - 1
    classes = tuple(aut_rel_enumerate(q))
    ident_perm = tuple(range(r))
    gens, subset = [], []
    for a in classes:
        for i in range(r):
            exps = [1] * r
            exps[i] = a
            gens.append((ident_perm, tuple(exps)))
            if i == 0:
                subset.append(gens[-1])
        back = pow(a, -1, n)
        for i in range(r):
            for j in range(i + 1, r):
                perm = list(ident_perm)
                perm[i], perm[j] = j, i
                exps = [1] * r
                exps[i], exps[j] = a, back
                gens.append((tuple(perm), tuple(exps)))
                if a == 1 and j == i + 1:
                    subset.append(gens[-1])

    def mul(g, f):
        # g after f: source i goes to f's target with f's exponent, then on
        pg, eg = g
        pf, ef = f
        return (tuple(pg[pf[i]] for i in range(r)),
                tuple(eg[pf[i]] * ef[i] % n for i in range(r)))

    seen = closure([(ident_perm, (1,) * r)], lambda x: [mul(g, x) for g in subset])
    expected = math.factorial(r) * len(classes) ** r
    full = len({p for p, _ in seen}) == math.factorial(r)
    generated = set(seen).issuperset(gens)
    return WreathReport(r, q, classes, len(seen), expected, full,
                        generated and len(seen) == expected and full)


# ---------------------------------------------------------------------------
# infinite dihedral demonstration

DIHEDRAL_A = (-1, 0)
DIHEDRAL_B = (-1, 1)


def isom_mul(x, y):
    """Compose integer isometries (sign, offset): k maps to sign*k + offset."""
    return (x[0] * y[0], x[0] * y[1] + x[1])


def dihedral_decl() -> CentralAmalgamDecl:
    """Free product of two order-2 cyclic factors (infinite dihedral)."""
    return CentralAmalgamDecl((FactorDecl(0, FiniteCyclic(2)),
                               FactorDecl(1, FiniteCyclic(2))))


def dihedral_isom(w: FreeWord):
    """Faithful integer-isometry image: factor 0 reflects at 0, factor 1 at 1/2."""
    acc = (1, 0)
    for idx, _elem in w.letters:
        acc = isom_mul(acc, DIHEDRAL_A if idx == 0 else DIHEDRAL_B)
    return acc


def dihedral_coset_index(gen_isoms) -> int:
    """Index of the subgroup generated by the given isometries.

    Its translations are step*Z, step the gcd of the translation offsets and
    of the differences of the reflection offsets (two reflections compose to
    the translation by their offset difference).  Every coset of step*Z
    meets the subgroup's reflections when it has one, so the index is step
    with a reflection and 2*step without; step = 0 is infinite index."""
    gens = list(gen_isoms)
    refl = [o for s, o in gens if s == -1]
    step = 0
    for s, o in gens:
        step = math.gcd(step, o if s == 1 else o - refl[0])
    if step == 0:
        raise ValueError("the generated subgroup has infinite index")
    return step if refl else 2 * step


def apply_substitution(decl: CentralAmalgamDecl, images: dict, w: FreeWord) -> FreeWord:
    """Extend generator images (one word per cyclic factor) to a word map."""
    acc = FreeWord()
    for idx, elem in w.letters:
        kind = decl.factor(idx).kind
        if not isinstance(kind, FiniteCyclic):
            raise ValueError("substitutions are defined for cyclic factors only")
        acc = word_mul(decl, acc, word_pow(decl, images[idx], elem))
    return acc


# the longest alternating words dihedral_cohopf_demo maps
_DIHEDRAL_MAX_LEN = 12


def _alternating_words(max_len: int):
    words = [FreeWord()]
    for start in (0, 1):
        for length in range(1, max_len + 1):
            words.append(FreeWord(tuple(((start + k) % 2, 1) for k in range(length))))
    return words


class DihedralReport(Record):
    """Indices from the infinite dihedral demonstration: conjugating one
    order-2 factor by the translation gives a proper isomorphic copy."""

    __slots__ = ("index", "injective_up_to", "inner_index", "single_factor_index")


def dihedral_cohopf_demo() -> DihedralReport:
    """Map one reflection generator to its conjugate by the basic translation
    and keep the other fixed; the image is a proper subgroup of finite index
    even though the map is injective.  Conjugating both generators (an inner
    automorphism) or conjugating by the other reflection stays surjective."""
    decl = dihedral_decl()
    a = FreeWord(((0, 1),))
    b = FreeWord(((1, 1),))
    ab = word_mul(decl, a, b)
    conj_a = word_mul(decl, word_mul(decl, ab, a), word_inv(decl, ab))
    images = {0: conj_a, 1: b}

    words = _alternating_words(_DIHEDRAL_MAX_LEN)
    image_words = [apply_substitution(decl, images, w) for w in words]
    if len({w.letters for w in image_words}) != len(words):
        raise AssertionError("substitution images collide at small word length")

    index = dihedral_coset_index([dihedral_isom(conj_a), dihedral_isom(b)])

    conj_b = word_mul(decl, word_mul(decl, ab, b), word_inv(decl, ab))
    inner_index = dihedral_coset_index([dihedral_isom(conj_a), dihedral_isom(conj_b)])

    bab = word_mul(decl, word_mul(decl, b, a), b)
    single = dihedral_coset_index([dihedral_isom(bab), dihedral_isom(b)])

    return DihedralReport(index, _DIHEDRAL_MAX_LEN, inner_index, single)


# ---------------------------------------------------------------------------
# the two elliptic example declarations over F_2


def build_ex1cusp() -> CentralAmalgamDecl:
    """Splitting for the one-cusp elliptic coordinate ring over F_2 (the
    curve y^2 + y = x^3 + x + 1): a matrix-backed amalgam factor isomorphic
    to the full 2x2 group over F_2[t] plus two order-3 spike factors."""
    ring = poly_ring(field_make(2))
    factors = (FactorDecl(0, MatrixBacked(ring)),
               FactorDecl(1, FiniteCyclic(3)),
               FactorDecl(2, FiniteCyclic(3)))
    return CentralAmalgamDecl(factors, cusps=(("inf", 0),))


def build_ex3cusps() -> CentralAmalgamDecl:
    """Splitting for the three-cusp elliptic coordinate ring over F_2 (the
    curve y^2 + y = x^3): a matrix-backed amalgam factor carrying the cusp at
    infinity, one order-3 spike factor, and two vector factors tF_2[t]
    carrying the stabilizers of the affine cusps."""
    ring = poly_ring(field_make(2))
    factors = (FactorDecl(0, MatrixBacked(ring)),
               FactorDecl(1, FiniteCyclic(3)),
               FactorDecl(2, VectorFactor(ring)),
               FactorDecl(3, VectorFactor(ring)))
    return CentralAmalgamDecl(factors, cusps=(("inf", 0), ("(0,0)", 2), ("(0,1)", 3)))


class OrbitReport(Record):
    """Partition of the declared cusps under the generator automorphisms."""

    __slots__ = ("orbits",)


def aut_cusp_orbit_report(decl: CentralAmalgamDecl) -> OrbitReport:
    """Partition the cusps by the isomorphism class of the factor carrying
    each cusp stabilizer: swaps realize any exchange between isomorphic
    factors, while no generator moves a cusp between non-isomorphic factor
    classes."""
    if not decl.cusps:
        raise ValueError("declaration has no cusp assignments")
    groups: dict = {}
    order = []
    for label, idx in decl.cusps:
        key = decl.factor(idx).kind.iso_key()
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(label)
    return OrbitReport(tuple(tuple(groups[k]) for k in order))


# ---------------------------------------------------------------------------
# JSON generator records for scripts


def gen_from_json(decl: CentralAmalgamDecl, record: dict):
    if not isinstance(record, dict) or "type" not in record:
        raise ValueError("generator record needs a 'type' field")
    name = record["type"]
    try:
        if name == "type1":
            i = _json_int(record["factor"], "factor")
            kind = decl.factor(i).kind
            key = next((k for k in ("exponent", "conjugate_by", "linear") if k in record),
                       None)
            if key is None:
                raise ValueError("type1 record needs exponent, conjugate_by, or linear")
            gen = Type1(i, kind.auto_from_json(key, record[key]))
        elif name == "partial_conj":
            i = _json_int(record["source"], "source")
            gen = PartialConj(i, _json_int(record["target"], "target"),
                              decl.factor(i).kind.parse_elem(record["conjugator"]))
        elif name == "swap":
            gen = Swap(_json_int(record["left"], "left"),
                       _json_int(record["right"], "right"),
                       _json_int(record.get("exponent", 1), "exponent"))
        elif name == "spike":
            gen = spike_power(decl, _json_int(record["factor"], "factor"),
                              _json_int(record["exponent"], "exponent"),
                              _json_int(record["q"], "q"))
        elif name == "spike_swap":
            gen = spike_swap(decl, _json_int(record["left"], "left"),
                             _json_int(record["right"], "right"),
                             _json_int(record["exponent"], "exponent"),
                             _json_int(record["q"], "q"))
        else:
            raise ValueError(f"unknown generator type {name!r}")
    except KeyError as missing:
        raise ValueError(f"generator record is missing field {missing}")
    return gen


def gens_from_json(decl: CentralAmalgamDecl, records) -> ComposedAuto:
    if not isinstance(records, list):
        raise ValueError("a generator script is a JSON array of records")
    return compose_autos(decl, [gen_from_json(decl, r) for r in records])


def decl_by_name(name: str) -> CentralAmalgamDecl:
    builders = {"ex1cusp": build_ex1cusp, "ex3cusps": build_ex3cusps,
                "dihedral": dihedral_decl}
    if name not in builders:
        raise ValueError(f"unknown declaration {name!r} (choose from {sorted(builders)})")
    return builders[name]()
