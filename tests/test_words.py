import json
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from gl2aut import graphs, words
from gl2aut.cli import main as cli_main
from gl2aut.ffield import aut_rel_enumerate
from gl2aut.matgroup import Mat2, mat_parse
from gl2aut.polyring import PolyRing, poly_ring
from gl2aut.reiner import LinearAutoSpec
from gl2aut.words import (DIHEDRAL_A, DIHEDRAL_B,
                          CentralAmalgamDecl, ComposedAuto, FactorDecl,
                          FiniteCyclic, FreeWord, MatrixBacked, PartialConj,
                          Swap, Type1, VectorFactor, apply_substitution,
                          aut_cusp_orbit_report, build_ex1cusp, build_ex3cusps,
                          compose_autos, cs_wreath_check, decl_by_name,
                          dihedral_cohopf_demo, dihedral_coset_index,
                          dihedral_decl, dihedral_isom, gen_from_json,
                          gen_inverse, gens_from_json, inner_auto, isom_mul,
                          spike_power, spike_swap, validate_gen, word_inv,
                          word_mul, word_parse, word_pow, word_reduce, word_text)


@pytest.fixture
def ex1():
    return build_ex1cusp()


@pytest.fixture
def ex3():
    return build_ex3cusps()


def two_spike_decl(order=3):
    return CentralAmalgamDecl(factors=(
        FactorDecl(FiniteCyclic(order)),
        FactorDecl(FiniteCyclic(order)),
    ))


# ---------------------------------------------------------------- reduction

def test_reduce_merges_adjacent_letters_of_one_factor():
    decl = two_spike_decl()
    w = word_reduce(decl, [(0, 1), (0, 1), (1, 2)])
    assert w.letters == ((0, 2), (1, 2))


def test_reduce_cancels_inverse_letters():
    decl = two_spike_decl()
    w = word_reduce(decl, [(0, 1), (1, 1), (1, 2), (0, 2)])
    assert w == FreeWord()


def test_reduce_cascades_through_matrix_involutions(ex1):
    ring = ex1.factors[0].kind.ring
    m = mat_parse(ring, "[[1,t],[0,1]]")  # an involution over F_2
    w = word_reduce(ex1, [(0, m), (1, 1), (1, 2), (0, m), (2, 2)])
    assert w.letters == ((2, 2),)


def test_reduce_rejects_foreign_elements():
    decl = two_spike_decl()
    with pytest.raises(ValueError):
        word_reduce(decl, [(0, 7)])
    with pytest.raises(ValueError):
        word_reduce(decl, [(5, 1)])


def test_word_mul_inv_pow(ex1, rng):
    for _ in range(25):
        u = helpers.rand_word(ex1, rng, 6)
        v = helpers.rand_word(ex1, rng, 6)
        assert word_mul(ex1, u, word_inv(ex1, u)) == FreeWord()
        assert word_inv(ex1, word_inv(ex1, u)) == u
        uv = word_mul(ex1, u, v)
        assert word_inv(ex1, uv) == word_mul(ex1, word_inv(ex1, v),
                                             word_inv(ex1, u))
        assert word_pow(ex1, u, 3) == word_mul(ex1, word_mul(ex1, u, u), u)
        assert word_pow(ex1, u, -1) == word_inv(ex1, u)
        assert word_pow(ex1, u, 0) == FreeWord()


@given(seed=st.integers(min_value=0, max_value=99_999))
@settings(max_examples=40, deadline=None)
def test_word_mul_is_associative(seed):
    decl = build_ex1cusp()
    rng = random.Random(seed)
    u = helpers.rand_word(decl, rng, 4)
    v = helpers.rand_word(decl, rng, 4)
    w = helpers.rand_word(decl, rng, 4)
    assert word_mul(decl, word_mul(decl, u, v), w) == \
        word_mul(decl, u, word_mul(decl, v, w))


def test_word_text_and_parse(ex1, rng):
    assert word_text(ex1, FreeWord()) == "e"
    assert word_parse(ex1, "e") == FreeWord()
    for _ in range(20):
        w = helpers.rand_word(ex1, rng, 6)
        assert word_parse(ex1, word_text(ex1, w)) == w
    # the ASCII dot separator is accepted on input
    w = word_reduce(ex1, [(1, 1), (2, 2)])
    assert word_parse(ex1, "f1:1.f2:2") == w
    with pytest.raises(ValueError):
        word_parse(ex1, "f9:1")
    with pytest.raises(ValueError):
        word_parse(ex1, "nonsense")


# ---------------------------------------------------------- declarations

def test_decl_validation_rejects_bad_indices():
    # a factor's index is its position, so the one entry check left is that
    # each entry is a FactorDecl
    for factors in ((FiniteCyclic(3),), (FactorDecl(FiniteCyclic(3)), 3)):
        with pytest.raises(ValueError, match="every factor must be a FactorDecl"):
            CentralAmalgamDecl(factors=factors)


def test_decl_validation_rejects_bad_cusps():
    with pytest.raises(ValueError):
        CentralAmalgamDecl(factors=(FactorDecl(FiniteCyclic(3)),),
                           cusps=(("inf", 4),))


def test_builders_shape(ex1, ex3):
    assert len(ex1.factors) == 3
    assert isinstance(ex1.factors[0].kind, MatrixBacked)
    assert all(isinstance(f.kind, FiniteCyclic) and f.kind.order == 3
               for f in ex1.factors[1:])
    assert ex1.cusps == (("inf", 0),)

    assert len(ex3.factors) == 4
    assert isinstance(ex3.factors[1].kind, FiniteCyclic)
    assert all(isinstance(f.kind, VectorFactor) for f in ex3.factors[2:])
    assert [c[0] for c in ex3.cusps] == ["inf", "(0,0)", "(0,1)"]


def test_decl_by_name_contents():
    assert len(decl_by_name("ex1cusp").factors) == 3
    assert len(decl_by_name("ex3cusps").factors) == 4
    assert len(decl_by_name("dihedral").factors) == 2
    with pytest.raises(ValueError):
        decl_by_name("missing")


# ------------------------------------------------------------- generators

def test_exponent_map_on_cyclic_letters(ex1):
    gen = Type1(1, 2)
    w = word_reduce(ex1, [(1, 1), (2, 1)])
    img = helpers.apply_gen(ex1, gen, w)
    assert img.letters == ((1, 2), (2, 1))
    # applying the map together with its inverse restores the word
    inv = gen_inverse(ex1, gen)
    assert helpers.apply_gen(ex1, inv, img) == w


def test_exponent_map_must_be_coprime(ex1):
    with pytest.raises(ValueError):
        validate_gen(ex1, Type1(1, 3))  # order 3, exponent 3


def test_conjugate_by_on_matrix_letters(ex1, rng):
    ring = ex1.factors[0].kind.ring
    c = mat_parse(ring, "[[1,t],[0,1]]")
    gen = Type1(0, c)
    for _ in range(10):
        w = helpers.rand_word(ex1, rng, 6)
        img = helpers.apply_gen(ex1, gen, w)
        for (i, e), (j, f) in zip(w, img):
            assert i == j
            if i == 0:
                assert f == c * e * c.inverse()
            else:
                assert f == e


def test_partial_conjugation_only_touches_the_target(ex1, rng):
    ring = ex1.factors[0].kind.ring
    h = mat_parse(ring, "[[1,0],[t,1]]")
    gen = PartialConj(0, 1, h)
    w = word_reduce(ex1, [(1, 1), (2, 2), (1, 2)])
    img = helpers.apply_gen(ex1, gen, w)
    # factor-1 letters are wrapped as h . x . h^-1 inside the free product
    assert img.letters == ((0, h), (1, 1), (0, h.inverse()), (2, 2),
                           (0, h), (1, 2), (0, h.inverse()))
    assert helpers.apply_gen(ex1, gen_inverse(ex1, gen), img) == w


def test_swap_exchanges_isomorphic_factors(ex1):
    gen = Swap(1, 2)
    w = word_reduce(ex1, [(1, 1), (2, 2)])
    img = helpers.apply_gen(ex1, gen, w)
    assert img.letters == ((2, 1), (1, 2))
    # a plain swap is an involution
    assert helpers.apply_gen(ex1, gen, img) == w
    assert gen_inverse(ex1, gen) == gen


def test_swap_with_exponent_twists_one_direction(ex1):
    gen = Swap(1, 2, exponent=2)
    w = word_reduce(ex1, [(1, 1)])
    img = helpers.apply_gen(ex1, gen, w)
    assert img.letters == ((2, 2),)
    # still an involution: the reverse direction applies the inverse map
    assert helpers.apply_gen(ex1, gen, img) == w


def test_validate_gen_rejects_mismatches(ex1, ex3):
    with pytest.raises(ValueError):
        validate_gen(ex1, Swap(0, 1))  # matrix factor vs cyclic factor
    with pytest.raises(ValueError):
        validate_gen(ex3, Swap(1, 2))  # cyclic vs vector factor
    with pytest.raises(ValueError):
        validate_gen(ex1, Type1(0, 2))  # exponent on matrices
    with pytest.raises(ValueError):
        validate_gen(ex1, Type1(1, Mat2.identity(
            ex1.factors[0].kind.ring)))  # conjugation on a cyclic factor
    with pytest.raises(ValueError):
        validate_gen(ex1, PartialConj(1, 1, 1))  # source equals target


def _decl_of(*kinds):
    return CentralAmalgamDecl(tuple(FactorDecl(k) for k in kinds))


def test_swap_needs_equal_kinds():
    # matrix factors over two ring objects of one field are two groups, with
    # no letter in common, so a swap between them is refused when it is built
    f2 = helpers.ring_of(2).field
    for decl in (_decl_of(MatrixBacked(poly_ring(f2)), MatrixBacked(PolyRing(f2))),
                 _decl_of(VectorFactor(poly_ring(f2)), VectorFactor(PolyRing(f2))),
                 _decl_of(FiniteCyclic(3), FiniteCyclic(8))):
        with pytest.raises(ValueError, match="swap requires isomorphic factors"):
            compose_autos(decl, [Swap(0, 1)])
    ring = helpers.ring_of(2)
    for kind in (MatrixBacked(ring), VectorFactor(ring), FiniteCyclic(3)):
        compose_autos(_decl_of(kind, kind), [Swap(0, 1)])


def test_swaps_check_only_the_letters_entering_apply(rng, monkeypatch):
    # every letter a swap moves lands in an equal factor, so apply checks the
    # word's letters once on entry, however many swaps follow
    ring = helpers.ring_of(2)
    decl = _decl_of(MatrixBacked(ring), MatrixBacked(ring), FiniteCyclic(4),
                    FiniteCyclic(4), VectorFactor(ring), VectorFactor(ring))
    w = word_reduce(decl, [(i, helpers.rand_elem(decl.factors[i].kind, rng))
                           for i in (0, 2, 4, 1, 3, 5, 0, 3, 4)])
    swaps = [Swap(0, 1), Swap(2, 3, exponent=3), Swap(4, 5)]
    autos = [compose_autos(decl, swaps[:k] * m) for k, m in ((1, 1), (3, 1), (3, 4))]
    checks = [helpers.count_calls(monkeypatch, kind, "is_member")
              for kind in (MatrixBacked, FiniteCyclic, VectorFactor)]
    for auto in autos:
        for calls in checks:
            calls.clear()
        auto.apply(w)
        assert [len(calls) for calls in checks] == [3, 3, 3]


def test_linear_twist_on_vector_letters(ex3):
    ring = ex3.factors[2].kind.ring
    assert ring is ex3.factors[0].kind.ring
    spec = LinearAutoSpec.from_pairs(ring, {1: "t^2", 2: "t"},
                                     {1: "t^2", 2: "t"})
    gen = Type1(2, spec)
    w = word_parse(ex3, "f2:(1).f3:(1)")
    img = helpers.apply_gen(ex3, gen, w)
    # (1) is t, carried to t^2 = (0,1); the factor-3 letter is fixed
    assert word_text(ex3, img) == "f2:(0,1)·f3:(1)"
    assert img.letters == ((2, ring.t * ring.t), (3, ring.t))
    assert helpers.apply_gen(ex3, gen_inverse(ex3, gen), img) == w


def test_spike_power_accepts_only_admissible_exponents(ex1):
    for a in aut_rel_enumerate(2):
        gen = spike_power(ex1, 1, a, 2)
        assert isinstance(gen, Type1)
    with pytest.raises(ValueError):
        spike_power(ex1, 1, 0, 2)
    with pytest.raises(ValueError):
        spike_power(ex1, 0, 1, 2)  # not a spike factor
    decl = two_spike_decl(order=4)
    with pytest.raises(ValueError):
        spike_power(decl, 0, 1, 2)  # order 4 is not q^2 - 1


def test_spike_swap_validates_both_factors(ex1):
    gen = spike_swap(ex1, 1, 2, 2, 2)
    assert gen == Swap(1, 2, exponent=2)
    with pytest.raises(ValueError):
        spike_swap(ex1, 1, 2, 0, 2)


def test_inner_automorphism_is_global_conjugation(ex1, rng):
    ring = ex1.factors[0].kind.ring
    for _ in range(10):
        h = helpers.rand_gl2_poly(ring, rng, 2)
        auto = inner_auto(ex1, 0, h)
        hw = word_reduce(ex1, [(0, h)])
        for _ in range(5):
            w = helpers.rand_word(ex1, rng, 6)
            expected = word_mul(ex1, word_mul(ex1, hw, w),
                                word_inv(ex1, hw))
            assert auto.apply(w) == expected


# four matrix letters of determinant 1 with b and c nonzero, so each
# membership check takes one determinant
CHECKED_WORD = ("f0:[[1,t],[t,t^2+1]].f1:1.f0:[[t+1,1],[t,1]].f2:2."
                "f0:[[0,1],[1,t]].f1:2.f0:[[t,1],[1,0]]")


def test_apply_checks_each_input_letter_once(ex1, monkeypatch):
    # the letters are checked as the word enters apply; the letters the
    # generators make or move between the spike factors are not checked again
    w = word_parse(ex1, CHECKED_WORD)
    matrix_letters = sum(idx == 0 for idx, _e in w)
    assert matrix_letters == 4
    auto = compose_autos(ex1, [PartialConj(1, 0, 1), Swap(1, 2), PartialConj(2, 0, 2)])
    want = w
    for gen in auto.gens:
        want = helpers.apply_gen(ex1, gen, want)
    dets = helpers.count_calls(monkeypatch, Mat2, "det")
    assert auto.apply(w) == want
    assert len(dets) == matrix_letters


def test_apply_makes_one_unit_det_test_per_input_matrix_letter(ex1, monkeypatch):
    # the shape of the benchmark's partial conjugations: a matrix conjugator
    # is checked when the automorphism is built, not when it is applied
    ring = ex1.factors[0].kind.ring
    h = mat_parse(ring, "[[1,t],[t,t^2+1]]")
    auto = compose_autos(ex1, [PartialConj(1, 0, 2), PartialConj(0, 2, h),
                               PartialConj(2, 0, 1)])
    w = word_parse(ex1, CHECKED_WORD)
    tests = helpers.count_calls(monkeypatch, Mat2, "has_unit_det")
    for _ in range(3):
        tests.clear()
        auto.apply(w)
        assert len(tests) == 4


def test_matrix_conjugation_inverts_its_conjugator_once_per_apply(ex1, monkeypatch):
    ring = ex1.factors[0].kind.ring
    h = mat_parse(ring, "[[1,t],[t,t^2+1]]")
    auto = compose_autos(ex1, [Type1(0, h)])
    w = word_parse(ex1, CHECKED_WORD)
    want = [(i, h * e * h.inverse() if i == 0 else e) for i, e in w]
    inverses = helpers.count_calls(monkeypatch, Mat2, "inverse")
    assert auto.apply(w) == word_reduce(ex1, want)
    assert len(inverses) == 1 and sum(i == 0 for i, _e in w) == 4


def test_each_generator_is_validated_once(ex1, monkeypatch):
    # the ComposedAuto constructor validates; reading a record and inverting a
    # generator do not
    records = [{"type": "type1", "factor": 1, "exponent": 2},
               {"type": "type1", "factor": 0, "conjugate_by": "[[1,t],[0,1]]"},
               {"type": "partial_conj", "source": 0, "target": 1,
                "conjugator": "[[1,0],[t,1]]"},
               {"type": "swap", "left": 1, "right": 2, "exponent": 2},
               {"type": "spike", "factor": 2, "exponent": 2, "q": 2}]
    calls = helpers.count_calls(monkeypatch, words, "validate_gen")
    auto = gens_from_json(ex1, records)
    assert len(calls) == len(records)
    auto.inverse()
    assert len(calls) == 2 * len(records)


def test_word_arithmetic_checks_no_letter(ex1, rng, monkeypatch):
    # products, inverses and powers of reduced words are made of members
    pairs = [(helpers.rand_word(ex1, rng, 6), helpers.rand_word(ex1, rng, 6))
             for _ in range(10)]
    checks = [helpers.count_calls(monkeypatch, kind, "is_member")
              for kind in (MatrixBacked, FiniteCyclic)]
    for u, v in pairs:
        word_mul(ex1, u, v)
        word_inv(ex1, u)
        word_pow(ex1, v, -3)
    dihedral_cohopf_demo()
    assert checks == [[], []]


def test_composed_auto_inverse(ex1, rng):
    ring = ex1.factors[0].kind.ring
    h = mat_parse(ring, "[[1,t],[0,1]]")
    comp = compose_autos(ex1, [Type1(1, 2), PartialConj(0, 2, h),
                               Swap(1, 2)])
    inv = comp.inverse()
    for _ in range(15):
        w = helpers.rand_word(ex1, rng, 6)
        assert inv.apply(comp.apply(w)) == w
        assert comp.apply(inv.apply(w)) == w


def test_gen_json_roundtrip(ex1, ex3):
    ring = ex1.factors[0].kind.ring
    h = mat_parse(ring, "[[1,0],[t,1]]")
    spec = LinearAutoSpec.from_pairs(ring, {1: "t^2", 2: "t"},
                                     {1: "t^2", 2: "t"})
    cases = [
        (ex1, {"type": "type1", "factor": 1, "exponent": 2}, Type1(1, 2)),
        (ex1, {"type": "type1", "factor": 0, "conjugate_by": h.text()}, Type1(0, h)),
        (ex3, {"type": "type1", "factor": 2, "linear": spec.to_json()}, Type1(2, spec)),
        (ex1, {"type": "partial_conj", "source": 0, "target": 1, "conjugator": h.text()},
         PartialConj(0, 1, h)),
        (ex1, {"type": "swap", "left": 1, "right": 2, "exponent": 2},
         Swap(1, 2, exponent=2)),
    ]
    for decl, rec, gen in cases:
        again = gen_from_json(decl, rec)
        assert again == gen
        w = word_reduce(decl, [(1, 1)])
        assert helpers.apply_gen(decl, again, w) == helpers.apply_gen(decl, gen, w)


GRID_WORD = "f0:[[1,t],[0,1]].f1:1.f2:(1,1).f3:(1)"
SPEC_JSON = {"map": {"1": [0, 0, 1], "2": [0, 1]},
             "inverse": {"1": [0, 0, 1], "2": [0, 1]}}
# one value per type1 key and factor kind that the kind would parse if it
# took the key: ex3cusps factor 0 is matrix-backed, 1 cyclic, 2 a vector
GRID_VALUES = {"exponent": {0: 2, 1: 2, 2: 2},
               "conjugate_by": {0: "[[1,t],[0,1]]", 1: "2", 2: "(1)"},
               "linear": {0: SPEC_JSON, 1: SPEC_JSON, 2: SPEC_JSON}}
GRID_VALID = {("exponent", 1), ("conjugate_by", 0), ("linear", 0), ("linear", 2)}


@pytest.mark.parametrize("key", sorted(GRID_VALUES))
@pytest.mark.parametrize("factor", [0, 1, 2])
def test_type1_key_on_each_factor_kind(ex3, key, factor, capsys):
    record = {"type": "type1", "factor": factor, key: GRID_VALUES[key][factor]}
    argv = ["aut-apply", "--decl", "ex3cusps", "--script", json.dumps([record]),
            "--word", GRID_WORD]
    code = cli_main(argv)
    out, err = capsys.readouterr()
    if (key, factor) in GRID_VALID:
        gen = gen_from_json(ex3, record)
        w = word_parse(ex3, GRID_WORD)
        assert helpers.apply_gen(ex3, gen_inverse(ex3, gen), helpers.apply_gen(ex3, gen, w)) == w
        assert code == 0 and out.strip() == word_text(ex3, helpers.apply_gen(ex3, gen, w))
    else:
        with pytest.raises(ValueError):
            gen_from_json(ex3, record)
        assert code == 2 and out == "" and err.startswith("error:")


def test_gens_from_json_spike_records(ex1):
    records = [{"type": "spike", "factor": 1, "exponent": 2, "q": 2},
               {"type": "spike_swap", "left": 1, "right": 2, "exponent": 1,
                "q": 2}]
    comp = gens_from_json(ex1, records)
    assert isinstance(comp, ComposedAuto)
    w = word_reduce(ex1, [(1, 1)])
    img = comp.apply(w)
    assert img.letters == ((2, 2),)


def test_gen_from_json_rejects_unknown_type(ex1):
    with pytest.raises(ValueError):
        gen_from_json(ex1, {"type": "mystery"})


# ------------------------------------------------------------ wreath check

def test_wreath_closure_minimal_case():
    rep = cs_wreath_check(1, 2)
    assert rep.order == rep.expected_order == 2
    assert rep.exponent_classes == (1, 2)
    assert rep.ok


def test_wreath_closure_two_factors_f3():
    rep = cs_wreath_check(2, 3)
    assert rep.order == rep.expected_order == 32
    assert rep.permutations_full
    assert rep.ok


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_wreath_closure_over_the_subset_matches_the_all_generator_oracle(r, q):
    rep = cs_wreath_check(r, q)
    assert rep == helpers.wreath_report_all_generators(r, q)
    assert rep.ok


def test_wreath_check_applies_the_spike_generators(monkeypatch):
    # with every cyclic automorphism the identity, the powers read off as the
    # identity and the closure is the symmetric group alone
    monkeypatch.setattr(FiniteCyclic, "auto_map", lambda self, auto: lambda e: e)
    rep = cs_wreath_check(2, 3)
    assert rep.order == 2 and rep.expected_order == 32
    assert not rep.ok


def _read_off(decl, auto):
    """(permutation, exponents) from the images of the words (i, 1)."""
    images = [auto.apply(FreeWord(((i, 1),))).letters for i in range(len(decl.factors))]
    assert all(len(image) == 1 for image in images)
    return tuple(image[0][0] for image in images), tuple(image[0][1] for image in images)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_spike_letter_maps_compose_as_the_automorphisms(q):
    n, r = q * q - 1, 3
    decl = CentralAmalgamDecl(tuple(FactorDecl(FiniteCyclic(n)) for _ in range(r)))
    classes = aut_rel_enumerate(q)
    gens = [spike_power(decl, i, a, q) for a in classes for i in range(r)]
    gens += [spike_swap(decl, i, j, a, q) for a in classes for i in range(r) for j in range(r)
             if i != j]
    maps = {g: _read_off(decl, ComposedAuto(decl, (g,))) for g in gens}
    assert all(words._letter_map(decl, g) == m for g, m in maps.items())
    rng = random.Random(q)
    for _ in range(40):
        word = rng.choices(gens, k=rng.randint(0, 6))
        # applied left to right: factor i goes to perm[i] with exponent exps[i]
        perm, exps = tuple(range(r)), (1,) * r
        for g in word:
            gp, ge = maps[g]
            perm, exps = (tuple(gp[j] for j in perm),
                          tuple(ge[j] * e % n for j, e in zip(perm, exps)))
        assert _read_off(decl, ComposedAuto(decl, tuple(word))) == (perm, exps)


@pytest.mark.parametrize("depth", range(1, 7))
def test_example_declarations_are_read_off_their_graphs(depth, monkeypatch):
    ring = helpers.ring_of(2)
    ex1 = CentralAmalgamDecl((FactorDecl(MatrixBacked(ring)),
                              FactorDecl(FiniteCyclic(3)),
                              FactorDecl(FiniteCyclic(3))), cusps=(("inf", 0),))
    ex3 = CentralAmalgamDecl((FactorDecl(MatrixBacked(ring)),
                              FactorDecl(FiniteCyclic(3)),
                              FactorDecl(VectorFactor(ring)),
                              FactorDecl(VectorFactor(ring))),
                             cusps=(("inf", 0), ("(0,0)", 2), ("(0,1)", 3)))
    monkeypatch.setattr(words, "build_graph_ex1", partial(graphs.build_graph_ex1, depth))
    monkeypatch.setattr(words, "build_graph_ex3", partial(graphs.build_graph_ex3, depth))
    assert build_ex1cusp() == ex1
    assert build_ex3cusps() == ex3


def test_wreath_check_rejects_bad_parameters():
    with pytest.raises(ValueError):
        cs_wreath_check(0, 2)
    with pytest.raises(ValueError):
        cs_wreath_check(2, 6)


# ---------------------------------------------------------------- dihedral

def test_dihedral_isometry_representation():
    a, b = DIHEDRAL_A, DIHEDRAL_B
    assert isom_mul(a, a) == (1, 0)
    assert isom_mul(b, b) == (1, 0)
    ab = isom_mul(a, b)
    assert ab[0] == 1 and ab[1] != 0  # a nontrivial translation
    # the inverse of ab is ba
    assert isom_mul(ab, isom_mul(b, a)) == (1, 0)


def test_dihedral_word_evaluation():
    decl = dihedral_decl()
    w = word_reduce(decl, [(0, 1), (1, 1), (0, 1)])
    assert dihedral_isom(w) == isom_mul(DIHEDRAL_A,
                                        isom_mul(DIHEDRAL_B, DIHEDRAL_A))


def test_dihedral_coset_indices():
    a, b = DIHEDRAL_A, DIHEDRAL_B
    ababa = isom_mul(a, isom_mul(b, isom_mul(a, isom_mul(b, a))))
    assert dihedral_coset_index([ababa, b]) == 3
    assert dihedral_coset_index([a, b]) == 1
    bab = isom_mul(b, isom_mul(a, b))
    assert dihedral_coset_index([bab, b]) == 1
    # one reflection generates a subgroup of infinite index
    with pytest.raises(ValueError):
        dihedral_coset_index([b])


def test_dihedral_index_closed_form_matches_coset_search():
    rng = random.Random(20261)
    infinite = 0
    for _ in range(3000):
        gens = [(rng.choice((1, -1)), rng.randint(-8, 8))
                for _ in range(rng.randint(0, 3))]
        # finite indices are at most 2 * 16, so a cap of 64 only cuts
        # infinite-index subgroups
        try:
            want = helpers.dihedral_coset_search(gens, cap=64)
        except RuntimeError:
            infinite += 1
            with pytest.raises(ValueError):
                dihedral_coset_index(gens)
        else:
            assert dihedral_coset_index(gens) == want, gens
    assert 0 < infinite < 3000


def test_dihedral_demo_report():
    rep = dihedral_cohopf_demo()
    assert rep.index == 3
    assert rep.injective_up_to == 12
    # conjugating both generators, or conjugating by a reflection inside the
    # group, keeps the image at full index
    assert rep.inner_index == 1
    assert rep.single_factor_index == 1


def test_apply_substitution_respects_words():
    decl = dihedral_decl()
    # images keyed by factor index: a -> bab, b -> b
    a_to_bab = {0: word_reduce(decl, [(1, 1), (0, 1), (1, 1)]),
                1: word_reduce(decl, [(1, 1)])}
    w = word_reduce(decl, [(0, 1), (1, 1)])
    img = apply_substitution(decl, a_to_bab, w)
    assert img.letters == ((1, 1), (0, 1))  # b a b . b = b a


def test_apply_substitution_rejects_matrix_factors(ex1, rng):
    ring = ex1.factors[0].kind.ring
    w = word_reduce(ex1, [(0, helpers.rand_gl2_poly(ring, rng, 2))])
    with pytest.raises(ValueError):
        apply_substitution(ex1, {0: FreeWord()}, w)


# ------------------------------------------------------------ cusp orbits

def test_cusp_orbit_report(ex1, ex3):
    assert aut_cusp_orbit_report(ex1).orbits == (("inf",),)
    assert aut_cusp_orbit_report(ex3).orbits == (("inf",), ("(0,0)", "(0,1)"))


def test_cusp_orbit_report_needs_cusps():
    with pytest.raises(ValueError):
        aut_cusp_orbit_report(two_spike_decl())
