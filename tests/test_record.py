"""Record subclasses behave as the frozen records they replace: field-wise
equality within one class, a field-tuple hash, the `Name(f=...)` repr and
no assignment, and copies that rebuild through the constructor;
FiniteGroup compares by identity, and a QuotientContext holding a list is
unhashable."""

import copy
import pickle

import pytest

from gl2aut.cosets import (FiniteGroup, QuotientContext, QuotRing, SubgroupSpec,
                           cusp_stab_generators, reduction_image)
from gl2aut.curves import AffinePoint, ClassData
from gl2aut.ffield import field_make
from gl2aut.graphs import QuotientGraph, StabDescriptor
from gl2aut.matgroup import mat_parse
from gl2aut.nagao import Letter
from gl2aut.polyring import poly_ring
from gl2aut.record import Record
from gl2aut.words import FreeWord, Swap

F2 = field_make(2)
RING = poly_ring(F2)

# (builder, repr printed by the records these classes replaced)
CASES = {
    "Letter": (lambda: Letter("B", mat_parse(RING, "[[1,t],[0,1]]")),
               "Letter(side='B', mat=Mat2([[1,t],[0,1]]))"),
    "AffinePoint": (lambda: AffinePoint(F2.one, F2.zero),
                    "AffinePoint(x=F2(1), y=F2(0))"),
    "FreeWord": (lambda: FreeWord(((0, 1), (1, 1))),
                 "FreeWord(letters=((0, 1), (1, 1)))"),
    "Swap": (lambda: Swap(1, 2, exponent=5),
             "Swap(left=1, right=2, exponent=5)"),
    "QuotientGraph": (lambda: QuotientGraph(),
                      "QuotientGraph(vertices=(), edges=(), rays=())"),
    "ClassData": (lambda: ClassData(h=1, cl2=1, r=0, ell_eq=1, ell_neq=0),
                  "ClassData(h=1, cl2=1, r=0, ell_eq=1, ell_neq=0)"),
    "StabDescriptor": (lambda: StabDescriptor("unipotent", q=2, dim=3),
                       "StabDescriptor(kind='unipotent', q=2, dim=3)"),
}


def _twin(rec):
    """An instance of another Record class with the same fields and values."""
    twin_cls = type("Twin", (Record,), {"__slots__": type(rec).__slots__})
    twin = object.__new__(twin_cls)
    for name in type(rec).__slots__:
        object.__setattr__(twin, name, getattr(rec, name))
    return twin


@pytest.mark.parametrize("name", list(CASES))
def test_record_matches_frozen_record_semantics(name):
    build, text = CASES[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    twin = _twin(a)
    assert a != twin and twin != a
    assert repr(a) == text
    field = type(a).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b
    assert copy.copy(a) == a
    assert repr(copy.deepcopy(a)) == text


def test_generic_constructor_takes_fields_by_position_or_keyword():
    data = ClassData(1, 1, 0, ell_eq=1, ell_neq=0)
    assert data == ClassData(h=1, cl2=1, r=0, ell_eq=1, ell_neq=0)
    assert pickle.loads(pickle.dumps(data)) == data
    for args, kwargs in [((1, 1, 0, 1), {}),                      # missing field
                         ((1, 1, 0, 1, 0, 9), {}),                # one too many
                         ((1, 1, 0, 1), {"h": 1}),                # h given twice
                         ((1, 1, 0, 1, 0), {"genus": 1})]:        # unknown field
        with pytest.raises(TypeError):
            ClassData(*args, **kwargs)


def test_finite_group_compares_by_identity_and_context_is_mutable():
    R = QuotRing(RING, RING.poly([0, 1]))
    group = reduction_image(R)
    copy = FiniteGroup(group.R, group.elems)
    assert group == group and group != copy
    assert hash(group) == hash(group)
    assert len({group, copy}) == 2

    stab = SubgroupSpec.from_matrices(group, R, cusp_stab_generators(R))
    assert stab == SubgroupSpec(group, stab.gens)
    assert stab.members is stab.members  # found once, then cached

    ctx = QuotientContext(R, group, stab, [(1, 0)], [None, 0, 0, None])
    with pytest.raises(TypeError):
        hash(ctx)
    assert ctx == QuotientContext(R, group, stab, [(1, 0)], [None, 0, 0, None])
    with pytest.raises(AttributeError):
        ctx.lines = []
