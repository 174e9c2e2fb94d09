"""The contract of the frozen value classes: equality only within a class,
hashes by the fields, the repr, no assignment or deletion, and copies and
pickles that come back equal."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import ftrees
from ftrees import (
    ONE, CompleteCode, DiagonalProjection, Dyadic, FormalVector, GroupElement,
    IndependenceCertificate, NormalFormWord, PairTruncation, TreeTruncation, embed,
)
from ftrees._frozen import Frozen
from ftrees.generators import generator_ball
from ftrees.omega import OrbitRun, act

P1, P2, P12 = DiagonalProjection(["1"]), DiagonalProjection(["2"]), DiagonalProjection(["12"])
X0 = "11:1 + 12:21 + 2:22"


def _element(text: str) -> GroupElement:
    return GroupElement(t.split(":") for t in text.split(" + "))


# each case: (value, an equal value built another way, a different value,
# the fields in order, the exact repr)
CASES = [
    (
        Dyadic(3, 2),
        Dyadic(numerator=6, exponent=3),
        Dyadic(1, 2),
        ("numerator", "exponent"),
        "Dyadic(3, 2)",
    ),
    (
        CompleteCode(["2", "1"]),
        CompleteCode(words=("1", "2")),
        CompleteCode(["1", "21", "22"]),
        ("words",),
        "CompleteCode(words=('1', '2'))",
    ),
    (
        _element(X0),
        GroupElement(terms=[("2", "22"), ("121", "211"), ("122", "212"), ("11", "1")]),
        _element("1:1 + 2:2"),
        ("_quads",),
        "GroupElement(11:1 + 12:21 + 2:22)",
    ),
    (
        NormalFormWord((0, 2), (1,)),
        NormalFormWord(positive=(0, 2), negative=(1,)),
        NormalFormWord((0,), ()),
        ("positive", "negative"),
        "NormalFormWord(positive=(0, 2), negative=(1,))",
    ),
    (
        OrbitRun({ONE: 0}, 0, 0.5, [(0, 0, 1, 0.0)]),
        OrbitRun(depths={ONE: 0}, action_evaluations=0, seconds=0.5, levels=[(0, 0, 1, 0.0)]),
        OrbitRun({ONE: 0}, 4, 0.5, [(0, 0, 1, 0.0)]),
        ("depths", "action_evaluations", "seconds", "levels"),
        "OrbitRun(depths={DiagonalProjection(1): 0}, action_evaluations=0, seconds=0.5,"
        " levels=[(0, 0, 1, 0.0)])",
    ),
    (
        FormalVector({P12: Fraction(1, 2), ONE: 1}),
        FormalVector(coefficients={ONE: Fraction(1), P12: Fraction(2, 4), P1: 0}),
        FormalVector({ONE: 1}),
        ("coefficients",),
        "FormalVector(coefficients=((DiagonalProjection(1), Fraction(1, 1)),"
        " (DiagonalProjection(P[12]), Fraction(1, 2))))",
    ),
    (
        IndependenceCertificate((_element(X0),), P1, (DiagonalProjection(["11"]),)),
        IndependenceCertificate(
            elements=(_element(X0),), point=P1, images=(DiagonalProjection(["11"]),)
        ),
        IndependenceCertificate((_element(X0),), P2, (DiagonalProjection(["11"]),)),
        ("elements", "point", "images"),
        "IndependenceCertificate(elements=(GroupElement(11:1 + 12:21 + 2:22),),"
        " point=DiagonalProjection(P[1]), images=(DiagonalProjection(P[11]),))",
    ),
    (
        TreeTruncation(1, ["", "1"]),
        TreeTruncation(depth=1, vertices=["1", ""]),
        TreeTruncation(1, ["", "1", "2"]),
        ("depth", "cells"),
        "TreeTruncation(depth=1, cells=DiagonalProjection(P[1]))",
    ),
    (
        embed(P1, 1),
        PairTruncation(left=TreeTruncation(1, ["", "1"]), right=TreeTruncation(1, ["", "2"])),
        embed(P1, 2),
        ("left", "right"),
        "PairTruncation(left=TreeTruncation(depth=1, cells=DiagonalProjection(P[1])),"
        " right=TreeTruncation(depth=1, cells=DiagonalProjection(P[2])))",
    ),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("v, same, other, fields, text", CASES, ids=IDS)
def test_equality_is_by_fields_within_the_class(v, same, other, fields, text):
    assert v == same and not v != same
    assert v != other and not v == other
    for foreign in (object(), "x", tuple(getattr(v, f) for f in fields)):
        assert v != foreign and not v == foreign


@pytest.mark.parametrize("v, same, other, fields, text", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_fields(v, same, other, fields, text):
    values = tuple(getattr(v, f) for f in fields)
    if isinstance(v, OrbitRun):  # its depths are a dict
        with pytest.raises(TypeError):
            hash(v)
    elif isinstance(v, Dyadic):  # equal to an int exactly when integral, so hashed like it
        assert hash(v) == hash(values) and hash(Dyadic(6)) == hash(6)
    else:
        assert hash(v) == hash(same) == hash(values)


@pytest.mark.parametrize("v, same, other, fields, text", CASES, ids=IDS)
def test_repr(v, same, other, fields, text):
    assert repr(v) == repr(same) == text


@pytest.mark.parametrize("v, same, other, fields, text", CASES, ids=IDS)
def test_assignment_and_deletion_raise(v, same, other, fields, text):
    frozen = dataclasses.FrozenInstanceError
    for name in fields:
        with pytest.raises(frozen, match=f"^cannot assign to field '{name}'$"):
            setattr(v, name, 0)
        with pytest.raises(frozen, match=f"^cannot delete field '{name}'$"):
            delattr(v, name)
    assert v == same and repr(v) == text


@pytest.mark.parametrize("v, same, other, fields, text", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(v, same, other, fields, text):
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    copies = [copy.copy(v), copy.deepcopy(v)]
    copies += [pickle.loads(pickle.dumps(v, protocol)) for protocol in protocols]
    for c in copies:
        assert type(c) is type(v) and c == v and repr(c) == text


def test_an_element_that_has_acted_copies_and_pickles_without_its_interval_map():
    # acting compiles a slotted interval map onto the element, which pickle
    # protocols 0 and 1 refuse; copies keep only the terms and F membership
    g = generator_ball(3)[-1]
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    before = [len(pickle.dumps(g, protocol)) for protocol in protocols]
    image = act(g, ONE)
    assert "_interval_map" in vars(g)
    copies = [copy.copy(g), copy.deepcopy(g)]
    for protocol, size in zip(protocols, before):
        data = pickle.dumps(g, protocol)
        assert len(data) <= size, protocol
        copies.append(pickle.loads(data))
    for c in copies:
        assert type(c) is GroupElement and c == g and str(c) == str(g)
        assert set(vars(c)) == {"_quads", "_in_f"}
        assert act(c, ONE) == image


def test_every_value_class_has_a_case():
    # a class added later cannot skip the checks above, and a stray class
    # annotation, which is a field, shows in its class's field list
    for module in pkgutil.iter_modules(ftrees.__path__):
        importlib.import_module(f"ftrees.{module.name}")
    classes, stack = set(), [Frozen]
    while stack:
        subclasses = stack.pop().__subclasses__()
        classes.update(subclasses)
        stack += subclasses
    assert {type(case[0]) for case in CASES} == classes
    for v, same, other, fields, text in CASES:
        assert type(v)._fields == fields


def test_a_window_that_has_listed_its_vertices_copies_and_pickles_without_them():
    # the vertices are listed on each read: a window holds only its depth
    # and cells, as a projection holds only (n, ends)
    t = embed(P12, 3).right
    assert t.frontier() < t.vertices
    assert set(vars(t)) == {"depth", "cells"}
    copies = [copy.copy(t), copy.deepcopy(t)]
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    copies += [pickle.loads(pickle.dumps(t, protocol)) for protocol in protocols]
    for c in copies:
        assert type(c) is TreeTruncation and c == t
        assert set(vars(c)) == {"depth", "cells"}
