"""The value base: field-tuple equality and hash, reprs, read-only fields."""

import copy
import json
import pickle

import pytest

from latzeta import cayley, cli, lattice, quotient, zeta
from latzeta.cli import RunConfig
from latzeta.lattice import (GEODESIC, AffineElement, LatticeVector,
                             Permutation, length_vector)
from latzeta.quotient import TranslationSubgroup
from latzeta.value import Value
import _oracles
from _oracles import FaceDescriptor

VALUE_TYPES = [
    (lattice, ("LatticeVector", "Permutation", "AffineElement",
               "LengthVector")),
    (quotient, ("FiniteAbelianGroup", "Character")),
    (cayley, ("GeneratorSet", "QuotientGraph")),
    (zeta, ("GeodesicClass", "CycleClass")),
    (cli, ("RunConfig",)),
    # the face oracle of the cone route, and the affine classes as objects
    (_oracles, ("FaceDescriptor", "ConjugacyClass")),
]


def _element():
    return AffineElement(LatticeVector(3, (0, 1, 2)), Permutation((1, 0, 2)))


def test_the_value_types_are_values():
    for module, names in VALUE_TYPES:
        for name in names:
            assert issubclass(getattr(module, name), Value), name


def test_hash_and_equality_are_those_of_the_field_tuple():
    t = (1, 0, 2)
    assert hash(Permutation(t)) == hash((t,))
    assert hash(LatticeVector(3, (0, 1, 2))) == hash((3, (0, 1, 2)))
    g = _element()
    assert hash(g) == hash((g.v, g.p))
    assert LatticeVector(3, (0, 1, 2)) == LatticeVector(3, (0, 1, 2))
    assert LatticeVector(3, (0, 1, 2)) != LatticeVector(3, (0, 2, 1))
    # another type is never equal, even with the same field tuple
    assert LatticeVector(3, (0, 1, 2)) != (3, (0, 1, 2))
    assert LatticeVector(3, (0, 1, 2)).__eq__((3, (0, 1, 2))) \
        is NotImplemented
    assert FaceDescriptor(2) != LatticeVector(2, (0, 0))
    assert len({Permutation(t), Permutation(t), Permutation((0, 1, 2))}) == 2


def test_fields_are_read_only():
    g = _element()
    face = FaceDescriptor(3, frozenset({1}))
    for obj, name in ((g, "v"), (g.p, "images"), (g.v, "coords"),
                      (face, "zero_set"), (length_vector(g), "scale")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    # and there is no room for a new attribute
    with pytest.raises(AttributeError):
        g.extra = 1


def test_init_checks_its_arguments():
    with pytest.raises(ValueError):
        LatticeVector(3, (1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        AffineElement(LatticeVector.zero(3), Permutation.identity(2))
    with pytest.raises(ValueError):
        FaceDescriptor(3, frozenset({3}))


def test_reprs_name_every_field():
    g = _element()
    assert repr(g.p) == "Permutation(images=(1, 0, 2))"
    assert repr(g) == ("AffineElement(v=LatticeVector(n=3, coords=(0, 1, 2)),"
                       " p=Permutation(images=(1, 0, 2)))")
    assert repr(length_vector(g)) == ("LengthVector(values=(Fraction(3, 2), "
                                      "Fraction(0, 1)), scale='geodesic')")
    assert repr(FaceDescriptor(2)) == "FaceDescriptor(n=2, zero_set=frozenset())"


def test_copy_and_pickle_rebuild_an_equal_value():
    g = _element()
    for obj in (g, length_vector(g), FaceDescriptor(3, frozenset({2}))):
        assert copy.copy(obj) == obj
        assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_run_config_round_trips_and_stays_mutable():
    obj = {"n": 3, "gamma": {"kind": "affine", "lattice": [[3, 0], [0, 3]],
                             "perms": [[1, 2, 0]]}, "maxDegree": 4}
    cfg = RunConfig.from_json_obj(obj)
    again = RunConfig.from_json_obj(json.loads(json.dumps(cfg.to_json_obj())))
    assert again == cfg
    # equality and the repr leave out the subgroup, which is built anew
    assert again.subgroup is not cfg.subgroup
    assert "subgroup" not in repr(cfg)
    assert repr(cfg).startswith("RunConfig(n=3, gamma_kind='affine', ")
    with pytest.raises(TypeError):
        hash(cfg)
    again.max_degree = 5
    assert again != cfg
    # the defaults: every translation check, degree 12, the geodesic scale
    plain = RunConfig(2, "translation", ((2,),))
    assert plain.checks == cli.TRANSLATION_CHECKS
    assert (plain.max_degree, plain.scale, plain.perturb) == (12, GEODESIC,
                                                              None)
    assert plain.subgroup.index == 2


def test_quotient_directions_are_computed_once(monkeypatch):
    q = TranslationSubgroup(3, [[3, 0], [0, 3]]).quotient
    calls = []
    project = quotient.FiniteAbelianGroup.project_vector

    def spy(self, v):
        calls.append(v)
        return project(self, v)

    monkeypatch.setattr(quotient.FiniteAbelianGroup, "project_vector", spy)
    first = q.directions
    assert q.directions is first and len(calls) == 3
    with pytest.raises(AttributeError):
        q.n = 4
