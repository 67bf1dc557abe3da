import functools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from latzeta.errors import ResourceCapError, TypeZeroViolationError
from latzeta import RunConfig, run_config
from latzeta.cayley import (
    MAX_EDGES,
    MAX_VERTICES,
    QuotientGraph,
    build_graph,
    export_edge_list,
    generator_set,
    perturb_adjacency,
    typed_adjacency,
)
from latzeta.quotient import TranslationSubgroup
from latzeta.zeta import enumerate_positive_geodesics

from _oracles import (loop_build_graph, random_type_zero_subgroup,
                      walk_positive_geodesics)


@pytest.mark.parametrize("n,count,type_counts", [
    (2, 2, {1: 2}),
    (3, 6, {1: 3, 2: 3}),
    (4, 14, {1: 4, 2: 6, 3: 4}),
    (5, 30, {1: 5, 2: 10, 3: 10, 4: 5}),
])
def test_generator_set_counts(n, count, type_counts):
    gs = generator_set(n)
    assert len(gs.elements) == count == 2 ** n - 2
    assert Counter(gs.types) == Counter(type_counts)
    for i, c in type_counts.items():
        assert c == math.comb(n, i)


def test_generator_set_symmetric():
    for n in (2, 3, 4, 5):
        gs = generator_set(n)
        elems = set(gs.elements)
        for s in gs.elements:
            assert -s in elems


def test_generator_set_rejects_small_rank():
    with pytest.raises(ValueError):
        generator_set(1)


def test_cycle_graph_c4():
    g = build_graph(TranslationSubgroup(2, [[4]]))
    a1 = typed_adjacency(g, 1)
    expected = np.array([[0, 1, 0, 1],
                         [1, 0, 1, 0],
                         [0, 1, 0, 1],
                         [1, 0, 1, 0]])
    assert (a1 == expected).all()
    assert g.is_simple()


def test_multigraph_multiplicity_kept():
    g = build_graph(TranslationSubgroup(2, [[2]]))
    assert (typed_adjacency(g, 1) == np.array([[0, 2], [2, 0]])).all()
    assert not g.is_simple()


def test_index3_typed_adjacency():
    g = build_graph(TranslationSubgroup(3, [[1, 0], [-1, 3]]))
    a1, a2 = typed_adjacency(g, 1), typed_adjacency(g, 2)
    shift = np.zeros((3, 3), dtype=np.int64)
    for v in range(3):
        shift[(v + 1) % 3, v] = 1
    # all three type-1 generators land on the same cyclic shift
    assert (a1 == 3 * shift).all() or (a1 == 3 * shift.T).all()
    assert (a2 == a1.T).all()
    assert (a1 + a2).sum(axis=1).tolist() == [6, 6, 6]


def test_type_violation_blocks_graph():
    with pytest.raises(TypeZeroViolationError):
        build_graph(TranslationSubgroup(2, [[1]]))


def test_typed_adjacency_identities():
    rng = random.Random(21)
    cases = [
        TranslationSubgroup(2, [[6]]),
        TranslationSubgroup(3, [[3, 0], [0, 3]]),
        TranslationSubgroup(3, [[2, 1], [1, 2]]),
        TranslationSubgroup(4, [[1, 0, 1], [-1, 1, 1], [0, -1, 2]]),
        TranslationSubgroup(4, [[4, 0, 0], [0, 4, 0], [0, 0, 4]]),
        TranslationSubgroup(5, [[5, 0, 0, 0], [0, 5, 0, 0],
                                [0, 0, 5, 0], [0, 0, 0, 5]]),
    ]
    for gam in cases:
        g = build_graph(gam)
        n = g.n
        mats = [typed_adjacency(g, i) for i in range(1, n)]
        for i in range(n - 1):
            for j in range(i + 1, n - 1):
                assert (mats[i] @ mats[j] == mats[j] @ mats[i]).all()
        for i in range(1, n):
            assert (typed_adjacency(g, i).T == typed_adjacency(g, n - i)).all()
            assert (typed_adjacency(g, i).sum(axis=1) == math.comb(n, i)).all()
            assert (typed_adjacency(g, i).sum(axis=0) == math.comb(n, i)).all()
        a = g.adjacency()
        assert (a.sum(axis=1) == 2 ** n - 2).all()


def test_vertex_transitivity_spot_check():
    rng = random.Random(22)
    g = build_graph(TranslationSubgroup(3, [[3, 0], [0, 6]]))
    q = g.group
    idx = {v: i for i, v in enumerate(g.vertices)}
    for _ in range(5):
        v = rng.choice(g.vertices)
        w = rng.choice(g.vertices)
        shift = tuple((b - a) % d for a, b, d in zip(v, w, q.divisors))
        perm = [idx[q.add(u, shift)] for u in g.vertices]
        for mat in g.mats:
            relabeled = mat[np.ix_(perm, perm)]
            assert (relabeled == mat).all()


def test_typed_adjacency_range_check():
    g = build_graph(TranslationSubgroup(2, [[4]]))
    with pytest.raises(ValueError):
        typed_adjacency(g, 0)
    with pytest.raises(ValueError):
        typed_adjacency(g, 2)


def test_vertex_cap():
    with pytest.raises(ResourceCapError):
        build_graph(TranslationSubgroup(3, [[3, 0], [0, 3]]), max_vertices=4)


def test_perturb_adjacency():
    g = build_graph(TranslationSubgroup(2, [[4]]))
    p = perturb_adjacency(g, 1, 0, 0, 1)
    assert p.mats[0][0, 0] == g.mats[0][0, 0] + 1
    assert (g.mats[0] == typed_adjacency(build_graph(g.gamma), 1)).all()


def test_export_edge_list_format():
    g = build_graph(TranslationSubgroup(2, [[4]]))
    text = export_edge_list(g)
    lines = text.strip().split("\n")
    # 2-regular on 4 vertices: 8 directed typed entries
    assert len(lines) == 8
    for line in lines:
        v, w, t, m = line.split(" ")
        assert t == "1" and m == "1"
        assert v.isdigit() and w.isdigit()
    g3 = build_graph(TranslationSubgroup(3, [[3, 0], [0, 3]]))
    for line in export_edge_list(g3).strip().split("\n"):
        v, w, t, m = line.split(" ")
        assert len(v.split(",")) == 2
        assert t in ("1", "2")


def _reference_subgroups():
    """Three seeded type-zero subgroups for each n = 2..5 with at most 64
    vertices, the multigraph quotient of index 3, and index 1 (untyped)."""
    rng = random.Random(40)
    out = []
    for n in range(2, 6):
        found = 0
        while found < 3:
            gamma = random_type_zero_subgroup(rng, n, bound=3)
            if gamma.index <= 64:
                out.append(gamma)
                found += 1
    out.append(TranslationSubgroup(3, [[1, 0], [-1, 3]]))
    out.append(TranslationSubgroup(3, [[1, 0], [0, 1]], check_types=False))
    return out


@pytest.mark.parametrize("gamma", _reference_subgroups(), ids=repr)
def test_graph_and_geodesics_match_the_loop_references(gamma):
    g = build_graph(gamma)
    vertices, mats = loop_build_graph(gamma)
    assert g.vertices == vertices
    assert len(g.mats) == len(mats) == gamma.n - 1
    for got, want in zip(g.mats, mats):
        assert got.dtype == np.int64 and got.shape == want.shape
        assert (got == want).all()
    for max_len in (0, 1, 2, 3, 7, gamma.n * gamma.index):
        classes = enumerate_positive_geodesics(g, max_len)
        assert [(c.length, c.direction, c.representative)
                for c in classes] == walk_positive_geodesics(g, max_len)


def _rank_cyclic_basis(n):
    # columns e_1 - e_2, .., e_(n-2) - e_(n-1) and n e_(n-1): index n
    return [[n if i == j == n - 2 else (i == j) - (i == j + 1)
             for j in range(n - 1)] for i in range(n - 1)]


@pytest.mark.parametrize("n, basis, message", [
    # 66^2 = 4356 vertices, above MAX_VERTICES
    (3, [[66, 0], [0, 66]], "4356 vertices"),
    # (2^20 - 2) 20 directed edges, above MAX_EDGES
    (20, _rank_cyclic_basis(20), "rank 20"),
])
def test_graph_caps_exit_3_before_allocating(n, basis, message):
    gamma = TranslationSubgroup(n, basis)
    assert gamma.index > MAX_VERTICES or (2 ** n - 2) * gamma.index > MAX_EDGES
    cfg = RunConfig.from_json_obj({
        "n": n, "gamma": {"kind": "translation", "basis": basis},
        "checks": ["ihara"]})
    tracemalloc.start()
    try:
        code, report = run_config(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and message in report["error"]
    assert peak < 1 << 20


def test_adjacency_is_summed_once_and_read_only():
    g = build_graph(TranslationSubgroup(3, [[3, 0], [0, 6]]))
    a = g.adjacency()
    assert a is g.adjacency()
    assert (a == g.mats[0] + g.mats[1]).all()
    with pytest.raises(ValueError):
        a[0, 0] = 1
    # a copy with a perturbed matrix sums its own
    p = perturb_adjacency(g, 1, 0, 0, 1)
    assert p.adjacency()[0, 0] == a[0, 0] + 1


def test_ihara_sums_the_adjacency_once(monkeypatch):
    # is_simple (twice), the Bass numerator and the Hashimoto traces all
    # read the one sum
    calls = []
    summed = QuotientGraph._adjacency.func

    def counted(self):
        calls.append(self)
        return summed(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(QuotientGraph, "_adjacency")
    monkeypatch.setattr(QuotientGraph, "_adjacency", prop)
    code, report = run_config(RunConfig.from_json_obj({
        "n": 3, "gamma": {"kind": "translation", "basis": [[3, 0], [0, 6]]},
        "maxDegree": 8, "checks": ["ihara"]}))
    assert code == 0 and report["results"]["ihara"]["oracle"] == "match"
    assert len(calls) == 1
