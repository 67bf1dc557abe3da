import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from latzeta import RunConfig, exactdet, run_config, zeta
from latzeta.errors import MultigraphError, ResourceCapError, ToleranceError
from latzeta.cayley import build_graph, perturb_adjacency
from latzeta.exactdet import coefficient_bound, naive_polymatrix_det, polymatrix_det
from latzeta.polynomials import IntPolynomial
from latzeta.quotient import TranslationSubgroup, characters, quotient_group
from latzeta.zeta import (
    HASHIMOTO_BLOCK,
    backtrackless_cycle_product,
    backtrackless_euler_truncation,
    direction_orders,
    enumerate_backtrackless_cycles,
    enumerate_positive_geodesics,
    euler_product_truncation,
    fixed_point_product,
    hashimoto_traces,
    ihara_bass,
    ihara_zeta_series,
    lfunction,
    lfunction_error_bound,
    lfunction_with_deviation,
    zeta_positive_det,
    zeta_positive_orders,
)


def test_polymatrix_det_against_leibniz_oracle():
    rng = random.Random(31)
    cases = []
    for _ in range(25):
        size = rng.randint(1, 4)
        terms = rng.randint(1, 4)
        cases.append([np.array([[rng.randint(-3, 3) for _ in range(size)]
                                for _ in range(size)], dtype=np.int64)
                      for _ in range(terms)])
    # C_0 singular: the shift moves off u = 0 (to u = 2 for diag(u, u - 1))
    cases.append([np.diag([0, -1]), np.eye(2, dtype=np.int64)])
    cases.append([np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
                  np.array([[1, 0, 2], [0, -1, 0], [3, 0, 1]]),
                  np.eye(3, dtype=np.int64)])
    # identically zero: the rows are proportional in every coefficient
    cases.append([np.array([[1, 2], [2, 4]]), np.array([[-1, 3], [-2, 6]])])
    # leading coefficient zero, and nilpotent
    cases.append([np.eye(2, dtype=np.int64), np.array([[2, -1], [1, 1]]),
                  np.zeros((2, 2), dtype=np.int64)])
    cases.append([np.array([[1, 1, 0], [0, 2, 0], [1, 0, 1]]),
                  np.array([[0, 1, -2], [1, 0, 1], [0, 3, 0]]),
                  np.array([[0, 1, 5], [0, 0, 1], [0, 0, 0]])])
    for mats in cases:
        expected = naive_polymatrix_det(mats)
        got = polymatrix_det(mats)
        assert got == expected


def _zeta_and_bass_matrices(g):
    eye = np.eye(g.num_vertices, dtype=np.int64)
    positive = ([eye] + [(-1) ** i * a for i, a in enumerate(g.mats, start=1)]
                + [(-1) ** g.n * eye])
    bass = [eye, -g.adjacency(), (2 ** g.n - 3) * eye]
    return positive, bass


def test_corrupted_residue_fails_certificate(monkeypatch):
    real = exactdet._residues_mod
    primes = []

    def corrupt_first(mats, p):
        out = real(mats, p)
        if not primes:
            out[1] = (out[1] + 1) % p
        primes.append(p)
        return out

    monkeypatch.setattr(exactdet, "_residues_mod", corrupt_first)
    positive, _ = _zeta_and_bass_matrices(
        build_graph(TranslationSubgroup(3, [[6, 0], [0, 6]])))
    with pytest.raises(ArithmeticError, match="certification"):
        polymatrix_det(positive)
    assert len(primes) > 1


def test_coefficient_bound_dominates():
    rng = random.Random(32)
    cases = []
    for _ in range(10):
        size = rng.randint(1, 3)
        mats = [np.array([[rng.randint(-4, 4) for _ in range(size)]
                          for _ in range(size)], dtype=np.int64)
                for _ in range(3)]
        cases.append((mats, naive_polymatrix_det(mats)))
    g = build_graph(TranslationSubgroup(3, [[3, 0], [0, 3]]))
    for graph in (g, perturb_adjacency(g, 1, 0, 1, 1)):
        positive, bass = _zeta_and_bass_matrices(graph)
        cases.append((positive, zeta_positive_det(graph)))
        cases.append((bass, ihara_bass(graph)[0]))
    for mats, poly in cases:
        bound = coefficient_bound(mats)
        assert all(abs(c) <= bound for c in poly.coeffs)


def test_zeta_positive_det_examples():
    g = build_graph(TranslationSubgroup(2, [[2]]))
    assert zeta_positive_det(g) == IntPolynomial.one_minus_power(2, 2)
    g3 = build_graph(TranslationSubgroup(3, [[1, 0], [-1, 3]]))
    assert zeta_positive_det(g3) == IntPolynomial.one_minus_power(3, 3)
    g9 = build_graph(TranslationSubgroup(3, [[3, 0], [0, 3]]))
    assert zeta_positive_det(g9) == IntPolynomial.one_minus_power(3, 9)


def test_determinant_routes_match_orders_on_larger_quotients():
    # at n = 2 the Bass numerator det(I - A u + u^2 I) is Z+ itself
    gam2 = TranslationSubgroup(2, [[64]])
    assert ihara_bass(build_graph(gam2))[0] == zeta_positive_orders(gam2)
    gam3 = TranslationSubgroup(3, [[9, 0], [0, 9]])
    assert zeta_positive_det(build_graph(gam3)) == zeta_positive_orders(gam3)


def test_zeta_degree_and_constant_term():
    for gam in [TranslationSubgroup(2, [[6]]),
                TranslationSubgroup(3, [[2, 1], [1, 2]]),
                TranslationSubgroup(4, [[1, 0, 1], [-1, 1, 1], [0, -1, 2]])]:
        g = build_graph(gam)
        z = zeta_positive_det(g)
        assert z.degree == gam.n * gam.index
        assert z.coefficient(0) == 1
        assert z.coeffs[-1] == (-1) ** (gam.n * gam.index)


def test_zeta_positive_orders_examples():
    assert zeta_positive_orders(TranslationSubgroup(2, [[2]])) \
        == IntPolynomial.one_minus_power(2, 2)
    assert zeta_positive_orders(TranslationSubgroup(3, [[1, 0], [-1, 3]])) \
        == IntPolynomial.one_minus_power(3, 3)
    assert zeta_positive_orders(TranslationSubgroup(3, [[3, 0], [0, 3]])) \
        == IntPolynomial.one_minus_power(3, 9)


def test_zeta_roots_on_unit_circle():
    # via the orders factorization: the roots are exactly roots of unity,
    # so every root of each factor has modulus 1 and annihilates the factor
    import cmath

    gam = TranslationSubgroup(3, [[3, 0], [0, 6]])
    z = zeta_positive_det(build_graph(gam))
    product = IntPolynomial.one()
    for m in direction_orders(gam):
        for k in range(m):
            root = cmath.exp(2j * cmath.pi * k / m)
            assert abs(abs(root) - 1.0) < 1e-8
            assert abs(1 - root ** m) < 1e-8
        product = product * IntPolynomial.one_minus_power(m, gam.index // m)
    assert product == z  # the factorization really is the determinant


def test_lfunction_examples():
    assert lfunction(TranslationSubgroup(2, [[2]])) \
        == IntPolynomial.one_minus_power(2, 2)
    poly, dev = lfunction_with_deviation(TranslationSubgroup(3, [[1, 0], [-1, 3]]))
    assert poly == IntPolynomial.one_minus_power(3, 3)
    assert dev < 1e-20
    with pytest.raises(ValueError):
        lfunction(TranslationSubgroup(2, [[2]]), tolerance=0)
    # an unreachable tolerance must be reported, not silently rounded over
    with pytest.raises(ToleranceError):
        lfunction(TranslationSubgroup(3, [[3, 0], [0, 6]]), tolerance=1e-80)


def _satake_turns(gamma):
    q = quotient_group(gamma)
    return [t for chi in characters(q) for t in chi.satake_turns(q)]


def _mpmath_product(turns, bits):
    """prod (1 - exp(2 pi i t) u), one factor at a time in mpmath complex
    arithmetic at the given precision."""
    with mp.workprec(bits):
        coeffs = [mpc(1)]
        for t in turns:
            rho = mp.expjpi(2 * mpf(t.numerator) / t.denominator)
            coeffs = ([coeffs[0]]
                      + [c - rho * prev for c, prev in zip(coeffs[1:], coeffs)]
                      + [-rho * coeffs[-1]])
    return coeffs


# (n, basis): small cases of n = 2..4, all checked against mpmath
SMALL_LFUNCTION_CASES = [
    (2, [[6]]),
    (3, [[1, 0], [-1, 3]]),
    (3, [[3, 0], [0, 6]]),
    (4, [[1, 0, 1], [-1, 1, 1], [0, -1, 2]]),
    (4, [[4, 0, 1], [-4, 2, 1], [0, -2, 2]]),
]


@pytest.mark.parametrize("n, basis", SMALL_LFUNCTION_CASES)
def test_fixed_point_lfunction_matches_orders_and_mpmath(n, basis):
    gamma = TranslationSubgroup(n, basis)
    poly, dev = lfunction_with_deviation(gamma)
    assert poly == zeta_positive_orders(gamma)
    bits = zeta._lfunction_precision_bits(n * gamma.index)
    reference = _mpmath_product(_satake_turns(gamma), 2 * bits)
    assert poly.coeffs == [int(mp.nint(c.real)) for c in reference]
    assert 0 <= dev <= lfunction_error_bound(n * gamma.index, bits)


def test_fixed_point_lfunction_is_exact_on_exact_roots():
    # every Satake parameter of 4Z^3 is a power of i, exact at any precision
    gamma = TranslationSubgroup(4, [[4, 0, 0], [0, 4, 0], [0, 0, 4]])
    poly, dev = lfunction_with_deviation(gamma)
    assert dev == 0.0
    assert poly == zeta_positive_orders(gamma)


@pytest.mark.slow
@pytest.mark.parametrize("n, basis", [(3, [[12, 0], [0, 12]]), (2, [[400]])])
def test_fixed_point_lfunction_on_large_quotients(n, basis):
    gamma = TranslationSubgroup(n, basis)
    poly, _ = lfunction_with_deviation(gamma, tolerance=1e-30)
    assert poly == zeta_positive_orders(gamma)


@pytest.mark.parametrize("n, basis", SMALL_LFUNCTION_CASES)
@pytest.mark.parametrize("spare_bits", [None, 3])
def test_fixed_point_error_stays_within_the_proven_bound(n, basis,
                                                         spare_bits):
    """The gap to an mpmath product at twice the precision never exceeds
    (K + 4) 2^(K-1-P), at the route's own precision and at one where the
    bound lies between 1/32 and 1/16."""
    gamma = TranslationSubgroup(n, basis)
    turns = _satake_turns(gamma)
    degree = len(turns)
    bits = (zeta._lfunction_precision_bits(degree) if spare_bits is None
            else degree + (degree + 4).bit_length() + spare_bits)
    bound = lfunction_error_bound(degree, bits)
    assert bound < 0.5
    re, im = fixed_point_product(turns, bits)
    reference = _mpmath_product(turns, 2 * bits)
    with mp.workprec(2 * bits):
        gap = max(abs(mpc(mp.ldexp(x, -bits), mp.ldexp(y, -bits)) - c)
                  for x, y, c in zip(re, im, reference))
        # plus the reference's own floating-point error: each of its steps
        # rounds a few times relative to values below 2^K, so it stays
        # below 8K 2^(K-2P)
        limit = bound + Fraction(8 * degree, 2 ** (2 * bits - degree))
        assert gap <= mpf(limit.numerator) / limit.denominator
        # powers of i are exact; any other root leaves a visible error
        assert (gap > 0) == any(4 % t.denominator for t in turns)


def test_lfunction_refuses_a_precision_the_bound_does_not_cover(monkeypatch):
    gamma = TranslationSubgroup(3, [[3, 0], [0, 3]])
    # K = 27: (K + 4) 2^(K-1-P) is 31/64 at P = K + 5 and 31/32 at P = K + 4
    monkeypatch.setattr(zeta, "_lfunction_precision_bits", lambda k: k + 5)
    assert lfunction(gamma, tolerance=0.5) == zeta_positive_orders(gamma)
    monkeypatch.setattr(zeta, "_lfunction_precision_bits", lambda k: k + 4)
    with pytest.raises(ArithmeticError, match="not below 1/2"):
        lfunction(gamma)


def test_lfunction_deviation_above_the_bound_raises(monkeypatch):
    gamma = TranslationSubgroup(3, [[3, 0], [0, 3]])
    original = zeta.fixed_point_product

    def off_by_a_third(turns, bits):
        re, im = original(turns, bits)
        re[4] += (1 << bits) // 3
        return re, im

    monkeypatch.setattr(zeta, "fixed_point_product", off_by_a_third)
    with pytest.raises(ArithmeticError, match="proven error bound"):
        lfunction_with_deviation(gamma, tolerance=1.0)


def test_ihara_bass_examples():
    g2 = build_graph(TranslationSubgroup(2, [[6]]))
    num, chi = ihara_bass(g2)
    assert chi == 0
    gc4 = build_graph(TranslationSubgroup(2, [[4]]))
    num4, chi4 = ihara_bass(gc4)
    assert chi4 == 0
    assert num4 == IntPolynomial.one_minus_power(4, 2)
    g3 = build_graph(TranslationSubgroup(3, [[1, 0], [-1, 3]]))
    _, chi3 = ihara_bass(g3)
    assert chi3 == 3 * (2 - 4) == -6


def test_positive_geodesic_enumeration():
    g = build_graph(TranslationSubgroup(2, [[2]]))
    assert enumerate_positive_geodesics(g, 0) == []
    classes = enumerate_positive_geodesics(g, 4)
    assert [(c.direction, c.length) for c in classes] == [(1, 2), (2, 2)]

    g3 = build_graph(TranslationSubgroup(3, [[1, 0], [-1, 3]]))
    classes3 = enumerate_positive_geodesics(g3, 12)
    assert len(classes3) == 3
    assert all(c.length == 3 for c in classes3)

    # counts per direction equal N / m_i
    gam = TranslationSubgroup(3, [[3, 0], [0, 6]])
    g18 = build_graph(gam)
    classes18 = enumerate_positive_geodesics(g18, 18)
    orders = direction_orders(gam)
    for i, m in enumerate(orders, start=1):
        count = sum(1 for c in classes18 if c.direction == i)
        assert count == 18 // m


def test_euler_product_truncation_examples():
    assert euler_product_truncation([], 5) == IntPolynomial.one()
    g = build_graph(TranslationSubgroup(2, [[2]]))
    classes = enumerate_positive_geodesics(g, 4)
    assert euler_product_truncation(classes, 4) == IntPolynomial([1, 0, -2, 0, 1])
    g3 = build_graph(TranslationSubgroup(3, [[1, 0], [-1, 3]]))
    classes3 = enumerate_positive_geodesics(g3, 9)
    assert euler_product_truncation(classes3, 9) \
        == IntPolynomial.one_minus_power(3, 3).truncate(9)


def test_backtrackless_cycles_c4():
    g = build_graph(TranslationSubgroup(2, [[4]]))
    classes = enumerate_backtrackless_cycles(g, 8)
    assert [c.length for c in classes] == [4, 4]  # the two orientations
    num, chi = ihara_bass(g)
    assert backtrackless_euler_truncation(classes, 8) \
        == ihara_zeta_series(num, chi, 8)


def test_backtrackless_below_girth_is_empty():
    g = build_graph(TranslationSubgroup(2, [[6]]))
    assert enumerate_backtrackless_cycles(g, 5) == []


def test_backtrackless_rejects_multigraph():
    g = build_graph(TranslationSubgroup(2, [[2]]))
    with pytest.raises(MultigraphError):
        enumerate_backtrackless_cycles(g, 4)


def test_backtrackless_counts_match_hashimoto_traces():
    # tr(B^L) = sum_{d | L} d * (number of primitive classes of length d)
    gam = TranslationSubgroup(3, [[3, 0], [0, 3]])
    g = build_graph(gam)
    classes = enumerate_backtrackless_cycles(g, 6)
    counts = {}
    for c in classes:
        counts[c.length] = counts.get(c.length, 0) + 1
    a = g.adjacency()
    size = g.num_vertices
    edges = [(v, w) for v in range(size) for w in range(size) if a[w, v]]
    eidx = {e: i for i, e in enumerate(edges)}
    b = np.zeros((len(edges), len(edges)), dtype=np.int64)
    for (v, w), i in eidx.items():
        for (x, y), j in eidx.items():
            if x == w and y != v:
                b[j, i] = 1
    power = np.eye(len(edges), dtype=np.int64)
    for ell in range(1, 7):
        power = power @ b
        expected = sum(d * counts.get(d, 0) for d in range(1, ell + 1)
                       if ell % d == 0)
        assert int(np.trace(power)) == expected


def _closed_walk_counts(classes, max_len):
    # a primitive class of length d closes d walks of every length d * k
    return [sum(c.length for c in classes if ell % c.length == 0)
            for ell in range(1, max_len + 1)]


def _directed_graphs():
    """Simple graphs made asymmetric by one perturbed entry."""
    untyped = TranslationSubgroup(3, [[5, 0], [0, 5]], check_types=False)
    for gam, perturb in [
            (TranslationSubgroup(3, [[3, 0], [0, 3]]), (1, 0, 5, 1)),
            (TranslationSubgroup(3, [[6, 0], [0, 3]]), (2, 0, 3, 1)),
            (untyped, (1, 0, 4, -1))]:
        g = perturb_adjacency(build_graph(gam), *perturb)
        a = g.adjacency()
        assert g.is_simple() and (a != a.T).any()
        yield g


def test_backtrackless_enumerator_on_directed_graph_matches_brute_force():
    # every closed tailless backtrackless walk of length <= 6, unpruned
    g = next(_directed_graphs())
    a = g.adjacency()
    out = [np.nonzero(a[:, v])[0].tolist() for v in range(g.num_vertices)]
    brute = [0] * 6
    for v0 in range(g.num_vertices):
        for w0 in out[v0]:
            stack = [(w0, v0, 1)]
            while stack:
                cur, prev, length = stack.pop()
                if cur == v0 and prev != w0:
                    brute[length - 1] += 1
                if length < 6:
                    stack.extend((nxt, cur, length + 1)
                                 for nxt in out[cur] if nxt != prev)
    assert brute[5] == 17010
    assert _closed_walk_counts(enumerate_backtrackless_cycles(g, 6), 6) \
        == brute
    assert hashimoto_traces(g, 6) == brute


def test_cycle_product_matches_enumerator():
    graphs = [build_graph(TranslationSubgroup(2, [[m]], check_types=False))
              for m in range(4, 11)]
    graphs += [build_graph(TranslationSubgroup(3, basis, check_types=False))
               for basis in ([[3, 0], [0, 3]], [[5, 0], [0, 5]],
                             [[6, 0], [0, 3]])]
    graphs += list(_directed_graphs())
    for g in graphs:
        classes = enumerate_backtrackless_cycles(g, 6)
        assert backtrackless_cycle_product(g, 6) == (
            backtrackless_euler_truncation(classes, 6), len(classes))
        assert hashimoto_traces(g, 6) == _closed_walk_counts(classes, 6)


def test_cycle_product_matches_bass_to_degree_12():
    for basis in ([[3, 0], [0, 3]], [[6, 0], [0, 3]], [[9, 0], [0, 3]],
                  [[6, 0], [0, 6]]):
        g = build_graph(TranslationSubgroup(3, basis))
        product, count = backtrackless_cycle_product(g, 12)
        assert product == ihara_zeta_series(*ihara_bass(g), 12)
        assert count > 0


def test_hashimoto_overflow_guard_raises_before_allocating():
    g = build_graph(TranslationSubgroup(3, [[6, 0], [0, 6]]))
    block_bytes = 6 * g.num_vertices * HASHIMOTO_BLOCK * 8
    hashimoto_traces(g, 27)       # 5^27 < 2^63
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=r"5\^28.*2\^63"):
            hashimoto_traces(g, 28)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block_bytes // 4


def test_inexact_trace_division_raises(monkeypatch):
    g = build_graph(TranslationSubgroup(3, [[3, 0], [0, 3]]))
    traces = hashimoto_traces(g, 3)
    assert traces[:2] == [0, 0]   # girth 3: only triangles, each 3 walks
    assert backtrackless_cycle_product(g, 3)[1] == traces[2] // 3
    monkeypatch.setattr(zeta, "hashimoto_traces",
                        lambda g, n: traces[:2] + [traces[2] + 1])
    with pytest.raises(ArithmeticError, match="Newton"):
        backtrackless_cycle_product(g, 3)


ZETA_ROUTES = ["positive_zeta", "lfunction", "geodesic_oracle"]


def _run_zeta_routes(n, basis, max_degree, **fields):
    cfg = RunConfig.from_json_obj({
        "n": n, "gamma": {"kind": "translation", "basis": basis},
        "maxDegree": max_degree, "checks": ZETA_ROUTES, **fields})
    return run_config(cfg)


def test_verify_theorems_examples():
    for n, basis in [(2, [[2]]), (3, [[1, 0], [-1, 3]]),
                     (3, [[3, 0], [0, 3]])]:
        code, report = _run_zeta_routes(n, basis, 12)
        assert code == 0 and report["pass"]
        json.dumps(report)
        assert all(report["results"][name]["pass"] for name in ZETA_ROUTES)


def test_verify_theorems_detects_perturbation():
    code, report = _run_zeta_routes(
        2, [[4]], 8, perturb={"type": 1, "row": 0, "col": 1, "delta": 1})
    assert code == 1 and not report["pass"]
    assert not any(report["results"][name]["pass"] for name in ZETA_ROUTES)
