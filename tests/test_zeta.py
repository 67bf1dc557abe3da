import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from latzeta import RunConfig, exactdet, run_config, zeta
from latzeta.errors import MultigraphError, ResourceCapError
from latzeta.cayley import QuotientGraph, build_graph, perturb_adjacency
from latzeta.exactdet import coefficient_bound, crt_primes, polymatrix_det
from latzeta.polynomials import IntPolynomial
from latzeta.quotient import TranslationSubgroup, characters, quotient_group
from latzeta.zeta import (
    HASHIMOTO_BLOCK,
    backtrackless_cycle_product,
    backtrackless_euler_truncation,
    bass_determinant,
    direction_orders,
    enumerate_backtrackless_cycles,
    enumerate_positive_geodesics,
    euler_product_truncation,
    hashimoto_traces,
    ihara_bass,
    ihara_zeta_series,
    lfunction_with_deviation,
    zeta_positive_det,
    zeta_positive_orders,
)

from _oracles import (fixed_point_product, lfunction_error_bound,
                      naive_polymatrix_det, slot_hashimoto_traces)


def test_polymatrix_det_against_leibniz_oracle():
    rng = random.Random(31)
    cases = []
    for _ in range(25):
        size = rng.randint(1, 4)
        terms = rng.randint(1, 4)
        cases.append([np.eye(size, dtype=np.int64)]
                     + [np.array([[rng.randint(-3, 3) for _ in range(size)]
                                  for _ in range(size)], dtype=np.int64)
                        for _ in range(terms - 1)])
    # leading coefficient zero, and nilpotent
    cases.append([np.eye(2, dtype=np.int64), np.array([[2, -1], [1, 1]]),
                  np.zeros((2, 2), dtype=np.int64)])
    cases.append([np.eye(3, dtype=np.int64),
                  np.array([[0, 1, -2], [1, 0, 1], [0, 3, 0]]),
                  np.array([[0, 1, 5], [0, 0, 1], [0, 0, 0]])])
    for mats in cases:
        expected = naive_polymatrix_det(mats)
        got = polymatrix_det(mats)
        assert got == expected
    # a constant coefficient other than I is refused, invertible or not
    for c0 in (2 * np.eye(2, dtype=np.int64), np.diag([0, -1])):
        with pytest.raises(ValueError, match="identity"):
            polymatrix_det([c0, np.eye(2, dtype=np.int64)])


def _zeta_and_bass_matrices(g):
    eye = np.eye(g.num_vertices, dtype=np.int64)
    positive = ([eye] + [(-1) ** i * a for i, a in enumerate(g.mats, start=1)]
                + [(-1) ** g.n * eye])
    bass = [eye, -g.adjacency(), (2 ** g.n - 3) * eye]
    return positive, bass


def test_corrupted_residue_fails_certificate(monkeypatch):
    real = exactdet._residues_mod
    batches = []

    def corrupt_first(mats, primes):
        out = real(mats, primes)
        out[0][1] = (out[0][1] + 1) % primes[0]
        batches.append(list(primes))
        return out

    monkeypatch.setattr(exactdet, "_residues_mod", corrupt_first)
    positive, _ = _zeta_and_bass_matrices(
        build_graph(TranslationSubgroup(3, [[6, 0], [0, 6]])))
    with pytest.raises(ArithmeticError, match="certification"):
        polymatrix_det(positive)
    assert len(batches) == 1 and len(batches[0]) > 1


def _scan_primes(count, d=1):
    """The first count primes p = 1 (mod d) below 2^29, largest first, by a
    descending Miller-Rabin scan run afresh."""
    out, n = [], (2 ** 29 - 2) // d * d + 1
    while len(out) < count:
        if exactdet._is_prime(n):
            out.append(n)
        n -= d
    return out


def test_descending_primes_match_a_fresh_scan(monkeypatch):
    # each prime is just below 2^29, so 40 * 29 - 1 bits take 40 of them,
    # and the 41st is the certificate
    expected = _scan_primes(41)
    assert crt_primes(40 * 29 - 1) == (expected[:-1], expected[-1])
    # asking again reads the kept list and runs no Miller-Rabin test
    monkeypatch.setattr(exactdet, "_is_prime", None)
    assert crt_primes(40 * 29 - 1) == (expected[:-1], expected[-1])


@pytest.mark.parametrize("d", [1, 3, 18, 1600])
def test_crt_primes_are_the_largest_primes_one_mod_d(d, monkeypatch):
    """The primes are distinct, prime, 1 (mod d), below 2^29 and
    descending, the fewest whose product is at least 2^bits, and the
    certificate prime is not among them: all of them are the fresh scan.  A
    second call runs no Miller-Rabin test."""
    chosen = {}
    for bits in (1, 29, 30, 100, 1000):
        primes, check = chosen[bits] = crt_primes(bits, d)
        chain = primes + [check]
        assert chain == sorted(set(chain), reverse=True)
        for p in chain:
            assert exactdet._is_prime(p) and p % d == 1 % d and p < 2 ** 29
        assert math.prod(primes) >> bits
        assert math.prod(primes[:-1]) >> bits == 0
        assert chain == _scan_primes(len(chain), d)
    monkeypatch.setattr(exactdet, "_is_prime", None)
    for bits, expected in chosen.items():
        assert crt_primes(bits, d) == expected


def test_crt_primes_run_out_with_a_resource_cap():
    # at most 54 numbers below 2^29 are 1 (mod 10^7), and 10^6 bits need
    # more than 10^6 / 29 primes
    with pytest.raises(ResourceCapError, match="below 2\\^29"):
        crt_primes(10 ** 6, 10 ** 7)


def test_prime_list_is_empty_after_import():
    code = ("import latzeta, latzeta.cli, latzeta.exactdet as e; "
            "print(len(e._PRIMES))")
    package_root = str(Path(exactdet.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": package_root})
    assert out.stdout.strip() == "0"


def test_each_determinant_gets_the_leading_primes_and_the_next_as_certificate(
        monkeypatch):
    real_residues, real_det_mod = exactdet._residues_mod, exactdet.det_mod
    used, certified = [], []

    def residues(mats, primes):
        used.append(list(primes))
        return real_residues(mats, primes)

    def det_mod(matrix, p):
        certified.append(p)
        return real_det_mod(matrix, p)

    monkeypatch.setattr(exactdet, "_residues_mod", residues)
    monkeypatch.setattr(exactdet, "det_mod", det_mod)
    g = build_graph(TranslationSubgroup(3, [[6, 0], [0, 6]]))
    positive, bass = _zeta_and_bass_matrices(g)
    for mats in (positive, bass, positive):
        polymatrix_det(mats)
    for primes, q in zip(used, certified):
        expected = _scan_primes(len(primes) + 1)
        assert primes == expected[:-1] and q == expected[-1]
    assert len(used) == len(certified) == 3


def _naive_residues(mats, primes):
    poly = naive_polymatrix_det(mats)
    degree = (len(mats) - 1) * mats[0].shape[0]
    return [[poly.coefficient(k) % p for k in range(degree + 1)]
            for p in primes]


def _assert_batch_matches_oracle(mats, primes):
    assert exactdet._residues_mod(mats, primes) == _naive_residues(mats, primes)
    assert polymatrix_det(mats) == naive_polymatrix_det(mats)


def test_companion_is_ordered_vertex_by_vertex():
    """Block i of vertex r is index r d + i: each identity entry lies on
    the subdiagonal at (r d + i + 1, r d + i), -C_(i+1)[r, s] mod p at
    (r d, s d + i), and every other entry is zero."""
    rng = random.Random(35)
    primes = _scan_primes(3)
    size = 3
    for d in (2, 3, 4):
        mats = [np.eye(size, dtype=np.int64)]
        mats += [np.array([[rng.randint(-3, 3) for _ in range(size)]
                           for _ in range(size)], dtype=np.int64)
                 for _ in range(d)]
        companion = exactdet._companion(exactdet._companion_top(mats),
                                        np.array(primes))
        for h, p in zip(companion.tolist(), primes):
            expected = [[0] * (d * size) for _ in range(d * size)]
            for r in range(size):
                for i in range(d - 1):
                    expected[r * d + i + 1][r * d + i] = 1
                for s in range(size):
                    for i in range(d):
                        expected[r * d][s * d + i] = -mats[i + 1][r, s] % p
            assert h == expected
        assert exactdet._residues_mod(mats, primes) \
            == _naive_residues(mats, primes)


def test_batched_pivots_diverge_between_primes(monkeypatch):
    """In the split case column 1 has, below the subdiagonal, one entry
    equal to the first prime and one equal to the last, so no row is a
    pivot for the whole batch: it splits there into one-prime passes that
    finish from column 1.  An entry equal to the first prime elsewhere, and
    random entries equal to the first or last prime of the batch, make the
    pivots and nonzero rows differ between primes as well."""
    real = exactdet._charpoly_mod
    passes = []

    def spy(h, ps, start=0):
        passes.append((len(ps), start))
        return real(h, ps, start)

    monkeypatch.setattr(exactdet, "_charpoly_mod", spy)
    primes = _scan_primes(5)
    p, last = primes[0], primes[-1]
    split_case = [np.eye(4, dtype=np.int64),
                  np.array([[0, 2, 1, 0], [1, 0, 0, 3], [0, p, 0, 1],
                            [0, last, 2, 0]])]
    hessenberg_case = [np.eye(3, dtype=np.int64),
                       np.array([[0, 1, 0], [p, 0, 2], [1, 3, 0]]),
                       np.array([[1, 0, 2], [0, -1, 0], [3, 0, 1]])]
    rng = random.Random(34)
    entries = (0, 0, 1, -2, p, last)
    random_cases = [[np.eye(4, dtype=np.int64)]
                    + [np.array([[rng.choice(entries) for _ in range(4)]
                                 for _ in range(4)]) for _ in range(2)]
                    for _ in range(6)]
    _assert_batch_matches_oracle(split_case, primes)
    assert passes[:6] == [(5, 0)] + [(1, 1)] * 5
    for mats in [hessenberg_case] + random_cases:
        _assert_batch_matches_oracle(mats, primes)


def _naive_charpoly_mod(a, p):
    """det(xI - a) mod p, lowest coefficient first: plain elimination at
    x = 0..m and Lagrange interpolation through those m + 1 values."""
    m = len(a)
    coeffs = [0] * (m + 1)
    for i in range(m + 1):
        value = exactdet.det_mod(i * np.eye(m, dtype=np.int64) - a, p)
        basis, denom = [1], 1
        for k in range(m + 1):
            if k != i:
                basis = [((basis[t - 1] if t else 0)
                          - k * (basis[t] if t < len(basis) else 0)) % p
                         for t in range(len(basis) + 1)]
                denom = denom * (i - k) % p
        scale = value * pow(denom, -1, p) % p
        coeffs = [(c + scale * b) % p for c, b in zip(coeffs, basis)]
    return coeffs


def _assert_charpoly_matches_oracle(h, primes, start=0):
    expected = [_naive_charpoly_mod(a, p) for a, p in zip(h.tolist(), primes)]
    got = exactdet._charpoly_mod(h.copy(), np.array(primes), start)
    assert [[int(c) for c in row] for row in got] == expected


def test_hessenberg_recurrence_against_naive_charpoly():
    """Random upper Hessenberg stacks, whose residues differ between the
    primes: m = 0..3, subdiagonal zeros modulo some primes but not others
    and modulo all of them (split blocks), and dense stacks whose columns
    have more terms than one _CHUNK."""
    rng = random.Random(36)
    primes = _scan_primes(3)

    def stack(m, zero_for=()):
        h = np.zeros((len(primes), m, m), dtype=np.int32)
        for q, p in enumerate(primes):
            for i in range(m):
                for j in range(max(i - 1, 0), m):
                    h[q, i, j] = rng.randrange(1, p)
        for at, qs in zero_for:
            h[list(qs), at, at - 1] = 0
        return h

    for m in (0, 1, 2, 3):
        _assert_charpoly_matches_oracle(stack(m), primes)
    # at 3 for the first prime only, at 5 for the last two, at 7 for all
    split = stack(9, [(3, (0,)), (5, (1, 2)), (7, (0, 1, 2))])
    assert (split.diagonal(-1, 1, 2) == 0).sum(axis=1).tolist() == [2, 2, 2]
    _assert_charpoly_matches_oracle(split, primes)
    # a banded stack: at most three terms in a column
    band = stack(12, [(4, (0, 1, 2))])
    band[:, np.triu(np.ones((12, 12), dtype=bool), 3)] = 0
    _assert_charpoly_matches_oracle(band, primes)
    dense = stack(40)
    assert exactdet._CHUNK < 40
    _assert_charpoly_matches_oracle(dense, primes)
    # ones on the subdiagonal and p - 1 on and above the diagonal: every
    # term of column j is p - 1 times a residue, and summed in one product
    # the terms of the last columns overflow int64
    p = primes[0]
    largest = np.triu(np.full((1, 80, 80), p - 1, dtype=np.int32))
    largest[0, np.arange(1, 80), np.arange(79)] = 1
    _assert_charpoly_matches_oracle(largest, [p])


def test_batch_splits_through_the_start_path(monkeypatch):
    """Columns 0 and 1 are already reduced, and below the subdiagonal
    column 2 is nonzero only in row 4 modulo the first prime and only in
    row 5 modulo the others, with a zero subdiagonal entry for the last
    prime: the batch, started at column 2, splits there at once, and each
    prime finishes alone from it."""
    real = exactdet._charpoly_mod
    passes = []

    def spy(h, ps, start=0):
        passes.append((len(ps), start))
        return real(h, ps, start)

    monkeypatch.setattr(exactdet, "_charpoly_mod", spy)
    rng = random.Random(37)
    primes = _scan_primes(3)
    m = 7
    h = np.zeros((3, m, m), dtype=np.int32)
    for q, p in enumerate(primes):
        for i in range(m):
            for j in range(max(i - 1, 0), m):
                h[q, i, j] = rng.randrange(1, p)
        for j in range(3, m):
            h[q, j + 2:, j] = [rng.randrange(1, p) for _ in range(m - j - 2)]
    h[0, 4, 2], h[1:, 5, 2], h[2, 3, 2] = 1, 2, 0
    _assert_charpoly_matches_oracle(h, primes, start=2)
    assert passes == [(3, 2)] + [(1, 2)] * 3


def test_companion_is_column_major_and_the_layout_changes_no_residue():
    """Each prime's companion is column-major, and the same companion in
    row-major order gives identical residues: Z+ and Bass of n = 3 3I, the
    perturbed graph too, at the batch of primes each determinant takes."""
    g = build_graph(TranslationSubgroup(3, [[3, 0], [0, 3]]))
    for graph in (g, perturb_adjacency(g, 1, 0, 1, 1)):
        for mats in _zeta_and_bass_matrices(graph):
            primes, _ = crt_primes(
                (2 * coefficient_bound(mats) + 1).bit_length())
            ps = np.array(primes)
            companion = exactdet._companion(exactdet._companion_top(mats), ps)
            assert companion.dtype == np.int32
            assert all(h.flags.f_contiguous for h in companion)
            assert companion.strides[1] == companion.itemsize
            row_major = np.ascontiguousarray(companion)
            assert row_major.flags.c_contiguous
            assert np.array_equal(exactdet._charpoly_mod(companion, ps),
                                  exactdet._charpoly_mod(row_major, ps))


def test_add_dot_mod_sums_past_one_chunk_without_overflow():
    """Four chunks of the largest residues, added and subtracted: each sum
    of a whole row would overflow int64."""
    primes = _scan_primes(2)
    ps = np.array(primes)
    width = 4 * exactdet._CHUNK
    a = np.repeat(ps - 1, 3 * width).reshape(2, 3, width).astype(np.int32)
    x = np.repeat(ps - 1, width).reshape(2, width)
    acc = np.repeat(ps - 1, 3).reshape(2, 3)
    for sign in (1, -1):
        got = exactdet._add_dot_mod(acc, a, np.arange(width), sign * x, ps)
        assert got.tolist() == [[(q - 1 + sign * width * (q - 1) ** 2) % q] * 3
                                for q in primes]


def test_batch_cap_splits_the_primes(monkeypatch):
    """At dN = 60 a batch holds 36 primes, so 40 primes run in two batches;
    they must agree with the same primes run one per batch."""
    rng = random.Random(33)
    mats = [np.eye(6, dtype=np.int64)]
    mats += [np.array([[rng.randint(-2, 2) for _ in range(6)]
                       for _ in range(6)], dtype=np.int64) for _ in range(10)]
    primes = _scan_primes(40)
    degree = 10 * 6
    assert len(primes) * degree ** 2 > exactdet._BATCH_ENTRIES
    real = exactdet._charpoly_mod
    batches = []

    def spy(h, ps):
        batches.append(len(ps))
        return real(h, ps)

    monkeypatch.setattr(exactdet, "_charpoly_mod", spy)
    batched = exactdet._residues_mod(mats, primes)
    assert batches == [36, 4]
    assert batched == [exactdet._residues_mod(mats, [p])[0] for p in primes]
    assert batched == _naive_residues(mats, primes)


def test_coefficient_bound_dominates():
    rng = random.Random(32)
    cases = []
    for _ in range(10):
        size = rng.randint(1, 3)
        mats = [np.array([[rng.randint(-4, 4) for _ in range(size)]
                          for _ in range(size)], dtype=np.int64)
                for _ in range(3)]
        cases.append((mats, naive_polymatrix_det(mats)))
        linear = [np.eye(size, dtype=np.int64), mats[1]]
        cases.append((linear, naive_polymatrix_det(linear)))
    g = build_graph(TranslationSubgroup(3, [[3, 0], [0, 3]]))
    for graph in (g, perturb_adjacency(g, 1, 0, 1, 1)):
        positive, bass = _zeta_and_bass_matrices(graph)
        cases.append((positive, zeta_positive_det(graph)))
        cases.append((bass, ihara_bass(graph)[0]))
        # degree 1: det(I - t A), the determinant the Bass numerator is
        # substituted from
        cases.append((bass[:2], polymatrix_det(bass[:2])))
    for mats, poly in cases:
        bound = coefficient_bound(mats)
        assert all(abs(c) <= bound for c in poly.coeffs)


def test_coefficient_bound_is_exact_and_caps_the_row_sums():
    """The bound equals Hadamard's product taken in Python integers, and a
    row sum of sum_k |C_k| whose square reaches 2^63 raises before any int64
    sum of squares could overflow, including one past int64 itself."""
    rng = random.Random(38)
    for size in (1, 3, 5):
        mats = [np.eye(size, dtype=np.int64)]
        mats += [np.array([[rng.randint(-9, 9) for _ in range(size)]
                           for _ in range(size)], dtype=np.int64)
                 for _ in range(3)]
        square = math.prod(
            sum(sum(abs(int(c[i, j])) for c in mats) ** 2
                for j in range(size)) for i in range(size))
        root = math.isqrt(square)
        assert coefficient_bound(mats) == root + (root * root != square)
    largest = math.isqrt(2 ** 63 - 1)
    eye = np.eye(2, dtype=np.int64)
    assert coefficient_bound([eye, np.diag([largest - 1, 0])]) == largest
    for mats in ([eye, np.diag([largest, 0])],
                 [eye, np.diag([2 ** 62, 0]), np.diag([2 ** 62, 0])]):
        with pytest.raises(ResourceCapError, match=r"2\^31\.5"):
            coefficient_bound(mats)


def test_zeta_positive_det_examples():
    g = build_graph(TranslationSubgroup(2, [[2]]))
    assert zeta_positive_det(g) == IntPolynomial.one_minus_power(2, 2)
    g3 = build_graph(TranslationSubgroup(3, [[1, 0], [-1, 3]]))
    assert zeta_positive_det(g3) == IntPolynomial.one_minus_power(3, 3)
    g9 = build_graph(TranslationSubgroup(3, [[3, 0], [0, 3]]))
    assert zeta_positive_det(g9) == IntPolynomial.one_minus_power(3, 9)


def test_determinant_routes_match_orders_on_larger_quotients():
    # at n = 2 the Bass numerator det(I - A u + u^2 I) is Z+ itself, but the
    # two come from different linearisations: Z+ from the 2N x 2N block
    # companion, the Bass numerator from det(I - t A) of size N
    gam2 = TranslationSubgroup(2, [[64]])
    g2 = build_graph(gam2)
    assert ihara_bass(g2)[0] == zeta_positive_orders(gam2)
    assert ihara_bass(g2)[0] == zeta_positive_det(g2)
    # a perturbed graph has no orders product to agree with
    for perturbed in (perturb_adjacency(g2, 1, 0, 5, 1),
                      perturb_adjacency(g2, 1, 7, 7, -2)):
        numerator = ihara_bass(perturbed)[0]
        assert numerator == zeta_positive_det(perturbed)
        assert numerator != zeta_positive_orders(gam2)
    gam3 = TranslationSubgroup(3, [[9, 0], [0, 9]])
    assert zeta_positive_det(build_graph(gam3)) == zeta_positive_orders(gam3)


def test_bass_determinant_against_leibniz_oracle():
    """The homogenised det(I - t A) equals det(I - A u + q u^2 I) on
    random non-symmetric integer A, for q of either sign and q = 0."""
    rng = random.Random(1414)
    for _ in range(40):
        size = rng.randint(1, 4)
        a = np.array([[rng.randint(-3, 3) for _ in range(size)]
                      for _ in range(size)], dtype=np.int64)
        q = rng.randint(-3, 5)
        eye = np.eye(size, dtype=np.int64)
        assert bass_determinant(a, q) == naive_polymatrix_det([eye, -a, q * eye])
    for q in range(-3, 6):
        eye = np.eye(3, dtype=np.int64)
        # nilpotent: det(I - t A) = 1, so the result is (1 + q u^2)^3
        nil = np.array([[0, 2, -1], [0, 0, 3], [0, 0, 0]], dtype=np.int64)
        assert bass_determinant(nil, q) \
            == naive_polymatrix_det([eye, -nil, q * eye])
    assert bass_determinant(np.zeros((0, 0), dtype=np.int64), 5) \
        == IntPolynomial.one()


@pytest.mark.parametrize("n, basis", [
    (2, [[6]]),
    (2, [[2]]),
    (3, [[1, 0], [-1, 3]]),
    (3, [[3, 0], [0, 6]]),
    (4, [[4, 0, 1], [-4, 2, 1], [0, -2, 2]]),
    (5, [[1, 0, 0, 1], [-1, 1, 0, 1], [0, -1, 1, 1], [0, 0, -1, 2]]),
], ids=["n2_N6", "n2_N2_multigraph", "n3_N3_multigraph", "n3_N18", "n4_N32",
        "n5_N5"])
def test_bass_homogenisation_matches_quadratic_companion(n, basis):
    g = build_graph(TranslationSubgroup(n, basis))
    last = g.num_vertices - 1
    graphs = [g,
              perturb_adjacency(g, 1, 0, 0, 1),                 # diagonal
              perturb_adjacency(g, n - 1, 0, last, 2),          # off-diagonal
              perturb_adjacency(g, 1, last, 0, -3)]             # negative
    for graph in graphs:
        _, bass = _zeta_and_bass_matrices(graph)
        assert ihara_bass(graph)[0] == polymatrix_det(bass)


@pytest.mark.slow
def test_determinant_route_with_one_prime_per_batch():
    # dN = 3 * 144 = 432 is past the batch cap, so every batch is one prime
    gamma = TranslationSubgroup(3, [[12, 0], [0, 12]])
    assert (3 * gamma.index) ** 2 > exactdet._BATCH_ENTRIES
    assert zeta_positive_det(build_graph(gamma)) == zeta_positive_orders(gamma)


@pytest.mark.slow
def test_determinant_route_at_linearised_dimension_972():
    # the largest Z+ of the walls table: dN = 3 * 324, one prime per batch
    gamma = TranslationSubgroup(3, [[18, 0], [0, 18]])
    assert zeta_positive_det(build_graph(gamma)) == zeta_positive_orders(gamma)


@pytest.mark.slow
def test_bass_homogenisation_on_a_large_quotient():
    # N = 144: the quadratic route linearises at 288, the new one at 144
    g = build_graph(TranslationSubgroup(3, [[12, 0], [0, 12]]))
    _, bass = _zeta_and_bass_matrices(g)
    assert ihara_bass(g)[0] == polymatrix_det(bass)


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


@pytest.mark.parametrize("n, basis", [
    (2, [[6]]), (3, [[1, 0], [-1, 3]]), (3, [[3, 0], [0, 6]]),
    (4, [[4, 0, 0], [0, 4, 0], [0, 0, 4]]),
])
def test_truncated_orders_product(n, basis):
    gam = TranslationSubgroup(n, basis)
    full = zeta_positive_orders(gam)
    for max_deg in range(full.degree + 2):
        assert zeta_positive_orders(gam, max_deg) == full.truncate(max_deg)
    for m, k, max_deg in [(3, 5, 7), (2, 4, 0), (5, 2, 4), (1, 6, 20)]:
        assert IntPolynomial.one_minus_power(m, k, max_deg) \
            == IntPolynomial.one_minus_power(m, k).truncate(max_deg)


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
    assert lfunction_with_deviation(TranslationSubgroup(2, [[2]])) \
        == IntPolynomial.one_minus_power(2, 2)
    assert lfunction_with_deviation(TranslationSubgroup(3, [[1, 0], [-1, 3]])) \
        == IntPolynomial.one_minus_power(3, 3)


def test_lfunction_of_an_index_one_subgroup():
    # D = 1: the one character is trivial, and every prime takes g = 1
    for n in (2, 3, 4):
        eye = [[int(i == j) for j in range(n - 1)] for i in range(n - 1)]
        gamma = TranslationSubgroup(n, eye, check_types=False)
        assert quotient_group(gamma).divisors[-1] == 1
        assert lfunction_with_deviation(gamma) \
            == IntPolynomial.one_minus_power(1, n)


def _satake_turns(gamma):
    """The Satake parameters of every character, as turns a / D."""
    q = quotient_group(gamma)
    d = q.divisors[-1]
    return [Fraction(a, d) for chi in characters(q)
            for a in chi.satake_turns(q)]


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


def _rounded(re, bits):
    half = 1 << (bits - 1)
    return [(x + half) >> bits for x in re]


@pytest.mark.parametrize("n, basis", SMALL_LFUNCTION_CASES)
def test_fixed_point_lfunction_matches_orders_and_mpmath(n, basis):
    """The exact route equals the orders product, and the real parts of an
    mpmath product and of the fixed-point oracle, both at P = 150 + K bits
    and rounded; the imaginary parts round to 0."""
    gamma = TranslationSubgroup(n, basis)
    poly = lfunction_with_deviation(gamma)
    assert poly == zeta_positive_orders(gamma)
    turns = _satake_turns(gamma)
    bits = 150 + len(turns)
    reference = _mpmath_product(turns, bits)
    assert poly.coeffs == [int(mp.nint(c.real)) for c in reference]
    assert all(mp.nint(c.imag) == 0 for c in reference)
    re, im = fixed_point_product(turns, bits)
    assert poly.coeffs == _rounded(re, bits)
    assert _rounded(im, bits) == [0] * len(im)


def test_fixed_point_lfunction_is_exact_on_exact_roots():
    # every Satake parameter of 4Z^3 is a power of i, so the fixed-point
    # oracle rounds nothing and equals the exact route scaled by 2^P
    gamma = TranslationSubgroup(4, [[4, 0, 0], [0, 4, 0], [0, 0, 4]])
    poly = lfunction_with_deviation(gamma)
    assert poly == zeta_positive_orders(gamma)
    turns = _satake_turns(gamma)
    bits = 150 + len(turns)
    re, im = fixed_point_product(turns, bits)
    assert re == [c << bits for c in poly.coeffs]
    assert not any(im)


@pytest.mark.parametrize("n, basis", [
    (3, [[12, 0], [0, 12]]),
    (2, [[400]]),
    pytest.param(3, [[18, 0], [0, 18]], marks=pytest.mark.slow),
    pytest.param(2, [[1600]], marks=pytest.mark.slow),
])
def test_fixed_point_lfunction_on_large_quotients(n, basis):
    # K = 432, 800, 972 and 3200: 15, 28, 34 and 111 primes
    gamma = TranslationSubgroup(n, basis)
    assert lfunction_with_deviation(gamma) == zeta_positive_orders(gamma)


def _seeded_subgroups(count, seed):
    """Type-zero subgroups of n = 2..5 with at most 40 vertices, from a
    seeded generator; the first row fixes each column's type."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = 2 + len(out) % 4
        k = n - 1
        cols = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        for col in cols:
            col[0] -= sum(col) % n
        try:
            gamma = TranslationSubgroup(
                n, [[cols[j][i] for j in range(k)] for i in range(k)])
        except ValueError:
            continue
        if gamma.index <= 40:
            out.append(gamma)
    return out


def test_modular_product_equals_the_linear_oracle():
    """The exact coefficients equal the rounded ones of the one-factor-at-a-
    time fixed-point oracle at its own proven precision P = 150 + K, on the
    small cases, on 4 Z^3 and on 50 seeded subgroups."""
    cases = [TranslationSubgroup(n, b) for n, b in SMALL_LFUNCTION_CASES]
    cases.append(TranslationSubgroup(4, [[4, 0, 0], [0, 4, 0], [0, 0, 4]]))
    cases += _seeded_subgroups(50, seed=1313)
    assert {g.n for g in cases} == {2, 3, 4, 5}
    for gamma in cases:
        turns = _satake_turns(gamma)
        bits = 150 + len(turns)
        assert lfunction_error_bound(len(turns), bits) < Fraction(1, 2)
        expected = _rounded(fixed_point_product(turns, bits)[0], bits)
        assert lfunction_with_deviation(gamma).coeffs == expected, gamma


@pytest.mark.parametrize("n, basis", SMALL_LFUNCTION_CASES)
@pytest.mark.parametrize("spare_bits", [None, 3])
def test_fixed_point_error_stays_within_the_proven_bound(n, basis,
                                                         spare_bits):
    """The linear oracle's gap to an mpmath product at twice the precision
    never exceeds its a-priori bound (K + 4) 2^(K-1-P), at P = 150 + K and
    at one where the bound lies between 1/32 and 1/16."""
    gamma = TranslationSubgroup(n, basis)
    turns = _satake_turns(gamma)
    degree = len(turns)
    bits = (150 + degree if spare_bits is None
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


def _spy(monkeypatch, name):
    """The results of every call the route makes to zeta.<name>."""
    seen = []
    original = getattr(zeta, name)

    def spy(*args):
        seen.append(original(*args))
        return seen[-1]

    monkeypatch.setattr(zeta, name, spy)
    return seen


@pytest.mark.parametrize("n, basis", SMALL_LFUNCTION_CASES + [
    (3, [[12, 0], [0, 12]]), (2, [[400]])])
def test_lfunction_primes_and_certificate(n, basis, monkeypatch):
    """One call sizes the CRT modulus by 2 binom(K, K // 2) + 1, the bound
    on every coefficient, and asks crt_primes for primes 1 (mod D).  They
    are distinct, below 2^29 and 1 (mod D), and their product exceeds that
    bound; each holds a primitive D-th root of unity; and the certificate
    prime is a further such prime."""
    gamma = TranslationSubgroup(n, basis)
    d = quotient_group(gamma).divisors[-1]
    k = n * gamma.index
    bound = 2 * math.comb(k, k // 2) + 1
    bits = _spy(monkeypatch, "_lfunction_precision_bits")
    chosen = _spy(monkeypatch, "crt_primes")
    lfunction_with_deviation(gamma)
    assert bits == [bound.bit_length()]
    [(primes, check)] = chosen
    assert chosen == [crt_primes(bound.bit_length(), d)]
    assert len(set(primes)) == len(primes)
    assert math.prod(primes) > bound
    assert check not in primes
    for p in primes + [check]:
        assert exactdet._is_prime(p) and p % d == 1 and p < 2 ** 29
        powers = zeta._unit_powers(d, p)
        assert len(set(powers)) == d and pow(powers[1], d, p) == 1


def test_lfunction_tampered_residue_raises(monkeypatch):
    gamma = TranslationSubgroup(3, [[3, 0], [0, 3]])
    original = zeta._product_mod

    def tampered(exponents, d, primes):
        residues = original(exponents, d, primes)
        residues[0, 4] = (residues[0, 4] + 1) % primes[0]
        return residues

    monkeypatch.setattr(zeta, "_product_mod", tampered)
    with pytest.raises(ArithmeticError, match="certification"):
        lfunction_with_deviation(gamma)


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


def test_ihara_series_truncates_before_it_multiplies():
    """The series is built to max_deg only, for chi of either sign: it
    equals numerator (1 - u^2)^(-chi) expanded in full and truncated
    afterwards for chi <= 0, and numerator times the series inverse of
    (1 - u^2)^chi for chi > 0."""
    rng = random.Random(1717)
    for _ in range(200):
        numerator = IntPolynomial([rng.randint(-10 ** 6, 10 ** 6)
                                   for _ in range(rng.randint(1, 40))])
        chi = rng.randint(-40, 40)
        max_deg = rng.randint(0, 90)
        if chi <= 0:
            full = numerator * IntPolynomial.one_minus_power(2, -chi)
            expected = full.truncate(max_deg)
        else:
            expected = numerator.mul_truncated(
                IntPolynomial.one_minus_power(2, chi).series_inverse(max_deg),
                max_deg)
        assert ihara_zeta_series(numerator, chi, max_deg) == expected
    assert ihara_zeta_series(IntPolynomial(), -3, 5) == IntPolynomial()
    assert ihara_zeta_series(IntPolynomial(), 3, 5) == IntPolynomial()


def test_ihara_series_at_large_chi_builds_only_the_truncation():
    # n = 5, N = 625 has chi = -8,750: (1 - u^2)^8750 expanded in full
    # holds binomial coefficients of up to 8,750 bits each
    numerator = IntPolynomial([1, -3, 0, 2])
    for chi, c6 in ((-8750, math.comb(8750, 6)), (8750, math.comb(8755, 6))):
        tracemalloc.start()
        try:
            series = ihara_zeta_series(numerator, chi, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert series.coefficient(2) == chi
        assert series.coefficient(3) == 2 - 3 * chi
        assert series.coefficient(12) == c6


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


def test_negative_entry_is_no_edge_of_a_simple_graph():
    # -1 on an off-diagonal type-1 entry of 3Z^2 is no edge: the cycle
    # oracle refuses the graph, and the ihara check skips its oracle
    perturb = {"type": 1, "row": 0, "col": 5, "delta": -1}
    g = perturb_adjacency(build_graph(TranslationSubgroup(3, [[3, 0], [0, 3]])),
                          *perturb.values())
    assert g.adjacency().min() == -1 and not g.is_simple()
    with pytest.raises(MultigraphError):
        hashimoto_traces(g, 8)
    with pytest.raises(MultigraphError):
        enumerate_backtrackless_cycles(g, 4)
    code, report = run_config(RunConfig.from_json_obj({
        "n": 3, "gamma": {"kind": "translation", "basis": [[3, 0], [0, 3]]},
        "checks": ["ihara"], "perturb": perturb}))
    assert code == 0 and report["results"]["ihara"]["oracle"] == "skipped"


def test_backtrackless_counts_match_hashimoto_traces():
    # tr(B^L) = sum_{d | L} d * (number of primitive classes of length d)
    gam = TranslationSubgroup(3, [[3, 0], [0, 3]])
    g = build_graph(gam)
    classes = enumerate_backtrackless_cycles(g, 6)
    counts = {}
    for c in classes:
        counts[c.length] = counts.get(c.length, 0) + 1
    traces = _dense_b_traces(g, 6)
    for ell in range(1, 7):
        expected = sum(d * counts.get(d, 0) for d in range(1, ell + 1)
                       if ell % d == 0)
        assert traces[ell - 1] == expected


def _dense_b_traces(g, max_len):
    """tr(B^L) for L = 1..max_len, B the dense non-backtracking matrix:
    B[j, i] = 1 when edge j = x -> y follows edge i = v -> w, x = w, y != v."""
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
    traces = []
    for _ in range(max_len):
        power = power @ b
        traces.append(int(np.trace(power)))
    return traces


def _brute_force_traces(g, max_len):
    """Every closed tailless backtrackless walk of length <= max_len with a
    marked start edge, counted by an unpruned walk from each edge."""
    a = g.adjacency()
    out = [np.nonzero(a[:, v])[0].tolist() for v in range(g.num_vertices)]
    brute = [0] * max_len
    for v0 in range(g.num_vertices):
        for w0 in out[v0]:
            stack = [(w0, v0, 1)]
            while stack:
                cur, prev, length = stack.pop()
                if cur == v0 and prev != w0:
                    brute[length - 1] += 1
                if length < max_len:
                    stack.extend((nxt, cur, length + 1)
                                 for nxt in out[cur] if nxt != prev)
    return brute


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


def _edge_deleted_graphs():
    """Simple graphs with one edge deleted by -1, so its reverse edge has no
    partner: a type-1 edge of 3I and a type-2 edge of the 6 x 3 quotient."""
    for gam, t in [(TranslationSubgroup(3, [[3, 0], [0, 3]]), 1),
                   (TranslationSubgroup(3, [[6, 0], [0, 3]]), 2)]:
        g = build_graph(gam)
        row, col = (int(i[0]) for i in np.nonzero(g.mats[t - 1]))
        g = perturb_adjacency(g, t, row, col, -1)
        a = g.adjacency()
        assert g.is_simple() and (a != a.T).any()
        yield g


def _no_in_edge_graph():
    """The 6 x 3 quotient with every in-edge of vertex 0 removed, so its
    row of the padded in-edge table is all padding."""
    g = build_graph(TranslationSubgroup(3, [[6, 0], [0, 3]]))
    mats = tuple(m.copy() for m in g.mats)
    for m in mats:
        m[0] = 0
    g = QuotientGraph(g.n, g.gamma, g.group, g.vertices, mats)
    a = g.adjacency()
    assert g.is_simple() and not a[0].any() and a[:, 0].any()
    return g


@pytest.mark.parametrize("kind", ["directed", "edge_deleted", "no_in_edges",
                                  "cycle"])
def test_hashimoto_push_matches_the_dense_and_brute_force_references(kind):
    # the push reads W x at v -> w as the in-edge sum at v minus x at
    # w -> v; each kind breaks one of its shortcuts: reverse edges missing,
    # an empty in-edge row, and r = 1 on the n = 2 cycles
    graphs = {
        "directed": lambda: _directed_graphs(),
        "edge_deleted": _edge_deleted_graphs,
        "no_in_edges": lambda: [_no_in_edge_graph()],
        "cycle": lambda: [build_graph(TranslationSubgroup(2, [[m]]))
                          for m in (4, 6, 10)],
    }[kind]()
    for g in graphs:
        expected = _dense_b_traces(g, 6)
        assert _brute_force_traces(g, 6) == expected
        assert slot_hashimoto_traces(g, 6) == expected
        assert hashimoto_traces(g, 6) == expected
        if kind == "cycle":
            m = g.num_vertices
            assert expected == [2 * m * (ell % m == 0) for ell in range(1, 7)]


def test_hashimoto_guard_bounds_the_in_edge_sums():
    # n = 4, 4I: r = c = 13 predecessors and successors, in-degree 14.  An
    # in-edge sum of W^16 x is part of a column sum, at most 13^16, though
    # 14 * 13^16 > 2^63; so length 17 runs (entries up to 13^17 < 2^63) and
    # length 18 is refused
    g = build_graph(TranslationSubgroup(4, [[4, 0, 0], [0, 4, 0], [0, 0, 4]]))
    assert int(g.adjacency().sum(axis=1).max()) == 14
    assert 13 ** 17 < 2 ** 63 <= 14 * 13 ** 16
    product, count = backtrackless_cycle_product(g, 17)
    assert product == ihara_zeta_series(*ihara_bass(g), 17) and count > 0
    with pytest.raises(ResourceCapError,
                       match=r"13\^18 and in-edge sums 13\^17.*2\^63"):
        hashimoto_traces(g, 18)


def test_hashimoto_guard_bounds_the_in_edge_sums_by_successors():
    # 0 -> 1 -> 2 -> 3..8: every edge has at most r = 1 predecessor, so the
    # entries stay 0 or 1, but 1 -> 2 has c = 6 successors and an in-edge
    # sum can grow as 6^(L-1)
    g = build_graph(TranslationSubgroup(3, [[3, 0], [0, 3]]))
    star = np.zeros_like(g.mats[0])
    star[1, 0] = star[2, 1] = 1
    star[3:, 2] = 1
    g = QuotientGraph(g.n, g.gamma, g.group, g.vertices,
                      (star, np.zeros_like(star)))
    assert 1 ** 26 < 2 ** 63 <= 6 ** 25 and 6 ** 24 < 2 ** 63
    assert hashimoto_traces(g, 25) == [0] * 25
    with pytest.raises(ResourceCapError,
                       match=r"1\^26 and in-edge sums 6\^25.*2\^63"):
        hashimoto_traces(g, 26)


def test_backtrackless_enumerator_on_directed_graph_matches_brute_force():
    # every closed tailless backtrackless walk of length <= 6, unpruned
    g = next(_directed_graphs())
    brute = _brute_force_traces(g, 6)
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
