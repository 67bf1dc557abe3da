import itertools
import math
import random

import pytest

from latzeta.errors import SingularMatrixError
from latzeta.lattice import all_permutations
from latzeta.intmat import (
    ImageLattice,
    adjugate_and_det,
    det_bareiss,
    fraction_inverse,
    hnf_columns,
    kernel_basis,
    mat_mul,
    mat_vec,
    snf_diagonal,
    snf_with_transforms,
    unimodular_inverse,
)


def _random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _det_minor_oracle(m):
    """Laplace expansion; independent of Bareiss."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det_minor_oracle(minor)
    return total


def _divisors_minor_gcd_oracle(m):
    """Elementary divisors as ratios of gcds of k x k minors."""
    n = len(m)
    gcds = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[m[r][c] for c in cols] for r in rows]
                g = math.gcd(g, abs(_det_minor_oracle(sub)))
        gcds.append(g)
    return [gcds[k] // gcds[k - 1] for k in range(1, n + 1)]


def test_det_bareiss_against_laplace():
    rng = random.Random(101)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, n)
        assert det_bareiss(m) == _det_minor_oracle(m)


def test_det_bareiss_singular():
    assert det_bareiss([[1, 2], [2, 4]]) == 0


def test_snf_examples():
    for m, expect in [
        ([[1, 0], [0, 1]], [1, 1]),
        ([[2, 0], [0, 2]], [2, 2]),
        ([[3, 1], [0, 3]], [1, 9]),
    ]:
        u, d, v = snf_with_transforms(m)
        assert snf_diagonal(d) == expect
        assert mat_mul(mat_mul(u, m), v) == d


def test_snf_random_properties():
    rng = random.Random(202)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, n)
        u, d, v = snf_with_transforms(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert abs(det_bareiss(u)) == 1
        assert abs(det_bareiss(v)) == 1
        diag = snf_diagonal(d)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        if det_bareiss(m) != 0:
            assert math.prod(diag) == abs(det_bareiss(m))
            assert diag == _divisors_minor_gcd_oracle(m)


def test_snf_rectangular_and_zero():
    u, d, v = snf_with_transforms([[0, 0], [0, 0]])
    assert snf_diagonal(d) == [0, 0]
    u, d, v = snf_with_transforms([[2, 4, 6]])
    assert mat_mul(mat_mul(u, [[2, 4, 6]]), v) == d
    assert snf_diagonal(d) == [2]


def test_kernel_basis():
    rng = random.Random(303)
    for _ in range(20):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        m = _random_matrix(rng, rows, cols, 5)
        basis = kernel_basis(m)
        for vec in basis:
            assert all(x == 0 for x in mat_vec(m, vec))
    # full kernel of the zero map
    assert len(kernel_basis([[0, 0], [0, 0]])) == 2


def test_fraction_inverse_and_adjugate():
    m = [[3, 1], [0, 3]]
    inv = fraction_inverse(m)
    prod = [[sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    assert prod == [[1, 0], [0, 1]]
    adj, det = adjugate_and_det(m)
    assert det == 9
    assert mat_mul(adj, m) == [[9, 0], [0, 9]]
    with pytest.raises(SingularMatrixError):
        fraction_inverse([[1, 2], [2, 4]])


def test_unimodular_inverse():
    u = [[1, 3], [0, 1]]
    assert mat_mul(u, unimodular_inverse(u)) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        unimodular_inverse([[2, 0], [0, 1]])


def test_image_lattice_membership_brute_force():
    rng = random.Random(404)
    m = [[2, 1], [0, 4]]
    lat = ImageLattice(m)
    points = {tuple(mat_vec(m, [a, b]))
              for a in range(-8, 9) for b in range(-8, 9)}
    for _ in range(200):
        y = [rng.randint(-6, 6), rng.randint(-6, 6)]
        assert lat.contains(y) == (tuple(y) in points)


def _one_minus(p):
    k = p.n - 1
    p_mat = p.basis_matrix()
    return [[int(i == j) - p_mat[i][j] for j in range(k)] for i in range(k)]


def test_image_lattice_solve_matches_contains():
    rng = random.Random(606)
    mats = [_one_minus(p) for n in (3, 4) for p in all_permutations(n)]
    for _ in range(20):
        # rank at most r < k, some of them rectangular
        k, r, cols = rng.randint(2, 4), rng.randint(1, 2), rng.randint(2, 4)
        mats.append(mat_mul(_random_matrix(rng, k, r, 3),
                            _random_matrix(rng, r, cols, 3)))
    for m in mats:
        lat = ImageLattice(m)
        cols = len(m[0])
        members = [mat_vec(m, [rng.randint(-3, 3) for _ in range(cols)])
                   for _ in range(10)]
        others = [[rng.randint(-4, 4) for _ in m] for _ in range(30)]
        for y in members + others:
            x = lat.solve(y)
            assert (x is None) == (not lat.contains(y))
            if x is not None:
                assert len(x) == cols and mat_vec(m, x) == y
        assert all(lat.solve(y) is not None for y in members)


def test_hnf_is_lattice_invariant():
    rng = random.Random(505)
    for _ in range(25):
        n = rng.randint(1, 3)
        while True:
            m = _random_matrix(rng, n, n, 5)
            if det_bareiss(m) != 0:
                break
        # multiply by a random unimodular matrix: same column lattice
        u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(5):
            i, j = rng.randrange(n), rng.randrange(n)
            c = rng.randint(-2, 2)
            if i != j:
                for r in range(n):
                    u[r][i] += c * u[r][j]
        assert det_bareiss(u) in (1, -1)
        assert hnf_columns(m) == hnf_columns(mat_mul(m, u))
