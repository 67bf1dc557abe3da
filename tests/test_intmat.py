import itertools
import math
import random

import pytest

from latzeta.errors import SingularMatrixError
from latzeta.lattice import all_permutations
from latzeta.intmat import (
    ImageLattice,
    adjugate_and_det,
    hnf_columns,
    kernel_basis,
    mat_mul,
    mat_vec,
    snf_diagonal,
    snf_with_transforms,
    triangular_members,
    unimodular_inverse,
)

from _oracles import (adjugate_membership, fraction_inverse, laplace_det,
                      random_type_zero_subgroup)


def _random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _divisors_minor_gcd_oracle(m):
    """Elementary divisors as ratios of gcds of k x k minors."""
    n = len(m)
    gcds = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[m[r][c] for c in cols] for r in rows]
                g = math.gcd(g, abs(laplace_det(sub)))
        gcds.append(g)
    return [gcds[k] // gcds[k - 1] for k in range(1, n + 1)]


def test_adjugate_det_against_laplace():
    rng = random.Random(101)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, n)
        det = laplace_det(m)
        if det == 0:
            with pytest.raises(SingularMatrixError):
                adjugate_and_det(m)
        else:
            assert adjugate_and_det(m)[1] == det


def test_adjugate_det_singular():
    with pytest.raises(SingularMatrixError):
        adjugate_and_det([[1, 2], [2, 4]])


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
        assert abs(laplace_det(u)) == 1
        assert abs(laplace_det(v)) == 1
        diag = snf_diagonal(d)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        if laplace_det(m) != 0:
            assert math.prod(diag) == abs(laplace_det(m))
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


def test_fraction_free_adjugate_against_fraction_inverse():
    rng = random.Random(717)
    # leading 1x1 and then 2x2 minors vanish: both force a row swap
    cases = [[[0, 1], [1, 0]], [[1, 2, 3], [2, 4, 5], [1, 0, 1]],
             [[0, 0, 1], [0, 1, 0], [1, 0, 0]]]
    for _ in range(300):
        k = rng.randint(1, 5)
        m = _random_matrix(rng, k, k)
        if rng.random() < 0.4:
            m[0][0] = 0
        cases.append(m)
    swapped = negative = 0
    for m in cases:
        k = len(m)
        det = laplace_det(m)
        if det == 0:
            with pytest.raises(SingularMatrixError):
                adjugate_and_det(m)
            continue
        adj, d = adjugate_and_det(m)
        assert d == det
        assert mat_mul(adj, m) == [[det * (i == j) for j in range(k)]
                                   for i in range(k)]
        assert adj == [[x * det for x in row] for row in fraction_inverse(m)]
        swapped += m[0][0] == 0
        negative += det < 0
    assert swapped > 20 and negative > 20
    assert adjugate_and_det([]) == ([], 1)


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
            if laplace_det(m) != 0:
                break
        # multiply by a random unimodular matrix: same column lattice
        u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(5):
            i, j = rng.randrange(n), rng.randrange(n)
            c = rng.randint(-2, 2)
            if i != j:
                for r in range(n):
                    u[r][i] += c * u[r][j]
        assert laplace_det(u) in (1, -1)
        assert hnf_columns(m) == hnf_columns(mat_mul(m, u))


def test_triangular_members_match_adjugate_membership():
    # random vectors and members of seeded subgroups, small (an int64
    # stack) and far above 2^63 (an object stack), one stack of vectors
    # and the same vectors as a stack of matrices
    rng = random.Random(2027)
    for i in range(40):
        gam = random_type_zero_subgroup(rng, 2 + i % 4)
        k = gam.n - 1
        contains = adjugate_membership(gam)
        h = hnf_columns(gam.basis)
        for scale in (30, 2 ** 80):
            ys = [[rng.randint(-scale, scale) for _ in range(k)]
                  for _ in range(24)]
            ys += [mat_vec(gam.basis, [rng.randint(-scale, scale)
                                       for _ in range(k)])
                   for _ in range(24)]
            expected = [contains(y) for y in ys]
            assert any(expected) and not all(expected)
            assert triangular_members(h, ys).tolist() == expected
            stacked = triangular_members(h, [ys[:24], ys[24:]])
            assert stacked.tolist() == [expected[:24], expected[24:]]
