"""Exact integer matrix routines.

Everything here works on plain lists of lists of Python ints, so results are
exact at any size.  The Smith normal form uses smallest-absolute-value
pivoting with a fixed row-major scan, which makes the transform matrices
reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import SingularMatrixError

Matrix = List[List[int]]


def identity_matrix(k: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def mat_copy(m: Sequence[Sequence[int]]) -> Matrix:
    return [[int(x) for x in row] for row in m]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(cols):
                    oi[j] += c * bk[j]
    return out

def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> List[int]:
    return [sum(int(c) * int(x) for c, x in zip(row, v)) for row in a]


def det_bareiss(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    a = mat_copy(m)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def fraction_inverse(m: Sequence[Sequence[int]]) -> List[List[Fraction]]:
    """Exact inverse over the rationals via Gauss-Jordan elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular over the rationals")
        a[col], a[piv] = a[piv], a[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def adjugate_and_det(m: Sequence[Sequence[int]]) -> Tuple[Matrix, int]:
    """(adj, det) with adj * m = det * I, both exact integers."""
    d = det_bareiss(m)
    if d == 0:
        raise SingularMatrixError("adjugate of a singular matrix")
    inv = fraction_inverse(m)
    adj = [[int(x * d) for x in row] for row in inv]
    return adj, d


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _negate_row(a, u, i):
    a[i] = [-x for x in a[i]]
    u[i] = [-x for x in u[i]]


def _find_pivot(a, t, rows, cols) -> Optional[Tuple[int, int]]:
    # smallest absolute value, first occurrence in row-major scan order
    best = None
    best_abs = None
    for i in range(t, rows):
        for j in range(t, cols):
            x = a[i][j]
            if x != 0 and (best_abs is None or abs(x) < best_abs):
                best = (i, j)
                best_abs = abs(x)
    return best


def _diagonalize_from(a, u, v, t0):
    rows, cols = len(a), len(a[0])
    t = t0
    while t < min(rows, cols):
        piv = _find_pivot(a, t, rows, cols)
        if piv is None:
            break
        _swap_rows(a, u, t, piv[0])
        _swap_cols(a, v, t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                        u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                    if a[i][t] != 0:
                        _swap_rows(a, u, t, i)
                        dirty = True
            # clear row t
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                        for row in v:
                            row[j] -= q * row[t]
                    if a[t][j] != 0:
                        _swap_cols(a, v, t, j)
                        dirty = True
            if not dirty:
                break
        if a[t][t] < 0:
            _negate_row(a, u, t)
        t += 1
    return t  # rank


def snf_with_transforms(m: Sequence[Sequence[int]]) -> Tuple[Matrix, Matrix, Matrix]:
    """Smith normal form of any integer matrix: returns (U, D, V), U m V = D.

    U and V are unimodular; D is diagonal with nonnegative entries satisfying
    d1 | d2 | ... (zeros, if any, come last).
    """
    a = mat_copy(m)
    rows, cols = len(a), len(a[0]) if a else 0
    u = identity_matrix(rows)
    v = identity_matrix(cols)
    rank = _diagonalize_from(a, u, v, 0)
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if di and dj % di != 0:
                # pull d_{i+1} into column i, then re-diagonalize the tail
                for row in a:
                    row[i] += row[i + 1]
                for row in v:
                    row[i] += row[i + 1]
                _diagonalize_from(a, u, v, i)
                changed = True
                break
    return u, a, v


def snf_diagonal(d: Sequence[Sequence[int]]) -> List[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0])))]


def unimodular_inverse(u: Sequence[Sequence[int]]) -> Matrix:
    adj, det = adjugate_and_det(u)
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return [[x * det for x in row] for row in adj]


def kernel_basis(m: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis (as column vectors) of the integer kernel {x : m x = 0}."""
    if not m or not m[0]:
        k = len(m[0]) if m else 0
        return [col for col in map(list, zip(*identity_matrix(k)))]
    u, d, v = snf_with_transforms(m)
    rows, cols = len(m), len(m[0])
    diag = snf_diagonal(d)
    basis = []
    for j in range(cols):
        if j >= len(diag) or diag[j] == 0:
            basis.append([v[i][j] for i in range(cols)])
    return basis


class ImageLattice:
    """Membership tests and solutions for the lattice {m x : x integer
    vector}.

    With U m V = D, y = m x has the solution x = V z exactly when
    w = U y satisfies D z = w: each w_i divisible by the i-th diagonal entry,
    and w_i = 0 where that entry is zero or missing.
    """

    def __init__(self, m: Sequence[Sequence[int]]):
        self.m = mat_copy(m)
        self.u, d, self.v = snf_with_transforms(self.m)
        self.diag = snf_diagonal(d)
        self.rows = len(self.m)
        # one diagonal entry per row of U y, zero past the diagonal
        self.moduli = self.diag + [0] * (self.rows - len(self.diag))

    def _member_coords(self, y: Sequence[int]) -> Optional[List[int]]:
        """U y when y lies in the lattice, otherwise None."""
        w = mat_vec(self.u, y)
        for x, d in zip(w, self.moduli):
            if (x % d if d else x) != 0:
                return None
        return w

    def contains(self, y: Sequence[int]) -> bool:
        return self._member_coords(y) is not None

    def solve(self, y: Sequence[int]) -> Optional[List[int]]:
        """An integer x with m x = y, or None when y is not in the lattice."""
        w = self._member_coords(y)
        if w is None:
            return None
        cols = len(self.v)
        z = [x // d if d else 0 for x, d in zip(w, self.moduli)][:cols]
        return mat_vec(self.v, z + [0] * (cols - len(z)))


def hnf_columns(m: Sequence[Sequence[int]]) -> Matrix:
    """Column-style Hermite normal form, a canonical basis of a column lattice.

    Result is lower triangular with positive pivots and entries right of each
    pivot reduced to zero; columns of zero are dropped.
    """
    a = [list(col) for col in zip(*mat_copy(m))]  # work on rows = input columns
    n_cols = len(a)
    if n_cols == 0:
        return []
    dim = len(a[0])
    # integer row-style HNF on the transposed matrix
    pivot_row = 0
    for col in range(dim):
        piv = None
        for r in range(pivot_row, n_cols):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[pivot_row], a[piv] = a[piv], a[pivot_row]
        # eliminate below by gcd steps
        for r in range(pivot_row + 1, n_cols):
            while a[r][col] != 0:
                q = a[pivot_row][col] // a[r][col]
                a[pivot_row] = [x - q * y for x, y in zip(a[pivot_row], a[r])]
                a[pivot_row], a[r] = a[r], a[pivot_row]
        if a[pivot_row][col] < 0:
            a[pivot_row] = [-x for x in a[pivot_row]]
        # reduce above
        for r in range(pivot_row):
            q = a[r][col] // a[pivot_row][col]
            if q:
                a[r] = [x - q * y for x, y in zip(a[r], a[pivot_row])]
        pivot_row += 1
    rows = [row for row in a[:pivot_row]]
    return [list(col) for col in zip(*rows)] if rows else []
