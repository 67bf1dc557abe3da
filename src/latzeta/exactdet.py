"""Exact determinants of integer matrix polynomials.

For M(u) = sum_k C_k u^k with d+1 square integer coefficients of size N,
det M(u) has degree at most dN.  It is computed modulo a battery of 29-bit
primes, one pass per prime:

* shift u = t + v with t = 0, 1, 2, ... until M(t) is invertible mod p
  (``det_mod``); if no t in 0..dN is, det M vanishes identically mod p;
* with D_k the Taylor coefficients of M(t + v) and E_k = D_0^{-1} D_k,
  det M(t + v) = det D_0 * det(I - v L), where L is the dN x dN block
  companion matrix with first block row -E_1 .. -E_d and identity blocks
  below it (Gohberg, Lancaster and Rodman, *Matrix Polynomials*, ch. 1);
* L is reduced to upper Hessenberg form by similarity and the Hessenberg
  characteristic-polynomial recurrence runs on it (Cohen, *A Course in
  Computational Algebraic Number Theory*, Alg. 2.2.9).  det(I - v L) is
  the reversed characteristic polynomial, and a Taylor shift by -t returns
  from v to u.

The coefficients are lifted by CRT to the symmetric range, which is wide
enough by a proven bound: on |u| = 1 entry (i, j) of M(u) has modulus at
most sum_k |C_k[i, j]|, so |det M(u)| is at most the product of the 2-norms
of those rows (Hadamard), and every coefficient is at most the maximum of
|det M| on the unit circle (Cauchy).  A plain elimination of M at a fresh
point modulo a fresh prime, which shares nothing with the linearisation,
certifies the result.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from .polynomials import IntPolynomial

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# products of two residues below 2^29 fit int64; a dot product splits one
# operand at this bit so that sums of up to 2^19 such products fit as well
_SPLIT_BITS = 15


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_desc(start: int):
    n = start if start % 2 else start - 1
    while n > 2:
        if _is_prime(n):
            yield n
        n -= 2


def det_mod(matrix: np.ndarray, p: int) -> int:
    """Determinant mod p by elimination; destroys its working copy."""
    a = np.mod(matrix.astype(np.int64), p)
    n = a.shape[0]
    det = 1
    for k in range(n):
        nz = np.nonzero(a[k:, k])[0]
        if nz.size == 0:
            return 0
        r = k + int(nz[0])
        if r != k:
            a[[k, r], k:] = a[[r, k], k:]
            det = -det
        piv = int(a[k, k])
        det = det * piv % p
        if k + 1 < n:
            inv = pow(piv, p - 2, p)
            f = (a[k + 1:, k] * inv) % p
            a[k + 1:, k:] = (a[k + 1:, k:] - np.outer(f, a[k, k:])) % p
    return det % p


def _dot_mod(a: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """a @ x mod p for residues in [0, p), without int64 overflow."""
    hi = x >> _SPLIT_BITS
    lo = x & ((1 << _SPLIT_BITS) - 1)
    return ((a @ hi) % p * (1 << _SPLIT_BITS) + a @ lo) % p


def _taylor_shift(coeffs: list, t: int, p: int) -> list:
    """Coefficients of f(v + t) mod p from those of f(u), lowest first.

    The coefficients may be integers or integer matrices."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] = (c[j] + t * c[j + 1]) % p
    return c


def _solve_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a^{-1} b mod p for a matrix a invertible mod p (Gauss-Jordan)."""
    n = a.shape[0]
    m = np.concatenate([a, b], axis=1) % p
    for k in range(n):
        r = k + int(np.flatnonzero(m[k:, k])[0])
        if r != k:
            m[[k, r]] = m[[r, k]]
        m[k, k:] = m[k, k:] * pow(int(m[k, k]), p - 2, p) % p
        rows = np.flatnonzero(m[:, k])
        rows = rows[rows != k]
        if rows.size:
            m[rows, k:] = (m[rows, k:] - np.outer(m[rows, k], m[k, k:])) % p
    return m[:, n:]


def _charpoly_mod(h: np.ndarray, p: int) -> np.ndarray:
    """Characteristic polynomial det(xI - h) mod p, lowest coefficient first.

    Reduces h in place to upper Hessenberg form by similarity, then runs
    the Hessenberg recurrence."""
    m = h.shape[0]
    for k in range(m - 2):
        nz = np.flatnonzero(h[k + 1:, k])
        if nz.size == 0:
            continue
        r = k + 1 + int(nz[0])
        if r != k + 1:
            h[[k + 1, r]] = h[[r, k + 1]]
            h[:, [k + 1, r]] = h[:, [r, k + 1]]
        # rows below k+1 minus f times row k+1, then column k+1 plus the
        # same combination of their columns, which undoes it as a
        # similarity; the rows untouched are those already zero in column k,
        # and linearised graphs keep most of them zero
        rows = k + 2 + np.flatnonzero(h[k + 2:, k])
        if rows.size == 0:
            continue
        f = h[rows, k] * pow(int(h[k + 1, k]), p - 2, p) % p
        h[rows, k:] = (h[rows, k:] - np.outer(f, h[k + 1, k:])) % p
        h[:, k + 1] = (h[:, k + 1] + _dot_mod(h[:, rows], f, p)) % p
    # column j of polys is the characteristic polynomial of the leading
    # j x j block; sub[i - 1] = h[i, i-1] h[i+1, i] .. h[j-1, j-2]
    polys = np.zeros((m + 1, m + 1), dtype=np.int64)
    polys[0, 0] = 1
    sub = np.zeros(m, dtype=np.int64)
    for j in range(1, m + 1):
        prev = polys[:j, j - 1]
        new = polys[:j + 1, j]
        new[1:] = prev
        new[:j] = (new[:j] - int(h[j - 1, j - 1]) * prev) % p
        if j > 1:
            sub[:j - 2] = sub[:j - 2] * int(h[j - 1, j - 2]) % p
            sub[j - 2] = h[j - 1, j - 2]
            w = h[:j - 1, j - 1] * sub[:j - 1] % p
            nz = np.flatnonzero(w)
            new[:j - 1] = (new[:j - 1]
                           - _dot_mod(polys[:j - 1, nz], w[nz], p)) % p
    return polys[:, m]


def _residues_mod(mats: Sequence[np.ndarray], p: int) -> List[int]:
    """Coefficients of det(sum_k mats[k] u^k) mod p, lowest first."""
    size = mats[0].shape[0]
    degree = (len(mats) - 1) * size
    reduced = [c % p for c in mats]
    for t in range(degree + 1):
        shifted = _taylor_shift(reduced, t, p) if t else reduced
        det0 = det_mod(shifted[0], p)
        if det0:
            break
    else:
        # a nonzero polynomial of this degree has at most `degree` roots
        return [0] * (degree + 1)
    companion = np.eye(degree, k=-size, dtype=np.int64)
    if degree:
        companion[:size] = -_solve_mod(shifted[0], np.hstack(shifted[1:]),
                                       p) % p
    charpoly = _charpoly_mod(companion, p)
    coeffs = [det0 * int(c) % p for c in charpoly[::-1]]
    return _taylor_shift(coeffs, p - t, p) if t else coeffs


def coefficient_bound(coeff_mats: Sequence[np.ndarray]) -> int:
    """Bound on every coefficient of det(sum_k C_k u^k).

    The ceiling of the product of the 2-norms of the rows of sum_k |C_k|:
    Hadamard's bound on |det| over the unit circle, which dominates every
    coefficient by Cauchy's estimate.  Exact, in Python integers.
    """
    total = sum(np.abs(np.asarray(c, dtype=object)) for c in coeff_mats)
    square = math.prod(int(s) for s in (total * total).sum(axis=1))
    root = math.isqrt(square)
    return root if root * root == square else root + 1


def polymatrix_det(coeff_mats: Sequence[np.ndarray]) -> IntPolynomial:
    """Exact determinant of the matrix polynomial sum_k coeff_mats[k] u^k."""
    mats = [np.asarray(c, dtype=np.int64) for c in coeff_mats]
    size = mats[0].shape[0]
    if size == 0:
        return IntPolynomial.one()
    degree = (len(mats) - 1) * size

    bound = coefficient_bound(mats)
    primes = []
    prod = 1
    gen = _primes_desc(2 ** 29)
    while prod <= 2 * bound + 1:
        p = next(gen)
        primes.append(p)
        prod *= p
    certificate_prime = next(gen)

    def eval_mats_mod(t: int, p: int) -> np.ndarray:
        acc = np.zeros_like(mats[0])
        tk = 1
        for c in mats:
            acc = (acc + c * tk) % p
            tk = tk * t % p
        return acc

    residue_coeffs = [_residues_mod(mats, p) for p in primes]

    # CRT lift to the symmetric range
    coeffs = []
    half = prod // 2
    inv_cache = [pow(prod // p % p, p - 2, p) * (prod // p) for p in primes]
    for k in range(degree + 1):
        x = 0
        for pi, res in enumerate(residue_coeffs):
            x += res[k] * inv_cache[pi]
        x %= prod
        if x > half:
            x -= prod
        coeffs.append(x)
    poly = IntPolynomial(coeffs)

    # certify on a fresh prime at a point no shift above uses
    q = certificate_prime
    t_star = degree + 1
    expected = det_mod(eval_mats_mod(t_star % q, q), q)
    if poly(t_star) % q != expected:
        raise ArithmeticError("determinant reconstruction failed certification")
    return poly


def naive_polymatrix_det(coeff_mats: Sequence[np.ndarray]) -> IntPolynomial:
    """Leibniz-formula determinant over the polynomial ring; test oracle for
    small matrices."""
    import itertools

    mats = [np.asarray(c) for c in coeff_mats]
    size = mats[0].shape[0]
    entries = [[IntPolynomial([int(c[i, j]) for c in mats])
                for j in range(size)] for i in range(size)]
    total = IntPolynomial.zero()
    for perm in itertools.permutations(range(size)):
        sign = 1
        seen = [False] * size
        for start in range(size):
            if seen[start]:
                continue
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = IntPolynomial.one()
        for i in range(size):
            term = term * entries[i][perm[i]]
        total = total + sign * term
    return total
