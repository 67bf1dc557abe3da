"""Exact determinants of integer matrix polynomials with constant term I.

For M(u) = I + C_1 u + .. + C_d u^d with square integer coefficients of
size N, det M(u) = det(I - uL), where L is the dN x dN block companion
matrix with first block row -C_1 .. -C_d and identity blocks below it
(Gohberg, Lancaster and Rodman, *Matrix Polynomials*, ch. 1): the
reversed characteristic polynomial of L.  L is stored vertex by vertex,
index r d + i for block i of vertex r: a fixed permutation similarity that
puts the (d - 1) N identity entries on the subdiagonal and keeps the pivot
rows of a linearised graph sparser than the block order does.  It is
computed modulo a battery of 29-bit primes, a batch of them per
elimination pass: every array carries a leading prime axis, with the
moduli broadcast along it.  L is reduced to upper Hessenberg form by
similarity and the Hessenberg characteristic-polynomial recurrence runs on
it (Cohen, *A Course in Computational Algebraic Number Theory*,
Alg. 2.2.9).

Every prime of a batch takes the same pivot row at column k, the first row
from k + 1 on that is nonzero modulo all of them, so a swap is one for the
whole stack.  When no row is nonzero modulo every prime, the batch splits
there and each prime finishes alone.  L and the recurrence table are int32
(residues are below 2^29), with products in int64.  A batch holds at most
2^17 entries of L, P (dN)^2, and at least one prime, so from dN = 363 on
each prime runs alone.

The coefficients are lifted by CRT to the symmetric range, which is wide
enough by a proven bound: on |u| = 1 entry (i, j) of M(u) has modulus at
most sum_k |C_k[i, j]|, so |det M(u)| is at most the product of the 2-norms
of those rows (Hadamard), and every coefficient is at most the maximum of
|det M| on the unit circle (Cauchy).  A plain elimination of M at a fresh
point modulo a fresh prime, which shares nothing with the linearisation,
certifies the result.

:func:`crt_primes` picks the primes of every modular route, p = 1 (mod 1)
for a determinant and p = 1 (mod D) for the character L-function, all below
2^29: every residue fits int32 and a sum of 31 products of residues int64.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import ResourceCapError
from .polynomials import IntPolynomial

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# residues are below 2^29, so a product of two fits int64, and so does a
# residue plus a sum of this many products
_CHUNK = 31
# a batch of primes stacks at most this many companion entries, P (dN)^2,
# and at least one prime
_BATCH_ENTRIES = 2 ** 17


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


# per modulus d, the primes p = 1 (mod d) below 2^29, largest first, found
# on first need and kept
_PRIMES: Dict[int, List[int]] = {}


def crt_primes(bits: int, d: int = 1) -> Tuple[List[int], int]:
    """The largest primes p = 1 (mod d) below 2^29 whose product is at least
    2^bits, largest first, and the next one, for the certificate.  Raises
    ResourceCapError when the primes below 2^29 run out first."""
    kept = _PRIMES.setdefault(d, [])
    # a prime above 2 is odd, so p = 1 (mod d) means p = 1 (mod lcm(2, d))
    step = d if d % 2 == 0 else 2 * d
    n = kept[-1] - step if kept else (2 ** 29 - 2) // step * step + 1
    count, prod = 0, 1
    while True:
        while len(kept) <= count:
            if n < 2:
                raise ResourceCapError(
                    f"a CRT modulus of 2^{bits} needs more primes p = 1 "
                    f"(mod {d}) than there are below 2^29")
            if _is_prime(n):
                kept.append(n)
            n -= step
        if prod >> bits:
            return kept[:count], kept[count]
        prod *= kept[count]
        count += 1


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


def _add_dot_mod(acc: np.ndarray, a: np.ndarray, cols: np.ndarray,
                 x: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """acc + a[:, :, cols] @ x mod p per prime, for stacks acc (P, m), a
    (P, m, .) and x (P, r) of residues or their negatives, _CHUNK columns at
    a time so that no sum overflows."""
    for j in range(0, len(cols), _CHUNK):
        acc = (acc + (a[:, :, cols[j:j + _CHUNK]]
                      @ x[:, j:j + _CHUNK, None])[:, :, 0]) % ps[:, None]
    return acc


def _charpoly_mod(h: np.ndarray, ps: np.ndarray, start: int = 0
                  ) -> np.ndarray:
    """det(xI - h) mod p, lowest coefficient first, for each prime of an
    int32 (P, m, m) stack h, which is reduced in place to upper Hessenberg
    form by similarity, from column start on (the columns before it must
    already be reduced), before the Hessenberg recurrence runs."""
    count, m = h.shape[:2]
    p1, p3 = ps[:, None], ps[:, None, None]
    for k in range(start, m - 2):
        below = h[:, k + 1:, k] != 0
        # rows below k+1 minus f times row k+1, then column k+1 plus the
        # same combination of their columns, which undoes it as a similarity;
        # rows is the union over primes of those nonzero in column k, a
        # superset of them after the swap, and linearised graphs keep most
        # of them zero
        rows = k + 2 + below[:, 1:].any(axis=0).nonzero()[0]
        if rows.size == 0:
            continue
        if not below[:, 0].all():
            common = below.all(axis=0).nonzero()[0]
            if common.size == 0:
                return np.concatenate([
                    _charpoly_mod(h[i:i + 1], ps[i:i + 1], k)
                    for i in range(count)])
            r = k + 1 + int(common[0])
            row = h[:, k + 1].copy()
            h[:, k + 1], h[:, r] = h[:, r], row
            col = h[:, :, k + 1].copy()
            h[:, :, k + 1], h[:, :, r] = h[:, :, r], col
        inv = [pow(a, -1, p) for a, p in zip(h[:, k + 1, k].tolist(),
                                             ps.tolist())]
        f = h[:, rows, k] * np.array(inv, dtype=np.int64)[:, None] % p1
        cols = k + h[:, k + 1, k:].any(axis=0).nonzero()[0]
        block = (slice(None), rows[:, None], cols)
        h[block] = (h[block] - f[:, :, None] * h[:, k + 1, cols][:, None]) % p3
        h[:, :, k + 1] = _add_dot_mod(h[:, :, k + 1], h, rows, f, ps)
    # column j of polys is the characteristic polynomial of the leading
    # j x j block; sub[:, i - 1] = h[i, i-1] h[i+1, i] .. h[j-1, j-2]
    polys = np.zeros((count, m + 1, m + 1), dtype=np.int32)
    polys[:, 0, 0] = 1
    sub = np.zeros((count, m), dtype=np.int64)
    diag, subdiag = (h.diagonal(i, 1, 2).astype(np.int64) for i in (0, -1))
    for j in range(1, m + 1):
        prev = polys[:, :j, j - 1]
        new = polys[:, :j + 1, j]
        new[:, 1:] = prev
        new[:, :j] = (new[:, :j] - diag[:, j - 1, None] * prev) % p1
        if j > 1:
            sub[:, :j - 2] = sub[:, :j - 2] * subdiag[:, j - 2, None] % p1
            sub[:, j - 2] = subdiag[:, j - 2]
            w = h[:, :j - 1, j - 1] * sub[:, :j - 1] % p1
            nz = w.any(axis=0).nonzero()[0]
            new[:, :j - 1] = _add_dot_mod(new[:, :j - 1], polys[:, :j - 1], nz,
                                          -w[:, nz], ps)
    return polys[:, :, m]


def _companion(mats: Sequence[np.ndarray], ps: np.ndarray) -> np.ndarray:
    """The int32 block companion matrix of sum_k mats[k] u^k, mats[0] = I,
    of degree d, mod each prime of a batch, in vertex order: entry
    (r d, s d + i) is -mats[i + 1][r, s] and entry (r d + i + 1, r d + i) is
    1 for i < d - 1, so the identity blocks lie on the subdiagonal."""
    size, d = mats[0].shape[0], len(mats) - 1
    degree = d * size
    companion = np.zeros((len(ps), degree, degree), dtype=np.int32)
    # a constant M (degree 0) has an empty companion
    if degree:
        sub = np.arange(degree - 1)
        sub = sub[(sub + 1) % d != 0]
        companion[:, sub + 1, sub] = 1
        top = np.stack(mats[1:], axis=2).reshape(size, degree)
        companion[:, ::d] = -top % ps[:, None, None]
    return companion


def _residues_mod(mats: Sequence[np.ndarray], primes: Sequence[int]
                  ) -> List[List[int]]:
    """Coefficients of det(sum_k mats[k] u^k), mats[0] = I, mod each prime,
    lowest first, in batches of at most _BATCH_ENTRIES companion entries."""
    degree = (len(mats) - 1) * mats[0].shape[0]
    per = max(1, _BATCH_ENTRIES // max(degree, 1) ** 2)
    out = []
    for i in range(0, len(primes), per):
        ps = np.array(primes[i:i + per], dtype=np.int64)
        out.extend(_charpoly_mod(_companion(mats, ps), ps)[:, ::-1].tolist())
    return out


def crt_lift(residues: Sequence[Sequence[int]], primes: Sequence[int]
             ) -> List[int]:
    """The integers in the symmetric range of the product of the primes with
    the given residues, one list of coefficient residues per prime."""
    prod = math.prod(primes)
    weights = [pow(prod // p % p, p - 2, p) * (prod // p) for p in primes]
    lifted = [sum(w * r for w, r in zip(weights, column)) % prod
              for column in zip(*residues)]
    return [x - prod if x > prod // 2 else x for x in lifted]


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
    """Exact determinant of the matrix polynomial sum_k coeff_mats[k] u^k,
    whose constant coefficient coeff_mats[0] must be the identity."""
    mats = [np.asarray(c, dtype=np.int64) for c in coeff_mats]
    size = mats[0].shape[0]
    if not np.array_equal(mats[0], np.eye(size, dtype=np.int64)):
        raise ValueError("the constant coefficient must be the identity")
    if size == 0:
        return IntPolynomial.one()
    degree = (len(mats) - 1) * size

    primes, q = crt_primes((2 * coefficient_bound(mats) + 1).bit_length())
    poly = IntPolynomial(crt_lift(_residues_mod(mats, primes), primes))

    # certify on a fresh prime at a point past the degree
    t_star = degree + 1
    point = sum(c % q * pow(t_star, k, q) % q for k, c in enumerate(mats)) % q
    if poly(t_star) % q != det_mod(point, q):
        raise ArithmeticError("determinant reconstruction failed certification")
    return poly

