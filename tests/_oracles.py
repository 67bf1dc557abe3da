"""Test-only oracles: slow, obviously correct references for the engines in
``src/``."""

import itertools
from typing import Sequence

import numpy as np

from latzeta.polynomials import IntPolynomial


def naive_polymatrix_det(coeff_mats: Sequence[np.ndarray]) -> IntPolynomial:
    """Leibniz-formula determinant over the polynomial ring; test oracle for
    small matrices."""
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
