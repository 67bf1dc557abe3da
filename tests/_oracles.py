"""Test-only oracles: slow, obviously correct references for the engines in
``src/``."""

import itertools
from typing import Sequence

import numpy as np

from latzeta.polynomials import IntPolynomial, MultiRational, MultiSeries


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


def product_expand(rational: MultiRational, max_deg: int) -> MultiSeries:
    """Power series of a rational by explicit products: every factor
    1/(1 - u^a) is written out as the geometric sum of the u^(k a) of total
    degree at most max_deg and multiplied in term by term; test oracle for
    :meth:`MultiRational.expand`."""
    out = MultiSeries(rational.nvars, max_deg)
    for den, num in rational.pieces.items():
        series = {e: c for e, c in num.items() if sum(e) <= max_deg}
        for a in den:
            geom = [tuple(k * x for x in a)
                    for k in range(max_deg // sum(a) + 1)]
            product = {}
            for e1, c in series.items():
                for e2 in geom:
                    if sum(e1) + sum(e2) <= max_deg:
                        e = tuple(x + y for x, y in zip(e1, e2))
                        product[e] = product.get(e, 0) + c
            series = product
        for e, c in series.items():
            out.add_term(e, c)
    return out
