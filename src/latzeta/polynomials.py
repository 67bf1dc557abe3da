"""Exact polynomial arithmetic.

Univariate integer polynomials are dense coefficient lists over Python ints.
Multivariate series are sparse dicts keyed by exponent tuples; they serve
the affine series, whose exponents may be Fractions (the half-integer
lengths of affine elements), and expansions.  A tuple's total degree is its
plain sum.

Rational functions are sums of pieces ``numerator / prod(1 - u^a)``, one
per denominator, kept in factored form; a numerator is an int64 exponent
array with one row per term and its coefficient array beside it.  Pieces
are built whole and never merge.  Expansion divides by one factor at a time
by the recurrence ``s[e] += s[e - a]`` in increasing total degree.  Array
terms are written by :func:`array_rows`.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

import numpy as np

Exponent = Tuple  # tuple of int | Fraction, one entry per variable


def _norm_num(x):
    """Fractions with denominator 1 become ints, for clean keys and JSON."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    return int(x)


def norm_exponent(exps) -> Exponent:
    return tuple(_norm_num(e) for e in exps)


def _exp_to_json(e):
    return e if type(e) is int else f"{e.numerator}/{e.denominator}"


class IntPolynomial:
    """Univariate polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls([1])

    @classmethod
    def one_minus_power(cls, m: int, k: int,
                        max_deg: int = None) -> "IntPolynomial":
        """(1 - u^m)^k expanded by the binomial theorem, to degree max_deg
        when it is given."""
        if m <= 0 or k < 0:
            raise ValueError("need m >= 1 and k >= 0")
        top = k if max_deg is None else min(k, max_deg // m)
        cs = [0] * (m * top + 1)
        for j in range(top + 1):
            cs[m * j] = (-1) ** j * math.comb(k, j)
        return cls(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        return self.mul_truncated(other, self.degree + other.degree)

    __rmul__ = __mul__

    def truncate(self, max_deg: int) -> "IntPolynomial":
        return IntPolynomial(self.coeffs[: max_deg + 1])

    def mul_truncated(self, other: "IntPolynomial", max_deg: int) -> "IntPolynomial":
        """The product to degree max_deg, over the nonzero entries of each
        factor only; the second factor's are listed once.  The output has
        room for the product's own degree when that is lower, so a large
        max_deg costs nothing."""
        max_deg = min(max_deg, self.degree + other.degree)
        if max_deg < 0:
            # a zero factor, or a negative max_deg
            return IntPolynomial()
        out = [0] * (max_deg + 1)
        b = [(j, cb) for j, cb in enumerate(other.coeffs[: max_deg + 1]) if cb]
        for i, ca in enumerate(self.coeffs[: max_deg + 1]):
            if ca:
                for j, cb in b:
                    if i + j > max_deg:
                        break
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def series_inverse(self, max_deg: int) -> "IntPolynomial":
        """Multiplicative inverse as a power series, truncated at max_deg.

        Requires constant term +1 or -1 so the inverse stays integral.
        """
        if not self.coeffs or self.coeffs[0] not in (1, -1):
            raise ValueError("series inverse needs constant term +-1")
        c0 = self.coeffs[0]
        inv = [c0] + [0] * max_deg
        for k in range(1, max_deg + 1):
            s = 0
            for j in range(1, min(k, len(self.coeffs) - 1) + 1):
                s += self.coeffs[j] * inv[k - j]
            inv[k] = -c0 * s
        return IntPolynomial(inv)

    def to_json_coeffs(self) -> List[str]:
        """Decimal-string coefficients, lowest degree first."""
        return [str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        if not self.coeffs:
            return "IntPolynomial(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = "u" if i == 1 else f"u^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        return "IntPolynomial(" + " + ".join(parts).replace("+ -", "- ") + ")"


def first_difference(left: IntPolynomial, right: IntPolynomial):
    """None, or the lowest degree where the two differ, with both
    coefficients there as decimal strings, like the coefficient lists."""
    if left == right:
        return None
    i, (a, b) = next((i, pair) for i, pair in enumerate(itertools.zip_longest(
        left.coeffs, right.coeffs, fillvalue=0)) if pair[0] != pair[1])
    return {"index": i, "left": str(a), "right": str(b)}


def _dict_add_term(d: Dict[Exponent, int], exp: Exponent, coeff: int):
    cur = d.get(exp, 0) + coeff
    if cur:
        d[exp] = cur
    else:
        d.pop(exp, None)


def _divide_one_minus(series: Dict[Tuple[int, ...], int], a: Tuple[int, ...],
                      max_deg: int) -> Dict[Tuple[int, ...], int]:
    """series / (1 - u^a) to total degree max_deg, for a nonzero a >= 0:
    s[e] = series[e] + s[e - a], where s[e - a] is final because the degree
    buckets go up.  Zero coefficients are dropped."""
    step = sum(a)
    out = dict(series)
    buckets: Dict[int, List[Tuple[int, ...]]] = {}
    for e in series:
        buckets.setdefault(sum(e), []).append(e)
    for deg in range(min(buckets, default=max_deg), max_deg - step + 1):
        for e in buckets.pop(deg, ()):
            c = out[e]
            if not c:
                continue
            e2 = tuple(map(operator.add, e, a))
            old = out.get(e2)
            if old is None:
                out[e2] = c
                buckets.setdefault(deg + step, []).append(e2)
            else:
                out[e2] = old + c
    return {e: c for e, c in out.items() if c}


def _sorted_exponents(d: Dict[Exponent, int]) -> List[Exponent]:
    """The keys of d by total degree, then by exponent: the lexicographic
    order, stably sorted by the plain sum."""
    keys = sorted(d)
    keys.sort(key=sum)
    return keys


def _sorted_terms(d: Dict[Exponent, int]):
    keys = _sorted_exponents(d)
    return list(zip(keys, map(d.__getitem__, keys)))


def _term_rows(d: Dict[Exponent, int]) -> list:
    """The JSON rows ``[exponents, "coefficient"]`` of d in term order."""
    return [[[*map(_exp_to_json, e)], str(d[e])] for e in _sorted_exponents(d)]


def array_rows(exps: np.ndarray, coeffs: np.ndarray) -> list:
    """The JSON rows ``[exponents, "coefficient"]`` of the terms held as an
    int64 exponent array and its coefficient array, by total degree, then
    by exponent, as :func:`_term_rows` orders a dict."""
    # lexsort's last key leads
    order = np.lexsort((*exps.T[::-1], exps.sum(axis=1)))
    # one string per distinct coefficient, shared by its rows, so that the
    # report holds no string a term
    values = coeffs[order].tolist()
    texts = {c: str(c) for c in set(values)}
    return list(map(list, zip(exps[order].tolist(),
                              map(texts.__getitem__, values))))


class MultiSeries:
    """Truncated multivariate power series with integer coefficients.

    Terms of total degree above the cutoff are dropped on insertion.
    """

    def __init__(self, nvars: int, cutoff, terms: Dict[Exponent, int] | None = None):
        self.nvars = int(nvars)
        self.cutoff = _norm_num(Fraction(cutoff))
        self.terms: Dict[Exponent, int] = {}
        if terms:
            for e, c in terms.items():
                self.add_term(e, c)

    def add_term(self, exp, coeff: int):
        # a tuple of plain ints is already a normalised key
        if type(exp) is not tuple or {*map(type, exp)} - {int}:
            exp = norm_exponent(exp)
        if len(exp) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(exp)}")
        if exp and min(exp) < 0:
            raise ValueError(f"negative exponent in {exp}")
        if sum(exp) > self.cutoff or coeff == 0:
            return
        _dict_add_term(self.terms, exp, int(coeff))

    def get(self, exp) -> int:
        return self.terms.get(norm_exponent(exp), 0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiSeries) and self.nvars == other.nvars
                and self.cutoff == other.cutoff and self.terms == other.terms)

    def to_json_obj(self):
        return {"variables": self.nvars, "cutoff": _exp_to_json(self.cutoff),
                "terms": _term_rows(self.terms)}

    def __repr__(self):
        items = _sorted_terms(self.terms)
        return f"MultiSeries({self.nvars} vars, cutoff {self.cutoff}, {items!r})"


class MultiRational:
    """Sum of rational pieces num / prod_j (1 - u^{a_j}), all exact.

    ``pieces`` maps each denominator, a sorted tuple of factor exponent
    vectors (empty for a polynomial), to its numerator as two arrays: the
    int64 exponents, shape (terms, nvars), and the coefficients beside
    them, int64, or an object array for ints beyond it.  A piece's
    exponent rows are distinct, and pieces are built whole: there is no
    addition, so nothing merges.
    """

    def __init__(self, nvars: int, pieces=None):
        self.nvars = int(nvars)
        self.pieces: Dict[Tuple[Tuple[int, ...], ...],
                          Tuple[np.ndarray, np.ndarray]] = dict(pieces or {})

    def expand(self, max_deg: int) -> MultiSeries:
        """Power-series expansion to total degree max_deg, one geometric
        division per denominator factor."""
        terms: Dict[Tuple[int, ...], int] = {}
        for den, (exps, coeffs) in self.pieces.items():
            keep = exps.sum(axis=1) <= max_deg
            series = dict(zip(map(tuple, exps[keep].tolist()),
                              coeffs[keep].tolist()))
            for a in den:
                series = _divide_one_minus(series, a, max_deg)
            for e, c in series.items():
                _dict_add_term(terms, e, c)
        out = MultiSeries(self.nvars, max_deg)
        out.terms = terms
        return out

    def to_json_obj(self):
        return {"variables": self.nvars, "pieces": [
            {"numerator": array_rows(*self.pieces[den]),
             "denominator_factors": [list(f) for f in den]}
            for den in sorted(self.pieces)]}

    def __repr__(self):
        return f"MultiRational({self.nvars} vars, {len(self.pieces)} pieces)"
