"""Exact polynomial arithmetic.

Univariate integer polynomials are dense coefficient lists over Python ints.
Multivariate objects are sparse dicts keyed by exponent tuples; exponents are
ints where possible and Fractions otherwise (half-integer lengths coming from
cycle averages of affine elements stay exact).

Rational functions are held as sums of pieces ``numerator / prod(1 - u^a)``
with the denominator kept in factored form.  Pieces with identical factor
multisets are merged on addition; :meth:`MultiRational.combine` produces a
single quotient over the common denominator when one is wanted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

Exponent = Tuple  # tuple of int | Fraction, one entry per variable


def _norm_num(x):
    """Fractions with denominator 1 become ints, for clean keys and JSON."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    return int(x)


def norm_exponent(exps) -> Exponent:
    return tuple(_norm_num(e) for e in exps)


def exponent_degree(exps) -> Fraction:
    return sum(exps, Fraction(0))


def _exp_to_json(e):
    return int(e) if isinstance(e, int) else f"{e.numerator}/{e.denominator}"


def _exp_from_json(e):
    if isinstance(e, str):
        num, den = e.split("/")
        return _norm_num(Fraction(int(num), int(den)))
    return int(e)


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
    def one_minus_power(cls, m: int, k: int) -> "IntPolynomial":
        """(1 - u^m)^k expanded by the binomial theorem."""
        if m <= 0 or k < 0:
            raise ValueError("need m >= 1 and k >= 0")
        cs = [0] * (m * k + 1)
        for j in range(k + 1):
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
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def truncate(self, max_deg: int) -> "IntPolynomial":
        return IntPolynomial(self.coeffs[: max_deg + 1])

    def mul_truncated(self, other: "IntPolynomial", max_deg: int) -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        out = [0] * (max_deg + 1)
        for i, ca in enumerate(a):
            if i > max_deg:
                break
            if ca:
                for j, cb in enumerate(b):
                    if i + j > max_deg:
                        break
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

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

    @classmethod
    def from_json_coeffs(cls, data: Sequence[str]) -> "IntPolynomial":
        return cls([int(c) for c in data])

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


def _dict_add_term(d: Dict[Exponent, int], exp: Exponent, coeff: int):
    cur = d.get(exp, 0) + coeff
    if cur:
        d[exp] = cur
    else:
        d.pop(exp, None)


def _dict_mul(a: Dict[Exponent, int], b: Dict[Exponent, int],
              max_deg=None) -> Dict[Exponent, int]:
    out: Dict[Exponent, int] = {}
    for ea, ca in a.items():
        da = exponent_degree(ea)
        for eb, cb in b.items():
            if max_deg is not None and da + exponent_degree(eb) > max_deg:
                continue
            e = norm_exponent(x + y for x, y in zip(ea, eb))
            _dict_add_term(out, e, ca * cb)
    return out


def _sorted_terms(d: Dict[Exponent, int]):
    return sorted(d.items(), key=lambda kv: (exponent_degree(kv[0]), kv[0]))


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
        exp = norm_exponent(exp)
        if len(exp) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(exp)}")
        if any(e < 0 for e in exp):
            raise ValueError(f"negative exponent in {exp}")
        if exponent_degree(exp) > self.cutoff or coeff == 0:
            return
        _dict_add_term(self.terms, exp, int(coeff))

    def get(self, exp) -> int:
        return self.terms.get(norm_exponent(exp), 0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiSeries) and self.nvars == other.nvars
                and self.cutoff == other.cutoff and self.terms == other.terms)

    def __iadd__(self, other: "MultiSeries") -> "MultiSeries":
        for e, c in other.terms.items():
            self.add_term(e, c)
        return self

    def scaled(self, k: int) -> "MultiSeries":
        return MultiSeries(self.nvars, self.cutoff,
                           {e: k * c for e, c in self.terms.items()})

    def specialize_first(self) -> Dict:
        """Coefficients of x^k after setting every variable but the first to 0.

        Uses the 0^0 = 1 convention: a term survives iff all later exponents
        vanish.
        """
        out = {}
        for e, c in self.terms.items():
            if all(x == 0 for x in e[1:]):
                out[e[0]] = out.get(e[0], 0) + c
        return out

    def to_json_obj(self):
        return {
            "variables": self.nvars,
            "cutoff": _exp_to_json(self.cutoff),
            "terms": [[[_exp_to_json(x) for x in e], str(c)]
                      for e, c in _sorted_terms(self.terms)],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "MultiSeries":
        s = cls(obj["variables"], _exp_from_json(obj["cutoff"]))
        for e, c in obj["terms"]:
            s.add_term(tuple(_exp_from_json(x) for x in e), int(c))
        return s

    def __repr__(self):
        items = _sorted_terms(self.terms)
        return f"MultiSeries({self.nvars} vars, cutoff {self.cutoff}, {items!r})"


class MultiRational:
    """Sum of rational pieces num / prod_j (1 - u^{a_j}), all exact.

    Each piece is (numerator dict, sorted tuple of denominator exponent
    vectors); an empty factor tuple means the piece is a polynomial.  Pieces
    with equal denominators merge on addition, so simple closed forms like
    4/(1-x^2) come out of :meth:`combine` without any gcd machinery.
    """

    def __init__(self, nvars: int, pieces=None):
        self.nvars = int(nvars)
        # dict: denominator factor multiset -> numerator dict
        self.pieces: Dict[Tuple[Tuple[int, ...], ...], Dict[Exponent, int]] = {}
        if pieces:
            for num, den in pieces:
                self.add_piece(num, den)

    @classmethod
    def zero(cls, nvars: int) -> "MultiRational":
        return cls(nvars)

    def add_piece(self, numerator: Dict[Exponent, int], factors):
        den = tuple(sorted(tuple(int(x) for x in f) for f in factors))
        for f in den:
            if len(f) != self.nvars:
                raise ValueError("factor arity mismatch")
            if all(x == 0 for x in f):
                raise ValueError("denominator factor (1 - 1) is zero")
        cur = self.pieces.setdefault(den, {})
        for e, c in numerator.items():
            _dict_add_term(cur, norm_exponent(e), int(c))
        if not cur:
            del self.pieces[den]

    def __iadd__(self, other: "MultiRational") -> "MultiRational":
        for den, num in other.pieces.items():
            self.add_piece(num, den)
        return self

    def scaled(self, k: int) -> "MultiRational":
        out = MultiRational(self.nvars)
        for den, num in self.pieces.items():
            out.add_piece({e: k * c for e, c in num.items()}, den)
        return out

    def denominator_factors(self) -> List[Tuple[int, ...]]:
        """Distinct (1 - u^a) factors appearing in any piece."""
        seen = set()
        for den in self.pieces:
            seen.update(den)
        return sorted(seen)

    def expand(self, max_deg: int) -> MultiSeries:
        """Power-series expansion to total degree max_deg."""
        out = MultiSeries(self.nvars, max_deg)
        for den, num in self.pieces.items():
            series = {e: c for e, c in num.items()
                      if exponent_degree(e) <= max_deg}
            for a in den:
                ta = sum(a)
                geom = {}
                k = 0
                while k * ta <= max_deg:
                    geom[tuple(k * x for x in a)] = 1
                    k += 1
                series = _dict_mul(series, geom, max_deg)
            for e, c in series.items():
                out.add_term(e, c)
        return out

    def combine(self) -> Tuple[Dict[Exponent, int], Tuple[Tuple[int, ...], ...]]:
        """Single quotient (numerator, factors) over the common denominator.

        The common denominator is the multiset max of the piece denominators.
        Exact but potentially large; meant for small closed forms.
        """
        from collections import Counter

        common = Counter()
        for den in self.pieces:
            cnt = Counter(den)
            for f, k in cnt.items():
                common[f] = max(common[f], k)
        numerator: Dict[Exponent, int] = {}
        for den, num in self.pieces.items():
            missing = common - Counter(den)
            piece = dict(num)
            for f, k in missing.items():
                factor_poly = {tuple([0] * self.nvars): 1, tuple(f): -1}
                for _ in range(k):
                    piece = _dict_mul(piece, factor_poly)
            for e, c in piece.items():
                _dict_add_term(numerator, e, c)
        return numerator, tuple(sorted(common.elements()))

    def to_json_obj(self):
        return {
            "variables": self.nvars,
            "pieces": [
                {
                    "numerator": [[[_exp_to_json(x) for x in e], str(c)]
                                  for e, c in _sorted_terms(num)],
                    "denominator_factors": [list(f) for f in den],
                }
                for den, num in sorted(self.pieces.items())
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "MultiRational":
        out = cls(obj["variables"])
        for piece in obj["pieces"]:
            num = {tuple(_exp_from_json(x) for x in e): int(c)
                   for e, c in piece["numerator"]}
            out.add_piece(num, [tuple(f) for f in piece["denominator_factors"]])
        return out

    def __repr__(self):
        return f"MultiRational({self.nvars} vars, {len(self.pieces)} pieces)"
