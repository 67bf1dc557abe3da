"""Test-only oracles: slow, obviously correct references for the engines in
``src/``."""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np
from mpmath import mp, mpf

from latzeta import selberg
from latzeta.errors import (BoxExhaustionError, ResourceCapError,
                            SingularMatrixError)
from latzeta.intmat import (ImageLattice, adjugate_and_det, hnf_columns,
                            identity_matrix, kernel_basis, mat_mul, mat_vec,
                            snf_diagonal, snf_with_transforms,
                            unimodular_inverse)
from latzeta.lattice import (FACTORIAL, GEODESIC, AffineElement,
                             LatticeVector, LengthVector, Permutation,
                             all_permutations, cone_decompose,
                             edge_multiples, scale_factor)
from latzeta.polynomials import (Exponent, IntPolynomial, MultiRational,
                                 MultiSeries, _dict_add_term, norm_exponent)
from latzeta.quotient import TranslationSubgroup
from latzeta.value import Value


def perm_from_cycles(n: int, cycles: Sequence[Sequence[int]]) -> Permutation:
    """The permutation of {0, .., n-1} with the given cycles."""
    images = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, tuple(cyc[1:]) + tuple(cyc[:1])):
            images[a] = b
    return Permutation(tuple(images))


def laplace_det(m: Sequence[Sequence[int]]) -> int:
    """Determinant by Laplace expansion along the first row; test oracle
    independent of any elimination."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j]
               * laplace_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def random_type_zero_subgroup(rng, n, bound=9):
    """Random nonsingular basis whose column sums vanish mod n."""
    k = n - 1
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(k)]
        for j in range(k):
            s = sum(m[i][j] for i in range(k)) % n
            m[0][j] -= s if s <= n - s else s - n
        if laplace_det(m) != 0:
            return TranslationSubgroup(n, m)


def adjugate_membership(gamma):
    """Subgroup membership by adjugate residues, as a predicate: x is in the
    lattice of the basis M iff adj(M) x vanishes mod det M; test oracle for
    :meth:`quotient.TranslationSubgroup.contains`, independent of its Smith
    form."""
    adj, det = adjugate_and_det(gamma.basis)
    return lambda x: all(v % det == 0 for v in mat_vec(adj, x))


def brute_force_translation_series(gamma, max_deg, scale=GEODESIC):
    """Definition-level oracle: scan the box point by point, with membership
    by adjugate residues."""
    n = gamma.n
    factor = math.factorial(n) if scale == FACTORIAL else 1
    span = max_deg // factor
    contains = adjugate_membership(gamma)
    series = MultiSeries(n - 1, max_deg)
    for point in itertools.product(range(span + 1), repeat=n):
        if min(point) != 0:
            continue
        coords = tuple(point[i] - point[-1] for i in range(n - 1))
        if not contains(coords):
            continue
        sorted_pt = sorted(point, reverse=True)
        exps = tuple(factor * (sorted_pt[j] - sorted_pt[j + 1])
                     for j in range(n - 1))
        stab = 1
        for value in set(point):
            stab *= math.factorial(point.count(value))
        series.add_term(exps, gamma.index * stab)
    return series


# floor cells times slabs the scan tests per numpy block (one slab at least)
_SLAB_BLOCK = 1 << 14


def scan_translation_series(gamma, max_deg: int,
                            scale: str = GEODESIC) -> MultiSeries:
    """Truncated Selberg series of a translation subgroup by a box scan; the
    reference for the period table of ``selberg_series_translation``.

    Every subgroup element is its own conjugacy class with weight
    N * (stabilizer of its coordinate pattern); elements of length degree at
    most max_deg have canonical coordinates inside [0, span]^n, where
    span = max_deg // scale factor.  A point is a member when
    u . (x_1 - x_n, .., x_{n-1} - x_n) = 0 mod d for every Smith row u with
    divisor d > 1, that is when the residue of (x_2, .., x_n) under the
    weights (u_2, .., u_{n-1}, -sum u), kept per sub-grid cell, is
    -u_1 x_1 mod d; slabs x_1 > 0 test only the cells with a coordinate 0
    (the floor), many slabs to a block, and insert x_1 into the floor
    cells' coordinates, sorted once.  Each sorted pattern is one term,
    N * stabilizer * (its members).
    """
    n = gamma.n
    f = scale_factor(n, scale)
    span = max_deg // f
    base = span + 1
    # the rows of U with d_i > 1, as residues of least absolute value
    tests = [([(x + d // 2) % d - d // 2 for x in row], d)
             for row, d in zip(gamma.image.u, gamma.image.diag) if d > 1]
    row_max = max((abs(x) for row, _ in tests for x in row), default=0)
    context = f"translation Selberg series to degree {max_deg}"
    check_int64 = selberg._check_int64
    check_int64(context, f"the pattern code (span+1)^n = {base}^{n}",
                base ** n)
    # residues lie in [0, d), and sums of two are formed in (-d, d)
    check_int64(context, "the largest elementary divisor",
                gamma.image.diag[-1])
    # bounds each per-axis term w x, as |sum u| <= (n-1) max|row|; span
    # counted as at least 1, so that the rows themselves fit
    check_int64(context, f"a Smith residue (n-1)*span*max|row| = "
                f"{n - 1}*{max(span, 1)}*{row_max}",
                (n - 1) * max(span, 1) * row_max)
    cells = base ** (n - 1)
    if cells > selberg.SERIES_GRID_CELLS:
        raise ResourceCapError(
            f"{context}: the sub-grid of (span+1)^(n-1) = {base}^{n - 1} "
            f"cells is above the cap of {selberg.SERIES_GRID_CELLS} cells")
    axis = np.arange(base, dtype=np.int64)
    residues = []
    for row, d in tests:
        res = np.zeros((), dtype=np.int64)
        for w in (*row[1:], -sum(row)):
            res = res[..., None] - (d - w * axis % d)
            res[res < 0] += d
        residues.append(res.ravel())
    # with a positive first coordinate the minimum 0 must lie in the sub-grid
    floor = np.flatnonzero(
        functools.reduce(np.minimum, np.ix_(*[axis] * (n - 1))) == 0)
    floor_res = [res[floor] for res in residues]

    def sorted_columns(idx):
        """The sub-grid coordinates of the cells idx, sorted per cell by a
        bubble network of min/max pairs, as n - 1 columns."""
        cols = []
        for _ in range(n - 1):
            idx, digit = np.divmod(idx, base)
            cols.append(digit)
        for top in range(n - 2, 0, -1):
            for j in range(top):
                cols[j], cols[j + 1] = (np.minimum(cols[j], cols[j + 1]),
                                        np.maximum(cols[j], cols[j + 1]))
        return cols

    def pattern_codes(x, cols):
        """Codes of the sorted patterns of (x, c) for sorted rows c, in base
        span + 1: inserted among c_1 <= .. <= c_{n-1}, entry j of the
        pattern is x clamped to [c_{j-1}, c_j]."""
        code = np.minimum(x, cols[0])
        for lo, hi in zip(cols, cols[1:]):
            code = code * base + np.maximum(lo, np.minimum(x, hi))
        return code * base + np.maximum(x, cols[-1])

    keep = np.ones(cells, dtype=bool)
    for res in residues:
        keep &= res == 0
    del residues
    codes = [pattern_codes(0, sorted_columns(np.flatnonzero(keep)))]
    # the slabs x_1 > 0 in blocks: one (slabs x floor cells) comparison per
    # Smith row, and the members read off its nonzero entries, with the
    # floor cells' coordinates sorted once
    floor_cols = sorted_columns(floor)
    step = max(1, _SLAB_BLOCK // len(floor))
    for start in range(1, base, step):
        xs = np.arange(start, min(start + step, base), dtype=np.int64)
        keep = np.ones((len(xs), len(floor)), dtype=bool)
        for res, (row, d) in zip(floor_res, tests):
            keep &= res == (-xs * row[0] % d)[:, None]
        slab, cell = np.nonzero(keep)
        codes.append(pattern_codes(xs[slab], [c[cell] for c in floor_cols]))
    codes, mult = np.unique(np.concatenate(codes), return_counts=True)
    patterns = np.empty((len(codes), n), dtype=np.int64)
    for a in range(n - 1, -1, -1):
        codes, patterns[:, a] = np.divmod(codes, base)
    # descending gaps; the stabilizer, a product of multiplicity factorials,
    # is the product over positions of the equal entries up to there
    gaps = np.diff(patterns, axis=1)[:, ::-1]
    runs = np.tril(patterns[:, :, None] == patterns[:, None, :]).sum(axis=2)
    # the patterns are distinct with minimum 0 and maximum at most span, so
    # every key is new and of total degree at most max_deg, and every
    # coefficient is positive: the terms need none of add_term's checks.
    # Object arrays keep the keys f * gaps and the coefficients
    # N * stabilizer * members exact Python ints however large f and N are.
    exps = (gaps.astype(object) * f).tolist()
    coeffs = (runs.astype(object).prod(axis=1) * mult.astype(object)
              * gamma.index).tolist()
    series = MultiSeries(n - 1, max_deg)
    series.terms = dict(zip(map(tuple, exps), coeffs))
    return series


def table_terms(table) -> Dict[Tuple[int, ...], int]:
    """Exponent f g -> coefficient of each nonzero cell of a period table,
    as Python ints."""
    return dict(zip(map(tuple, table.terms.tolist()), table.coeffs.tolist()))


def table_from_terms(table, *terms: Dict[Tuple[int, ...], int]):
    """A period table with the fields of ``table`` and the cells of the
    exponent -> coefficient dicts ``terms``: equal exponents add up and
    zero cells drop out, as :func:`rational_from_pieces` merges numerators."""
    merged: Dict[Tuple[int, ...], int] = {}
    for e, c in itertools.chain.from_iterable(t.items() for t in terms):
        _dict_add_term(merged, tuple(e), c)
    exps, coeffs = numerator_arrays(table.nvars, merged)
    return selberg.PeriodTable(table.nvars, table.factor, table.divisor,
                               table.size, exps, coeffs)


def periodic_extension(table, max_deg: int) -> MultiSeries:
    """The series of a period table to total degree max_deg: each cell's
    coefficient at every exponent f (g + D k), k >= 0, of degree at most
    max_deg; cells beyond the table count only when it is complete."""
    series = MultiSeries(table.nvars, max_deg)
    step = table.period if table.complete else max_deg + 1
    for exp, coeff in table_terms(table).items():
        points = [((), 0)]
        for e in exp:
            points = [(p + (x,), total + x) for p, total in points
                      for x in range(e, max_deg + 1 - total, step)]
        for point, _ in points:
            series.add_term(point, coeff)
    return series


def fraction_length_vector(g: AffineElement, scale: str = GEODESIC
                           ) -> LengthVector:
    """Lengths of g with every cycle average a Fraction; test oracle for
    :func:`lattice.length_vector`."""
    n = g.n
    f = scale_factor(n, scale)
    avg = [Fraction(0)] * n
    for cyc in g.p.cycles():
        s = Fraction(sum(g.v.coords[i] for i in cyc), len(cyc))
        for i in cyc:
            avg[i] = s
    avg.sort(reverse=True)
    return LengthVector(tuple(f * (avg[j] - avg[j + 1]) for j in range(n - 1)),
                        scale)


def length_vector_from_ratios(numerators: Sequence[int], denominator: int,
                              scale: str) -> LengthVector:
    """The LengthVector of values numerators[j] / denominator; the signs
    are checked on the ints, before any Fraction is made."""
    if denominator <= 0 or min(numerators) < 0:
        raise ValueError("length values must be nonnegative")
    return LengthVector(tuple([Fraction(x, denominator) for x in numerators]),
                        scale)


def fraction_turn(chi, cls: Sequence[int]) -> Fraction:
    """A character's turn on a quotient element, one Fraction per divisor;
    test oracle for :meth:`quotient.Character.turn`."""
    t = Fraction(0)
    for k, x, d in zip(chi.exponents, cls, chi.divisors):
        t += Fraction(k * x, d)
    return t % 1


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


def series_log_derivative(zeta: IntPolynomial, max_deg: int
                          ) -> Tuple[List[int], List[int]]:
    """The coefficients of x Z'/Z and of Z'/Z to degree max_deg, from the
    dense series inverse of Z times its derivative; test oracle for the
    Newton recurrence of :func:`selberg.comparison_check`."""
    z_inv = zeta.series_inverse(max_deg)
    zprime = IntPolynomial([i * c for i, c in enumerate(zeta.coeffs)][1:])
    x_zprime = IntPolynomial([0] + zprime.coeffs)
    return ([x_zprime.mul_truncated(z_inv, max_deg).coefficient(k)
             for k in range(max_deg + 1)],
            [zprime.mul_truncated(z_inv, max_deg).coefficient(k)
             for k in range(max_deg + 1)])


def product_expand(rational: MultiRational, max_deg: int) -> MultiSeries:
    """Power series of a rational by explicit products: every factor
    1/(1 - u^a) is written out as the geometric sum of the u^(k a) of total
    degree at most max_deg and multiplied in term by term; test oracle for
    :meth:`MultiRational.expand`."""
    out = MultiSeries(rational.nvars, max_deg)
    for den, num in piece_dicts(rational).items():
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


def key_sorted_terms(d: Dict[Exponent, int]) -> List[Tuple[Exponent, int]]:
    """The terms of d by (total degree, exponent), one key call per term;
    test oracle for ``polynomials._sorted_terms``."""
    return sorted(d.items(), key=lambda kv: (sum(kv[0]), kv[0]))


def _exp_from_json(e):
    """An exponent as ``to_json_obj`` writes it: an int or "num/den"."""
    if isinstance(e, str):
        num, den = e.split("/")
        return Fraction(int(num), int(den))
    return int(e)


def series_from_json(obj) -> MultiSeries:
    """The MultiSeries that ``MultiSeries.to_json_obj`` wrote as obj."""
    s = MultiSeries(obj["variables"], _exp_from_json(obj["cutoff"]))
    for e, c in obj["terms"]:
        s.add_term(tuple(_exp_from_json(x) for x in e), int(c))
    return s


def numerator_arrays(nvars: int, num: Dict[Exponent, int]
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """The int64 exponent array and the coefficient array of a numerator
    dict, as a :class:`MultiRational` piece holds them; the coefficients
    are an object array when one of them leaves int64."""
    exps = np.array(list(num), dtype=np.int64).reshape(-1, nvars)
    wide = any(not -2 ** 63 <= c < 2 ** 63 for c in num.values())
    return exps, np.array(list(num.values()),
                          dtype=object if wide else np.int64)


def rational_from_pieces(nvars: int, pieces) -> MultiRational:
    """The MultiRational of the (numerator dict, factors) pairs, each
    denominator the sorted tuple of its factors: the numerators of equal
    denominators add up, zero terms drop out and so does a piece left with
    none, and the denominators keep the order they first appear in."""
    merged: Dict[Tuple, Dict[Exponent, int]] = {}
    for num, factors in pieces:
        cur = merged.setdefault(tuple(sorted(map(tuple, factors))), {})
        for e, c in num.items():
            _dict_add_term(cur, tuple(e), c)
    return MultiRational(nvars, {den: numerator_arrays(nvars, num)
                                 for den, num in merged.items() if num})


def piece_dicts(rational: MultiRational
                ) -> Dict[Tuple, Dict[Tuple[int, ...], int]]:
    """Denominator -> numerator dict of each piece: the form that
    :func:`rational_from_pieces` takes."""
    return {den: dict(zip(map(tuple, exps.tolist()), coeffs.tolist()))
            for den, (exps, coeffs) in rational.pieces.items()}


def rational_from_json(obj) -> MultiRational:
    """The MultiRational that ``MultiRational.to_json_obj`` wrote as obj."""
    return rational_from_pieces(obj["variables"], [
        ({tuple(e): int(c) for e, c in piece["numerator"]},
         piece["denominator_factors"]) for piece in obj["pieces"]])


def denominator_factors(rational: MultiRational) -> List[Tuple[int, ...]]:
    """The distinct (1 - u^a) factors of any piece of the rational."""
    seen = set()
    for den in rational.pieces:
        seen.update(den)
    return sorted(seen)


def _dict_mul(a: Dict[Exponent, int], b: Dict[Exponent, int]
              ) -> Dict[Exponent, int]:
    out: Dict[Exponent, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = norm_exponent(x + y for x, y in zip(ea, eb))
            _dict_add_term(out, e, ca * cb)
    return out


def combine(rational: MultiRational
            ) -> Tuple[Dict[Exponent, int], Tuple[Tuple[int, ...], ...]]:
    """Single quotient (numerator, factors) over the common denominator.

    The common denominator is the multiset max of the piece denominators.
    Exact but potentially large; meant for small closed forms.
    """
    common = Counter()
    for den in rational.pieces:
        cnt = Counter(den)
        for f, k in cnt.items():
            common[f] = max(common[f], k)
    numerator: Dict[Exponent, int] = {}
    for den, num in piece_dicts(rational).items():
        missing = common - Counter(den)
        piece = dict(num)
        for f, k in missing.items():
            factor_poly = {tuple([0] * rational.nvars): 1, tuple(f): -1}
            for _ in range(k):
                piece = _dict_mul(piece, factor_poly)
        for e, c in piece.items():
            _dict_add_term(numerator, e, c)
    return numerator, tuple(sorted(common.elements()))


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


def element_from_coords(data, coords: Sequence[int]) -> List[int]:
    """e-coordinates M U^-1 coords of the element with the given
    U-coordinates of a permutation part, one matrix-vector product at a
    time; reference for the stacked product of
    ``selberg.affine_conjugacy_classes``."""
    return mat_vec(data.m_basis, mat_vec(data.uinv, coords))


def _cycle_average_diffs(p, e_coords) -> List[Fraction]:
    """Differences of the cycle averages against the last cycle's average."""
    vec = list(e_coords) + [0]
    avgs = [Fraction(sum(vec[i] for i in cyc), len(cyc)) for cyc in p.cycles()]
    return [a - avgs[-1] for a in avgs[:-1]]


def fraction_free_coordinate_bounds(data, torsion_coords, max_spread):
    """The free-coordinate box from Fraction cycle-average differences and
    their Fraction inverse; reference for the integer
    ``selberg._free_coordinate_bounds``."""
    dim = len(data.free_idx)
    if dim == 0:
        return [], []
    n1 = len(data.m_basis)

    def diffs(torsion, free_idx=None):
        coords = [0] * n1
        for pos, idx in enumerate(data.torsion_idx):
            coords[idx] = torsion[pos]
        if free_idx is not None:
            coords[free_idx] = 1
        return _cycle_average_diffs(data.p, element_from_coords(data, coords))

    offset = diffs(torsion_coords)
    cols = [diffs([0] * len(data.torsion_idx), idx) for idx in data.free_idx]
    inv = fraction_inverse([[cols[j][i] for j in range(dim)]
                            for i in range(dim)])
    center = [-sum(row[j] * offset[j] for j in range(dim)) for row in inv]
    radius = [sum(abs(x) for x in row) * max_spread for row in inv]
    return ([math.floor(c - r) for c, r in zip(center, radius)],
            [math.ceil(c + r) for c, r in zip(center, radius)])


def reduce_coords(data, e_coords: Sequence[int]) -> Tuple[int, ...]:
    """Canonical U-coordinates of the coset of an element of M, through
    the adjugate of M rather than its Smith form."""
    adj, det = adjugate_and_det(data.m_basis)
    w = mat_vec(adj, e_coords)
    if any(x % det for x in w):
        raise ArithmeticError("element is not in the translation part")
    c = mat_vec(data.u, [x // det for x in w])
    return tuple(x % d if d else x for x, d in zip(c, data.divisors))


def conjugate_key(gamma, data_by_perm, p, e_coords):
    """Minimal (permutation, coset) key over the finite conjugation orbit,
    one conjugate at a time."""
    best = best_elem = None
    for q in gamma.perms:
        p2 = q.compose(p).compose(q.inverse())
        data2 = data_by_perm[p2.images]
        coords = reduce_coords(data2, mat_vec(q.basis_matrix(), e_coords))
        key = (p2.images, coords)
        if best is None or key < best:
            best = key
            best_elem = (p2, element_from_coords(data2, coords))
    return best, best_elem


def class_weight(data, e_coords: Sequence[int]) -> int:
    """Centralizer index by one lattice membership test per commuting
    permutation."""
    p = data.p

    def fixing(perms, image) -> int:
        return sum(1 for q in perms
                   if q.compose(p).images == p.compose(q).images
                   and image.contains([a - b for a, b in zip(
                       e_coords, mat_vec(q.basis_matrix(), e_coords))]))

    qg = fixing(all_permutations(data.n), data.image_lambda)
    qgamma = fixing(data.perms, data.image_m)
    if qg % qgamma:
        raise ArithmeticError("permutation centralizer counts are inconsistent")
    return data.fixed_index * (qg // qgamma)


def per_permutation_class_weights(data, reps) -> List[int]:
    """Centralizer indices of the classes of p with these e-coordinate rows,
    one int64 pass over all rows per commuting permutation q; the reference
    for the stacked ``selberg._class_weights``."""
    p = data.p
    e = np.array(reps, dtype=np.int64)

    def fixing(perms, image):
        mods = np.array(image.moduli, dtype=np.int64)
        count = 0
        for q in perms:
            if q.compose(p) == p.compose(q):
                w = (e - e @ np.array(q.basis_matrix()).T) @ np.array(image.u).T
                count += (np.where(mods > 0, w % np.maximum(mods, 1), w)
                          == 0).all(axis=1)
        return count

    qg = fixing(all_permutations(data.n), data.image_lambda)
    qgamma = fixing(data.perms, data.image_m)
    if (qg % qgamma).any():
        raise ArithmeticError("permutation centralizer counts are inconsistent")
    return [data.fixed_index * r for r in (qg // qgamma).tolist()]


class ConjugacyClass(Value):
    """A conjugacy class: canonical representative, centralizer-index weight,
    and the conjugation-invariant lengths."""

    __slots__ = _fields = ("representative", "weight", "lengths")

    def __init__(self, representative: AffineElement, weight: int,
                 lengths: LengthVector):
        self._assign(representative, weight, lengths)


def class_list(result) -> List[ConjugacyClass]:
    """The classes of a :func:`selberg.affine_conjugacy_classes` result as
    objects, in its order: each e-coordinate row built as an element, its
    weight as an int and its gaps over the part's L as Fractions."""
    return [ConjugacyClass(
        AffineElement(LatticeVector.from_basis_coords(result.n, e), p),
        weight, LengthVector(tuple(Fraction(g, lcm) for g in row),
                             result.scale))
        for p, reps, weights, gaps, lcm in result.parts
        for e, weight, row in zip(reps.tolist(), weights.tolist(),
                                  gaps.tolist())]


def naive_affine_classes(gamma, max_deg: int, scale: str = GEODESIC):
    """The affine class scan point by point: every survivor of the spread
    filter is built as an element, measured in Fractions and keyed one
    conjugate at a time, and every class weighed on its own; test oracle for
    :func:`selberg.affine_conjugacy_classes`."""
    n = gamma.n
    f = scale_factor(n, scale)
    max_spread = Fraction(max_deg, f)
    data_by_perm = {p.images: selberg._PermCosetData(gamma, p)
                    for p in gamma.perms}
    classes = {}

    def collect(extra: int) -> None:
        for p in gamma.perms:
            data = data_by_perm[p.images]
            torsion_ranges = [range(data.divisors[i]) for i in data.torsion_idx]
            for torsion in itertools.product(*torsion_ranges):
                los, his = fraction_free_coordinate_bounds(data, torsion,
                                                           max_spread)
                for block in selberg._short_box_points(
                        data, torsion, los, his, f, max_deg, extra):
                    for coords in block.tolist():
                        e_coords = element_from_coords(data, coords)
                        elem = AffineElement(
                            LatticeVector.from_basis_coords(n, e_coords), p)
                        lengths = fraction_length_vector(elem, scale)
                        if sum(lengths.values) > max_deg:
                            continue
                        key, rep = conjugate_key(gamma, data_by_perm, p,
                                                 e_coords)
                        if key in classes:
                            continue
                        if extra:
                            raise BoxExhaustionError(
                                "doubling the enumeration box changed the "
                                "class list")
                        classes[key] = rep

    collect(0)
    widths = [0]
    for p in gamma.perms:
        data = data_by_perm[p.images]
        los, his = fraction_free_coordinate_bounds(
            data, [0] * len(data.torsion_idx), max_spread)
        widths.extend(h - l for l, h in zip(los, his))
    collect(max(widths) // 2 + 1)

    out = []
    for key in sorted(classes):
        p2, e_coords = classes[key]
        elem = AffineElement(LatticeVector.from_basis_coords(n, e_coords), p2)
        out.append(ConjugacyClass(
            representative=elem,
            weight=class_weight(data_by_perm[p2.images], e_coords),
            lengths=fraction_length_vector(elem, scale)))
    return out


def find_conjugator(g1: AffineElement, g2: AffineElement
                    ) -> Optional[AffineElement]:
    """An explicit group element h with h g1 h^{-1} = g2, if one exists."""
    n = g1.n
    for q in all_permutations(n):
        if q.compose(g1.p).compose(q.inverse()).images != g2.p.images:
            continue
        # need (1 - p2) x = v2 - q(v1) with x integral
        p2_mat = g2.p.basis_matrix()
        one_minus = [[int(i == j) - p2_mat[i][j] for j in range(n - 1)]
                     for i in range(n - 1)]
        target = [a - b for a, b in zip(
            g2.v.to_basis_coords(),
            mat_vec(q.basis_matrix(), g1.v.to_basis_coords()))]
        x = ImageLattice(one_minus).solve(target)
        if x is not None:
            h = AffineElement(LatticeVector.from_basis_coords(n, x), q)
            if h * g1 * h.inverse() == g2:
                return h
    return None


def _unit_root(turn: Fraction, bits: int) -> Tuple[int, int]:
    """exp(2 pi i turn) times 2^bits, each part rounded to the nearest
    integer.

    At bits + 20 bits the argument 2 turn in [0, 2) is within 2^(-bits-19)
    of exact, which moves cos(pi x) and sin(pi x) by at most
    pi 2^(-bits-19), and mpmath's cospi/sinpi add a few units of
    2^(-bits-20); so each part is within 2^(-bits-16) of exact before the
    final rounding.
    """
    with mp.workprec(bits + 20):
        x = mpf(2 * turn.numerator) / turn.denominator
        return (int(mp.nint(mp.ldexp(mp.cospi(x), bits))),
                int(mp.nint(mp.ldexp(mp.sinpi(x), bits))))


def lfunction_error_bound(degree: int, bits: int) -> Fraction:
    """(K + 4) 2^(K - 1 - P), for K = degree and P = bits: the a-priori
    bound on every coefficient error of :func:`fixed_point_product` over K
    factors.

    Each part of a root is off by at most 2^(-P-1) + 2^(-P-16) (see
    :func:`_unit_root`), so |r - rho| < 2^-P and |r| < 1 + 2^-P, and each
    rounded product is off by less than 2^-P in modulus.  Let c_j(i) be the
    exact coefficients after j factors, so |c_j(i)| <= binom(j, i) <= 2^j,
    and E_j the largest modulus of the error of a computed one.
    Subtracting the two recurrences,

        e_j(i) = e_{j-1}(i) - r e_{j-1}(i-1) - (r - rho) c_{j-1}(i-1) + delta,

    so E_j <= (2 + 2^-P) E_{j-1} + 2^-P (2^(j-1) + 1) with E_0 = 0, and

        E_K <= 2^-P (1 + 2^(-P-1))^K sum_j 2^(K-j) (2^(j-1) + 1)
            <  2^(K-1-P) (K + 2) (1 + K 2^-P)  <=  (K + 4) 2^(K-1-P),

    using (1 + x)^K <= 1 + 2Kx for Kx <= 1 and K (K + 2) <= 2^(P+1).  Both
    hold whenever (K + 4) 2^(K-1-P) < 1/2.
    """
    return Fraction(degree + 4, 2) * Fraction(2) ** (degree - bits)


def fixed_point_product(turns: Sequence[Fraction], bits: int
                        ) -> Tuple[List[int], List[int]]:
    """prod_t (1 - rho_t u), rho_t = exp(2 pi i t), in fixed point, one
    factor at a time: the fixed-point linear oracle for the exact L-function
    of :func:`latzeta.zeta.lfunction_with_deviation`.

    Returns the real and the imaginary parts of the K + 1 coefficients as
    ints scaled by 2^P, P = bits, each root rounded to P bits once per
    distinct turn and each factor applied to the running coefficients in
    place, c_i -= round(r c_{i-1}).  Every coefficient is within
    :func:`lfunction_error_bound` of exact.
    """
    roots: Dict[Fraction, Tuple[int, int]] = {}
    half = 1 << (bits - 1)
    re = [1 << bits] + [0] * len(turns)
    im = [0] * (len(turns) + 1)
    for k, turn in enumerate(turns, start=1):
        rho = roots.get(turn)
        if rho is None:
            rho = roots[turn] = _unit_root(turn, bits)
        a, b = rho
        for i in range(k, 0, -1):
            x, y = re[i - 1], im[i - 1]
            re[i] -= (a * x - b * y + half) >> bits
            im[i] -= (a * y + b * x + half) >> bits
    return re, im


def conjugate_by(g: AffineElement, h: AffineElement) -> AffineElement:
    """h * g * h^-1, in one pass over the raw coordinates: the permutation
    part c has c[hp[i]] = hp[gp[i]], the translation part is
    h.v + hp(g.v) - c(h.v)."""
    hp, gp, hv = h.p.images, g.p.images, h.v.coords
    c = [0] * len(hp)
    t = list(hv)
    for i, x in enumerate(g.v.coords):
        c[hp[i]] = hp[gp[i]]
        t[hp[i]] += x
    for i, x in enumerate(hv):
        t[c[i]] -= x
    m = min(t)
    return AffineElement(LatticeVector(len(t), tuple(x - m for x in t)),
                         Permutation(tuple(c)))


def is_integral(lengths: LengthVector) -> bool:
    return all(x.denominator == 1 for x in lengths.values)


# ---------------------------------------------------------------------------
# the cone route by other means: the closed dominant cone cut into its open
# faces, face sublattices by integer kernels of the face conditions, base
# points by a floor shift of each coset representative, and pieces through
# a weight map; the reference for selberg_rational_translation


class DivergentSeriesError(ValueError):
    """A cone generator has zero weight, so its geometric series diverges."""


class FaceDescriptor(Value):
    """A face of the dominant cone x1 >= ... >= xn: S is the set of forced
    equalities.  A face with blocks (n1, .., nr) is coordinatized by the
    strictly decreasing block values t1 > ... > t_{r-1} > t_r = 0, so its
    lattice points live in Z^{r-1} ("t-coordinates"), or by its edge forms
    alpha_i = t_i - t_{i+1}, the gaps at its block boundaries, in which its
    cone is alpha >= 1."""

    __slots__ = _fields = ("n", "zero_set")

    def __init__(self, n: int, zero_set: frozenset = frozenset()):
        if not all(1 <= j <= n - 1 for j in zero_set):
            raise ValueError("zero_set must be a subset of {1, .., n-1}")
        self._assign(n, zero_set)

    @property
    def blocks(self) -> Tuple[int, ...]:
        sizes = []
        cur = 1
        for j in range(1, self.n):
            if j in self.zero_set:
                cur += 1
            else:
                sizes.append(cur)
                cur = 1
        sizes.append(cur)
        return tuple(sizes)

    @property
    def dim(self) -> int:
        """Dimension of the face cone in t-coordinates."""
        return len(self.blocks) - 1

    def boundary_positions(self) -> Tuple[int, ...]:
        """1-based positions j where the face's length l_j is supported."""
        out = []
        acc = 0
        for size in self.blocks[:-1]:
            acc += size
            out.append(acc)
        return tuple(out)


def all_faces(n: int):
    """The 2^(n-1) faces of the dominant cone, the open cone first."""
    for r in range(n):
        for combo in itertools.combinations(range(1, n), r):
            yield FaceDescriptor(n, frozenset(combo))


def face_condition_rows(n: int, zero_set) -> List[List[int]]:
    rows = []
    for j in sorted(zero_set):
        row = [0] * (n - 1)
        if j <= n - 2:
            row[j - 1] = 1
            row[j] = -1
        else:
            row[n - 2] = 1
        rows.append(row)
    return rows


def face_sublattice_t_basis(lattice_basis: Sequence[Sequence[int]],
                            face: FaceDescriptor) -> List[List[int]]:
    """Basis, in t-coordinates, of (lattice ∩ face span)."""
    n = face.n
    k = face.dim
    rows = face_condition_rows(n, face.zero_set)
    basis = [list(r) for r in lattice_basis]
    if rows:
        kernel = kernel_basis(mat_mul(rows, basis))
    else:
        kernel = [[1 if i == j else 0 for i in range(n - 1)]
                  for j in range(n - 1)]
    if len(kernel) != k:
        raise ArithmeticError("face sublattice has unexpected rank")
    starts = []
    acc = 1
    for size in face.blocks[:-1]:
        starts.append(acc)
        acc += size
    cols = []
    for z in kernel:
        vec = mat_vec(basis, z)
        cols.append([vec[s - 1] for s in starts])
    return [[cols[j][i] for j in range(k)] for i in range(k)]


class ConeDecomposition(NamedTuple):
    """cone ∩ lattice = disjoint union of base_point + N0-span of generators,
    in the t-coordinates of the face: the map (base, k1..kr) ->
    base + sum k_j a_j is a bijection onto the lattice points of the open
    cone."""

    base_points: Tuple[Tuple[int, ...], ...]
    generators: Tuple[Tuple[int, ...], ...]


def edge_form_basis(t_basis: Sequence[Sequence[int]]) -> List[List[int]]:
    """The column HNF, in the edge forms alpha_i = t_i - t_{i+1}
    (alpha_k = t_k), of the lattice with the square t-basis t_basis: the
    basis that lattice.cone_decompose takes."""
    b = [[int(x) for x in row] for row in t_basis]
    return hnf_columns([[x - y for x, y in zip(row, nxt)]
                        for row, nxt in zip(b, b[1:] + [[0] * len(b)])])


def t_decomposition(face: FaceDescriptor, t_basis=None) -> ConeDecomposition:
    """The open face cone's decomposition on the lattice with the t-basis
    t_basis (by default Z^k), from lattice.cone_decompose on the closed
    orthant alpha >= 0: each coset's base point in [0, mult_j) becomes the
    one in [1, mult_j] by adding mult_j e_j wherever alpha_j = 0.  Its base
    points are written in t-coordinates, t_i = sum_{j >= i} alpha_j, and
    sorted, with the generators mult_j (1^j, 0)."""
    k = face.dim
    if k == 0:
        return ConeDecomposition(((),), ())
    h = edge_form_basis(t_basis if t_basis is not None
                        else identity_matrix(k))
    mults = edge_multiples(h)[2]
    alpha = cone_decompose(h)
    alpha = np.where(alpha == 0, mults, alpha)
    t = np.cumsum(alpha[:, ::-1], axis=1)[:, ::-1]
    return ConeDecomposition(
        tuple(sorted(map(tuple, t.tolist()))),
        tuple((m,) * (j + 1) + (0,) * (k - j - 1)
              for j, m in enumerate(mults)))


def triangular_box_walk(h: Sequence[Sequence[int]],
                        upper: Sequence[int]) -> List[Tuple[int, ...]]:
    """Every alpha with 0 <= alpha_j < upper_j in the lattice of the lower
    triangular H, in lexicographic order, by a walk over the whole box:
    alpha = H z is solved for z by forward substitution, one exact division
    per coordinate."""
    out = []
    for alpha in itertools.product(*map(range, upper)):
        z = []
        for j, row in enumerate(h):
            rest = alpha[j] - sum(x * y for x, y in zip(row, z))
            if rest % row[j]:
                break
            z.append(rest // row[j])
        else:
            out.append(alpha)
    return out


def floor_shift_cone_decompose(face: FaceDescriptor,
                               lattice_basis=None) -> ConeDecomposition:
    """The decomposition of :func:`t_decomposition` on the lattice with the
    t-basis lattice_basis, by other means: each base point from its Smith
    coset representative y as y - sum_j c_j a_j, with
    c_j = floor((alpha_j(y) - 1) / mult_j)."""
    k = face.dim
    if k == 0:
        return ConeDecomposition(((),), ())
    basis = ([[int(x) for x in row] for row in lattice_basis]
             if lattice_basis is not None else identity_matrix(k))
    adj, det = adjugate_and_det(basis)
    mults, x_cols = [], []
    prefix = [0] * k
    for j in range(k):
        prefix = [x + row[j] for x, row in zip(prefix, adj)]
        mult = abs(det) // math.gcd(det, *prefix)
        if any(mult * x % det for x in prefix):
            raise SingularMatrixError("generators do not lie in the lattice")
        mults.append(mult)
        x_cols.append([mult * x // det for x in prefix])
    generators = [(m,) * (j + 1) + (0,) * (k - j - 1)
                  for j, m in enumerate(mults)]
    u, d, _ = snf_with_transforms([list(r) for r in zip(*x_cols)])
    to_t = mat_mul(basis, unimodular_inverse(u))
    base_points = []
    for combo in itertools.product(*(range(x) for x in snf_diagonal(d))):
        y = [sum(a * c for a, c in zip(row, combo)) for row in to_t]
        shifts = [(a - b - 1) // m for a, b, m in zip(y, y[1:] + [0], mults)]
        acc = 0
        for i in reversed(range(k)):
            acc += shifts[i] * mults[i]
            y[i] -= acc
        base_points.append(tuple(y))
    return ConeDecomposition(tuple(sorted(base_points)), tuple(generators))


def face_length_exponents(face: FaceDescriptor, scale: str = GEODESIC
                          ) -> Callable[[Sequence[int]], Tuple[int, ...]]:
    """The linear map t-coordinates -> length exponents (l_1, .., l_{n-1}).

    On the face, l is supported on the block boundaries: the boundary after
    block i carries t_i - t_{i+1} (with t_r = 0).
    """
    n = face.n
    f = scale_factor(n, scale)
    positions = face.boundary_positions()
    k = face.dim

    def weight(t: Sequence[int]) -> Tuple[int, ...]:
        exps = [0] * (n - 1)
        for idx, pos in enumerate(positions):
            nxt = t[idx + 1] if idx + 1 < k else 0
            exps[pos - 1] = f * (t[idx] - nxt)
        return tuple(exps)

    return weight


def rational_cone_sum(dec: ConeDecomposition,
                      weight: Callable[[Sequence[int]], Sequence[int]],
                      nvars: Optional[int] = None) -> MultiRational:
    """Sum of u^{weight(x)} over the decomposed cone, as an exact rational.

    ``weight`` must be linear on the cone's span with nonnegative integer
    values on the lattice.  Each generator contributes a geometric factor
    1/(1 - u^{weight(a_j)}); a generator of weight zero makes the series
    diverge and raises.
    """
    if nvars is None:
        probe = dec.base_points[0] if dec.base_points else ()
        nvars = len(weight(probe))
    factors = []
    for g in dec.generators:
        w = tuple(int(x) for x in weight(g))
        if any(x < 0 for x in w):
            raise ValueError(f"negative weight exponent {w} on generator {g}")
        if all(x == 0 for x in w):
            raise DivergentSeriesError(f"generator {g} has zero weight")
        factors.append(w)
    numerator = {}
    for b in dec.base_points:
        w = tuple(int(x) for x in weight(b))
        if any(x < 0 for x in w):
            raise ValueError(f"negative weight exponent {w} on base point {b}")
        numerator[w] = numerator.get(w, 0) + 1
    return rational_from_pieces(nvars, [(numerator, factors)])


def per_permutation_images(gamma) -> Dict[Tuple, int]:
    """HNF of q·basis -> the number of permutations q giving that image
    lattice, in the order of their first q, by one HNF per permutation; the
    reference for ``selberg._image_lattices``."""
    images = {}
    for q in all_permutations(gamma.n):
        key = tuple(map(tuple, hnf_columns(mat_mul(q.basis_matrix(),
                                                   gamma.basis))))
        images[key] = images.get(key, 0) + 1
    return images


def face_groups(gamma) -> Dict[Tuple[frozenset, Tuple], int]:
    """(zero set, t-HNF of the face sublattice) -> the number of coordinate
    permutations q whose image q(subgroup) cuts that face sublattice, by one
    integer kernel per distinct image and face; the images and their counts
    come from :func:`per_permutation_images`, one HNF of q·basis per
    permutation."""
    n = gamma.n
    groups = {}
    for image, count in per_permutation_images(gamma).items():
        for face in all_faces(n):
            basis_key = () if face.dim == 0 else tuple(map(tuple, hnf_columns(
                face_sublattice_t_basis([list(r) for r in image], face))))
            key = (face.zero_set, basis_key)
            groups[key] = groups.get(key, 0) + count
    return groups


def per_permutation_rational(gamma, scale: str = GEODESIC,
                             groups=None) -> MultiRational:
    """The rational form with one face pass per coordinate permutation and
    the floor-shift decomposition: the reference for the pass per distinct
    image lattice in gap coordinates.  ``groups`` is ``face_groups(gamma)``,
    computed when not given."""
    n = gamma.n
    pieces = []
    for (zero_set, basis_key), count in (groups or face_groups(gamma)).items():
        face = FaceDescriptor(n, zero_set)
        dec = floor_shift_cone_decompose(
            face, [list(r) for r in basis_key] or None)
        piece = rational_cone_sum(dec, face_length_exponents(face, scale),
                                  nvars=n - 1)
        for den, num in piece_dicts(piece).items():
            pieces.append(({e: gamma.index * count * c
                            for e, c in num.items()}, den))
    return rational_from_pieces(n - 1, pieces)


def cube_coefficients(rational: MultiRational, f: int, top: int
                      ) -> np.ndarray:
    """The coefficients of the rational's series at the exponents f g,
    g in [0, top]^nvars, as one dense int64 array indexed by g: each
    piece's numerator placed on the cube, then a running sum with step a
    along the axis of each factor 1 - u_i^(f a).

    Both the cone route and :func:`per_permutation_rational` are fixed by
    this cube when D divides top: the route's pieces have period f D on
    every axis, and each open face's piece has it on every axis where the
    exponent is positive, so every exponent reduces into the cube
    [0, f D]^nvars by steps that keep both coefficients."""
    shape = (top + 1,) * rational.nvars
    out = np.zeros(shape, dtype=np.int64)
    for den, num in piece_dicts(rational).items():
        piece = np.zeros(shape, dtype=np.int64)
        for e, c in num.items():
            if any(x % f for x in e):
                raise ValueError(f"exponent {e} is not a multiple of {f}")
            if max(e, default=0) <= f * top:
                piece[tuple(x // f for x in e)] += c
        for factor in den:
            (axis, a), = [(i, x) for i, x in enumerate(factor) if x]
            if a % f:
                raise ValueError(f"factor {factor} is not a multiple of {f}")
            view = np.moveaxis(piece, axis, 0)
            for i in range(a // f, top + 1):
                view[i] += view[i - a // f]
        out += piece
    return out
