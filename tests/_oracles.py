"""Test-only oracles: slow, obviously correct references for the engines in
``src/``."""

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from mpmath import mp, mpf

from latzeta import selberg
from latzeta.errors import BoxExhaustionError, SingularMatrixError
from latzeta.intmat import ImageLattice, adjugate_and_det, mat_vec
from latzeta.lattice import (FACTORIAL, GEODESIC, AffineElement,
                             LatticeVector, LengthVector, Permutation,
                             all_permutations, scale_factor)
from latzeta.polynomials import (Exponent, IntPolynomial, MultiRational,
                                 MultiSeries, _dict_add_term, norm_exponent)


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
    for den, num in rational.pieces.items():
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
        return _cycle_average_diffs(data.p, data.element_from_coords(coords))

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
            best_elem = (p2, data2.element_from_coords(coords))
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
                        e_coords = data.element_from_coords(coords)
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
        out.append(selberg.ConjugacyClass(
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
