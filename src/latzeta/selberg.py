"""Several-variable Selberg-type zeta of a finite-index subgroup.

For a translation subgroup the conjugacy classes are single lattice
elements, and the closed form is a finite sum of cone sums: summing the
stabilizer size over a class's sorted pattern is the same as summing, over
all coordinate permutations q, the points of q(subgroup) that land in the
closed dominant cone.  In gap coordinates that cone is an orthant, so each
distinct image lattice contributes one exact geometric-series rational
function with one factor per variable over a box of numerator terms.  The
series is periodic, with period f D in every variable, so it is one table
on a period cell: each cell's permutation count comes from one product of
its gaps with the permuted Smith weights, and the boxes, gathered onto the
table, check the rational by an exact identity with no degree bound.

For a split affine subgroup M x| P, conjugacy classes are enumerated
exactly: for fixed permutation part p, translation parts live in the cosets
of (1-p)M inside M, which P folds together.  Each part's coset boxes,
widened for a self-check, are one int64 pass filtered by the spread of the
cycle sums times the lcm L of the cycle lengths; the survivors are keyed in
int64 by integer conjugation maps, and one sort of the keys makes them
distinct and checks that the widening found no new one.  Each part's
classes stay int64 arrays, of representatives, centralizer-index weights
and lengths times L, up to the merged series.

Every int64 kernel checks a proven bound on its entries before it
allocates, the box scans a cap on their cell count, the cone route the
same cap on its base points, and the comparison a price on the products of
its polynomial identity; otherwise they raise :class:`ResourceCapError`.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BoxExhaustionError, ResourceCapError
from .intmat import (
    ImageLattice,
    _int_stack,
    adjugate_and_det,
    hnf_columns,
    kernel_basis,
    mat_mul,
    snf_diagonal,
    snf_with_transforms,
    triangular_members,
    unimodular_inverse,
)
from .lattice import (
    GEODESIC,
    Permutation,
    all_permutations,
    basis_matrices,
    cone_decompose,
    edge_multiples,
    length_gaps,
    scale_factor,
)
from .polynomials import (IntPolynomial, MultiRational, array_rows,
                          first_difference)
from .quotient import AffineSubgroup, TranslationSubgroup
from .zeta import direction_orders


def _check_int64(context: str, what: str, bound: int) -> None:
    """Raise before allocating unless the proven bound fits in int64."""
    if bound >= 2 ** 63:
        raise ResourceCapError(
            f"{context}: {what} can reach {bound}, above the int64 bound 2^63")


# cells of the min(D, span+1)^(n-1) period table of a translation series
# (and coordinate permutations it counts over), of all the coset boxes an
# affine class scan may search, and entries of the permuted bases and base
# points of all the cone decompositions of a rational closed form
SERIES_GRID_CELLS = 1 << 22
# cells times permuted weight vectors a period table tests per numpy block,
# and box points an affine class scan filters per block
_TABLE_BLOCK = 1 << 16
_BOX_BLOCK = 1 << 16
# word-pairs of the comparison's products, a dense slot (0.75 us, 84 bytes)
# counting 128: at the cap about 6 s and 700 MB, like 2^22-entry lists
COMPARISON_STEPS = 1 << 30


class PeriodTable:
    """A translation Selberg series on the cells g in [0, size)^nvars: each
    row of the int64 array ``terms`` is the exponent f g of a nonzero cell,
    beside its coefficient in ``coeffs`` (int64, or an object array of ints
    beyond it).  The series has period f D in every variable, D =
    ``divisor``, so a complete table (size = D) is the whole series,
    P / prod_i (1 - u_i^(f D)); a smaller one holds every term of total
    degree below f size."""

    __slots__ = ("nvars", "factor", "divisor", "size", "period", "complete",
                 "terms", "coeffs")

    def __init__(self, nvars: int, factor: int, divisor: int, size: int,
                 terms: np.ndarray, coeffs: np.ndarray):
        self.nvars, self.factor, self.divisor, self.size = (
            nvars, factor, divisor, size)
        self.period, self.complete = factor * divisor, size == divisor
        self.terms, self.coeffs = terms, coeffs

    def to_json_obj(self, max_deg: int):
        """The terms of total degree at most max_deg, as a MultiSeries with
        that cutoff writes them."""
        keep = self.terms.sum(axis=1) <= max_deg
        return {"variables": self.nvars, "cutoff": max_deg,
                "terms": array_rows(self.terms[keep], self.coeffs[keep])}


def selberg_series_translation(gamma: TranslationSubgroup, max_deg: int,
                               scale: str = GEODESIC) -> PeriodTable:
    """The Selberg series of a translation subgroup as its period table.

    An element's class weight is N * (the stabilizer of its sorted pattern).
    D annihilates the quotient, so D Lambda lies in every q(subgroup) and
    the series has period f D in each variable.  The cells g lie in
    [0, size)^(n-1), size = min(D, max_deg // f + 1), which holds every
    exponent of total degree up to max_deg; by orbit-stabilizer the one at
    g is N * #{q : q P(g) in the subgroup}, P(g) the sorted pattern with
    descending gaps g.  x is a member when w . x = 0 mod d, w = (u, -sum u)
    for each Smith row u with d > 1, and w . q P(g) = sum_j g_j W_j, W_j
    the sum of the last j entries of w permuted by q: one product of the
    gaps with the distinct W, in blocks of cells.
    """
    n = gamma.n
    f = scale_factor(n, scale)
    divisor = gamma.image.diag[-1]
    context = f"translation Selberg series to degree {max_deg}"
    _check_int64(context, "the largest elementary divisor", divisor)
    size = min(divisor, max_deg // f + 1)
    cells = size ** (n - 1)
    if max(cells, math.factorial(n)) > SERIES_GRID_CELLS:
        raise ResourceCapError(
            f"{context}: the period table's sub-grid of min(D, span+1)^(n-1)"
            f" = {size}^{n - 1} cells, or its {n}! permutations, are above "
            f"the cap of {SERIES_GRID_CELLS}")
    rows = [(list(row) + [-sum(row)], d)
            for row, d in zip(gamma.image.u, gamma.image.diag) if d > 1]
    weights = _permuted_weights(rows, n)
    w_max = max(map(abs, itertools.chain(*weights)), default=0)
    _check_int64(context, f"a Smith residue (n-1)*(size-1)*max|W| = "
                 f"{n - 1}*{size - 1}*{w_max}", (n - 1) * (size - 1) * w_max)
    w_mat = np.array(list(weights), dtype=np.int64).reshape(len(weights), -1)
    mult = np.array(list(weights.values()))
    step = max(1, _TABLE_BLOCK // len(w_mat))
    gaps, counts = [], []
    for start in range(0, cells, step):
        flat = np.arange(start, min(start + step, cells), dtype=np.int64)
        g = np.empty((len(flat), n - 1), dtype=np.int64)
        for j in range(n - 2, -1, -1):
            flat, g[:, j] = np.divmod(flat, size)
        ok = np.ones((len(g), len(w_mat)), dtype=bool)
        for r, (_, d) in enumerate(rows):
            ok &= g @ w_mat[:, r * (n - 1):(r + 1) * (n - 1)].T % d == 0
        count = ok @ mult
        gaps.append(g[count > 0])
        counts.append(count[count > 0])
    # a count is at most n!, so N * count is int64 below N * n! and an exact
    # object array of Python ints above it
    coeffs = _int_stack(np.concatenate(counts),
                        gamma.index * math.factorial(n)) * gamma.index
    return PeriodTable(n - 1, f, divisor, size, np.concatenate(gaps) * f,
                       coeffs)


def _permuted_weights(rows, n: int) -> Dict[Tuple[int, ...], int]:
    """The distinct W over the n! permutations q, as residues of least
    absolute value, each with the number of q giving it: W reads only how q
    orders the columns c of the rows (w, d) mod d, so one pass over their
    distinct arrangements counts each prod_c (multiplicity of c)! times."""
    a = sorted(zip(*[[x % d for x in w] for w, d in rows])) or [()] * n
    count = math.prod(math.factorial(a.count(c)) for c in set(a))
    weights: Dict[Tuple[int, ...], int] = {}
    while True:
        key = tuple((s + d // 2) % d - d // 2 for r, (_, d) in enumerate(rows)
                    for s in itertools.accumulate(c[r] for c in a[:0:-1]))
        weights[key] = weights.get(key, 0) + count
        # the next arrangement: raise the last ascent, reverse what follows
        i = next((i for i in range(n - 2, -1, -1) if a[i] < a[i + 1]), -1)
        if i < 0:
            return weights
        j = max(j for j in range(i + 1, n) if a[j] > a[i])
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


def selberg_identity(gamma: TranslationSubgroup, rational: MultiRational,
                     table: PeriodTable) -> Tuple[bool, Optional[dict]]:
    """Whether the rational is the periodic extension of the table.  D e_j
    must lie in the subgroup (certified by the basis's column HNF), and
    each piece must be num / prod_i (1 - u_i^(f m_i)), one factor per axis,
    m_i | D, every numerator exponent f alpha in the box 0 <= alpha_i < m_i.
    Its coefficient at f g is then its numerator at f (g mod m) (Beck and
    Robins, Thm 3.5), so the boxes, gathered onto the table's cube
    [0, size)^(n-1), must sum to its cells: a complete table is a whole
    period, with no degree bound.  The second value is the first failure:
    {"period": D}, {"denominator_factor": [..]}, {"denominator_factors":
    [[..], ..]} (a piece short of an axis) or, first in term order among
    the differing cells and the exponents outside a box, {"exponent": [..]}.
    The numerator and table arrays are read as they are: the guards are
    reductions over them (the sum of |coefficients| in Python ints), and
    each box, and the table, is one scatter of its coefficients.
    """
    n1, f, size = table.nvars, table.factor, table.size
    context = "identity of the rational closed form and the period table"
    if not triangular_members(hnf_columns(gamma.basis), [
            [table.divisor * (i == j) for i in range(n1)]
            for j in range(n1)]).all():
        return False, {"period": table.divisor}
    boxes = []
    for den, (exps, coeffs) in rational.pieces.items():
        mults = [0] * n1
        for factor in den:
            axes = [(i, a) for i, a in enumerate(factor) if a]
            i, a = axes[0] if len(axes) == 1 else (0, 0)
            if a <= 0 or mults[i] or a % f or table.divisor % (a // f):
                return False, {"denominator_factor": list(factor)}
            mults[i] = a // f
        if not all(mults):
            return False, {"denominator_factors": [list(x) for x in den]}
        boxes.append((mults, exps, coeffs))
    e_max = max((int(exps.max(initial=0)) for _, exps, _ in boxes), default=0)
    _check_int64(context, "a numerator degree (n-1) e_max", n1 * e_max)
    # in Python ints, so that neither |c| nor the sum can wrap
    _check_int64(context, "a sum of terms", sum(
        sum(map(abs, coeffs.tolist())) for _, _, coeffs in boxes)
        + sum(map(abs, table.coeffs.tolist())))
    cube = np.zeros((size,) * n1, dtype=np.int64)
    outside = []
    for mults, exps, coeffs in boxes:
        in_box = ((exps % f == 0) & (exps >= 0)
                  & (exps < f * np.array(mults))).all(axis=1)
        outside.append(exps[~in_box])
        box = np.zeros(np.minimum(mults, size), dtype=np.int64)
        keep = in_box & (exps < f * size).all(axis=1)
        box[tuple((exps[keep] // f).T)] = coeffs[keep]
        cube += box[np.ix_(*[np.arange(size) % m for m in box.shape])]
    # less the table, whose coefficients the guard keeps in int64: what is
    # left is where the sides differ
    cube[tuple((table.terms // f).T)] -= table.coeffs.astype(np.int64)
    exps = np.concatenate([np.transpose(np.unravel_index(
        np.flatnonzero(cube), cube.shape)) * f, *outside])
    if not len(exps):
        return True, None
    degrees = exps.sum(axis=1)
    return False, {"exponent": min(exps[degrees == degrees.min()].tolist())}


def _merge_terms(held) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct keys of the (keys, values) pairs held, nonnegative
    integer codes or rows of them, sorted (rows lexicographically), with
    their summed values, by one sort and one segment sum; zero sums are
    dropped."""
    keys = np.concatenate([k for k, _ in held])
    order = np.lexsort(keys.T[::-1]) if keys.ndim > 1 else np.argsort(keys)
    keys = keys[order]
    step = np.diff(keys, axis=0, prepend=-1)
    starts = np.flatnonzero(step.any(axis=1) if keys.ndim > 1 else step)
    values = np.concatenate([v for _, v in held])[order]
    sums = np.add.reduceat(values, starts) if len(keys) else values
    return keys[starts][sums != 0], sums[sums != 0]


def _image_lattices(gamma: TranslationSubgroup) -> Dict[Tuple, int]:
    """The distinct image lattices q(subgroup) over the n! permutations q,
    keyed by the column HNF of q·basis in the order of their first q, each
    with the number of q giving it.

    The stabilizer S = {s : s·basis in the subgroup} comes from one stacked
    forward substitution of every s·basis against the subgroup's column
    HNF.  For s in S, s(subgroup) is a sublattice of the same index, so it
    is the subgroup, and q(subgroup) depends on the coset q S alone: each
    first q of a coset takes one HNF, with count |S|.  The stack of
    n! (n-1)^2 entries is priced against ``SERIES_GRID_CELLS`` before any
    permutation is listed; above it this raises :class:`ResourceCapError`.
    """
    n = gamma.n
    entries = math.factorial(n) * (n - 1) ** 2
    if entries > SERIES_GRID_CELLS:
        raise ResourceCapError(
            f"cone route of the rational closed form: its {n}! permuted "
            f"bases hold {entries} entries, above the cap of "
            f"{SERIES_GRID_CELLS}")
    perms = list(all_permutations(n))
    # q·basis for every q, with |entries| <= (n-1) max|basis|
    stack = basis_matrices([q.images for q in perms]) @ _int_stack(
        gamma.basis, (n - 1) * max(map(abs, itertools.chain(*gamma.basis))))
    members = triangular_members(hnf_columns(gamma.basis),
                                 stack.transpose(0, 2, 1)).all(axis=1)
    stabilizer = [s for s, member in zip(perms, members) if member]
    position = {q.images: i for i, q in enumerate(perms)}
    covered = [False] * len(perms)
    images: Dict[Tuple, int] = {}
    for i, q in enumerate(perms):
        if not covered[i]:
            images[tuple(map(tuple, hnf_columns(stack[i].tolist())))] = len(
                stabilizer)
            for s in stabilizer:
                # the position of q s
                covered[position[tuple(map(q.images.__getitem__,
                                           s.images))]] = True
    return images


def selberg_rational_translation(gamma: TranslationSubgroup,
                                 scale: str = GEODESIC) -> MultiRational:
    """Exact rational closed form of the translation Selberg series.

    Summing pattern stabilizers over subgroup elements equals summing, over
    all n! coordinate permutations q, the lattice points of q(subgroup) in
    the closed dominant cone.  In gap coordinates g_j = t_j - t_{j+1}
    (g_{n-1} = t_{n-1}) that cone is the orthant g >= 0, so each distinct
    image lattice (:func:`_image_lattices`), weighted by N times the number
    of permutations giving it, is one :func:`cone_decompose` of the column
    HNF of its gap rows: a base point g is the monomial u^(f g), and edge j
    the factor 1 - u_j^(f mult_j).  The result is the periodic extension of
    :func:`selberg_series_translation`'s table (:func:`selberg_identity`).
    Before any cone is decomposed, the base points of all images are
    counted from their edge multiples; above ``SERIES_GRID_CELLS`` of them
    it raises :class:`ResourceCapError`.

    The numerators of the images with one set of edge multiples merge as
    int64 codes of g in the mixed radix mult_j: one sort and one segment
    sum of the weights N * count over all of them.  One divmod per axis
    decodes the distinct codes into the piece's int64 exponent array f g,
    beside its int64 coefficient array.
    """
    n = gamma.n
    f = scale_factor(n, scale)
    cones = []
    for image, count in _image_lattices(gamma).items():
        h = hnf_columns([[a - b for a, b in zip(row, nxt)] for row, nxt in
                         zip(image, image[1:] + ((0,) * (n - 1),))])
        cones.append((h, edge_multiples(h), gamma.index * count))
    points = sum(math.prod(mults) // abs(det)
                 for _, (_, det, mults), _ in cones)
    if points > SERIES_GRID_CELLS:
        raise ResourceCapError(
            f"cone route of the rational closed form: its cone "
            f"decompositions hold {points} base points, above the cap of "
            f"{SERIES_GRID_CELLS}")
    context = "cone route of the rational closed form"
    # a term's coefficient sums N * count over images, whose counts add up
    # to n!
    _check_int64(context, f"a numerator coefficient N * n! = "
                 f"{gamma.index} * {n}!", gamma.index * math.factorial(n))
    # codes lie below prod(mult_j), exponents below f max(mult_j)
    _check_int64(context, "a numerator code f * prod(mult_j)",
                 f * max(math.prod(edges[2]) for _, edges, _ in cones))
    by_mults: Dict[Tuple[int, ...], list] = {}
    for cone in cones:
        by_mults.setdefault(tuple(cone[1][2]), []).append(cone)
    out = MultiRational(n - 1)
    for mults, members in by_mults.items():
        places = np.array([math.prod(mults[j + 1:]) for j in range(n - 1)],
                          dtype=np.int64)
        held = []
        for h, edges, weight in members:
            new = cone_decompose(h, edges) @ places
            held.append((new, np.full(len(new), weight, dtype=np.int64)))
        codes, coeffs = _merge_terms(held)
        exps = np.empty((len(codes), n - 1), dtype=np.int64)
        for j in range(n - 2, -1, -1):
            codes, exps[:, j] = np.divmod(codes, mults[j])
        den = tuple(sorted(tuple(f * m * (i == j) for i in range(n - 1))
                           for j, m in enumerate(mults)))
        # every denominator is new here and every coefficient positive
        out.pieces[den] = (f * exps, coeffs)
    return out


# ---------------------------------------------------------------------------
# affine subgroups


def _solve_columns(lattice: TranslationSubgroup, m, message: str
                   ) -> List[List[int]]:
    """The integer matrix x with basis x = m, column by column; raises
    ArithmeticError(message) when a column of m is not in the subgroup."""
    cols = [lattice.solve(col) for col in zip(*m)]
    if None in cols:
        raise ArithmeticError(message)
    return [list(row) for row in zip(*cols)]


class _PermCosetData:
    """Per-permutation-part data: cosets of (1-p)M in M, both membership
    lattices, and the fixed-lattice index, filled on first use."""

    def __init__(self, gamma: AffineSubgroup, p: Permutation):
        self.p, self.n, self.perms = p, gamma.n, gamma.perms
        n = gamma.n
        self.m_basis = m_basis = [list(r) for r in gamma.lattice.basis]
        self.one_minus_p = [[int(i == j) - x for j, x in enumerate(row)]
                            for i, row in enumerate(p.basis_matrix())]
        self.one_minus_p_m = mat_mul(self.one_minus_p, m_basis)
        self.u, d, _ = snf_with_transforms(_solve_columns(
            gamma.lattice, self.one_minus_p_m,
            "lattice is not stable under the permutation"))
        self.divisors = snf_diagonal(d)
        self.uinv = unimodular_inverse(self.u)
        self.torsion_idx = [i for i, di in enumerate(self.divisors) if di]
        self.free_idx = [i for i, di in enumerate(self.divisors) if not di]
        self.image_lambda = ImageLattice(self.one_minus_p)
        self.image_m = ImageLattice(self.one_minus_p_m)
        # M U^-1 takes U-coordinates to e-coordinates; row j of
        # scaled_averages maps U-coordinate j to the cycle sums S_c of
        # e = m_basis uinv coords, each times lcm/|c|: the cycle averages
        # scaled by the lcm of the cycle lengths, all integers
        self.to_e = a = mat_mul(m_basis, self.uinv)
        cycles = p.cycles()
        self.lcm = math.lcm(*map(len, cycles))
        self.scaled_averages = [
            [sum(a[i][j] for i in cyc if i < n - 1) * (self.lcm // len(cyc))
             for cyc in cycles]
            for j in range(n - 1)]

    @functools.cached_property
    def fixed_index(self) -> int:
        """Index of the fixed sublattice M^p in the fixed lattice of p.

        With L the basis of the fixed lattice and U L V = D its Smith form,
        the basis M^p = L W has U M^p = D (V^-1 W): the rows of U M^p below
        the rank must vanish, row i above it is d_i times an integer row,
        and the index |det W| is |det (top rows of U M^p)| / prod d_i.
        """
        lam_fixed = kernel_basis(self.one_minus_p)
        if not lam_fixed:
            return 1
        dim = len(lam_fixed)
        u, d, _ = snf_with_transforms([list(r) for r in zip(*lam_fixed)])
        divisors = snf_diagonal(d)
        m_fixed_z = [list(r) for r in zip(*kernel_basis(self.one_minus_p_m))]
        y = mat_mul(u, mat_mul(self.m_basis, m_fixed_z))
        if (any(x for row in y[dim:] for x in row)
                or any(x % di for row, di in zip(y, divisors) for x in row)):
            raise ArithmeticError("fixed sublattice is not contained in the "
                                  "fixed lattice")
        return abs(adjugate_and_det(y[:dim])[1]) // math.prod(divisors)


def _free_coordinate_bounds(data: _PermCosetData, torsion_coords, max_spread):
    """Integer box in the free coordinates that provably contains every coset
    with cycle-average spread at most max_spread.

    The cycle-average differences against the last cycle are (A x + b) / L
    in the free coordinates x, with A and b from ``scaled_averages``; the box
    is -A^-1 b +- L |A^-1| max_spread, rounded outward exactly.
    """
    dim = len(data.free_idx)
    if dim == 0:
        return [], []
    diffs = [[x - row[-1] for x in row[:-1]] for row in data.scaled_averages]
    a = [[diffs[j][i] for j in data.free_idx] for i in range(dim)]
    b = [sum(t * diffs[j][i] for t, j in zip(torsion_coords, data.torsion_idx))
         for i in range(dim)]
    adj, det = adjugate_and_det(a)
    if det < 0:
        adj, det = [[-x for x in row] for row in adj], -det
    den = det * max_spread.denominator
    los, his = [], []
    for row in adj:
        centre = -sum(x * y for x, y in zip(row, b)) * max_spread.denominator
        radius = sum(map(abs, row)) * data.lcm * max_spread.numerator
        los.append((centre - radius) // den)
        his.append(-((-centre - radius) // den))
    return los, his


def _box_points(data: _PermCosetData, boxes, pad: int, factor: int,
                max_deg: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Blocks of the U-coordinates (columns) of the short points of part p,
    beside whether each lies in its plain box.  A box (torsion, los, his)
    holds those torsion coordinates and the free ones in [los - pad,
    his + pad]; the boxes share one flat index space, a point's box found
    by a search of their cumulative sizes.  The total length, factor *
    (max - min) of the cycle averages, is an integer over the lcm L of the
    cycle lengths, so the test factor * spread(T) <= max_deg * L on
    T = scaled_averages^T coords is exact in int64."""
    torsions = [box[0] for box in boxes]
    los = [[lo - pad for lo in box[1]] for box in boxes]
    his = [[hi + pad for hi in box[2]] for box in boxes]
    shape = [[hi - lo + 1 for lo, hi in zip(*box)] for box in zip(los, his)]
    sizes = [math.prod(max(w, 0) for w in row) for row in shape]
    coord_max = max(map(abs, itertools.chain(*los, *his, *torsions)),
                    default=0)
    # |T_c| <= coord_max * (column sum of |scaled_averages|)
    col_max = max(map(sum, zip(*[[abs(x) for x in row]
                                 for row in data.scaled_averages])))
    context = f"affine class scan to degree {max_deg}"
    _check_int64(context, "the box point count", sum(sizes))
    _check_int64(context, "factor * the spread of the scaled cycle sums",
                 2 * factor * coord_max * col_max)
    _check_int64(context, "max_deg * L", max_deg * data.lcm)
    weights = np.array(data.scaled_averages, dtype=np.int64).T
    starts = np.cumsum([0] + sizes, dtype=np.int64)
    lo, width, tors = (np.array(x, dtype=np.int64).reshape(len(sizes), -1).T
                       for x in (los, shape, torsions))
    for start in range(0, sum(sizes), _BOX_BLOCK):
        flat = np.arange(start, min(start + _BOX_BLOCK, starts[-1]),
                         dtype=np.int64)
        box = np.searchsorted(starts, flat, side="right") - 1
        flat -= starts[box]
        coords = np.empty((len(data.divisors), len(flat)), dtype=np.int64)
        coords[data.torsion_idx] = tors[:, box]
        plain = np.ones(len(flat), dtype=bool)
        for pos in reversed(range(len(width))):
            flat, digit = np.divmod(flat, width[pos, box])
            coords[data.free_idx[pos]] = digit + lo[pos, box]
            plain &= (digit >= pad) & (digit < width[pos, box] - pad)
        t = weights @ coords
        keep = factor * (t.max(axis=0) - t.min(axis=0)) <= max_deg * data.lcm
        if keep.any():
            yield coords[:, keep], plain[keep]


def _key_maps(lattice: TranslationSubgroup, data_by_perm):
    """Per part p, the data of its least conjugate p' = q p q^-1 over q in
    P, and for each q giving it the integer map K = U_p' (M^-1 Q M) U_p^-1
    of U-coordinates, with M^-1 Q M solved in the lattice once per q."""
    any_part = next(iter(data_by_perm.values()))
    moves = {q: _solve_columns(lattice,
                               mat_mul(q.basis_matrix(), any_part.m_basis),
                               "element is not in the translation part")
             for q in any_part.perms}
    out = {}
    for p, data in data_by_perm.items():
        conj = {q: q.compose(data.p).compose(q.inverse()).images
                for q in moves}
        data2 = data_by_perm[min(conj.values())]
        out[p] = data2, [mat_mul(data2.u, mat_mul(moves[q], data.uinv))
                         for q, images in conj.items()
                         if images == data2.p.images]
    return out


def _key_columns(coords: np.ndarray, maps, divisors: Sequence[int],
                 context: str) -> np.ndarray:
    """Per column of coords the lexicographically least K coords over the
    maps K, reduced modulo the nonzero divisors."""
    _check_int64(context, "a conjugate key (n-1)*max|K|*coord_max",
                 len(divisors) * max(abs(x) for k in maps for r in k for x in r)
                 * max(-int(coords.min()), int(coords.max()), 1))
    tors = [i for i, d in enumerate(divisors) if d]
    cols = np.arange(coords.shape[1])
    best = None
    for k in maps:
        keys = np.array(k, dtype=np.int64) @ coords
        keys[tors] %= np.array(divisors, dtype=np.int64)[tors, None]
        if best is not None:
            first = (keys != best).argmax(axis=0)
            keep = best[first, cols] <= keys[first, cols]
            keys[:, keep] = best[:, keep]
        best = keys
    return best


def _class_weights(data: _PermCosetData, reps, context: str,
                   sym: np.ndarray) -> List[int]:
    """Centralizer indices of the classes of p with these e-coordinate rows:
    the fixed-lattice index times the ratio of the counts of commuting q
    (q p = p q on image arrays) with (1 - q) e in (1-p)Lambda and in
    (1-p)M, one stacked product over the commuting q among the n! rows of
    sym."""
    p = np.array(data.p.images)
    e = np.array(reps, dtype=np.int64)
    _check_int64(context, "a membership residue n*(n-1)*max|U|*max|e|",
                 data.n * (data.n - 1)
                 * max(1, -int(e.min(initial=0)), int(e.max(initial=0)))
                 * max(map(abs, sum(data.image_lambda.u + data.image_m.u, []))))

    def fixing(images, image: ImageLattice) -> np.ndarray:
        q = np.asarray(images)
        q_stack = basis_matrices(q[(q[:, p] == p[q]).all(1)])
        mods = np.array(image.moduli, dtype=np.int64)
        w = (e - e @ q_stack.transpose(0, 2, 1)) @ np.array(image.u).T
        return (np.where(mods > 0, w % np.maximum(mods, 1), w)
                == 0).all(axis=2).sum(axis=0)

    qg = fixing(sym, data.image_lambda)
    qgamma = fixing([q.images for q in data.perms], data.image_m)
    if (qg % qgamma).any():
        raise ArithmeticError("permutation centralizer counts are inconsistent")
    return [data.fixed_index * r for r in (qg // qgamma).tolist()]


class AffineClasses:
    """The conjugacy classes of an affine subgroup of rank ``n`` at one
    ``scale``, ``len()`` of them: ``parts`` holds (p, reps, weights, gaps,
    L) per permutation part p, in ascending order of its images, with its
    classes in key order: the int64 e-coordinate rows of their
    representatives, their centralizer indices (int64, or an object array
    beyond it), and their lengths times the lcm L of p's cycle lengths."""

    __slots__ = ("n", "scale", "parts")

    def __init__(self, n: int, scale: str, parts: list):
        self.n, self.scale, self.parts = n, scale, parts

    def __len__(self) -> int:
        return sum(len(part[1]) for part in self.parts)

    def identity_weight(self) -> Optional[int]:
        """The weight at the identity part's zero row, or None."""
        p, reps, weights, _, _ = self.parts[0]
        zero = np.flatnonzero(~reps.any(axis=1))
        return (int(weights[zero[0]]) if len(zero)
                and p.images == tuple(range(self.n)) else None)

    def to_json_obj(self, max_deg: int):
        """The series sum of weight u^lengths over the classes to degree
        max_deg as a MultiSeries writes it: gaps over one denominator, rows
        above max_deg dropped, equal rows merged.  A kept gap is at most
        max_deg L, a merged weight at most the class count times the
        largest: int64 below 2^63, exact object arrays beyond it."""
        den = math.lcm(*(lcm for *_, lcm in self.parts))
        bound = len(self) * max(int(abs(weights).max(initial=0))
                                for _, _, weights, _, _ in self.parts)
        held = []
        for _, _, weights, gaps, lcm in self.parts:
            keep = gaps.sum(axis=1) <= max_deg * lcm
            held.append((_int_stack(gaps[keep], max_deg * den) * (den // lcm),
                         _int_stack(weights[keep], bound)))
        return {"variables": self.n - 1, "cutoff": max_deg,
                "terms": array_rows(*_merge_terms(held), den)}


def affine_conjugacy_classes(gamma: AffineSubgroup, max_deg: int,
                             scale: str = GEODESIC) -> AffineClasses:
    """Conjugacy classes of the affine subgroup with length degree <= max_deg.

    For each permutation part p the translation parts are enumerated coset
    by coset modulo (1-p)M; the free coset coordinates are scanned over a box
    derived from the exact inverse of the cycle-average map, all capped
    before any scan.  Each part makes one pass over its boxes, widened as a
    self-check against any box sizing error (:func:`_box_points`), keyed by
    :func:`_key_columns`.  One ``np.lexsort`` per least conjugate p' puts
    each key the widening adds after the equal plain ones, and raises
    :class:`BoxExhaustionError` on one that comes first; the distinct keys
    become p''s arrays of representatives, weights and gaps.
    """
    n = gamma.n
    f = scale_factor(n, scale)
    max_spread = Fraction(max_deg, f)
    context = f"affine class scan to degree {max_deg}"
    data_by_perm = {p.images: _PermCosetData(gamma, p) for p in gamma.perms}
    boxes = {p: [(torsion, *_free_coordinate_bounds(data, torsion, max_spread))
                 for torsion in itertools.product(
                     *[range(data.divisors[i]) for i in data.torsion_idx])]
             for p, data in data_by_perm.items()}
    every = list(itertools.chain(*boxes.values()))
    # the doubled box widens every box by half the widest zero-torsion box
    pad = max([0] + [h - l for torsion, los, his in every
                     if not any(torsion) for l, h in zip(los, his)]) // 2 + 1
    cells = sum(math.prod(max(h - l + 1 + 2 * x, 0) for l, h in zip(los, his))
                for _, los, his in every for x in (0, pad))
    if cells > SERIES_GRID_CELLS:
        raise ResourceCapError(
            f"{context}: the coset boxes hold {cells} cells, above the cap "
            f"of {SERIES_GRID_CELLS} cells")
    key_maps = _key_maps(gamma.lattice, data_by_perm)
    # per least conjugate p', key columns over 1 where off the plain box
    held: Dict[Tuple[int, ...], list] = {}
    for p, data in data_by_perm.items():
        data2, maps = key_maps[p]
        for coords, plain in _box_points(data, boxes[p], pad, f, max_deg):
            keys = _key_columns(coords, maps, data2.divisors, context)
            held.setdefault(data2.p.images, []).append(
                np.vstack((keys, ~plain)))
    sym = np.array(list(itertools.permutations(range(n))))
    parts = []
    for p in sorted(held):
        stack = np.concatenate(held[p], axis=1)
        # sorted by key, a point off the plain box after its equal plain ones
        keys, ring = np.split(stack[:, np.lexsort(stack[::-1])], [-1])
        first = np.concatenate(([True], (keys[:, 1:] != keys[:, :-1]).any(0)))
        if ring[0, first].any():
            raise BoxExhaustionError(
                "doubling the enumeration box changed the class list")
        keys, data = keys[:, first], data_by_perm[p]
        _check_int64(context, "a representative (n-1)*max|M U^-1|*max|key|",
                     (n - 1) * max(map(abs, itertools.chain(*data.to_e)))
                     * max(-int(keys.min()), int(keys.max())))
        # the e-coordinates of the keys, then e_n = 0 for the lengths
        e = (np.array(data.to_e + [[0] * (n - 1)], dtype=np.int64) @ keys).T
        weights = _class_weights(data, e[:, :-1], context, sym)
        parts.append((data.p, e[:, :-1], _int_stack(weights, max(weights)),
                      *length_gaps(data.p, e, scale)))
    return AffineClasses(n, scale, parts)


def comparison_price(gamma: TranslationSubgroup, max_deg: int,
                     series: PeriodTable) -> int:
    """The price of :func:`comparison_check` from the direction orders m_i
    and the table alone, before Z is built.  Z read to degree t has at most
    t/g + 1 terms (g = gcd m_i) of at most sum N/m_i bits, so the price is
    the term pairs of the orders product, of Z R and of the products by
    1 - x^D times those 63-bit words, plus 128 per dense slot; above
    ``COMPARISON_STEPS`` it raises :class:`ResourceCapError`."""
    orders, index = direction_orders(gamma), gamma.index
    top = gamma.n * index if series.complete else max_deg + 1
    pairs = (top // math.gcd(*orders) + 1) * (
        sum(min(index, top) // m + 1 for m in orders) + series.size + 4)
    price = (pairs * -(-sum(index // m for m in orders) // 63)
             + 128 * (top + series.size))
    if price > COMPARISON_STEPS:
        raise ResourceCapError(
            f"comparison to degree {max_deg}: its products take {price} "
            f"word-pairs, above the cap of {COMPARISON_STEPS}")
    return price


def comparison_check(gamma: TranslationSubgroup, max_deg: int,
                     zeta: IntPolynomial,
                     series: PeriodTable) -> Tuple[bool, Dict]:
    """Check S(x, 0, .., 0), identity class removed, against the corrected
    form -(n-1)! x Z'/Z for the positive zeta Z of the subgroup, with the
    literal form (n-1)! Z'/Z alongside; returns the verdict and the report's
    entries.  The geodesic-scale ``series`` has period D on its first axis,
    x^k taking the cell s_k = (k mod D, 0, ..), so S = R / (1 - x^D) for
    R = sum_(k=1..L) s_k x^k (Stanley, *Enumerative Combinatorics* I, ch. 4)
    and the check is -(n-1)! x Z' (1 - x^D) = Z R: exactly, L = D, on a
    complete table, else modulo x^(maxDegree+1), where 1 - x^D = 1, with
    L = maxDegree and Z read to maxDegree + 1; the report lists R without
    its trailing zeros.  R is one scatter of the table's rows whose later
    exponents vanish (0^0 = 1).  Its caller prices it first, before Z is
    built (:func:`comparison_price`)."""
    if max_deg < 1:
        raise ValueError("max_deg must be at least 1")
    if zeta.coefficient(0) != 1:
        raise ValueError("the comparison needs Z with constant term 1")
    period = series.period
    length = period if series.complete else max_deg
    # S(x, 0, .., 0) takes the rows whose later exponents vanish: the cell
    # k at x^k, the cell 0 at x^D, which is past L on a partial table
    at = (series.terms[:, 0] - 1) % period + 1
    keep = ~series.terms[:, 1:].any(axis=1) & (at <= length)
    r = np.zeros(length + 1, dtype=series.coeffs.dtype)
    r[at[keep]] = series.coeffs[keep]
    cells = IntPolynomial(r.tolist())
    top = zeta.degree + period if series.complete else max_deg
    one_minus = IntPolynomial.one_minus_power(period, 1, top)
    right = zeta.mul_truncated(cells, top)
    # (n-1)! x Z' (1 - x^D) to top + 1: shifted down by one, the literal side
    left = IntPolynomial([math.factorial(gamma.n - 1) * k * c for k, c in (
        enumerate(zeta.coeffs[:top + 2]))]).mul_truncated(one_minus, top + 1)
    difference = first_difference(-left.truncate(top), right)
    return difference is None, {
        "n": gamma.n,
        "maxDegree": max_deg,
        "period": period,
        "comparison_degree_free": series.complete,
        "selberg_specialized": cells.to_json_coeffs(),
        "corrected_equal": difference is None,
        "literal_equal": left.coeffs[1:] == right.coeffs,
        "first_difference": difference,
        "note": ("corrected form multiplies the logarithmic derivative by -x "
                 "and drops the identity class from the series side"),
    }
