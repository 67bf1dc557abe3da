"""Several-variable Selberg-type zeta of a finite-index subgroup.

For a translation subgroup the conjugacy classes are single lattice
elements, so the series is a box scan and the closed form is a finite sum
of cone sums: summing the stabilizer size over a class's sorted pattern is
the same as summing, over all coordinate permutations q, the points of
q(subgroup) that land in the dominant cone, face by face.  Each face
contributes an exact geometric-series rational function.  The scan streams
the box in slabs of its first coordinate over one reused sub-grid, tests
membership by adjugate residues in int64, and counts the members of each
sorted coordinate pattern, so the series gets one term per pattern rather
than one per member.

For a split affine subgroup M x| P, conjugacy classes are enumerated
exactly: for fixed permutation part p, translation parts live in the cosets
of (1-p)M inside M, and the finite group P folds those cosets together.
Each coset box is first filtered in int64 by the spread of its cycle sums
(scaled by the lcm of the cycle lengths, so the test is exact), and only
the survivors are built as elements and reduced to a canonical class key.
Class weights are centralizer indices computed from fixed sublattices and
finite permutation counts.

Every int64 kernel checks a proven bound on its entries before it
allocates, and the translation sub-grid a cap on its cell count; otherwise
they raise :class:`ResourceCapError`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BoxExhaustionError, ResourceCapError
from .intmat import (
    ImageLattice,
    det_bareiss,
    fraction_inverse,
    hnf_columns,
    kernel_basis,
    mat_mul,
    mat_vec,
    snf_diagonal,
    snf_with_transforms,
    unimodular_inverse,
)
from .lattice import (
    AffineElement,
    FaceDescriptor,
    GEODESIC,
    LatticeVector,
    LengthVector,
    Permutation,
    all_faces,
    all_permutations,
    cone_decompose,
    face_length_exponents,
    length_vector,
    rational_cone_sum,
    scale_factor,
)
from .polynomials import IntPolynomial, MultiRational, MultiSeries
from .quotient import AffineSubgroup, TranslationSubgroup
from .zeta import zeta_positive_det
from .cayley import build_graph


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugacy class: canonical representative, centralizer-index weight,
    and the conjugation-invariant lengths."""

    representative: AffineElement
    weight: int
    lengths: LengthVector


def _pattern_stabilizer_size(coords: Sequence[int]) -> int:
    """Number of permutations fixing the vector: product of multiplicity
    factorials."""
    counts: Dict[int, int] = {}
    for x in coords:
        counts[x] = counts.get(x, 0) + 1
    out = 1
    for c in counts.values():
        out *= math.factorial(c)
    return out


def _sorted_gap_exponents(coords: Sequence[int], factor: int) -> Tuple[int, ...]:
    s = sorted(coords, reverse=True)
    return tuple(factor * (s[j] - s[j + 1]) for j in range(len(s) - 1))


def _check_int64(context: str, what: str, bound: int) -> None:
    """Raise before allocating unless the proven bound fits in int64."""
    if bound >= 2 ** 63:
        raise ResourceCapError(
            f"{context}: {what} can reach {bound}, above the int64 bound 2^63")


# cells of the (span+1)^(n-1) sub-grid a translation series may allocate;
# each int64 column over the sub-grid takes 32 MB at this cap
SERIES_GRID_CELLS = 1 << 22


def selberg_series_translation(gamma: TranslationSubgroup, max_deg: int,
                               scale: str = GEODESIC) -> MultiSeries:
    """Truncated Selberg series of a translation subgroup.

    Every subgroup element is its own conjugacy class with weight
    N * (stabilizer of its coordinate pattern); elements of length degree at
    most max_deg have canonical coordinates inside [0, span]^n, where
    span = max_deg // scale factor.  The box is scanned in slabs of its
    first coordinate over one reused (span+1)^(n-1) sub-grid.  Members are
    found by the adjugate residue test, each member's sorted coordinates are
    encoded as one base-(span+1) integer, and every distinct pattern adds
    one term of weight N * stabilizer * (members with that pattern).
    """
    n = gamma.n
    f = scale_factor(n, scale)
    span = max_deg // f
    base = span + 1
    det = gamma.adjugate_det
    adj_max = max(abs(x) for row in gamma.adjugate for x in row)
    context = f"translation Selberg series to degree {max_deg}"
    _check_int64(context, f"the pattern code (span+1)^n = {base}^{n}",
                 base ** n)
    # span counted as at least 1, so that the adjugate itself fits
    _check_int64(context, f"an adjugate residue (n-1)*span*max|adj| = "
                 f"{n - 1}*{max(span, 1)}*{adj_max}",
                 (n - 1) * max(span, 1) * adj_max)
    _check_int64(context, "the residue modulus |det|", abs(det))
    if base ** (n - 1) > SERIES_GRID_CELLS:
        raise ResourceCapError(
            f"{context}: the sub-grid of (span+1)^(n-1) = {base}^{n - 1} "
            f"cells is above the cap of {SERIES_GRID_CELLS} cells")
    adj = np.array(gamma.adjugate, dtype=np.int64)
    axes = np.meshgrid(*([np.arange(base, dtype=np.int64)] * (n - 1)),
                       indexing="ij")
    sub = np.stack([a.ravel() for a in axes], axis=1)   # coordinates 2..n
    # basis coordinates x_i - x_n of the point (0, sub); a slab with first
    # coordinate x adds x to the first of them
    sub_coords = np.concatenate([np.zeros_like(sub[:, :1]), sub[:, :-1]],
                                axis=1) - sub[:, -1:]
    sub_res = sub_coords @ adj.T
    # with a positive first coordinate the minimum 0 must lie in the sub-grid
    on_floor = sub.min(axis=1) == 0
    floor_sub, floor_res = sub[on_floor], sub_res[on_floor]
    place = base ** np.arange(n - 1, -1, -1, dtype=np.int64)
    counts: Dict[int, int] = {}
    for x in range(base):
        rows, res = ((sub, sub_res) if x == 0
                     else (floor_sub, floor_res + x * adj[:, 0]))
        members = rows[(res % det == 0).all(axis=1)]
        patterns = np.sort(np.concatenate(
            [np.full((len(members), 1), x, dtype=np.int64), members], axis=1),
            axis=1)
        codes, mult = np.unique(patterns @ place, return_counts=True)
        for code, m in zip(codes.tolist(), mult.tolist()):
            counts[code] = counts.get(code, 0) + m
    series = MultiSeries(n - 1, max_deg)
    for code in sorted(counts):
        row = [code // base ** i % base for i in range(n)]
        weight = gamma.index * _pattern_stabilizer_size(row) * counts[code]
        series.add_term(_sorted_gap_exponents(row, f), weight)
    return series


def _face_condition_rows(n: int, zero_set) -> List[List[int]]:
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


def _face_sublattice_t_basis(lattice_basis: Sequence[Sequence[int]],
                             face: FaceDescriptor) -> List[List[int]]:
    """Basis, in t-coordinates, of (lattice ∩ face span)."""
    n = face.n
    k = face.dim
    rows = _face_condition_rows(n, face.zero_set)
    basis = [list(r) for r in lattice_basis]
    if rows:
        conditions = mat_mul(rows, basis)
        kernel = kernel_basis(conditions)
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


def selberg_rational_translation(gamma: TranslationSubgroup,
                                 scale: str = GEODESIC) -> MultiRational:
    """Exact rational closed form of the translation Selberg series.

    Summing pattern stabilizers over subgroup elements equals summing, over
    all n! coordinate permutations q, the lattice points of q(subgroup) in
    each open face of the dominant cone; every such face sum is a cone
    decomposition turned geometric series.  The result's power series
    expansion matches :func:`selberg_series_translation` to any degree.
    """
    n = gamma.n
    groups: Dict[Tuple[frozenset, Tuple], int] = {}
    face_list = list(all_faces(n))
    for q in all_permutations(n):
        image = gamma.permuted(q)
        for face in face_list:
            if face.dim == 0:
                key = (face.zero_set, ())
            else:
                basis_t = _face_sublattice_t_basis(image.basis, face)
                key = (face.zero_set,
                       tuple(tuple(r) for r in hnf_columns(basis_t)))
            groups[key] = groups.get(key, 0) + 1
    out = MultiRational(n - 1)
    for (zero_set, basis_key), count in sorted(
            groups.items(), key=lambda kv: (sorted(kv[0][0]), kv[0][1])):
        face = FaceDescriptor(n, zero_set)
        basis = [list(r) for r in basis_key] if basis_key else None
        dec = cone_decompose(face, basis)
        weight = face_length_exponents(face, scale)
        piece = rational_cone_sum(dec, weight, nvars=n - 1)
        out += piece.scaled(gamma.index * count)
    return out


# ---------------------------------------------------------------------------
# affine subgroups


class _PermCosetData:
    """Per-permutation-part data: cosets of (1-p)M in M and both membership
    lattices, plus the class-weight data that depends on p alone, filled on
    first use."""

    def __init__(self, gamma: AffineSubgroup, p: Permutation):
        self.p = p
        self.n = n = gamma.n
        self.perms = gamma.perms
        m_basis = [list(r) for r in gamma.lattice.basis]
        p_mat = p.basis_matrix()
        eye = [[int(i == j) for j in range(n - 1)] for i in range(n - 1)]
        one_minus_p = [[eye[i][j] - p_mat[i][j] for j in range(n - 1)]
                       for i in range(n - 1)]
        self.one_minus_p = one_minus_p
        self.one_minus_p_m = mat_mul(one_minus_p, m_basis)
        adj, det = gamma.lattice.adjugate, gamma.lattice.adjugate_det
        prod = mat_mul(adj, self.one_minus_p_m)
        self.x_mat = [[x // det for x in row] for row in prod]
        if any(x % det for row in prod for x in row):
            raise ArithmeticError("lattice is not stable under the permutation")
        u, d, v = snf_with_transforms(self.x_mat)
        self.divisors = snf_diagonal(d)
        self.u = u
        self.uinv = unimodular_inverse(u)
        self.m_basis = m_basis
        self.m_adj = adj
        self.m_det = det
        self.torsion_idx = [i for i, di in enumerate(self.divisors) if di != 0]
        self.free_idx = [i for i, di in enumerate(self.divisors) if di == 0]
        self.image_lambda = ImageLattice(one_minus_p)
        self.image_m = ImageLattice(self.one_minus_p_m)
        # row j maps U-coordinate j to the cycle sums S_c of
        # e = m_basis uinv coords, each times lcm/|c|: the cycle averages
        # scaled by the lcm of the cycle lengths, all integers
        cycles = p.cycles()
        self.lcm = math.lcm(*map(len, cycles))
        a = mat_mul(m_basis, self.uinv)
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
        return abs(det_bareiss(y[:dim])) // math.prod(divisors)

    @functools.cached_property
    def centralizer_mats(self) -> Tuple[List[List[List[int]]], ...]:
        """Basis matrices of the permutations that commute with p: all of
        them in S_n, then those in the permutation part of the subgroup."""
        p = self.p

        def commuting(perms):
            return [q.basis_matrix() for q in perms
                    if q.compose(p).images == p.compose(q).images]

        return commuting(all_permutations(self.n)), commuting(self.perms)

    def element_from_coords(self, coords: Sequence[int]) -> List[int]:
        """e-coordinates of the representative with the given U-coordinates."""
        z = mat_vec(self.uinv, coords)
        return mat_vec(self.m_basis, z)

    def reduce_coords(self, e_coords: Sequence[int]) -> Tuple[int, ...]:
        """Canonical U-coordinates of the coset of an element of M."""
        w = mat_vec(self.m_adj, e_coords)
        if any(x % self.m_det for x in w):
            raise ArithmeticError("element is not in the translation part")
        z = [x // self.m_det for x in w]
        c = mat_vec(self.u, z)
        return tuple(x % d if d else x for x, d in zip(c, self.divisors))


def _cycle_average_diffs(p: Permutation, e_coords: Sequence[Fraction]
                         ) -> List[Fraction]:
    """Differences of the cycle averages against the last cycle's average."""
    n = p.n
    vec = list(e_coords) + [Fraction(0)]
    cycles = p.cycles()
    avgs = [sum((Fraction(vec[i]) for i in cyc), Fraction(0)) / len(cyc)
            for cyc in cycles]
    return [a - avgs[-1] for a in avgs[:-1]]


def _free_coordinate_bounds(data: _PermCosetData, torsion_coords, max_spread):
    """Integer box in the free coordinates that provably contains every coset
    with cycle-average spread at most max_spread."""
    p = data.p
    dim = len(data.free_idx)
    if dim == 0:
        return [], []
    n1 = len(data.m_basis)
    base_coords = [0] * n1
    for pos, idx in enumerate(data.torsion_idx):
        base_coords[idx] = torsion_coords[pos]
    offset = _cycle_average_diffs(p, data.element_from_coords(base_coords))
    cols_free = []
    for idx in data.free_idx:
        unit = [0] * n1
        unit[idx] = 1
        cols_free.append(_cycle_average_diffs(p, data.element_from_coords(unit)))
    a_free = [[cols_free[j][i] for j in range(dim)] for i in range(dim)]
    inv = fraction_inverse(a_free)
    center = [-sum(row[j] * offset[j] for j in range(dim)) for row in inv]
    los, his = [], []
    for i in range(dim):
        radius = sum(abs(x) for x in inv[i]) * max_spread
        los.append(math.floor(center[i] - radius))
        his.append(math.ceil(center[i] + radius))
    return los, his


_BOX_BLOCK = 1 << 16   # box points filtered per numpy block


def _short_box_points(data: _PermCosetData, torsion: Sequence[int],
                      los: Sequence[int], his: Sequence[int], factor: int,
                      max_deg: int) -> Iterator[List[int]]:
    """U-coordinates, in lexicographic order, of the points with the given
    torsion coordinates and free coordinates in [los, his] whose element has
    total length at most max_deg.

    The total length is factor * (max - min) of the cycle averages; times
    the lcm L of the cycle lengths it is an integer, so the test
    factor * spread(T) <= max_deg * L on T = coords @ scaled_averages is
    exact in int64.
    """
    n1 = len(data.divisors)
    shape = [hi - lo + 1 for lo, hi in zip(los, his)]
    total = math.prod(max(w, 0) for w in shape)
    coord_max = max([abs(x) for x in (*los, *his)] + list(torsion), default=0)
    # |T_c| <= coord_max * (column sum of |scaled_averages|)
    col_max = max(map(sum, zip(*[[abs(x) for x in row]
                                 for row in data.scaled_averages])))
    context = f"affine class scan to degree {max_deg}"
    _check_int64(context, "the box point count", total)
    _check_int64(context, "factor * the spread of the scaled cycle sums",
                 2 * factor * coord_max * col_max)
    _check_int64(context, "max_deg * L", max_deg * data.lcm)
    weights = np.array(data.scaled_averages, dtype=np.int64)
    limit = max_deg * data.lcm
    for start in range(0, total, _BOX_BLOCK):
        flat = np.arange(start, min(start + _BOX_BLOCK, total), dtype=np.int64)
        coords = np.empty((len(flat), n1), dtype=np.int64)
        for pos, idx in enumerate(data.torsion_idx):
            coords[:, idx] = torsion[pos]
        for pos in reversed(range(len(shape))):
            flat, digit = np.divmod(flat, shape[pos])
            coords[:, data.free_idx[pos]] = digit + los[pos]
        t = coords @ weights
        keep = factor * (t.max(axis=1) - t.min(axis=1)) <= limit
        yield from coords[keep].tolist()


def _conjugate_key(gamma: AffineSubgroup, data_by_perm, p: Permutation,
                   e_coords: Sequence[int]):
    """Minimal (permutation, coset) key over the finite conjugation orbit."""
    best = None
    best_elem = None
    for q in gamma.perms:
        p2 = q.compose(p).compose(q.inverse())
        v2 = mat_vec(q.basis_matrix(), e_coords)
        data2 = data_by_perm[p2.images]
        coords = data2.reduce_coords(v2)
        key = (p2.images, coords)
        if best is None or key < best:
            best = key
            best_elem = (p2, data2.element_from_coords(coords))
    return best, best_elem


def _class_weight(data: _PermCosetData, e_coords: Sequence[int]) -> int:
    """Centralizer index: fixed-lattice index times the permutation count
    ratio."""
    in_lambda, in_m = data.centralizer_mats

    def fixing(mats, image) -> int:
        return sum(1 for q_mat in mats if image.contains(
            [a - b for a, b in zip(e_coords, mat_vec(q_mat, e_coords))]))

    qg = fixing(in_lambda, data.image_lambda)
    qgamma = fixing(in_m, data.image_m)
    if qg % qgamma:
        raise ArithmeticError("permutation centralizer counts are inconsistent")
    return data.fixed_index * (qg // qgamma)


def affine_conjugacy_classes(gamma: AffineSubgroup, max_deg: int,
                             scale: str = GEODESIC, *,
                             verify_box: bool = True) -> List[ConjugacyClass]:
    """Conjugacy classes of the affine subgroup with length degree <= max_deg.

    For each permutation part p the translation parts are enumerated coset
    by coset modulo (1-p)M; the free coset coordinates are scanned over a box
    derived from the exact inverse of the cycle-average map, and a doubled
    box re-scan guards against any box sizing error.  Each box is filtered
    in int64 by the integer spread test of :func:`_short_box_points`; only
    its survivors are built as elements, measured exactly and reduced to
    their canonical class key.
    """
    n = gamma.n
    f = scale_factor(n, scale)
    max_spread = Fraction(max_deg, f)
    data_by_perm = {p.images: _PermCosetData(gamma, p) for p in gamma.perms}

    def collect(extra: int) -> Dict:
        classes = {}
        for p in gamma.perms:
            data = data_by_perm[p.images]
            torsion_ranges = [range(data.divisors[i]) for i in data.torsion_idx]
            for torsion in itertools.product(*torsion_ranges):
                los, his = _free_coordinate_bounds(data, torsion, max_spread)
                for coords in _short_box_points(
                        data, torsion, [lo - extra for lo in los],
                        [hi + extra for hi in his], f, max_deg):
                    e_coords = data.element_from_coords(coords)
                    elem = AffineElement(
                        LatticeVector.from_basis_coords(n, e_coords), p)
                    lengths = length_vector(elem, scale)
                    if lengths.total > max_deg:
                        continue
                    key, rep = _conjugate_key(gamma, data_by_perm, p, e_coords)
                    if key not in classes:
                        classes[key] = rep
        return classes

    classes = collect(0)
    if verify_box:
        widths = [0]
        for p in gamma.perms:
            data = data_by_perm[p.images]
            los, his = _free_coordinate_bounds(
                data, [0] * len(data.torsion_idx), max_spread)
            widths.extend(h - l for l, h in zip(los, his))
        doubled = collect(max(widths) // 2 + 1)
        if set(doubled) != set(classes):
            raise BoxExhaustionError(
                "doubling the enumeration box changed the class list")

    out = []
    for key in sorted(classes):
        p2, e_coords = classes[key]
        elem = AffineElement(LatticeVector.from_basis_coords(n, e_coords), p2)
        data = data_by_perm[p2.images]
        weight = _class_weight(data, e_coords)
        out.append(ConjugacyClass(
            representative=elem,
            weight=weight,
            lengths=length_vector(elem, scale),
        ))
    return out


def selberg_series_affine(gamma: AffineSubgroup, max_deg: int,
                          scale: str = GEODESIC, *,
                          verify_box: bool = True) -> MultiSeries:
    """Truncated Selberg series of a split affine subgroup."""
    series = MultiSeries(gamma.n - 1, max_deg)
    for cls in affine_conjugacy_classes(gamma, max_deg, scale,
                                        verify_box=verify_box):
        series.add_term(cls.lengths.exponent_tuple(), cls.weight)
    return series


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


def rational_geodesic_pattern(g: AffineElement) -> Optional[int]:
    """The unique 1-based index j with l_j != 0, when exactly one exists.

    Such an element closes a straight path in the 1-skeleton (after a power
    at most n in the affine case; translations close it directly).
    """
    nz = length_vector(g, GEODESIC).nonzero_positions()
    return nz[0] if len(nz) == 1 else None


@dataclass
class ComparisonReport:
    """The specialized Selberg series against the logarithmic derivative of
    the positive zeta."""

    n: int
    max_degree: int
    lhs_coeffs: List[int]
    rhs_corrected: List[int]
    rhs_literal: List[int]
    corrected_equal: bool
    literal_equal: bool
    note: str

    def to_json_obj(self):
        return {
            "n": self.n,
            "maxDegree": self.max_degree,
            "selberg_specialized": [str(c) for c in self.lhs_coeffs],
            "rhs_corrected": [str(c) for c in self.rhs_corrected],
            "rhs_literal": [str(c) for c in self.rhs_literal],
            "corrected_equal": self.corrected_equal,
            "literal_equal": self.literal_equal,
            "note": self.note,
        }


def comparison_check(gamma: TranslationSubgroup, max_deg: int,
                     zeta: Optional[IntPolynomial] = None,
                     series: Optional[MultiSeries] = None) -> ComparisonReport:
    """Check S(x, 0, .., 0), identity class removed, against the corrected
    form -(n-1)! * x * Z'/Z; the literal form (n-1)! * Z'/Z is evaluated and
    reported alongside.

    Lengths are taken at the geodesic scale, which is what measures vertex
    counts along closed straight paths.  A precomputed positive zeta may be
    supplied; otherwise the determinant route is used.  Likewise a
    precomputed ``selberg_series_translation(gamma, max_deg, GEODESIC)``.
    """
    if max_deg < 1:
        raise ValueError("max_deg must be at least 1")
    n = gamma.n
    if series is None:
        series = selberg_series_translation(gamma, max_deg, GEODESIC)
    lhs = [0] * (max_deg + 1)
    for k, c in series.specialize_first().items():
        if k > 0:
            lhs[int(k)] = c
    z = zeta_positive_det(build_graph(gamma)) if zeta is None else zeta
    z_inv = z.series_inverse(max_deg)
    x_zprime = IntPolynomial([0] + z.derivative().coeffs)
    factor = math.factorial(n - 1)
    corrected = (x_zprime.mul_truncated(z_inv, max_deg) * (-factor))
    literal = (z.derivative().mul_truncated(z_inv, max_deg) * factor)
    rhs_corrected = [corrected.coefficient(k) for k in range(max_deg + 1)]
    rhs_literal = [literal.coefficient(k) for k in range(max_deg + 1)]
    corrected_equal = lhs == rhs_corrected
    literal_equal = lhs == rhs_literal
    return ComparisonReport(
        n=n,
        max_degree=max_deg,
        lhs_coeffs=lhs,
        rhs_corrected=rhs_corrected,
        rhs_literal=rhs_literal,
        corrected_equal=corrected_equal,
        literal_equal=literal_equal,
        note=("corrected form multiplies the logarithmic derivative by -x and "
              "drops the identity class from the series side"),
    )
