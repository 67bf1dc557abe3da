"""The translation lattice Z^n modulo the diagonal, and its affine symmetry
group (translations extended by coordinate permutations).

Conventions used throughout the package:

* A lattice class is stored by its canonical representative, the integer
  vector shifted so that its minimum entry is 0.
* The type of a class is the coordinate sum mod n; the diagonal has sum n,
  so the type is representative-free.
* Length functions: project the translation part onto the fixed space of the
  permutation part (replace each entry by the average over its cycle), sort
  the result in descending order, and take consecutive gaps.  At the
  "geodesic" scale the gaps are returned as they are; at the "factorial"
  scale they are multiplied by n!, which clears every cycle denominator and
  makes all values integers.  Lengths are computed for a whole stack of
  translations with one permutation part at once, as integer gaps scaled
  by the lcm of the cycle lengths (:func:`length_gaps`).
* The dominant cone x1 >= ... >= xn, in the coordinates t_j = x_j - x_n,
  is the closed orthant g >= 0 of the gaps g_j = t_j - t_{j+1}
  (g_{n-1} = t_{n-1}): one simplicial cone whose rays are the axes, whose
  lattice points :func:`cone_decompose` lists as a box of base points plus
  multiples of its edge generators.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ResourceCapError, SingularMatrixError
from .intmat import _int_stack, adjugate_and_det
from .value import Value

GEODESIC = "geodesic"
FACTORIAL = "factorial"


def scale_factor(n: int, scale: str) -> int:
    if scale == GEODESIC:
        return 1
    if scale == FACTORIAL:
        return math.factorial(n)
    raise ValueError(f"unknown scale {scale!r}")


class LatticeVector(Value):
    """A class of Z^n modulo the diagonal, in canonical form (min entry 0)."""

    __slots__ = _fields = ("n", "coords")

    def __init__(self, n: int, coords: Tuple[int, ...]):
        if n < 2:
            raise ValueError("rank must be at least 2")
        if len(coords) != n:
            raise ValueError(f"expected {n} coordinates, got {len(coords)}")
        if min(coords) != 0:
            raise ValueError("not canonical: minimum coordinate must be 0")
        self._assign(n, coords)

    @classmethod
    def from_raw(cls, raw: Sequence[int]) -> "LatticeVector":
        raw = [int(x) for x in raw]
        m = min(raw)
        return cls(len(raw), tuple(x - m for x in raw))

    @classmethod
    def zero(cls, n: int) -> "LatticeVector":
        return cls(n, (0,) * n)

    @classmethod
    def basis_vector(cls, n: int, i: int) -> "LatticeVector":
        """The i-th standard direction, 1-based; i = n is minus the sum of the rest."""
        if not 1 <= i <= n:
            raise ValueError("index out of range")
        return cls.from_raw(tuple(1 if j == i - 1 else 0 for j in range(n)))

    @classmethod
    def from_basis_coords(cls, n: int, c: Sequence[int]) -> "LatticeVector":
        """From coordinates in the basis e_1 .. e_{n-1} (e_n = -sum e_i)."""
        if len(c) != n - 1:
            raise ValueError(f"expected {n - 1} basis coordinates")
        return cls.from_raw(tuple(c) + (0,))

    def to_basis_coords(self) -> Tuple[int, ...]:
        last = self.coords[-1]
        return tuple(x - last for x in self.coords[:-1])

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector.from_raw(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LatticeVector":
        return LatticeVector.from_raw(tuple(-a for a in self.coords))

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return self + (-other)


def type_of(a: LatticeVector) -> int:
    """Coordinate sum mod n; invariant under the choice of representative."""
    return sum(a.coords) % a.n


class Permutation(Value):
    """Permutation of {0, .., n-1}; images[i] is the image of i."""

    __slots__ = _fields = ("images",)

    def __init__(self, images: Tuple[int, ...]):
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"{images!r} is not a permutation")
        self._assign(images)

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self*other)(i) = self(other(i))."""
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def act_raw(self, vec: Sequence) -> tuple:
        """Permute coordinates: entry i of vec moves to position images[i]."""
        out = [None] * self.n
        for i, x in enumerate(vec):
            out[self.images[i]] = x
        return tuple(out)

    def act(self, v: LatticeVector) -> LatticeVector:
        return LatticeVector.from_raw(self.act_raw(v.coords))

    def cycles(self) -> List[Tuple[int, ...]]:
        images = self.images
        seen = [False] * len(images)
        out = []
        for start in range(len(images)):
            if seen[start]:
                continue
            cyc = []
            i = start
            while not seen[i]:
                seen[i] = True
                cyc.append(i)
                i = images[i]
            out.append(tuple(cyc))
        return out

    def basis_matrix(self) -> List[List[int]]:
        """Action on basis coordinates (e_1 .. e_{n-1}, with e_n = -sum)."""
        return basis_matrices([self.images])[0].tolist()


def all_permutations(n: int):
    for images in itertools.permutations(range(n)):
        yield Permutation(images)


def basis_matrices(images) -> np.ndarray:
    """The action on basis coordinates (e_1 .. e_{n-1}, with e_n = -sum) of
    the permutations of one rank n whose images are the rows of images, as
    one int64 stack: entry (s, r, i) is 1 where row s takes i to r and -1
    where it takes i to n - 1."""
    images = np.asarray(images)[:, None, :-1]
    rows = np.arange(images.shape[2])[:, None]
    return (images == rows).astype(np.int64) - (images == images.shape[2])


class AffineElement(Value):
    """Element (v, p) of the affine group: translate by v after permuting by p."""

    __slots__ = _fields = ("v", "p")

    def __init__(self, v: LatticeVector, p: Permutation):
        if v.n != p.n:
            raise ValueError("rank mismatch between translation and permutation")
        self._assign(v, p)

    @property
    def n(self) -> int:
        return self.v.n

    @classmethod
    def identity(cls, n: int) -> "AffineElement":
        return cls(LatticeVector.zero(n), Permutation.identity(n))

    @classmethod
    def translation(cls, v: LatticeVector) -> "AffineElement":
        return cls(v, Permutation.identity(v.n))

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        return AffineElement(self.v + self.p.act(other.v), self.p.compose(other.p))

    def inverse(self) -> "AffineElement":
        pinv = self.p.inverse()
        return AffineElement(pinv.act(-self.v), pinv)


class LengthVector(Value):
    """The n-1 conjugation-invariant lengths of an affine element."""

    __slots__ = _fields = ("values", "scale")

    def __init__(self, values: Tuple[Fraction, ...], scale: str):
        if any(x < 0 for x in values):
            raise ValueError("length values must be nonnegative")
        self._assign(values, scale)


def length_gaps(p: Permutation, translations, scale: str = GEODESIC
                ) -> Tuple[np.ndarray, int]:
    """The lengths of the elements (v, p), one row per row v of
    translations (n integer coordinates, any representative mod the
    diagonal), times the lcm L of p's cycle lengths, and L: the cycle sums
    times L over the cycle length (one product), sorted per row and
    differenced.  A scaled cycle sum is at most L max|v|, so the rows and
    their sums are int64 when f * 2 L max|v| < 2^63, else exact objects."""
    n = p.n
    f = scale_factor(n, scale)
    cycles = p.cycles()
    lcm = math.lcm(*map(len, cycles))
    rows = np.asarray(translations)
    bound = 2 * f * lcm * max(-int(rows.min()), int(rows.max()))
    weights = [[0] * n for _ in range(n)]
    for cyc in cycles:
        for i in cyc:
            for j in cyc:
                weights[i][j] = lcm // len(cyc)
    avg = _int_stack(rows, bound) @ _int_stack(weights, bound)
    avg.sort(axis=1)
    return np.diff(avg, axis=1)[:, ::-1] * f, lcm


def length_vector(g: AffineElement, scale: str = GEODESIC) -> LengthVector:
    """Lengths of g by :func:`length_gaps`, each gap over L: conjugation-
    invariant, and integer-valued on the whole group at the factorial scale."""
    gaps, lcm = length_gaps(g.p, [g.v.coords], scale)
    return LengthVector(tuple([Fraction(x, lcm) for x in gaps[0].tolist()]),
                        scale)


def edge_multiples(basis: Sequence[Sequence[int]]):
    """(adj, det, mults) of a square lattice basis H in edge-form
    coordinates: mult_j = |det H| / gcd(det H, adj(H) e_j) is the least
    multiple of the j-th edge ray e_j in the lattice."""
    try:
        adj, det = adjugate_and_det(basis)
    except SingularMatrixError:
        raise SingularMatrixError("degenerate lattice: basis is rank deficient")
    return adj, det, [abs(det) // math.gcd(det, *col) for col in zip(*adj)]


def _staircase(h: List[List[int]], steps: Sequence[int]) -> np.ndarray:
    """Points alpha = H z of the lattice of the lower-triangular H, one
    coordinate at a time: alpha_j = c_j + h_jj z_j with
    c_j = sum_{l<j} h_jl z_l fixed by z_1 .. z_{j-1}, so alpha_j takes the
    steps[j] values c_j mod h_jj + h_jj r, r = 0, 1, ..  The rows
    (alpha_1, .., alpha_k), in lexicographic order, as one int64 array."""
    alphas, zs = [], []
    for j, (row, count) in enumerate(zip(h, steps)):
        d = row[j]
        c = sum((x * z for x, z in zip(row, zs) if x),
                np.zeros(len(zs[0]) if zs else 1, dtype=np.int64))
        a = (c % d)[:, None] + d * np.arange(count, dtype=np.int64)
        z = (a - c[:, None]) // d
        alphas = [np.repeat(x, count) for x in alphas] + [a.ravel()]
        zs = [np.repeat(x, count) for x in zs] + [z.ravel()]
    return np.stack(alphas, axis=1)


def cone_decompose(lattice_basis: Sequence[Sequence[int]],
                   edges=None) -> np.ndarray:
    """The base points of (closed orthant alpha >= 0) ∩ lattice, as one
    int64 array of rows (alpha_1, .., alpha_k).

    The lattice has the basis H (columns are generators), lower triangular
    with a positive diagonal as :func:`~latzeta.intmat.hnf_columns` gives
    it; ``edges``, when given, is its :func:`edge_multiples`.  The orthant
    is a simplicial cone with the edge rays e_j, and the least lattice
    vectors a_j = mult_j e_j on them generate its lattice points from those
    of the half-open parallelepiped 0 <= alpha_j < mult_j (Beck and Robins,
    Computing the Continuous Discretely, Thm 3.5; Stanley, Enumerative
    Combinatorics I, Sec. 4.6), which :func:`_staircase` lists:
    mult_j e_j = H z has z_l = 0 for l < j, so h_jj divides mult_j.  Raises
    ArithmeticError unless there are prod(mult_j) / |det H| of them, inside
    the box, distinct and in the lattice, adj(H) alpha = 0 (mod det H), and
    ResourceCapError before allocating unless a proven bound on every entry
    fits in int64.
    """
    h = [[int(x) for x in row] for row in lattice_basis]
    k = len(h)
    if any(len(row) != k for row in h):
        raise ValueError("lattice basis must be square")
    adj, det, mults = edges or edge_multiples(h)
    if any(row[j] < 1 or any(row[j + 1:]) for j, row in enumerate(h)):
        raise ValueError("lattice basis must be lower triangular with a "
                         "positive diagonal")
    # |z_j| <= (mult_j + |c_j|) / h_jj with |c_j| <= sum_l |h_jl| |z_l|;
    # the codes of alpha lie below prod(mult_j)
    z_max, bound = [], math.prod(mults)
    for j, (row, m) in enumerate(zip(h, mults)):
        c = sum(abs(x) * z for x, z in zip(row, z_max))
        z_max.append((m + c) // row[j])
        bound = max(bound, m + c + 1)
    # adj(H) alpha for alpha in the box
    bound = max(bound, k * max(map(abs, itertools.chain(*adj))) * max(mults))
    if bound >= 2 ** 63:
        raise ResourceCapError(f"cone decomposition: an entry can reach "
                               f"{bound}, above the int64 bound 2^63")
    points = _staircase(h, [m // row[j] for j, (row, m) in
                            enumerate(zip(h, mults))])
    # certificate: prod(mult_j) / |det H| distinct lattice points of the
    # half-open parallelepiped, so one in each coset of the generator span
    inside = bool(((points >= 0) & (points < np.array(mults))).all())
    places = np.array([math.prod(mults[j + 1:]) for j in range(k)],
                      dtype=np.int64)
    # the codes and the lattice test are bounded inside the box only
    codes = np.sort(points @ places) if inside else None
    distinct = inside and bool((codes[1:] != codes[:-1]).all())
    in_lattice = inside and not (
        points @ np.array(adj, dtype=np.int64).T % abs(det)).any()
    if (not distinct or not in_lattice
            or len(points) * abs(det) != math.prod(mults)):
        raise ArithmeticError(
            f"cone decomposition: {len(points)} base points for "
            f"prod(mult_j) = {math.prod(mults)} and |det H| = {abs(det)}"
            + (", an edge form outside [0, mult_j)" if not inside else
               ("" if distinct else ", not distinct")
               + ("" if in_lattice else ", a point outside the lattice")))
    return points
