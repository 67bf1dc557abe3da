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
  translations with one permutation part at once (:func:`length_vectors`).
* Faces of the dominant cone x1 >= ... >= xn are indexed by the set S of
  positions where equality is forced.  A face with blocks (n1, ..., nr) is
  coordinatized by the strictly decreasing block values t1 > ... > t_{r-1}
  > t_r = 0, so its lattice points live in Z^{r-1} ("t-coordinates").
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import SingularMatrixError
from .intmat import (_int_stack, adjugate_and_det, identity_matrix, mat_mul,
                     snf_diagonal, snf_with_transforms, unimodular_inverse)
from .polynomials import norm_exponent
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
        n = self.n
        cols = []
        for i in range(n - 1):
            img = self.images[i]
            if img < n - 1:
                col = [1 if r == img else 0 for r in range(n - 1)]
            else:
                col = [-1] * (n - 1)
            cols.append(col)
        return [[cols[j][i] for j in range(n - 1)] for i in range(n - 1)]


def all_permutations(n: int):
    for images in itertools.permutations(range(n)):
        yield Permutation(images)


def basis_matrices(perms: Sequence[Permutation]) -> np.ndarray:
    """The :meth:`Permutation.basis_matrix` of each of perms (all of one
    rank n), as one int64 stack: entry (s, r, i) is 1 where perms[s] takes
    i to r and -1 where it takes i to n - 1."""
    n = perms[0].n
    images = np.array([p.images[:-1] for p in perms])[:, None, :]
    rows = np.arange(n - 1)[:, None]
    return (images == rows).astype(np.int64) - (images == n - 1)


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

    @classmethod
    def _unchecked(cls, values: Tuple[Fraction, ...], scale: str
                   ) -> "LengthVector":
        """The vector of values, known to be nonnegative, with no
        ``__init__`` check."""
        out = object.__new__(cls)
        object.__setattr__(out, "values", values)
        object.__setattr__(out, "scale", scale)
        return out

    def exponent_tuple(self):
        return norm_exponent(self.values)


def length_vectors(p: Permutation, translations,
                   scale: str = GEODESIC) -> List[LengthVector]:
    """Lengths of the elements (v, p), one per row v of translations (n
    integer coordinates a row, any representative of each class mod the
    diagonal): cycle-average the translation part, sort, take gaps.

    Conjugation-invariant, and integer-valued on the whole group at the
    factorial scale.  The cycle averages are kept as ints scaled by the lcm
    L of the cycle lengths (one product with the cycle-sum matrix), sorted
    per row and differenced as one integer array, and each distinct gap
    becomes one division by L.  A scaled cycle sum is at most L max|v|, so
    the array is int64 when f * 2 L max|v| is below 2^63.
    """
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
    gaps = (np.diff(avg, axis=1)[:, ::-1] * f).tolist()
    fractions = {x: Fraction(x, lcm)
                 for x in set(itertools.chain.from_iterable(gaps))}
    return [LengthVector._unchecked(tuple([fractions[x] for x in row]), scale)
            for row in gaps]


def length_vector(g: AffineElement, scale: str = GEODESIC) -> LengthVector:
    """Lengths of g, by :func:`length_vectors` on its one translation."""
    return length_vectors(g.p, [g.v.coords], scale)[0]


class FaceDescriptor(Value):
    """A face of the dominant cone: S is the set of forced equalities."""

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
    for r in range(n):
        for combo in itertools.combinations(range(1, n), r):
            yield FaceDescriptor(n, frozenset(combo))


class ConeDecomposition(Value):
    """cone ∩ lattice = disjoint union of base_point + N0-span of generators.

    Points are in the t-coordinates of the face (dimension r-1); the map
    (base, k1..kr) -> base + sum k_j a_j is a bijection onto the lattice
    points of the open cone.
    """

    __slots__ = _fields = ("base_points", "generators")

    def __init__(self, base_points: Tuple[Tuple[int, ...], ...],
                 generators: Tuple[Tuple[int, ...], ...]):
        self._assign(base_points, generators)


def edge_multiples(basis: Sequence[Sequence[int]]):
    """(adj, det, mults, x_cols) of a square lattice basis B in
    t-coordinates: mult_j = |det B| / gcd(det B, adj(B) (1^j, 0)) is the
    least multiple of the edge ray (1^j, 0) in the lattice, and column j of
    x_cols holds its lattice coordinates adj(B) mult_j (1^j, 0) / det B."""
    try:
        adj, det = adjugate_and_det(basis)
    except SingularMatrixError:
        raise SingularMatrixError("degenerate lattice: basis is rank deficient")
    mults, x_cols = [], []
    prefix = [0] * len(basis)
    for j in range(len(basis)):
        prefix = [x + row[j] for x, row in zip(prefix, adj)]  # adj (1^j, 0)
        mult = abs(det) // math.gcd(det, *prefix)
        if any(mult * x % det for x in prefix):
            raise SingularMatrixError("generators do not lie in the lattice")
        mults.append(mult)
        x_cols.append([mult * x // det for x in prefix])
    return adj, det, mults, x_cols


def cone_base_point_count(edges) -> int:
    """The number prod(mult_j) / |det B| of base points that
    :func:`cone_decompose` gives the lattice of the square basis B on a face
    of its dimension, from the :func:`edge_multiples` of B, found without
    enumerating them; 1 for None (no basis: a point face, or the default
    lattice Z^k)."""
    if edges is None:
        return 1
    _, det, mults, _ = edges
    return math.prod(mults) // abs(det)


def cone_decompose(face: FaceDescriptor,
                   lattice_basis: Optional[Sequence[Sequence[int]]] = None,
                   edges=None) -> ConeDecomposition:
    """Decompose (open face cone) ∩ lattice into shifted free monoids.

    The lattice L is given by a square integer basis matrix B in
    t-coordinates (columns are generators); by default it is Z^{r-1}, the
    t-coordinate image of the full translation lattice; ``edges``, when
    given, is the :func:`edge_multiples` of B, not computed again here.
    The cone is simplicial: generator a_j = mult_j (1^j, 0^(k-j)) is the
    minimal lattice vector on its j-th edge,
    mult_j = |det B| / gcd(det B, adj(B) (1^j, 0)), and the edge forms
    alpha_i(t) = t_i - t_{i+1} (alpha_k = t_k) satisfy
    alpha_i(a_j) = mult_j delta_ij.  The base points are the lattice points
    of the half-open parallelepiped {sum_j lambda_j a_j : 0 < lambda_j <= 1},
    the points with 1 <= alpha_j(t) <= mult_j (Stanley, Enumerative
    Combinatorics I, Sec. 4.6; Beck and Robins, Computing the Continuous
    Discretely, Thm 3.5): one per coset of the generator span, so
    prod(mult_j) / |det B| of them.  The base point of the coset of y has
    edge forms a_j = 1 + (alpha_j(y) - 1) mod mult_j, and t_i is the sum of
    the a_j with j >= i.  Raises ArithmeticError unless the Smith cosets
    give that many distinct base points, each with its edge forms in
    [1, mult_j] and each in the lattice (adj(B) t = 0 mod det B).
    """
    k = face.dim
    if k == 0:
        return ConeDecomposition(((),), ())
    if lattice_basis is None:
        basis = identity_matrix(k)
    else:
        basis = [[int(x) for x in row] for row in lattice_basis]
        if len(basis) != k or any(len(row) != k for row in basis):
            raise ValueError(f"lattice basis must be {k}x{k} for this face")
    # minimal lattice vector on each edge ray (1,..,1,0,..,0)
    adj, det, mults, x_cols = edges or edge_multiples(basis)
    generators = [(m,) * (j + 1) + (0,) * (k - j - 1)
                  for j, m in enumerate(mults)]

    # coset representatives of the generator span inside the lattice
    u, d, _ = snf_with_transforms([list(r) for r in zip(*x_cols)])
    diag = snf_diagonal(d)
    if any(x == 0 for x in diag):
        raise SingularMatrixError("degenerate lattice: generator span is rank deficient")
    to_t = mat_mul(basis, unimodular_inverse(u))
    # the edge forms of the columns of to_t modulo mult_j, on the Smith
    # axes with d > 1 (the coset coordinate is 0 on the others)
    live = [i for i, x in enumerate(diag) if x > 1]
    alphas = [[(row[i] - nxt[i]) % m for i in live]
              for row, nxt, m in zip(to_t, to_t[1:] + [[0] * k], mults)]

    base_points = []
    for combo in itertools.product(*(range(diag[i]) for i in live)):
        t, acc = [0] * k, 0
        for i in range(k - 1, -1, -1):
            acc += (sum(map(operator.mul, alphas[i], combo)) - 1) % mults[i] + 1
            t[i] = acc
        base_points.append(tuple(t))
    base_points.sort()
    # certificate: prod(mult_j) / |det B| distinct lattice points of the
    # half-open parallelepiped, so one in each coset of the generator span
    cols = [*zip(*base_points), (0,) * len(base_points)]
    inside = all(1 <= min(d) and max(d) <= m for d, m in zip(
        (list(map(operator.sub, a, b)) for a, b in zip(cols, cols[1:])),
        mults))
    distinct = len(set(base_points)) == len(base_points)
    # inside the box every |t_i| is at most sum(mult_j)
    bound = k * max(abs(x) for row in adj for x in row) * sum(mults)
    in_lattice = inside and not (
        _int_stack(base_points, bound) @ _int_stack(adj, bound).T
        % abs(det)).any()
    if (not in_lattice or not distinct
            or len(base_points) * abs(det) != math.prod(mults)):
        raise ArithmeticError(
            f"cone decomposition: {len(base_points)} base points "
            f"({'distinct' if distinct else 'not distinct'}) for "
            f"prod(mult_j) = {math.prod(mults)} and |det B| = {abs(det)}"
            + ("" if inside else ", an edge form outside [1, mult_j]")
            + ("" if in_lattice or not inside else ", a point outside the "
               "lattice"))
    return ConeDecomposition(tuple(base_points), tuple(generators))
