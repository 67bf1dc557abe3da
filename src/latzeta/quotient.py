"""Finite-index subgroups of the translation lattice and their quotients.

The lattice is identified with Z^{n-1} through the basis e_1, .., e_{n-1}
(with e_n = -(e_1 + ... + e_{n-1})), so a finite-index subgroup is a square
integer matrix whose columns are its generators.  The quotient group, its
characters and their Satake parameters are all computed exactly; a character
value is the integer exponent of a root of unity rather than a floating
complex number.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import SingularMatrixError, TypeZeroViolationError
from .intmat import ImageLattice, mat_mul, mat_vec
from .lattice import LatticeVector, Permutation
from .value import Value


class TranslationSubgroup:
    """Finite-index subgroup of the translation lattice.

    ``basis`` is an (n-1) x (n-1) integer matrix whose columns are the
    generators in e-coordinates.  By default every generator must have type
    zero mod n, so that vertex types descend to the quotient; pass
    ``check_types=False`` to allow untyped subgroups (only the plain Cayley
    graph and its classical zeta make sense then).
    """

    def __init__(self, n: int, basis: Sequence[Sequence[int]], *,
                 check_types: bool = True):
        self.n = int(n)
        if self.n < 2:
            raise ValueError("rank must be at least 2")
        self.basis = tuple(tuple(int(x) for x in row) for row in basis)
        k = self.n - 1
        if len(self.basis) != k or any(len(row) != k for row in self.basis):
            raise ValueError(f"basis must be {k}x{k}")
        # one Smith form U basis V = diag(d) serves membership, solving and
        # the quotient
        self.image = ImageLattice(self.basis)
        if 0 in self.image.diag:
            raise SingularMatrixError("subgroup basis is singular")
        self.index = math.prod(self.image.diag)
        if check_types:
            for col, tau in self.type_violations():
                raise TypeZeroViolationError(col, tau, self.n)

    def generators(self) -> List[Tuple[int, ...]]:
        k = self.n - 1
        return [tuple(self.basis[i][j] for i in range(k)) for j in range(k)]

    def type_violations(self):
        for col in self.generators():
            tau = sum(col) % self.n
            if tau != 0:
                yield col, tau

    def contains(self, e_coords: Sequence[int]) -> bool:
        return self.image.contains(e_coords)

    def solve(self, e_coords: Sequence[int]) -> Optional[List[int]]:
        """Coefficients x with basis x = e_coords, or None when the point is
        not in the subgroup."""
        return self.image.solve(e_coords)

    @functools.cached_property
    def quotient(self) -> "FiniteAbelianGroup":
        return FiniteAbelianGroup(n=self.n, divisors=tuple(self.image.diag),
                                  u_matrix=tuple(map(tuple, self.image.u)),
                                  gamma=self)

    def __repr__(self):
        return f"TranslationSubgroup(n={self.n}, basis={self.basis}, N={self.index})"


class AffineSubgroup:
    """Split finite-index subgroup: a translation part M and a permutation
    part P with P-stable M."""

    def __init__(self, lattice: TranslationSubgroup,
                 perm_generators: Sequence[Permutation]):
        self.lattice = lattice
        self.n = lattice.n
        for p in perm_generators:
            if p.n != self.n:
                raise ValueError("permutation rank mismatch")
        self.perms = self._close(perm_generators)
        for p in self.perms:
            # the columns of p @ basis generate the permuted lattice
            for col in zip(*mat_mul(p.basis_matrix(), lattice.basis)):
                if not lattice.contains(col):
                    raise ValueError(
                        f"lattice is not stable under permutation {p.images}")

    def _close(self, gens: Sequence[Permutation]) -> Tuple[Permutation, ...]:
        group = {Permutation.identity(self.n)}
        frontier = list(group)
        while frontier:
            nxt = []
            for g in frontier:
                for h in gens:
                    prod = g.compose(h)
                    if prod not in group:
                        group.add(prod)
                        nxt.append(prod)
            frontier = nxt
        return tuple(sorted(group, key=lambda p: p.images))

    @property
    def index_in_affine_group(self) -> int:
        return math.factorial(self.n) * self.lattice.index // len(self.perms)

    def __repr__(self):
        return (f"AffineSubgroup(n={self.n}, N={self.lattice.index}, "
                f"|P|={len(self.perms)})")


class FiniteAbelianGroup(Value):
    """The quotient lattice / subgroup, via Smith normal form.

    Elements are tuples (c_1, .., c_{n-1}) with c_i reduced mod the i-th
    elementary divisor; the projection of e-coordinates x is (U x) mod d,
    where U basis V = diag(divisors).
    """

    _fields = ("n", "divisors", "u_matrix", "gamma")
    # the __dict__ holds the cached directions
    __slots__ = _fields + ("__dict__",)

    def __init__(self, n: int, divisors: Tuple[int, ...],
                 u_matrix: Tuple[Tuple[int, ...], ...],
                 gamma: TranslationSubgroup):
        self._assign(n, divisors, u_matrix, gamma)

    @property
    def order(self) -> int:
        return math.prod(self.divisors)

    def project(self, e_coords: Sequence[int]) -> Tuple[int, ...]:
        w = mat_vec([list(r) for r in self.u_matrix], e_coords)
        return tuple(x % d for x, d in zip(w, self.divisors))

    def project_vector(self, v: LatticeVector) -> Tuple[int, ...]:
        return self.project(v.to_basis_coords())

    @functools.cached_property
    def directions(self) -> Tuple[Tuple[int, ...], ...]:
        """Projections of the n standard directions e_1, .., e_n."""
        return tuple(self.project_vector(LatticeVector.basis_vector(self.n, i))
                     for i in range(1, self.n + 1))

    def add(self, a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.divisors))

    def elements(self) -> Iterator[Tuple[int, ...]]:
        yield from itertools.product(*(range(d) for d in self.divisors))

    def element_order(self, cls: Sequence[int]) -> int:
        out = 1
        for x, d in zip(cls, self.divisors):
            m = d // math.gcd(d, x % d) if x % d else 1
            out = out * m // math.gcd(out, m)
        return out


def quotient_group(gamma: TranslationSubgroup) -> FiniteAbelianGroup:
    """Quotient of the lattice by the subgroup, as elementary divisors plus
    the projection transform; one object per subgroup, read from the Smith
    form its membership test uses."""
    return gamma.quotient


class Character(Value):
    """A character of the quotient, stored by its exponent tuple.

    The divisors form a chain d_1 | d_2 | ..., so every value is a D-th root
    of unity, D the last divisor, and is held as its exponent a in [0, D):
    the value exp(2 pi i a / D).  The Satake parameters are the values on
    the n standard directions; their exponents sum to 0 mod D.
    """

    __slots__ = _fields = ("exponents", "divisors")

    def __init__(self, exponents: Tuple[int, ...], divisors: Tuple[int, ...]):
        self._assign(exponents, divisors)

    def turn(self, cls: Sequence[int]) -> int:
        """Value on a quotient element, as its exponent in [0, D):
        sum_i k_i x_i (D / d_i) mod D."""
        big = self.divisors[-1]
        return sum(k * x * (big // d)
                   for k, x, d in zip(self.exponents, cls, self.divisors)) % big

    def satake_turns(self, q: FiniteAbelianGroup) -> Tuple[int, ...]:
        return tuple(self.turn(d) for d in q.directions)


def characters(q: FiniteAbelianGroup) -> List[Character]:
    """All characters of the quotient, in lexicographic exponent order."""
    return [Character(exps, q.divisors)
            for exps in itertools.product(*(range(d) for d in q.divisors))]
