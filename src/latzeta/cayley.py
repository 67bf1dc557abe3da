"""The quotient Cayley graph and its typed adjacency operators.

The generator set consists of the 2^n - 2 classes of indicator vectors of
proper nonempty coordinate subsets; the generator of a subset has type equal
to the subset's size.  On the quotient by a finite-index subgroup this gives
a (2^n - 2)-regular multigraph whose typed adjacency operators A_i commute
pairwise and satisfy A_i^T = A_{n-i}.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from .errors import ResourceCapError
from .lattice import LatticeVector, type_of
from .quotient import FiniteAbelianGroup, TranslationSubgroup, quotient_group
from .value import Value

MAX_VERTICES = 4096
# directed edges, (2^n - 2) N, that build_graph indexes at once
MAX_EDGES = 1 << 22


class GeneratorSet(Value):
    """The 2^n - 2 standard generators, tagged by type."""

    __slots__ = _fields = ("n", "elements", "types")

    def __init__(self, n: int, elements: Tuple[LatticeVector, ...],
                 types: Tuple[int, ...]):
        self._assign(n, elements, types)


def generator_set(n: int) -> GeneratorSet:
    """Indicator vectors of proper nonempty subsets of the n coordinates."""
    if n < 2:
        raise ValueError("rank must be at least 2")
    elems = []
    for mask in range(1, 2 ** n - 1):
        coords = tuple((mask >> j) & 1 for j in range(n))
        elems.append(LatticeVector(n, coords))
    elems.sort(key=lambda s: (type_of(s), s.coords))
    return GeneratorSet(n, tuple(elems), tuple(type_of(s) for s in elems))


class QuotientGraph(Value):
    """Cayley graph of the quotient on N vertices, with typed adjacency.

    mats[i-1][w, v] counts the generators s of type i with v + s = w, so
    parallel edges coming from small quotients keep their multiplicity.
    The matrices are not changed after construction, so their sum is kept.
    """

    _fields = ("n", "gamma", "group", "vertices", "mats")
    # the __dict__ holds the cached adjacency
    __slots__ = _fields + ("__dict__",)

    def __init__(self, n: int, gamma: TranslationSubgroup,
                 group: FiniteAbelianGroup,
                 vertices: Tuple[Tuple[int, ...], ...],
                 mats: Tuple[np.ndarray, ...]):
        self._assign(n, gamma, group, vertices, mats)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @functools.cached_property
    def _adjacency(self) -> np.ndarray:
        a = sum(self.mats)
        a.flags.writeable = False
        return a

    def adjacency(self) -> np.ndarray:
        """The sum of the typed matrices, read-only, summed once."""
        return self._adjacency

    def is_simple(self) -> bool:
        a = self.adjacency()
        return bool(((a == 0) | (a == 1)).all() and not np.diag(a).any())


def build_graph(gamma: TranslationSubgroup, *,
                max_vertices: int = MAX_VERTICES) -> QuotientGraph:
    """Cayley graph of the quotient with its typed adjacency matrices."""
    q = quotient_group(gamma)
    n = gamma.n
    if q.order > max_vertices:
        raise ResourceCapError(
            f"quotient has {q.order} vertices, above the cap {max_vertices}")
    edges = (2 ** n - 2) * q.order
    if edges > MAX_EDGES:
        raise ResourceCapError(
            f"rank {n} gives 2^{n} - 2 generators on {q.order} vertices, "
            f"{edges} edges, above the cap {MAX_EDGES}")
    # elements() is in lexicographic order, which shift_indices counts in
    vertices = tuple(q.elements())
    gens = generator_set(n)
    heads = q.shift_indices([q.project_vector(s) for s in gens.elements])
    mats = np.zeros((n - 1, q.order, q.order), dtype=np.int64)
    np.add.at(mats, (np.array(gens.types)[:, None] - 1, heads,
                     np.arange(q.order)), 1)
    return QuotientGraph(n=n, gamma=gamma, group=q, vertices=vertices,
                         mats=tuple(mats))


def typed_adjacency(g: QuotientGraph, i: int) -> np.ndarray:
    """The type-i adjacency operator, 1 <= i <= n-1."""
    if not 1 <= i <= g.n - 1:
        raise ValueError(f"type index {i} out of range 1..{g.n - 1}")
    return g.mats[i - 1]


def perturb_adjacency(g: QuotientGraph, type_index: int, row: int, col: int,
                      delta: int = 1) -> QuotientGraph:
    """Copy of the graph with one adjacency entry changed (negative control)."""
    if not 1 <= type_index <= g.n - 1:
        raise ValueError(f"type index {type_index} out of range")
    mats = [m.copy() for m in g.mats]
    mats[type_index - 1][row, col] += delta
    return QuotientGraph(n=g.n, gamma=g.gamma, group=g.group,
                         vertices=g.vertices, mats=tuple(mats))


def export_edge_list(g: QuotientGraph) -> str:
    """Plain-text edge list: one line "v w type multiplicity" per entry,
    vertices written as comma-joined canonical tuples."""
    lines = []
    for t, mat in enumerate(g.mats, start=1):
        rows, cols = np.nonzero(mat)
        for w, v in zip(rows.tolist(), cols.tolist()):
            sv = ",".join(str(x) for x in g.vertices[v])
            sw = ",".join(str(x) for x in g.vertices[w])
            lines.append(f"{sv} {sw} {t} {int(mat[w, v])}")
    lines.sort()
    return "\n".join(lines) + "\n"
