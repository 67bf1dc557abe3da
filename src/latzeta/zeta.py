"""Zeta functions of the quotient Cayley graph, by independent routes.

The positive-geodesic zeta is computed three ways: as an exact determinant of
the typed adjacency polynomial, as the product of (1 - u^{m_i})^{N/m_i} over
the orders of the standard directions, and as a character (L-function)
product in high-precision complex arithmetic rounded back to integers.  A
fourth route truncates the Euler product over brute-force enumerated
positive geodesics.  The classical Ihara zeta comes from the Bass
determinant.  On simple quotients it is checked against the Euler product
over primitive backtrackless tailless cycles, which the traces of the
non-backtracking edge operator give in time polynomial in the depth; the
explicit cycle enumerator stays as the reference for small depths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from mpmath import mp, mpc, mpf

from .errors import MultigraphError, ResourceCapError, ToleranceError
from .exactdet import polymatrix_det
from .cayley import QuotientGraph, build_graph
from .lattice import LatticeVector
from .polynomials import IntPolynomial
from .quotient import (
    TranslationSubgroup,
    characters,
    quotient_group,
)

LFUNCTION_MIN_PRECISION_BITS = 150


def _lfunction_precision_bits(degree: int) -> int:
    # intermediate partial products can grow to ~2^degree before cancelling,
    # so keep that many guard bits on top of the base precision
    return LFUNCTION_MIN_PRECISION_BITS + degree


def zeta_positive_det(g: QuotientGraph) -> IntPolynomial:
    """det(I - A_1 u + A_2 u^2 - ... + (-1)^n u^n I), exactly.

    Degree n*N with constant term 1.
    """
    size = g.num_vertices
    eye = np.eye(size, dtype=np.int64)
    mats = [eye]
    for i, a in enumerate(g.mats, start=1):
        mats.append((-1) ** i * a)
    mats.append((-1) ** g.n * eye)
    poly = polymatrix_det(mats)
    if poly.coefficient(0) != 1 or poly.degree != g.n * size:
        raise ArithmeticError("positive zeta determinant has unexpected shape")
    return poly


def direction_orders(gamma: TranslationSubgroup) -> List[int]:
    """Orders m_1, .., m_n of the n standard directions in the quotient."""
    q = quotient_group(gamma)
    return [q.element_order(q.project_vector(LatticeVector.basis_vector(gamma.n, i)))
            for i in range(1, gamma.n + 1)]


def zeta_positive_orders(gamma: TranslationSubgroup) -> IntPolynomial:
    """prod_i (1 - u^{m_i})^{N/m_i} over the direction orders."""
    n_vertices = gamma.index
    out = IntPolynomial.one()
    for m in direction_orders(gamma):
        out = out * IntPolynomial.one_minus_power(m, n_vertices // m)
    return out


def lfunction_with_deviation(gamma: TranslationSubgroup,
                             tolerance: float = 1e-9
                             ) -> Tuple[IntPolynomial, float]:
    """Character-product L-function, rounded to integers.

    Each character contributes prod_j (1 - rho_j u) over its n Satake
    parameters; the product over all characters of the quotient is computed
    in complex arithmetic with enough guard bits for the degree and rounded
    coefficientwise.  Returns the polynomial and the worst rounding
    deviation; raises if the deviation exceeds the tolerance.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    q = quotient_group(gamma)
    with mp.workprec(_lfunction_precision_bits(gamma.n * gamma.index)):
        total = [mpc(1)]
        two_pi = 2 * mp.pi
        for chi in characters(q):
            factor = [mpc(1)]
            for turn in chi.satake_turns(q):
                angle = two_pi * mpf(turn.numerator) / turn.denominator
                rho = mp.exp(1j * angle)
                factor = [factor[0]] + [factor[i] - rho * factor[i - 1]
                                        for i in range(1, len(factor))] + [-rho * factor[-1]]
            new = [mpc(0)] * (len(total) + len(factor) - 1)
            for i, a in enumerate(total):
                for j, b in enumerate(factor):
                    new[i + j] += a * b
            total = new
        coeffs = []
        deviation = 0.0
        for c in total:
            nearest = int(mp.nint(c.real))
            dev = float(max(abs(c.real - nearest), abs(c.imag)))
            deviation = max(deviation, dev)
            coeffs.append(nearest)
    if deviation > tolerance:
        raise ToleranceError(
            f"L-function rounding deviation {deviation:g} exceeds {tolerance:g}")
    return IntPolynomial(coeffs), deviation


def lfunction(gamma: TranslationSubgroup, tolerance: float = 1e-9) -> IntPolynomial:
    return lfunction_with_deviation(gamma, tolerance)[0]


def euler_characteristic(g: QuotientGraph) -> int:
    """Vertices minus edges: N * (2 - 2^{n-1})."""
    return g.num_vertices * (2 - 2 ** (g.n - 1))


def ihara_bass(g: QuotientGraph) -> Tuple[IntPolynomial, int]:
    """(det(I - A u + (2^n - 3) u^2 I), Euler characteristic).

    In the product convention the Ihara zeta equals numerator / (1-u^2)^chi.
    The sign of the exponent varies between conventions, so the pair is
    returned and callers expand whichever form they need.
    """
    size = g.num_vertices
    eye = np.eye(size, dtype=np.int64)
    q = 2 ** g.n - 3
    numerator = polymatrix_det([eye, -g.adjacency(), q * eye])
    return numerator, euler_characteristic(g)


def ihara_zeta_series(numerator: IntPolynomial, chi: int, max_deg: int
                      ) -> IntPolynomial:
    """numerator / (1 - u^2)^chi as a truncated series (exact when chi <= 0)."""
    if chi <= 0:
        return (numerator * IntPolynomial.one_minus_power(2, -chi)).truncate(max_deg)
    inv = IntPolynomial.one_minus_power(2, chi).series_inverse(max_deg)
    return numerator.mul_truncated(inv, max_deg)


@dataclass(frozen=True)
class GeodesicClass:
    """A rotation class of closed positive geodesics in one direction."""

    length: int
    primitive_length: int
    direction: int
    representative: Tuple[int, ...]

    def __post_init__(self):
        if self.length % self.primitive_length != 0:
            raise ValueError("primitive length must divide length")


def enumerate_positive_geodesics(g: QuotientGraph, max_len: int
                                 ) -> List[GeodesicClass]:
    """All classes of primitive closed positive geodesics of length <= max_len.

    A positive geodesic is a straight walk repeating a single type-1
    direction, so enumeration walks each direction from each vertex until it
    first closes; classes are closed walks up to rotation of the start.
    """
    out: List[GeodesicClass] = []
    q = g.group
    for i in range(1, g.n + 1):
        step = q.project_vector(LatticeVector.basis_vector(g.n, i))
        visited = set()
        for start in g.vertices:
            if start in visited:
                continue
            cycle = [start]
            cur = q.add(start, step)
            while cur != start:
                cycle.append(cur)
                cur = q.add(cur, step)
            visited.update(cycle)
            if len(cycle) <= max_len:
                out.append(GeodesicClass(
                    length=len(cycle),
                    primitive_length=len(cycle),
                    direction=i,
                    representative=min(cycle),
                ))
    out.sort(key=lambda c: (c.direction, c.representative))
    return out


def euler_product_truncation(classes: Sequence[GeodesicClass], max_deg: int
                             ) -> IntPolynomial:
    """prod (1 - u^{length}) over primitive classes, truncated at max_deg."""
    out = IntPolynomial.one()
    for c in classes:
        if c.length <= max_deg:
            out = out.mul_truncated(
                IntPolynomial([1] + [0] * (c.length - 1) + [-1]), max_deg)
    return out


@dataclass(frozen=True)
class CycleClass:
    """A rotation class of primitive tailless backtrackless closed paths."""

    length: int
    edge_sequence: Tuple[Tuple[int, int], ...]


def enumerate_backtrackless_cycles(g: QuotientGraph, max_len: int
                                   ) -> List[CycleClass]:
    """Primitive tailless backtrackless cycle classes up to rotation.

    Simple graphs only.  Classes are canonicalized by their lexicographically
    least rotation of the directed-edge sequence; each cycle is found from
    its minimal directed edge, with branches pruned once they use a smaller
    edge or cannot return in the remaining length.
    """
    if not g.is_simple():
        raise MultigraphError(
            "backtrackless cycle enumeration needs a simple quotient graph")
    size = g.num_vertices
    adj_mat = g.adjacency()
    neighbors = [np.nonzero(adj_mat[:, v])[0].tolist() for v in range(size)]
    in_neighbors = [np.nonzero(adj_mat[v, :])[0].tolist() for v in range(size)]
    edge_id: Dict[Tuple[int, int], int] = {}
    for v in range(size):
        for w in neighbors[v]:
            edge_id[(v, w)] = len(edge_id)

    # distances *to* a start vertex for pruning: BFS over in-edges, which
    # differ from out-edges once a perturbation makes the graph directed
    def bfs(dst: int) -> List[int]:
        dist = [-1] * size
        dist[dst] = 0
        frontier = [dst]
        while frontier:
            nxt = []
            for x in frontier:
                for y in in_neighbors[x]:
                    if dist[y] < 0:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        return dist

    found: Dict[Tuple[int, ...], None] = {}

    def canonical(seq: Tuple[int, ...]) -> Tuple[int, ...]:
        return min(seq[i:] + seq[:i] for i in range(len(seq)))

    def is_primitive(seq: Tuple[int, ...]) -> bool:
        length = len(seq)
        for d in range(1, length):
            if length % d == 0 and seq == seq[d:] + seq[:d]:
                return False
        return True

    for (v0, w0), id0 in sorted(edge_id.items(), key=lambda kv: kv[1]):
        dist_to_start = bfs(v0)
        stack = [(w0, v0, (id0,))]
        while stack:
            cur, prev, path = stack.pop()
            if cur == v0 and len(path) >= 2 and prev != w0:
                # closed, and the seam does not backtrack (tailless)
                seq = canonical(path)
                if seq[0] == id0 and is_primitive(seq):
                    found[seq] = None
            if len(path) >= max_len:
                continue
            remaining = max_len - len(path)
            for nxt in neighbors[cur]:
                if nxt == prev:
                    continue
                eid = edge_id[(cur, nxt)]
                if eid < id0:
                    continue
                if dist_to_start[nxt] > remaining - 1:
                    continue
                stack.append((nxt, cur, path + (eid,)))

    id_to_edge = {i: e for e, i in edge_id.items()}
    classes = [CycleClass(length=len(seq),
                          edge_sequence=tuple(id_to_edge[i] for i in seq))
               for seq in found]
    classes.sort(key=lambda c: (c.length, c.edge_sequence))
    return classes


def backtrackless_euler_truncation(classes: Sequence[CycleClass], max_deg: int
                                   ) -> IntPolynomial:
    out = IntPolynomial.one()
    for c in classes:
        if c.length <= max_deg:
            out = out.mul_truncated(
                IntPolynomial([1] + [0] * (c.length - 1) + [-1]), max_deg)
    return out


# start-edge columns pushed through the edge operator together
HASHIMOTO_BLOCK = 64


def hashimoto_traces(g: QuotientGraph, max_len: int) -> List[int]:
    """[tr(W), tr(W^2), .., tr(W^max_len)] for the non-backtracking edge
    operator W, as Python ints.

    Edges are v -> w wherever a[w, v], and (W x)[f] sums x[e] over the
    predecessors e of f: head(e) = tail(f) and tail(e) != head(f).  So
    tr(W^L) counts closed tailless backtrackless walks of length L with a
    marked start edge.  Nothing assumes the graph is undirected or
    vertex-transitive.  Indicator columns of HASHIMOTO_BLOCK start edges at a
    time go through W by gather-sums over a predecessor table padded with a
    zero row.  Every entry of W^L is at most r^L, where r is the largest
    number of predecessors of an edge, so r^max_len < 2^63 is checked before
    the table or any block is allocated.
    """
    if not g.is_simple():
        raise MultigraphError(
            "Hashimoto traces need a simple quotient graph")
    a = g.adjacency() != 0
    heads, tails = np.nonzero(a)          # sorted by head
    # v -> w has the in-edges of v as predecessors, less w -> v if present
    r = int((a.sum(axis=1)[tails] - a[tails, heads]).max(initial=0))
    if r ** max_len >= 2 ** 63:
        raise ResourceCapError(
            f"Hashimoto traces to length {max_len}: entries of W^{max_len} "
            f"can reach {r}^{max_len}, above the int64 bound 2^63")
    traces = [0] * max_len
    if r == 0:
        return traces
    heads, tails = heads.tolist(), tails.tolist()
    n_edges = len(heads)
    in_edges: List[List[int]] = [[] for _ in range(g.num_vertices)]
    for e, w in enumerate(heads):
        in_edges[w].append(e)
    pred = np.full((n_edges, r), n_edges)       # row n_edges stays zero
    for f, (w, v) in enumerate(zip(heads, tails)):
        row = [e for e in in_edges[v] if tails[e] != w]
        pred[f, :len(row)] = row
    for lo in range(0, n_edges, HASHIMOTO_BLOCK):
        starts = np.arange(lo, min(lo + HASHIMOTO_BLOCK, n_edges))
        cols = np.arange(len(starts))
        x = np.zeros((n_edges + 1, len(starts)), dtype=np.int64)
        x[starts, cols] = 1
        nxt = np.empty((n_edges, len(starts)), dtype=np.int64)
        gathered = np.empty_like(nxt)
        for step in range(max_len):
            np.take(x, pred[:, 0], axis=0, out=nxt)
            for slot in range(1, r):
                np.take(x, pred[:, slot], axis=0, out=gathered)
                nxt += gathered
            x[:n_edges] = nxt
            traces[step] += sum(x[starts, cols].tolist())
    return traces


def _mobius(m: int) -> int:
    out = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def backtrackless_cycle_product(g: QuotientGraph, max_len: int
                                ) -> Tuple[IntPolynomial, int]:
    """(prod (1 - u^length) truncated at max_len, number of classes) over the
    primitive tailless backtrackless cycle classes of length <= max_len.

    Both come from the Hashimoto traces t_L = tr(W^L), without listing a
    cycle: the product's coefficients from Newton's recurrence
    k p_k = -sum_{j=1..k} t_j p_{k-j}, and the number of classes of length
    L by Moebius inversion, (1/L) sum_{d | L} mu(L/d) t_d.  A division that
    is not exact, or a negative class count, raises ArithmeticError.
    """
    traces = hashimoto_traces(g, max_len)
    coeffs = [1]
    for k in range(1, max_len + 1):
        total = -sum(traces[j - 1] * coeffs[k - j] for j in range(1, k + 1))
        q, rem = divmod(total, k)
        if rem:
            raise ArithmeticError(
                f"Newton recurrence: {total} is not divisible by {k}")
        coeffs.append(q)
    count = 0
    for length in range(1, max_len + 1):
        total = sum(_mobius(length // d) * traces[d - 1]
                    for d in range(1, length + 1) if length % d == 0)
        q, rem = divmod(total, length)
        if rem or q < 0:
            raise ArithmeticError(
                f"Moebius inversion gives {total}/{length} primitive classes "
                f"of length {length}")
        count += q
    return IntPolynomial(coeffs), count


@dataclass
class ZetaReport:
    """All four positive-zeta routes on one subgroup, with verdicts."""

    n: int
    basis: Tuple[Tuple[int, ...], ...]
    num_vertices: int
    max_degree: int
    tolerance: float
    det_poly: IntPolynomial = field(default=None)
    orders_poly: IntPolynomial = field(default=None)
    lfunction_poly: IntPolynomial = field(default=None)
    lfunction_deviation: float = 0.0
    euler_truncated: IntPolynomial = field(default=None)
    det_equals_orders: bool = False
    det_equals_lfunction: bool = False
    det_matches_euler: bool = False
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return (self.det_equals_orders and self.det_equals_lfunction
                and self.det_matches_euler)

    def to_json_obj(self):
        return {
            "config": {
                "n": self.n,
                "basis": [list(r) for r in self.basis],
                "vertices": self.num_vertices,
                "maxDegree": self.max_degree,
                "tolerance": self.tolerance,
            },
            "polynomials": {
                "determinant": self.det_poly.to_json_coeffs(),
                "orders_product": self.orders_poly.to_json_coeffs(),
                "lfunction": self.lfunction_poly.to_json_coeffs(),
                "euler_truncated": self.euler_truncated.to_json_coeffs(),
            },
            "lfunction_deviation": self.lfunction_deviation,
            "verdicts": {
                "det_equals_orders": self.det_equals_orders,
                "det_equals_lfunction": self.det_equals_lfunction,
                "det_matches_euler_truncation": self.det_matches_euler,
            },
            "timings_s": dict(sorted(self.timings.items())),
        }


def verify_theorems(gamma: TranslationSubgroup, max_deg: int = 12,
                    tolerance: float = 1e-9,
                    graph: Optional[QuotientGraph] = None) -> ZetaReport:
    """Run all four positive-zeta routes and compare them pairwise.

    An explicit pre-built (possibly perturbed) graph can be supplied; the
    orders, character, and geodesic routes always come from the subgroup
    itself, which is what makes a perturbation detectable.
    """
    if graph is None:
        graph = build_graph(gamma)
    report = ZetaReport(
        n=gamma.n, basis=gamma.basis, num_vertices=graph.num_vertices,
        max_degree=max_deg, tolerance=tolerance,
    )
    t0 = time.monotonic()
    report.det_poly = zeta_positive_det(graph)
    report.timings["determinant"] = time.monotonic() - t0

    t0 = time.monotonic()
    report.orders_poly = zeta_positive_orders(gamma)
    report.timings["orders_product"] = time.monotonic() - t0

    t0 = time.monotonic()
    report.lfunction_poly, report.lfunction_deviation = \
        lfunction_with_deviation(gamma, tolerance)
    report.timings["lfunction"] = time.monotonic() - t0

    t0 = time.monotonic()
    classes = enumerate_positive_geodesics(graph, max_deg)
    report.euler_truncated = euler_product_truncation(classes, max_deg)
    report.timings["euler_product"] = time.monotonic() - t0

    report.det_equals_orders = report.det_poly == report.orders_poly
    report.det_equals_lfunction = report.det_poly == report.lfunction_poly
    report.det_matches_euler = (report.det_poly.truncate(max_deg)
                                == report.euler_truncated)
    return report
