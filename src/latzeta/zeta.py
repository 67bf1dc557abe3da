"""Zeta functions of the quotient Cayley graph, by independent routes.

The positive-geodesic zeta is computed three ways: as an exact determinant of
the typed adjacency polynomial, as the product of (1 - u^{m_i})^{N/m_i} over
the orders of the standard directions, and as a character (L-function)
product in fixed-point Gaussian-integer arithmetic, whose proven error bound
stays below 1/2 so that rounding recovers the integers (mpmath computes only
the roots of unity).  A fourth route truncates the Euler product over
brute-force enumerated positive geodesics.  The classical Ihara zeta comes
from the Bass determinant.  On simple quotients it is checked against the
Euler product over primitive backtrackless tailless cycles, which the traces
of the non-backtracking edge operator give in time polynomial in the depth;
the explicit cycle enumerator stays as the reference for small depths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np
from mpmath import mp, mpf

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
    # the error bound of lfunction_error_bound grows like 2^degree, so keep
    # that many fractional bits on top of the base precision
    return LFUNCTION_MIN_PRECISION_BITS + degree


def lfunction_error_bound(degree: int, bits: int) -> Fraction:
    """(K + 4) 2^(K - 1 - P), for K = degree and P = bits: the a-priori
    bound on every coefficient error of :func:`fixed_point_product` over K
    factors; see there for the proof."""
    return Fraction(degree + 4, 2) * Fraction(2) ** (degree - bits)


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


def fixed_point_product(turns: Sequence[Fraction], bits: int
                        ) -> Tuple[List[int], List[int]]:
    """prod_t (1 - rho_t u), rho_t = exp(2 pi i t), in fixed point.

    Returns the real and the imaginary parts of the K + 1 coefficients
    (K = len(turns)) as Python ints scaled by 2^P, P = bits.  Each root is
    rounded to P bits once per distinct turn (components off by at most
    2^(-P-1) + 2^(-P-16), so |r - rho| < 2^-P and |r| < 1 + 2^-P), and each
    factor is applied to the running coefficients in place,
    c_i -= round(r c_{i-1}), with both parts of the product rounded to the
    nearest multiple of 2^-P (off by less than 2^-P in modulus).

    Error bound.  Let c_k(i) be the exact coefficients after k factors,
    so |c_k(i)| <= binom(k, i) <= 2^k, and E_k the largest modulus of the
    error of a computed one.  Subtracting the two recurrences,

        e_k(i) = e_{k-1}(i) - r e_{k-1}(i-1) - (r - rho) c_{k-1}(i-1) + delta,

    so E_k <= (2 + 2^-P) E_{k-1} + 2^-P (2^(k-1) + 1) with E_0 = 0, and

        E_K <= 2^-P (1 + 2^(-P-1))^K sum_k 2^(K-k) (2^(k-1) + 1)
            <  2^(K-1-P) (K + 2) (1 + K 2^-P)  <=  (K + 4) 2^(K-1-P),

    using (1 + x)^K <= 1 + 2Kx for Kx <= 1 and K (K + 2) <= 2^(P+1); both
    hold whenever this bound, :func:`lfunction_error_bound`, is below 1/2.
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

    Each character chi contributes prod_j (1 - chi(e_j) u) over the
    projections of the n standard directions e_j, its Satake parameters;
    the K = nN factors of all characters go one by one through
    :func:`fixed_point_product` at P = _lfunction_precision_bits(K)
    fractional bits.  Every coefficient is then within
    ``lfunction_error_bound(K, P)`` of the exact one, which must be below
    1/2 (or ArithmeticError), so rounding to the nearest integer recovers
    the integer coefficients.  Returns the polynomial and the worst rounding
    deviation; raises ToleranceError if the deviation exceeds the tolerance
    and ArithmeticError if it exceeds the proven bound.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    q = quotient_group(gamma)
    degree = gamma.n * gamma.index
    bits = _lfunction_precision_bits(degree)
    bound = lfunction_error_bound(degree, bits)
    if bound >= Fraction(1, 2):
        raise ArithmeticError(
            f"L-function error bound {float(bound):g} at {bits} bits for "
            f"degree {degree} is not below 1/2")
    directions = [q.project_vector(LatticeVector.basis_vector(gamma.n, i))
                  for i in range(1, gamma.n + 1)]
    turns = [chi.turn(d) for chi in characters(q) for d in directions]
    re, im = fixed_point_product(turns, bits)
    half = 1 << (bits - 1)
    coeffs = [(x + half) >> bits for x in re]
    worst = max(max(abs(x - (c << bits)), abs(y))
                for x, y, c in zip(re, im, coeffs))
    exact_deviation = Fraction(worst, 1 << bits)
    deviation = float(exact_deviation)
    if exact_deviation > bound:
        raise ArithmeticError(
            f"L-function rounding deviation {deviation:g} exceeds the proven "
            f"error bound {float(bound):g}")
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
    direction: int
    representative: Tuple[int, ...]


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

