"""Zeta functions of the quotient Cayley graph, by independent routes.

The positive-geodesic zeta is computed three ways: as an exact determinant of
the typed adjacency polynomial, as the product of (1 - u^{m_i})^{N/m_i} over
the orders of the standard directions, and as a character (L-function)
product, exactly: every character value is a root of unity of order dividing
the last elementary divisor D, so the product is taken modulo primes
p = 1 (mod D), lifted by CRT past a proven bound and certified at one more
prime.  A fourth route truncates the
Euler product over brute-force enumerated positive geodesics.  The classical
Ihara zeta comes from the Bass determinant.  On simple quotients it is
checked against the Euler product over primitive backtrackless tailless
cycles, which the traces of the non-backtracking edge operator W give in
time polynomial in the depth L: W x at an edge v -> w is the sum of x over
the in-edges of v minus x at w -> v.  Entries of W^L stay within r^L and
in-edge sums within c^(L-1), r and c the most predecessors and successors
of an edge, both checked below 2^63 first.  The explicit cycle enumerator
stays as the reference for small depths.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import MultigraphError, ResourceCapError
from .exactdet import crt_lift, crt_primes, polymatrix_det
from .cayley import QuotientGraph
from .polynomials import IntPolynomial
from .quotient import (
    TranslationSubgroup,
    characters,
    quotient_group,
)
from .value import Value


def _lfunction_precision_bits(degree: int) -> int:
    """The bits that the CRT modulus of the L-function must exceed: those of
    2 binom(K, K // 2) + 1 for K = degree.  Every root of unity has modulus
    1, so the coefficient of u^k in a product of K factors (1 - rho u) is at
    most binom(K, k) in modulus."""
    return (2 * math.comb(degree, degree // 2) + 1).bit_length()


def _unit_powers(d: int, p: int) -> List[int]:
    """g^0, .., g^(d-1) mod p for a primitive d-th root of unity g mod a
    prime p = 1 (mod d): g = h^((p-1)/d) for the least h >= 2 whose powers
    below d leave out 1."""
    h = 2
    while True:
        g = pow(h, (p - 1) // d, p)
        powers = [1]
        for _ in range(d - 1):
            powers.append(powers[-1] * g % p)
        if 1 not in powers[1:]:
            return powers
        h += 1


def _product_mod(exponents: Sequence[int], d: int, primes: Sequence[int]
                 ) -> np.ndarray:
    """prod_j (1 - g^(a_j) u) mod each prime, g a primitive d-th root of
    unity there and a_j the exponents: one row of K + 1 coefficients per
    prime, lowest first, the K factors applied one at a time to all primes
    at once."""
    ps = np.array(primes, dtype=np.int64)[:, None]
    roots = np.array([_unit_powers(d, p) for p in primes],
                     dtype=np.int64)[:, exponents]
    c = np.zeros((len(primes), len(exponents) + 1), dtype=np.int64)
    c[:, 0] = 1
    for i in range(len(exponents)):
        c[:, 1:i + 2] = (c[:, 1:i + 2] - roots[:, i:i + 1] * c[:, :i + 1]) % ps
    return c


def zeta_positive_det(g: QuotientGraph) -> IntPolynomial:
    """det(I - A_1 u + A_2 u^2 - ... + (-1)^n u^n I), exactly.

    Degree n*N with constant term 1.
    """
    size = g.num_vertices
    eye = np.eye(size, dtype=np.int64)
    signed = [(-1) ** i * a for i, a in enumerate(g.mats, start=1)]
    poly = polymatrix_det([eye] + signed + [(-1) ** g.n * eye])
    if poly.coefficient(0) != 1 or poly.degree != g.n * size:
        raise ArithmeticError("positive zeta determinant has unexpected shape")
    return poly


def direction_orders(gamma: TranslationSubgroup) -> List[int]:
    """Orders m_1, .., m_n of the n standard directions in the quotient."""
    q = quotient_group(gamma)
    return [q.element_order(d) for d in q.directions]


def zeta_positive_orders(gamma: TranslationSubgroup,
                         max_deg: int = None) -> IntPolynomial:
    """prod_i (1 - u^{m_i})^{N/m_i} over the direction orders, to degree
    max_deg when it is given; the truncated product costs O(n max_deg^2)
    whatever the index N."""
    n_vertices = gamma.index
    out = IntPolynomial.one()
    for m in direction_orders(gamma):
        factor = IntPolynomial.one_minus_power(m, n_vertices // m, max_deg)
        out = (out * factor if max_deg is None
               else out.mul_truncated(factor, max_deg))
    return out


def lfunction_with_deviation(gamma: TranslationSubgroup) -> IntPolynomial:
    """Character-product L-function, exactly.

    Each character chi contributes prod_j (1 - chi(e_j) u) over the
    projections of the n standard directions e_j, its Satake parameters.
    Every value is a D-th root of unity, D the last elementary divisor, held
    as its exponent a, so it is g^a for a primitive D-th root g, and the
    product of the K = nN factors of all characters, in that order, has
    integer coefficients.  It is computed modulo the primes p = 1 (mod D) of
    :func:`crt_primes`, chosen before the characters are listed, and lifted
    by CRT once their product exceeds 2 binom(K, K // 2) + 1.  Any primitive
    root gives the same product, because the characters are closed under
    chi -> chi^k for k prime to D.  The product at one further prime
    certifies the lift; a mismatch raises ArithmeticError.  The name is
    kept because perfbench traces it.
    """
    q = quotient_group(gamma)
    d = q.divisors[-1]
    primes, check = crt_primes(_lfunction_precision_bits(gamma.n * q.order), d)
    exponents = [a for chi in characters(q) for a in chi.satake_turns(q)]
    residues = _product_mod(exponents, d, primes + [check]).tolist()
    coeffs = crt_lift(residues[:-1], primes)
    if [c % check for c in coeffs] != residues[-1]:
        raise ArithmeticError("L-function reconstruction failed certification")
    return IntPolynomial(coeffs)


def euler_characteristic(g: QuotientGraph) -> int:
    """Vertices minus edges: N * (2 - 2^{n-1})."""
    return g.num_vertices * (2 - 2 ** (g.n - 1))


def bass_determinant(a: np.ndarray, q: int) -> IntPolynomial:
    """det(I - A u + q u^2 I) for a square integer A, exactly.

    q I commutes with A, so the determinant is the homogenisation of
    r(t) = det(I - t A) = sum_k a_k t^k: over the eigenvalues of A it is
    prod (1 + q u^2 - lambda u) = sum_k a_k u^k (1 + q u^2)^(N - k), for every
    square integer A, symmetric or not.  r comes from
    :func:`polymatrix_det` on [I, -A], whose companion is A itself (size N,
    not the 2N of the quadratic), with its bound, CRT lift and fresh-prime
    certificate; the substitution is Horner's rule in Python ints,
    acc <- acc (1 + q u^2) + a_k u^k for k = 1 .. N from acc = a_0.
    """
    size = a.shape[0]
    r = polymatrix_det([np.eye(size, dtype=np.int64), -a])
    acc = [r.coefficient(0)]
    for k in range(1, size + 1):
        acc = [x + q * y for x, y in zip(acc + [0, 0], [0, 0] + acc)]
        acc[k] += r.coefficient(k)
    return IntPolynomial(acc)


def ihara_bass(g: QuotientGraph) -> Tuple[IntPolynomial, int]:
    """(det(I - A u + (2^n - 3) u^2 I), Euler characteristic).

    The numerator is :func:`bass_determinant` of the adjacency A with
    q = 2^n - 3 (Bass 1992; Kotani and Sunada 2000): det(I - t A), of
    linearised dimension N, then the substitution into
    sum_k a_k u^k (1 + q u^2)^(N - k).  The bound, CRT lift and fresh-prime
    certificate cover det(I - t A); the substitution is exact integer
    algebra, so the numerator rests on a proof.  In the product convention the Ihara zeta
    equals numerator / (1-u^2)^chi.  The sign of the exponent varies
    between conventions, so the pair is returned and callers expand
    whichever form they need.
    """
    numerator = bass_determinant(g.adjacency(), 2 ** g.n - 3)
    return numerator, euler_characteristic(g)


def ihara_zeta_series(numerator: IntPolynomial, chi: int, max_deg: int
                      ) -> IntPolynomial:
    """numerator / (1 - u^2)^chi as a series truncated at max_deg, for chi
    of either sign: (1 - u^2)^(-chi) = sum_j c_j u^(2j) with c_0 = 1 and
    c_(j+1) = c_j (chi + j) / (j + 1), an exact division (c_j is the
    binomial coefficient binom(chi + j - 1, j), 0 for j > -chi when
    chi <= 0)."""
    series, c, j = [], 1, 0
    while c and 2 * j <= max_deg:
        series += [c, 0]
        c = c * (chi + j) // (j + 1)
        j += 1
    return numerator.mul_truncated(IntPolynomial(series), max_deg)


class GeodesicClass(Value):
    """A rotation class of closed positive geodesics in one direction."""

    __slots__ = _fields = ("length", "direction", "representative")

    def __init__(self, length: int, direction: int,
                 representative: Tuple[int, ...]):
        self._assign(length, direction, representative)


def enumerate_positive_geodesics(g: QuotientGraph, max_len: int
                                 ) -> List[GeodesicClass]:
    """All classes of primitive closed positive geodesics of length <= max_len.

    A positive geodesic is a straight walk repeating a single type-1
    direction, so each direction permutes the vertices and its classes are
    the permutation's cycles, all as long as the direction's order.  A
    class is represented by its least vertex, the orbit minimum, found by
    pointer doubling: after k rounds rep[v] is the least of the 2^k vertices
    from v on.  Classes come sorted by direction, then representative.
    """
    out: List[GeodesicClass] = []
    q = g.group
    ids = np.arange(q.order)
    for i, step in enumerate(q.directions, start=1):
        length = q.element_order(step)
        if length > max_len:
            continue
        rep, jump = ids, q.shift_indices([step])[0]
        for _ in range((length - 1).bit_length()):
            rep, jump = np.minimum(rep, rep[jump]), jump[jump]
        # each orbit's least vertex is the one that is its own minimum
        out += [GeodesicClass(length=length, direction=i,
                              representative=g.vertices[v])
                for v in np.flatnonzero(rep == ids).tolist()]
    return out


def _one_minus_powers(lengths: Iterable[int], max_deg: int) -> IntPolynomial:
    """prod (1 - u^length) over the lengths, truncated at max_deg."""
    out = IntPolynomial.one()
    for length in lengths:
        if length <= max_deg:
            out = out.mul_truncated(
                IntPolynomial([1] + [0] * (length - 1) + [-1]), max_deg)
    return out


def euler_product_truncation(classes: Sequence[GeodesicClass], max_deg: int
                             ) -> IntPolynomial:
    """prod (1 - u^{length}) over primitive classes, truncated at max_deg."""
    return _one_minus_powers((c.length for c in classes), max_deg)


class CycleClass(Value):
    """A rotation class of primitive tailless backtrackless closed paths."""

    __slots__ = _fields = ("length", "edge_sequence")

    def __init__(self, length: int, edge_sequence: Tuple[Tuple[int, int], ...]):
        self._assign(length, edge_sequence)


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
    return _one_minus_powers((c.length for c in classes), max_deg)


# start-edge columns pushed through the edge operator together
HASHIMOTO_BLOCK = 64


def hashimoto_traces(g: QuotientGraph, max_len: int) -> List[int]:
    """[tr(W), tr(W^2), .., tr(W^max_len)] for the non-backtracking edge
    operator W, as Python ints.

    Edges are v -> w wherever a[w, v], and (W x)[f] sums x[e] over the
    predecessors e of f: head(e) = tail(f) and tail(e) != head(f).  So
    tr(W^L) counts closed tailless backtrackless walks of length L with a
    marked start edge.  On a simple graph the predecessors of f = v -> w are
    the in-edges of v less w -> v, so (W x)[f] is the sum of x over the
    in-edges of v minus x at w -> v when that edge exists.  Nothing assumes
    the graph is undirected or vertex-transitive.  Indicator columns of
    HASHIMOTO_BLOCK start edges at a time go through W by one gather-sum
    over an in-edge table padded with a zero row, one gather by tail, one
    by the reverse edge (the zero row when it is absent) and one subtract.
    Every entry of W^L is at most r^L, r the largest number of predecessors
    of an edge.  An in-edge sum of W^(L-1) x is part of a column sum, and
    the column sums of W^(L-1) are at most c^(L-1), c the largest number
    of successors; so r^max_len and c^(max_len-1) are checked below 2^63
    before the table or any block is allocated.  On the quotients r = c.
    """
    if not g.is_simple():
        raise MultigraphError(
            "Hashimoto traces need a simple quotient graph")
    a = g.adjacency() != 0
    heads, tails = np.nonzero(a)          # sorted by head
    in_deg, back = a.sum(axis=1), a[tails, heads]
    # predecessors of v -> w: in-edges of v less w -> v; successors: the
    # out-edges of w less w -> v
    r = int((in_deg[tails] - back).max(initial=0))
    c = int((a.sum(axis=0)[heads] - back).max(initial=0))
    if r and max(r ** max_len, c ** (max_len - 1)) >= 2 ** 63:
        raise ResourceCapError(
            f"Hashimoto traces to length {max_len}: entries of W^{max_len} "
            f"can reach {r}^{max_len} and in-edge sums {c}^{max_len - 1}, "
            f"above the int64 bound 2^63")
    traces = [0] * max_len
    if r == 0:
        return traces
    size, n_edges = g.num_vertices, len(heads)
    codes = heads * size + tails
    rev = np.where(back, np.searchsorted(codes, tails * size + heads),
                   n_edges)
    first = np.cumsum(in_deg) - in_deg
    in_edges = np.full((size, in_deg.max()), n_edges)   # row n_edges is 0
    in_edges[heads, np.arange(n_edges) - first[heads]] = np.arange(n_edges)
    for lo in range(0, n_edges, HASHIMOTO_BLOCK):
        starts = np.arange(lo, min(lo + HASHIMOTO_BLOCK, n_edges))
        cols = np.arange(len(starts))
        x = np.zeros((n_edges + 1, len(starts)), dtype=np.int64)
        x[starts, cols] = 1
        for step in range(max_len):
            x[:n_edges] = x[in_edges].sum(axis=1)[tails] - x[rev]
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

