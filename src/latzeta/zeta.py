"""Zeta functions of the quotient Cayley graph, by independent routes.

The positive-geodesic zeta is computed three ways: as an exact determinant of
the typed adjacency polynomial, as the product of (1 - u^{m_i})^{N/m_i} over
the orders of the standard directions, and as a character (L-function)
product in fixed-point Gaussian-integer arithmetic, a product tree whose
certified error bound stays below 1/2 so that rounding recovers the integers
(mpmath computes only the roots of unity).  A fourth route truncates the
Euler product over brute-force enumerated positive geodesics.  The classical
Ihara zeta comes from the Bass determinant.  On simple quotients it is
checked against the Euler product over primitive backtrackless tailless
cycles, which the traces of the non-backtracking edge operator give in time
polynomial in the depth; the explicit cycle enumerator stays as the
reference for small depths.
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
from .polynomials import IntPolynomial
from .quotient import (
    TranslationSubgroup,
    characters,
    quotient_group,
)

LFUNCTION_MIN_PRECISION_BITS = 150
# bits added to a failed certified bound for the next attempt; the bound in
# units of 2^-P hardly depends on P, so one retry usually certifies
LFUNCTION_SPARE_BITS = 16
# most linear factors a leaf of the product tree applies one at a time
LFUNCTION_LEAF_FACTORS = 16


def _lfunction_precision_bits(failed: Sequence[Tuple[int, int]] = ()) -> int:
    """The fractional bits P of the next product-tree attempt, given the
    (P, certified bound in units of 2^-P) of the attempts that failed: the
    base precision first, then the failed bound's bit length plus
    LFUNCTION_SPARE_BITS, and from the third attempt on twice the last P."""
    if not failed:
        return LFUNCTION_MIN_PRECISION_BITS
    bits, bound = failed[-1]
    raised = bound.bit_length() + LFUNCTION_SPARE_BITS
    return raised if len(failed) == 1 else max(raised, 2 * bits)


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


# a node of the product tree: the real and the imaginary parts of its
# coefficients scaled by 2^P, and a bound on the modulus of every
# coefficient error in units of 2^-P
_Node = Tuple[List[int], List[int], int]


def _leaf(roots: Sequence[Tuple[int, int]], bits: int) -> _Node:
    """prod (1 - r u) over the k rounded roots r, one factor at a time in
    place, c_i -= round(r c_{i-1}), each part of the product rounded to the
    nearest multiple of 2^-P.

    Error bound.  Each part of a root is off by at most 2^(-P-1) +
    2^(-P-16) (see :func:`_unit_root`), so |r - rho| < 2^-P and
    |r| < 1 + 2^-P, and each rounded product is off by less than 2^-P in
    modulus.  Let c_j(i) be the exact coefficients after j factors, so
    |c_j(i)| <= binom(j, i) <= 2^j, and E_j the largest modulus of the
    error of a computed one.  Subtracting the two recurrences,

        e_j(i) = e_{j-1}(i) - r e_{j-1}(i-1) - (r - rho) c_{j-1}(i-1) + delta,

    so E_j <= (2 + 2^-P) E_{j-1} + 2^-P (2^(j-1) + 1) with E_0 = 0, and

        E_k <= 2^-P (1 + 2^(-P-1))^k sum_j 2^(k-j) (2^(j-1) + 1)
            <  2^(k-1-P) (k + 2) (1 + k 2^-P)  <=  (k + 4) 2^(k-1-P),

    using (1 + x)^k <= 1 + 2kx for kx <= 1 and k (k + 2) <= 2^(P+1).  Both
    hold whenever (k + 4) 2^(k-1-P) < 1/2, and the root of the tree is
    certified only then, since no node's bound is below a child's.
    """
    half = 1 << (bits - 1)
    k = len(roots)
    re = [1 << bits] + [0] * k
    im = [0] * (k + 1)
    for j, (a, b) in enumerate(roots, start=1):
        for i in range(j, 0, -1):
            x, y = re[i - 1], im[i - 1]
            re[i] -= (a * x - b * y + half) >> bits
            im[i] -= (a * y + b * x + half) >> bits
    return re, im, (k + 4) << (k - 1)


def _kronecker(ar: List[int], ai: List[int], br: List[int], bi: List[int]
               ) -> Tuple[List[int], List[int]]:
    """The exact product of two Gaussian-integer polynomials by Kronecker
    substitution: each coefficient list becomes one int, the list evaluated
    at 2^w, and the complex product takes three int products.

    Every part of a product coefficient is below 2 t |a| |b| in modulus, t
    the shorter length and |a|, |b| the largest parts of each side, so a
    slot of w bits, a whole number of bytes with 2^(w-1) above that, holds
    it with the balanced offset 2^(w-1) and no carry between slots.  Lists
    go in and out through ``to_bytes``/``from_bytes``, one slot per
    coefficient.
    """
    top = max(map(abs, ar + ai)) * max(map(abs, br + bi))
    width = (2 * min(len(ar), len(br)) * top).bit_length() // 8 + 1
    slot = b"\0" * (width - 1) + b"\x80"     # 2^(w-1), little-endian
    offset = 1 << (8 * width - 1)

    def pack(xs: List[int]) -> int:
        return (int.from_bytes(b"".join([(x + offset).to_bytes(width, "little")
                                         for x in xs]), "little")
                - int.from_bytes(slot * len(xs), "little"))

    length = len(ar) + len(br) - 1
    bias = int.from_bytes(slot * length, "little")

    def unpack(z: int) -> List[int]:
        raw = (z + bias).to_bytes(width * length, "little")
        return [int.from_bytes(raw[i:i + width], "little") - offset
                for i in range(0, width * length, width)]

    xr, xi, yr, yi = pack(ar), pack(ai), pack(br), pack(bi)
    real, imag = xr * yr, xi * yi
    cross = (xr + xi) * (yr + yi) - real - imag
    return unpack(real - imag), unpack(cross)


def _node(left: _Node, right: _Node, bits: int) -> _Node:
    """The product of two subproducts, computed exactly and rounded once to
    a multiple of 2^-P, with its certified bound.

    With A^ = A + e_A and B^ = B + e_B the children and their errors,
    A^ B^ - A B = A^ e_B + e_A B^ - e_A e_B, so in units of 2^-P each
    coefficient is off by at most (|A^|_1 b + |B^|_1 a + t a b) / 2^P,
    with |.|_1 the sum of |re| + |im| of the scaled coefficients, a and b
    the children's bounds and t the shorter length; the final rounding
    adds less than one unit.
    """
    ar, ai, ea = left
    br, bi, eb = right
    norm_a = sum(map(abs, ar)) + sum(map(abs, ai))
    norm_b = sum(map(abs, br)) + sum(map(abs, bi))
    terms = min(len(ar), len(br))
    bound = -(-(norm_a * eb + norm_b * ea + terms * ea * eb) >> bits) + 1
    cr, ci = _kronecker(ar, ai, br, bi)
    half = 1 << (bits - 1)
    return ([(c + half) >> bits for c in cr],
            [(c + half) >> bits for c in ci], bound)


def _product_tree(roots: Sequence[Tuple[int, int]], bits: int) -> _Node:
    """prod (1 - r u) over the rounded roots, in their order: leaves of at
    most LFUNCTION_LEAF_FACTORS consecutive factors, multiplied pairwise
    by halves."""
    if len(roots) <= LFUNCTION_LEAF_FACTORS:
        return _leaf(roots, bits)
    mid = len(roots) // 2
    return _node(_product_tree(roots[:mid], bits),
                 _product_tree(roots[mid:], bits), bits)


def certified_product(turns: Sequence[Fraction], bits: int) -> _Node:
    """prod_t (1 - rho_t u), rho_t = exp(2 pi i t), in fixed point at P =
    bits: the real and the imaginary parts of the K + 1 coefficients
    (K = len(turns)) as ints scaled by 2^P, and a certified bound on the
    modulus of every coefficient error in units of 2^-P.  Each root is
    rounded to P bits once per distinct turn."""
    cache: Dict[Fraction, Tuple[int, int]] = {}
    roots = []
    for turn in turns:
        rho = cache.get(turn)
        if rho is None:
            rho = cache[turn] = _unit_root(turn, bits)
        roots.append(rho)
    return _product_tree(roots, bits)


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
    the K = nN factors of all characters go, in that order, through
    :func:`certified_product` at P = _lfunction_precision_bits(..)
    fractional bits, raised until the certified bound is below 1/2, so that
    rounding to the nearest integer recovers the integer coefficients.
    Returns the polynomial and the worst rounding deviation; raises
    ToleranceError if the deviation exceeds the tolerance and
    ArithmeticError if it exceeds the certified bound.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    q = quotient_group(gamma)
    turns = [t for chi in characters(q) for t in chi.satake_turns(q)]
    failed: List[Tuple[int, int]] = []
    while True:
        bits = _lfunction_precision_bits(failed)
        re, im, bound = certified_product(turns, bits)
        if 2 * bound < 1 << bits:
            break
        failed.append((bits, bound))
    half = 1 << (bits - 1)
    coeffs = [(x + half) >> bits for x in re]
    worst = max(max(abs(x - (c << bits)), abs(y))
                for x, y, c in zip(re, im, coeffs))
    deviation = worst / (1 << bits)
    if worst > bound:
        raise ArithmeticError(
            f"L-function rounding deviation {deviation:g} exceeds the proven "
            f"error bound {bound / (1 << bits):g}")
    if deviation > tolerance:
        raise ToleranceError(deviation, tolerance)
    return IntPolynomial(coeffs), deviation


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
    for i, step in enumerate(q.directions, start=1):
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

