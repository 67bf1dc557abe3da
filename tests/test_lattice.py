import itertools
import math
import random
from fractions import Fraction

import pytest

from latzeta import lattice
from latzeta.errors import SingularMatrixError
from latzeta.intmat import (
    mat_vec,
    snf_diagonal,
    snf_with_transforms,
    unimodular_inverse,
)
from latzeta.lattice import (
    AffineElement,
    GEODESIC,
    FACTORIAL,
    LatticeVector,
    LengthVector,
    Permutation,
    all_permutations,
    cone_decompose,
    length_vector,
    length_gaps,
    type_of,
)
from latzeta.polynomials import norm_exponent

from perfbench.workloads import transform_columns, unimodular
from _oracles import (ConeDecomposition, DivergentSeriesError,
                      FaceDescriptor, all_faces, combine, conjugate_by,
                      edge_form_basis, face_length_exponents,
                      floor_shift_cone_decompose, fraction_inverse,
                      fraction_length_vector, is_integral, laplace_det,
                      length_vector_from_ratios, perm_from_cycles,
                      piece_dicts, rational_cone_sum, t_decomposition,
                      triangular_box_walk)


def rand_affine(rng, n, bound=10):
    v = LatticeVector.from_raw([rng.randint(-bound, bound) for _ in range(n)])
    p = Permutation(tuple(rng.sample(range(n), n)))
    return AffineElement(v, p)


def test_canonicalize_examples():
    assert LatticeVector.from_raw((0, 0, 0)).coords == (0, 0, 0)
    assert LatticeVector.from_raw((1, 1, 1)).coords == (0, 0, 0)
    assert LatticeVector.from_raw((5, 2, 2)).coords == (3, 0, 0)
    with pytest.raises(ValueError):
        LatticeVector.from_raw((5,))


def test_equality_mod_diagonal():
    raw = LatticeVector.from_raw
    assert raw((4, 1, 2)) == raw((7, 4, 5))
    assert raw((1, 0)) != raw((0, 1))


def test_type_examples():
    assert type_of(LatticeVector.from_raw((0, 0, 0))) == 0
    assert type_of(LatticeVector.basis_vector(3, 1)) == 1
    assert type_of(LatticeVector.from_raw((3, 0, 0))) == 0
    # invariance under representative shift
    assert (type_of(LatticeVector.from_raw((4, 1, 1)))
            == type_of(LatticeVector.from_raw((3, 0, 0))))


def test_basis_coords_round_trip():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(2, 5)
        v = LatticeVector.from_raw([rng.randint(-9, 9) for _ in range(n)])
        assert LatticeVector.from_basis_coords(n, v.to_basis_coords()) == v


def test_group_law_and_inverse():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(2, 5)
        g, h = rand_affine(rng, n), rand_affine(rng, n)
        assert (g * h) * (g * h).inverse() == AffineElement.identity(n)
        # associativity spot check
        k = rand_affine(rng, n)
        assert (g * h) * k == g * (h * k)


def test_length_vector_examples():
    assert length_vector(AffineElement.identity(4)).values == (0, 0, 0)
    g = AffineElement.translation(LatticeVector.from_raw((5, 2, 2)))
    assert length_vector(g, GEODESIC).values == (3, 0)
    swap = AffineElement(LatticeVector.from_raw((1, 0, 0)),
                         perm_from_cycles(3, [(0, 1)]))
    assert length_vector(swap, FACTORIAL).values == (0, 3)
    assert length_vector(swap, GEODESIC).values == (0, Fraction(1, 2))


def test_length_conjugation_invariance_and_integrality():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(2, 5)
        g, h = rand_affine(rng, n), rand_affine(rng, n)
        assert length_vector(conjugate_by(g, h), GEODESIC) == length_vector(g, GEODESIC)
        assert is_integral(length_vector(g, FACTORIAL))


@pytest.mark.parametrize("scale", [GEODESIC, FACTORIAL])
@pytest.mark.parametrize("n", range(2, 9))
def test_invariants_self_test_on_the_former_run_elements(n, scale):
    # the 100 elements that the invariants check drew on every translation
    # run, in the same order: the length is conjugation invariant at the
    # run's scale and integral at the factorial scale, whatever the subgroup
    rng = random.Random(20260809)
    for _ in range(100):
        g, h = rand_affine(rng, n), rand_affine(rng, n)
        assert length_vector(conjugate_by(g, h), scale) == length_vector(g, scale)
        assert is_integral(length_vector(g, FACTORIAL))


def test_integer_length_vector_matches_the_fraction_oracle():
    rng = random.Random(1111)
    for n in range(2, 7):
        for _ in range(500):
            g = rand_affine(rng, n, bound=rng.choice((3, 10, 10 ** 12)))
            for scale in (GEODESIC, FACTORIAL):
                got, want = length_vector(g, scale), fraction_length_vector(g, scale)
                assert got == want and hash(got) == hash(want)
                assert all(type(x) is Fraction for x in got.values)
                exps = norm_exponent(got.values)
                want_exps = norm_exponent(want.values)
                assert exps == want_exps
                assert [type(x) for x in exps] == [type(x) for x in want_exps]


def test_batched_lengths_match_the_per_element_lengths():
    # every permutation part of n = 2..5 and a sample at n = 6, 7; rows
    # small (an int64 array) and far above 2^63 (an object array)
    rng = random.Random("batched-lengths")
    halves = 0
    for n in range(2, 8):
        perms = list(all_permutations(n))
        if n > 5:
            perms = rng.sample(perms, 30)
        for p in perms:
            for bound in (9, 2 ** 70):
                rows = [[rng.randint(-bound, bound) for _ in range(n)]
                        for _ in range(6)]
                for scale in (GEODESIC, FACTORIAL):
                    gaps, lcm = length_gaps(p, rows, scale)
                    batched = [LengthVector(tuple(Fraction(x, lcm)
                                                  for x in row), scale)
                               for row in gaps.tolist()]
                    elements = [AffineElement(LatticeVector.from_raw(v), p)
                                for v in rows]
                    assert batched == [length_vector(g, scale)
                                       for g in elements]
                    assert batched == [fraction_length_vector(g, scale)
                                       for g in elements]
                    halves += sum(x.denominator == 2 for lv in batched
                                  for x in lv.values)
    assert halves > 0


def test_length_vector_refuses_negative_values():
    with pytest.raises(ValueError):
        length_vector_from_ratios([1, -1], 2, GEODESIC)
    with pytest.raises(ValueError):
        length_vector_from_ratios([1, 1], 0, GEODESIC)
    with pytest.raises(ValueError):
        LengthVector((Fraction(-1, 2),), GEODESIC)
    assert (length_vector_from_ratios([3, 0], 6, GEODESIC)
            == LengthVector((Fraction(1, 2), Fraction(0)), GEODESIC))


def test_conjugate_by_matches_the_group_product():
    rng = random.Random(1112)
    for n in range(2, 7):
        for _ in range(200):
            g, h = rand_affine(rng, n), rand_affine(rng, n)
            assert conjugate_by(g, h) == h * g * h.inverse()


def test_face_descriptor_blocks():
    f = FaceDescriptor(3, frozenset())
    assert f.blocks == (1, 1, 1) and f.dim == 2
    assert FaceDescriptor(3, frozenset({2})).blocks == (1, 2)
    assert FaceDescriptor(3, frozenset({1, 2})).blocks == (3,)
    assert FaceDescriptor(5, frozenset({1, 3, 4})).blocks == (2, 3)
    assert len(list(all_faces(4))) == 8


def test_cone_decompose_examples():
    # the closed half line in Z and the closed orthant in Z^2: base point 0
    assert cone_decompose([[1]]).tolist() == [[0]]
    assert cone_decompose([[1, 0], [0, 1]]).tolist() == [[0, 0]]
    # 2N in N: base point 0, generator 2
    assert cone_decompose([[2]]).tolist() == [[0]]
    # the open faces read it shifted into [1, mult_j]: the open half line
    # has base point 1, the open n = 3 cone edge forms (1, 1), so t = (2, 1)
    dec = t_decomposition(FaceDescriptor(2, frozenset()))
    assert dec.base_points == ((1,),) and dec.generators == ((1,),)
    dec = t_decomposition(FaceDescriptor(3, frozenset()))
    assert dec.base_points == ((2, 1),)
    assert dec.generators == ((1, 0), (1, 1))
    # point face: one empty row
    dec = t_decomposition(FaceDescriptor(3, frozenset({1, 2})))
    assert dec.base_points == ((),) and dec.generators == ()


def test_cone_decompose_reads_the_staircase():
    # the lattice (2 z_1, z_1 + 3 z_2): mult = (6, 3), so 6 * 3 / 6 points;
    # alpha_1 = 2 z_1 takes 3 values, and then alpha_2 = z_1 + 3 z_2 one
    assert lattice.edge_multiples([[2, 0], [1, 3]])[2] == [6, 3]
    assert cone_decompose([[2, 0], [1, 3]]).tolist() == [
        [0, 0], [2, 1], [4, 2]]
    # a basis that is not lower triangular with a positive diagonal
    for basis in ([[1, 1], [0, 1]], [[-1, 0], [0, 1]]):
        with pytest.raises(ValueError, match="lower triangular"):
            cone_decompose(basis)
    with pytest.raises(ValueError, match="square"):
        cone_decompose([[1, 0]])


def test_cone_decompose_rejects_degenerate_lattice():
    with pytest.raises(SingularMatrixError):
        cone_decompose([[1, 1], [1, 1]])


def _random_lower_triangular(rng, k):
    """Lower triangular with diagonal 1..4 and entries below it up to 6 in
    size: a lattice of determinant at most 4^k."""
    return [[rng.randint(1, 4) if i == j else rng.randint(-6, 6) if i > j
             else 0 for j in range(k)] for i in range(k)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_closed_cone_decompose_matches_the_box_walk(k):
    # the staircase's base points are exactly the lattice points of the box
    # [0, mult_j), found by walking every point of the box; at most 4,096
    # box points a draw
    rng = random.Random(f"closed-cone-{k}")
    walked = 0
    for _ in range(40):
        h = _random_lower_triangular(rng, k)
        mults = lattice.edge_multiples(h)[2]
        if math.prod(mults) > 4096:
            continue
        assert cone_decompose(h).tolist() == list(
            map(list, triangular_box_walk(h, mults)))
        walked += 1
    assert walked >= 10


class _WalkTooLong(Exception):
    pass


def _walk_cone_decompose(face, lattice_basis=None, max_steps=20000):
    """Reference decomposition on small cones, by search: push each SNF coset
    representative into the open cone along the sum of the generators, then
    subtract single generators while the point stays in the cone.  The
    number of steps grows with the lattice entries, without bound on skewed
    lattices, so past max_steps it gives up with _WalkTooLong."""
    k = face.dim
    if k == 0:
        return ConeDecomposition(((),), ())
    basis = lattice_basis or [[int(i == j) for j in range(k)]
                              for i in range(k)]
    binv = fraction_inverse(basis)

    def alphas(t):
        return [t[i] - t[i + 1] for i in range(k - 1)] + [t[k - 1]]

    def in_cone(t):
        return min(alphas(t)) >= 1

    generators = []
    for j in range(1, k + 1):
        d = [1] * j + [0] * (k - j)
        mult = math.lcm(*(sum(r[i] * d[i] for i in range(k)).denominator
                          for r in binv))
        generators.append(tuple(mult * x for x in d))
    x_mat = [[int(sum(binv[i][r] * g[r] for r in range(k)))
              for g in generators] for i in range(k)]
    u, d, _ = snf_with_transforms(x_mat)
    uinv = unimodular_inverse(u)
    total_gen = [sum(g[i] for g in generators) for i in range(k)]
    gen_alpha = [alphas(g)[i] for i, g in enumerate(generators)]
    base_points = []
    steps = 0
    for combo in itertools.product(*(range(x) for x in snf_diagonal(d))):
        t = mat_vec(basis, mat_vec(uinv, combo))
        shift = max([0] + [-((a - 1) // ga)
                           for a, ga in zip(alphas(t), gen_alpha)])
        t = tuple(x + shift * s for x, s in zip(t, total_gen))
        moved = True
        while moved:
            moved = False
            for g in generators:
                steps += 1
                if steps > max_steps:
                    raise _WalkTooLong
                cand = tuple(x - y for x, y in zip(t, g))
                if in_cone(cand):
                    t, moved = cand, True
                    break
        base_points.append(t)
    return ConeDecomposition(tuple(sorted(base_points)), tuple(generators))


def _skewed_basis(rng, k):
    """Lower triangular with diagonal 1..3 and entries below it up to 40 in
    size, then one unimodular column operation, so the basis is neither
    triangular nor reduced."""
    b = [[rng.randint(1, 3) if i == j else rng.randint(-40, 40) if i > j
          else 0 for j in range(k)] for i in range(k)]
    if k > 1:
        i, j = rng.sample(range(k), 2)
        sign = rng.choice((-1, 1))
        for row in b:
            row[j] += sign * row[i]
    return b


def _assert_half_open_parallelepiped(dec, basis):
    """Generators on the edges; base points in the lattice, with
    1 <= alpha_j <= mult_j, and prod(mult_j) / |det B| of them."""
    k = len(dec.generators)
    mults = [g[0] for g in dec.generators]
    assert dec.generators == tuple(
        (m,) * (j + 1) + (0,) * (k - j - 1) for j, m in enumerate(mults))
    assert len(dec.base_points) * abs(laplace_det(basis)) == math.prod(mults)
    assert len(set(dec.base_points)) == len(dec.base_points)
    binv = fraction_inverse(basis)
    for t in dec.base_points:
        alphas = [t[i] - t[i + 1] for i in range(k - 1)] + [t[-1]]
        assert all(1 <= a <= m for a, m in zip(alphas, mults))
        assert all(sum(r[i] * t[i] for i in range(k)).denominator == 1
                   for r in binv)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_closed_form_base_points_match_the_greedy_walk(n):
    # sorted t-points of the staircase against those of the walk
    rng = random.Random(f"cone-walk-{n}")
    for face in all_faces(n):
        k = face.dim
        assert t_decomposition(face) == _walk_cone_decompose(face)
        if k == 0:
            continue
        # draw skewed bases until three are small enough for the walk; the
        # closed form's own invariants are checked on every draw of at most
        # 1,000 base points (every draw with n <= 5 has at most 324; at
        # n = 6 they reach millions)
        compared = 0
        for _ in range(40):
            basis = _skewed_basis(rng, k)
            h = edge_form_basis(basis)
            _, det, mults = lattice.edge_multiples(h)
            if math.prod(mults) // abs(det) > 1000:
                continue
            dec = t_decomposition(face, basis)
            _assert_half_open_parallelepiped(dec, basis)
            try:
                walked = _walk_cone_decompose(face, basis)
            except _WalkTooLong:
                continue
            assert dec == walked
            compared += 1
            if compared == 3:
                break
        assert compared == 3


def _small_det_basis(rng, k, max_det=40):
    """A random k x k integer basis with 1 <= |det| <= max_det: lower
    triangular with diagonal product at most max_det and entries below it up
    to 9 in size, then a random unimodular column transform."""
    diag = []
    for _ in range(k):
        diag.append(rng.randint(1, max(1, max_det // math.prod(diag))))
    b = [[diag[i] if i == j else rng.randint(-9, 9) if i > j else 0
          for j in range(k)] for i in range(k)]
    return transform_columns(b, unimodular(k, rng))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_edge_form_base_points_match_the_floor_shift(n):
    # sorted t-points of the staircase, against the floor-shift correction
    # of each Smith coset representative (up to 64,000 points on the n = 5
    # open face); |det| is capped lower at n = 6, whose open face would
    # hold up to 40^4 points
    rng = random.Random(f"cone-floor-shift-{n}")
    max_det = 12 if n == 6 else 40
    for face in all_faces(n):
        assert t_decomposition(face) == floor_shift_cone_decompose(face)
        for _ in range(6 if face.dim else 0):
            basis = _small_det_basis(rng, face.dim, max_det)
            assert (t_decomposition(face, basis)
                    == floor_shift_cone_decompose(face, basis))


@pytest.mark.parametrize("fault", ["double_last", "all_ones"])
def test_cone_decompose_certificate_trips_on_wrong_staircase_steps(
        monkeypatch, fault):
    h = edge_form_basis([[3, 0], [1, 3]])
    assert len(cone_decompose(h)) == 9
    true_staircase = lattice._staircase

    def wrong(h, steps):
        # twice the values on the last axis (so points outside the box),
        # or one value on each
        return true_staircase(h, steps[:-1] + [2 * steps[-1]]
                              if fault == "double_last" else [1] * len(steps))

    monkeypatch.setattr(lattice, "_staircase", wrong)
    with pytest.raises(ArithmeticError, match="base points"):
        cone_decompose(h)


@pytest.mark.parametrize("fault, match", [
    ("count", r"base points for prod\(mult_j\) = 1728 and \|det H\| = 12$"),
    ("box", r"an edge form outside \[0, mult_j\)$"),
    ("duplicate", r"base points for .*, not distinct$"),
])
def test_cone_decompose_certificate_trips_on_a_tampered_staircase(
        monkeypatch, fault, match):
    # each fault leaves the certificate's other tests passing: one point
    # dropped; one point moved by its first generator, so still in the
    # lattice and distinct; the last point replaced by the first
    h = edge_form_basis([[2, 0, 0], [1, 3, 0], [0, 1, 2]])
    mults = lattice.edge_multiples(h)[2]
    assert len(cone_decompose(h)) == 144
    true_staircase = lattice._staircase

    def tampered(h, steps):
        out = true_staircase(h, steps)
        if fault == "count":
            return out[1:]
        if fault == "box":
            out[0, 0] += mults[0]
        else:
            out[-1] = out[0]
        return out

    monkeypatch.setattr(lattice, "_staircase", tampered)
    with pytest.raises(ArithmeticError, match=match):
        cone_decompose(h)


@pytest.mark.parametrize("n, basis", [
    (3, [[3, 0], [1, 3]]),
    (4, [[2, 0, 0], [1, 3, 0], [0, 1, 2]]),
])
def test_cone_decompose_certificate_trips_on_points_outside_the_lattice(
        monkeypatch, n, basis):
    # moving every base point one step along the last edge, cyclically in
    # [0, mult_k), keeps the points distinct, their count and their edge
    # forms in [0, mult_j), but moves each by e_k modulo the lattice, which
    # is not in it as mult_k > 1: only the lattice test
    # adj(H) alpha = 0 (mod det H) sees it
    h = edge_form_basis(basis)
    assert len(h) == n - 1
    last = lattice.edge_multiples(h)[2][-1]
    assert last > 1
    cone_decompose(h)
    true_staircase = lattice._staircase

    def shifted(h, steps):
        out = true_staircase(h, steps)
        out[:, -1] = (out[:, -1] + 1) % last
        return out

    monkeypatch.setattr(lattice, "_staircase", shifted)
    with pytest.raises(ArithmeticError,
                       match=r"base points for .*\d, a point outside the "
                             r"lattice$"):
        cone_decompose(h)


def _cone_points_box(k, box):
    """All integer t with t1 > t2 > ... > tk > 0 inside [0, box]^k."""
    out = set()
    for t in itertools.product(range(box + 1), repeat=k):
        if all(t[i] > t[i + 1] for i in range(k - 1)) and t[-1] > 0:
            out.add(t)
    return out


def _decomposition_points_box(dec, box):
    """Points generated inside the box, with uniqueness of coordinates."""
    k = len(dec.generators)
    seen = {}
    for base in dec.base_points:
        frontier = [(base, (0,) * k)]
        visited = {base}
        while frontier:
            point, coeffs = frontier.pop()
            assert point not in seen, "coordinates are not unique"
            seen[point] = (base, coeffs)
            for j, g in enumerate(dec.generators):
                nxt = tuple(a + b for a, b in zip(point, g))
                if max(nxt, default=0) <= box and nxt not in visited:
                    visited.add(nxt)
                    new_coeffs = list(coeffs)
                    new_coeffs[j] += 1
                    frontier.append((nxt, tuple(new_coeffs)))
    return seen


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cone_decomposition_bijectivity_small_box(n):
    box = 8
    for face in all_faces(n):
        if face.dim == 0:
            continue
        dec = t_decomposition(face)
        generated = _decomposition_points_box(dec, box)
        expected = _cone_points_box(face.dim, box)
        inside = {p for p in generated if max(p) <= box}
        assert inside == expected


def test_cone_decomposition_sublattice():
    # even sublattice of the half line: 2N
    dec = t_decomposition(FaceDescriptor(2, frozenset()), [[2]])
    assert dec.base_points == ((2,),) and dec.generators == ((2,),)
    # sublattice 3Z^2 of the n=3 open cone
    dec = t_decomposition(FaceDescriptor(3, frozenset()), [[3, 0], [0, 3]])
    generated = _decomposition_points_box(dec, 12)
    expected = {t for t in _cone_points_box(2, 12)
                if t[0] % 3 == 0 and t[1] % 3 == 0}
    assert {p for p in generated if max(p) <= 12} == expected


def test_rational_cone_sum_examples():
    face1 = FaceDescriptor(2, frozenset())
    dec1 = t_decomposition(face1)
    r1 = rational_cone_sum(dec1, face_length_exponents(face1))
    assert piece_dicts(r1) == {((1,),): {(1,): 1}}
    s1 = r1.expand(6)
    assert all(s1.get((k,)) == 1 for k in range(1, 7)) and s1.get((0,)) == 0

    face2 = FaceDescriptor(3, frozenset())
    dec2 = t_decomposition(face2)
    r2 = rational_cone_sum(dec2, face_length_exponents(face2))
    num, den = combine(r2)
    assert num == {(1, 1): 1}
    assert den == ((0, 1), (1, 0))

    point = t_decomposition(FaceDescriptor(3, frozenset({1, 2})))
    rp = rational_cone_sum(point, face_length_exponents(FaceDescriptor(3, frozenset({1, 2}))),
                           nvars=2)
    assert rp.expand(3).get((0, 0)) == 1


def test_rational_cone_sum_matches_brute_force_degree_10():
    for n in (2, 3, 4):
        for face in all_faces(n):
            if face.dim == 0:
                continue
            dec = t_decomposition(face)
            weight = face_length_exponents(face)
            series = rational_cone_sum(dec, weight, nvars=n - 1).expand(10)
            brute = {}
            for t in _cone_points_box(face.dim, 12):
                w = weight(t)
                if sum(w) <= 10:
                    brute[w] = brute.get(w, 0) + 1
            assert dict(series.terms) == brute


def test_rational_cone_sum_divergence_error():
    face = FaceDescriptor(2, frozenset())
    dec = t_decomposition(face)
    with pytest.raises(DivergentSeriesError):
        rational_cone_sum(dec, lambda t: (0,))
