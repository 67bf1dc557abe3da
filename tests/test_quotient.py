import math
import random
from fractions import Fraction

import pytest

from latzeta.errors import SingularMatrixError, TypeZeroViolationError
from latzeta import intmat
from latzeta.intmat import adjugate_and_det, mat_vec
from latzeta.lattice import LatticeVector
from latzeta.quotient import (
    AffineSubgroup,
    TranslationSubgroup,
    characters,
    quotient_group,
)
from latzeta.selberg import selberg_series_translation
from _oracles import (adjugate_membership, brute_force_translation_series,
                      fraction_turn, laplace_det, perm_from_cycles,
                      periodic_extension, random_type_zero_subgroup)
from perfbench.workloads import _N4_N32, transform_columns, unimodular


def test_translation_subgroup_validation():
    gam = TranslationSubgroup(3, [[3, 0], [0, 3]])
    assert gam.index == 9
    with pytest.raises(TypeZeroViolationError) as exc:
        TranslationSubgroup(3, [[1, 0], [0, 3]])
    assert "(1, 0)" in str(exc.value)
    with pytest.raises(SingularMatrixError):
        TranslationSubgroup(3, [[3, 3], [3, 3]])
    with pytest.raises(SingularMatrixError):
        TranslationSubgroup(3, [[1, 2], [2, 4]])
    # untyped escape hatch
    gam = TranslationSubgroup(3, [[5, 0], [0, 5]], check_types=False)
    assert gam.index == 25


def test_quotient_group_examples():
    q = quotient_group(TranslationSubgroup(3, [[3, 0], [0, 3]]))
    assert q.divisors == (3, 3) and q.order == 9
    q2 = quotient_group(TranslationSubgroup(2, [[2]]))
    assert q2.divisors == (2,)
    q3 = quotient_group(TranslationSubgroup(3, [[1, 0], [-1, 3]]))
    assert q3.order == 3


def test_projection_kernel_is_membership():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 5)
        gam = random_type_zero_subgroup(rng, n)
        contains = adjugate_membership(gam)
        q = quotient_group(gam)
        assert q.order == gam.index
        assert math.prod(q.divisors) == abs(laplace_det(gam.basis))
        for _ in range(20):
            x = [rng.randint(-15, 15) for _ in range(n - 1)]
            in_gamma = contains(x)
            projected_zero = all(c == 0 for c in q.project(x))
            assert in_gamma == projected_zero


# the degree of the series comparison per rank: about 4000 box points
_SERIES_DEGREE = {2: 12, 3: 8, 4: 6, 5: 4, 6: 3}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_smith_form_agrees_with_the_adjugate_oracle(n):
    rng = random.Random(1200 + n)
    k = n - 1

    def sheared(scale):
        # scale * I sheared by c in its first row, then mixed by unimodular
        # column transforms: for k > 1 an adjugate entry reaches about
        # c * scale^(k-1), above the determinant scale^k
        c = rng.randint(10 * n, 50 * n)
        basis = [[scale * ((i == j) + c * (i == 0 and j == 1))
                  for j in range(k)] for i in range(k)]
        return transform_columns(basis, unimodular(k, rng))

    # index 1 (untyped), random type-zero bases, and skewed bases of n Z^k
    bases = [(sheared(1), False)]
    bases += [(random_type_zero_subgroup(rng, n, bound=4).basis, True)
              for _ in range(2)]
    bases += [(sheared(n), True) for _ in range(3)]
    skewed = 0
    for basis, typed in bases:
        gam = TranslationSubgroup(n, basis, check_types=typed)
        adj, det = adjugate_and_det(gam.basis)
        skewed += max(abs(x) for row in adj for x in row) > abs(det)
        contains = adjugate_membership(gam)
        q = quotient_group(gam)
        members = [mat_vec(gam.basis, [rng.randint(-3, 3) for _ in range(k)])
                   for _ in range(20)]
        others = [[rng.randint(-15, 15) for _ in range(k)] for _ in range(60)]
        for x in members + others:
            expected = contains(x)
            assert gam.contains(x) == expected
            assert (q.project(x) == (0,) * k) == expected
            solution = gam.solve(x)
            assert (solution is not None) == expected
            if expected:
                assert mat_vec(gam.basis, solution) == x
        assert all(contains(x) for x in members)
        deg = _SERIES_DEGREE[n]
        assert periodic_extension(selberg_series_translation(gam, deg),
                                  deg) == brute_force_translation_series(
                                      gam, deg)
    # a 1 x 1 adjugate is 1
    assert skewed >= 4 or n == 2


def test_one_smith_form_per_subgroup(monkeypatch):
    calls = []
    original = intmat.snf_with_transforms
    monkeypatch.setattr(intmat, "snf_with_transforms",
                        lambda m: calls.append(m) or original(m))
    gam = TranslationSubgroup(3, [[3, 0], [0, 6]])
    q = quotient_group(gam)
    assert quotient_group(gam) is q
    assert gam.contains([3, 6]) and q.project([3, 6]) == (0, 0)
    assert gam.solve([3, 6]) == [1, 1] and gam.index == q.order == 18
    assert len(calls) == 1


def _order_of(v, q):
    return q.element_order(q.project_vector(v))


def test_order_of_examples():
    q = quotient_group(TranslationSubgroup(2, [[4]]))
    assert _order_of(LatticeVector.zero(2), q) == 1
    assert _order_of(LatticeVector.basis_vector(2, 1), q) == 4
    q3 = quotient_group(TranslationSubgroup(3, [[1, 0], [-1, 3]]))
    for i in (1, 2, 3):
        assert _order_of(LatticeVector.basis_vector(3, i), q3) == 3


def test_orders_divide_group_order():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(2, 4)
        gam = random_type_zero_subgroup(rng, n)
        q = quotient_group(gam)
        for i in range(1, n + 1):
            v = LatticeVector.basis_vector(n, i)
            assert q.order % _order_of(v, q) == 0


def test_characters_count_and_satake_product():
    rng = random.Random(13)
    for _ in range(12):
        n = rng.randint(2, 4)
        gam = random_type_zero_subgroup(rng, n, bound=4)
        q = quotient_group(gam)
        chars = characters(q)
        assert len(chars) == q.order
        for chi in chars:
            turns = chi.satake_turns(q)
            assert sum(turns) % q.divisors[-1] == 0


def test_character_homomorphism_property():
    rng = random.Random(14)
    gam = TranslationSubgroup(3, [[3, 0], [0, 6]])
    q = quotient_group(gam)
    for chi in characters(q):
        for _ in range(10):
            a = tuple(rng.randrange(d) for d in q.divisors)
            b = tuple(rng.randrange(d) for d in q.divisors)
            assert (chi.turn(q.add(a, b)) - chi.turn(a) - chi.turn(b)) \
                % q.divisors[-1] == 0


def test_index3_character_satake_values():
    # all three directions map to the same generator of Z/3, so every
    # Satake parameter is a cube root of unity, held as its exponent
    gam = TranslationSubgroup(3, [[1, 0], [-1, 3]])
    q = quotient_group(gam)
    assert q.divisors == (1, 3)
    trivial = [c for c in characters(q) if all(e == 0 for e in c.exponents)][0]
    assert trivial.satake_turns(q) == (0, 0, 0)
    nontrivial = [c for c in characters(q) if c.satake_turns(q) != (0, 0, 0)]
    assert len(nontrivial) == 2
    for chi in nontrivial:
        turns = set(chi.satake_turns(q))
        assert len(turns) == 1
        assert turns.pop() in (1, 2)


@pytest.mark.parametrize("n,basis,divisors", [
    (2, [[64]], (64,)),
    (3, [[6, 0], [0, 9]], (3, 18)),
    (4, _N4_N32, (1, 2, 16)),
    (3, [[3, 0], [0, 6]], (3, 6)),
    (4, [[4, 0, 0], [0, 8, 0], [0, 0, 4]], (4, 4, 8)),
], ids=["n2_N64", "n3_N54", "n4_N32", "n3_chain_3_6", "n4_chain_4_4_8"])
def test_turns_match_the_fraction_oracle(n, basis, divisors):
    q = quotient_group(TranslationSubgroup(n, basis))
    assert q.divisors == divisors
    rng = random.Random(1113)
    elements = list(q.elements())
    sample = elements if len(elements) <= 64 else rng.sample(elements, 64)
    directions = [q.project_vector(LatticeVector.basis_vector(n, i))
                  for i in range(1, n + 1)]
    big = divisors[-1]
    for chi in characters(q):
        for x in sample:
            got = chi.turn(x)
            assert type(got) is int and 0 <= got < big
            assert Fraction(got, big) == fraction_turn(chi, x)
        turns = chi.satake_turns(q)
        assert tuple(Fraction(t, big) for t in turns) \
            == tuple(fraction_turn(chi, d) for d in directions)
        assert sum(turns) % big == 0


def test_affine_subgroup_stability():
    gam = TranslationSubgroup(3, [[3, 0], [0, 3]])
    aff = AffineSubgroup(gam, [perm_from_cycles(3, [(0, 1, 2)])])
    assert len(aff.perms) == 3
    assert aff.index_in_affine_group == 18
    # a lattice not stable under the requested permutation
    skew = TranslationSubgroup(3, [[3, 0], [0, 6]])
    with pytest.raises(ValueError):
        AffineSubgroup(skew, [perm_from_cycles(3, [(0, 1)])])
