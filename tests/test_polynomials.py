import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latzeta.polynomials import (IntPolynomial, MultiRational, MultiSeries,
                                 _exp_to_json, _sorted_terms)

from _oracles import (combine, generator_specialize_first, key_sorted_terms,
                      numerator_arrays, piece_dicts, product_expand,
                      rational_from_json, rational_from_pieces,
                      series_from_json)


def test_int_polynomial_basic_arithmetic():
    p = IntPolynomial([1, 1])      # 1 + u
    q = IntPolynomial([1, -1])     # 1 - u
    assert p * q == IntPolynomial([1, 0, -1])
    assert p + q == IntPolynomial([2])
    assert (p - p) == IntPolynomial.zero()
    assert p.degree == 1 and IntPolynomial.zero().degree == -1
    assert p * p * p == IntPolynomial([1, 3, 3, 1])


def test_one_minus_power_matches_repeated_multiplication():
    base = IntPolynomial([1, 0, 0, -1])  # 1 - u^3
    prod = IntPolynomial.one()
    for _ in range(5):
        prod = prod * base
    assert IntPolynomial.one_minus_power(3, 5) == prod


def test_series_inverse_left_inverse():
    p = IntPolynomial([1, -3, 2, 5])
    inv = p.series_inverse(12)
    assert p.mul_truncated(inv, 12) == IntPolynomial.one()
    with pytest.raises(ValueError):
        IntPolynomial([2, 1]).series_inverse(4)


def _naive_product(a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return IntPolynomial(out)


def _random_polynomial(rng, sparse):
    deg = rng.randint(-1, 12)
    share = 0.25 if sparse else 1.0
    return IntPolynomial([rng.randint(-9, 9) if rng.random() < share else 0
                          for _ in range(deg + 1)])


def test_products_match_a_naive_double_loop():
    rng = random.Random(1616)
    zero = IntPolynomial.zero()
    pairs = [(zero, zero), (zero, IntPolynomial([1, 0, 2])),
             (IntPolynomial([0, 3]), zero)]
    pairs += [(_random_polynomial(rng, sparse_a),
               _random_polynomial(rng, sparse_b))
              for sparse_a in (True, False) for sparse_b in (True, False)
              for _ in range(60)]
    for p, q in pairs:
        full = _naive_product(p.coeffs, q.coeffs)
        assert p * q == full, (p, q)
        edges = {p.degree, q.degree, full.degree}
        for max_deg in {d + k for d in edges for k in (-1, 0, 1)}:
            if max_deg >= 0:
                assert p.mul_truncated(q, max_deg) == full.truncate(max_deg), \
                    (p, q, max_deg)


def test_a_max_degree_above_the_product_sizes_nothing_by_it():
    # the output is sized by the product's degree: a zero factor or
    # max_deg = 10^9 allocates nothing like max_deg slots
    rng = random.Random(1617)
    zero = IntPolynomial.zero()
    pairs = [(zero, zero), (zero, IntPolynomial([1, 0, 2])),
             (IntPolynomial([0, 3]), zero)]
    pairs += [(_random_polynomial(rng, sparse), _random_polynomial(rng, True))
              for sparse in (True, False) for _ in range(30)]
    tracemalloc.start()
    try:
        for p, q in pairs:
            assert (p.mul_truncated(q, 10 ** 9)
                    == _naive_product(p.coeffs, q.coeffs)), (p, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_derivative_and_eval():
    p = IntPolynomial([1, 0, -2, 0, 1])  # (1-u^2)^2
    assert p(3) == (1 - 9) ** 2
    assert p.coefficient(2) == -2 and p.coefficient(99) == 0


def test_int_polynomial_json_round_trip():
    p = IntPolynomial([1, 0, -12345678901234567890, 7])
    data = p.to_json_coeffs()
    assert data == ["1", "0", "-12345678901234567890", "7"]
    assert IntPolynomial([int(c) for c in data]) == p


def test_multi_series_cutoff_and_equality():
    s = MultiSeries(2, 4)
    s.add_term((1, 1), 3)
    s.add_term((5, 0), 9)  # above cutoff, dropped
    s.add_term((1, 1), -3)  # cancels
    t = MultiSeries(2, 4)
    assert s == t
    s.add_term((0, 2), 5)
    assert s.get((0, 2)) == 5


def test_multi_series_fraction_exponents_and_json():
    s = MultiSeries(2, 3)
    s.add_term((Fraction(1, 2), 0), 7)
    s.add_term((1, 1), 2)
    obj = s.to_json_obj()
    assert ["1/2", 0] in [t[0] for t in obj["terms"]]
    assert series_from_json(obj) == s


def test_add_term_keys_normalised_and_checked():
    s = MultiSeries(2, 10)
    key = (1, 2)
    s.add_term(key, 3)
    # a tuple of plain ints is stored as it is
    assert next(iter(s.terms)) is key
    # Fractions with denominator 1, bools and numpy ints become int keys
    for exp in [(Fraction(2, 2), np.int64(2)), (True, 2), [1, 2]]:
        t = MultiSeries(2, 10)
        t.add_term(exp, 4)
        s.add_term(exp, 4)
        assert [type(x) for x in next(iter(t.terms))] == [int, int]
    assert s.terms == {(1, 2): 15}
    s.add_term((Fraction(1, 2), 0), 5)
    assert s.get((Fraction(1, 2), 0)) == 5
    with pytest.raises(ValueError, match="negative"):
        s.add_term((1, -1), 1)
    with pytest.raises(ValueError, match="negative"):
        s.add_term((Fraction(-1, 2), 0), 1)
    with pytest.raises(ValueError, match="expected 2 exponents"):
        s.add_term((1, 2, 3), 1)
    with pytest.raises(ValueError, match="expected 2 exponents"):
        s.add_term([Fraction(1)], 1)


def test_multi_series_specialize_first():
    s = MultiSeries(3, 6)
    s.add_term((2, 0, 0), 4)
    s.add_term((3, 1, 0), 9)   # killed by 0^1
    s.add_term((0, 0, 0), 1)
    assert s.specialize_first() == {2: 4, 0: 1}


# term dicts as the series hold them: int exponents, or Fractions for the
# affine lengths at the geodesic scale, mixed within a key
_EXPONENTS = (st.integers(0, 6)
              | st.builds(Fraction, st.integers(0, 12), st.sampled_from([2, 3])))
_TERM_DICTS = st.integers(1, 4).flatmap(lambda nvars: st.dictionaries(
    st.tuples(*[_EXPONENTS] * nvars),
    st.integers(-10 ** 20, 10 ** 20).filter(bool), max_size=40))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(terms=_TERM_DICTS)
def test_term_order_matches_the_key_sort(terms):
    assert _sorted_terms(terms) == key_sorted_terms(terms)
    # equal degrees and equal keys, so the exponent types too
    assert [[*map(type, e)] for e, _ in _sorted_terms(terms)] == [
        [*map(type, e)] for e, _ in key_sorted_terms(terms)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(terms=_TERM_DICTS)
def test_specialize_first_matches_the_generator_reference(terms):
    nvars = len(next(iter(terms), (0,)))
    built = MultiSeries(nvars, 100, terms)
    assigned = MultiSeries(nvars, 100)
    assigned.terms = dict(terms)
    for s in (built, assigned):
        got = s.specialize_first()
        assert list(got.items()) == list(
            generator_specialize_first(s).items())
        # 0^0 = 1: the constant term survives at x^0
        if (0,) * nvars in s.terms:
            assert got[0] == s.terms[(0,) * nvars]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(terms=_TERM_DICTS)
def test_term_rows_are_the_key_sorted_terms(terms):
    nvars = len(next(iter(terms), (0,)))
    s = MultiSeries(nvars, 100, terms)
    assert s.to_json_obj()["terms"] == [
        [[_exp_to_json(x) for x in e], str(c)]
        for e, c in key_sorted_terms(s.terms)]
    ints = {e: c for e, c in terms.items() if all(type(x) is int for x in e)}
    r = rational_from_pieces(nvars, [(ints, [(1,) * nvars])])
    rows = [[list(e), str(c)] for e, c in key_sorted_terms(ints)]
    pieces = r.to_json_obj()["pieces"]
    assert [p["numerator"] for p in pieces] == ([rows] if rows else [])


def test_rational_term_rows_sort_each_piece_by_degree_then_exponent():
    # rows out of order, ties in total degree and coefficients beyond
    # int64, in pieces whose denominators are out of order too
    rng = random.Random(7)
    nvars = 3
    nums = []
    for _ in range(4):
        num = {}
        for _ in range(30):
            e = tuple(rng.randint(0, 4) for _ in range(nvars))
            num[e] = rng.choice([-5, 1, 3, 10 ** 25])
        nums.append(num)
    dens = [((0, 0, 3), (2, 0, 0)), (), ((1, 1, 0),), ((0, 2, 0),)]
    r = MultiRational(nvars)
    for num, den in zip(nums, dens):
        exps, coeffs = numerator_arrays(nvars, num)
        order = rng.sample(range(len(exps)), len(exps))
        r.pieces[den] = (exps[order], coeffs[order])
    assert any(c.dtype == object for _, c in r.pieces.values())
    assert r.to_json_obj() == {"variables": nvars, "pieces": [
        {"numerator": [[list(e), str(c)] for e, c in key_sorted_terms(num)],
         "denominator_factors": [list(f) for f in den]}
        for den, num in sorted(zip(dens, nums))]}


def test_rational_from_pieces_merges_and_cancels():
    # the builder the tests tamper with: equal denominators add up, and a
    # term or piece that cancels is dropped
    r = rational_from_pieces(1, [({(0,): 2, (3,): 1}, [(2,)]),
                                 ({(0,): -2}, [(2,)]),
                                 ({(1,): 5}, []), ({(1,): -5}, []),
                                 ({(4,): 10 ** 30}, [(1,)])])
    assert piece_dicts(r) == {((2,),): {(3,): 1}, ((1,),): {(4,): 10 ** 30}}
    assert r.pieces[((2,),)][1].dtype == np.int64
    assert r.pieces[((1,),)][1].dtype == object


def test_multi_rational_expand_geometric():
    r = rational_from_pieces(1, [({(0,): 1}, [(1,)])])  # 1/(1-x)
    s = r.expand(5)
    assert all(s.get((k,)) == 1 for k in range(6))


def test_multi_rational_combine_cancels_without_gcd():
    # 4 + 4x^2/(1-x^2) == 4/(1-x^2)
    r = rational_from_pieces(1, [({(0,): 4}, []), ({(2,): 4}, [(2,)])])
    num, den = combine(r)
    assert num == {(0,): 4}
    assert den == ((2,),)


def test_multi_rational_json_round_trip():
    r = rational_from_pieces(2, [({(1, 1): 1}, [(1, 0), (0, 1)]),
                                 ({(0, 0): 3}, [])])
    obj = r.to_json_obj()
    back = rational_from_json(obj)
    assert piece_dicts(back) == piece_dicts(r)
    # emitted object is plain JSON
    json.dumps(obj)


def _random_vector(rng, nvars, total):
    """A nonnegative int vector of the given total degree."""
    cuts = sorted(rng.randint(0, total) for _ in range(nvars - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def _random_rational(rng, nvars, max_deg, scale):
    pieces = []
    for _ in range(rng.randint(1, 4)):
        factors = []
        for _ in range(rng.randint(0, 3)):
            # up to twice max_deg, so some factors are above the cutoff
            factors.append(_random_vector(
                rng, nvars, scale * rng.randint(1, 2 * max(max_deg, 1))))
        if factors and rng.random() < 0.4:
            factors.append(factors[0])                        # repeated
        if factors and rng.random() < 0.4:
            factors.append(tuple(2 * x for x in factors[-1]))  # parallel
        num = {}
        for _ in range(rng.randint(1, 5)):
            e = _random_vector(rng, nvars,
                               scale * rng.randint(0, max_deg + 3))
            num[e] = num.get(e, 0) + rng.choice([-3, -1, 1, 2, 10 ** 30])
        pieces.append((num, factors))
        if rng.random() < 0.3:
            # the same piece with a coefficient of opposite sign: cancels
            pieces.append(({e: -c for e, c in num.items()}, factors))
    return rational_from_pieces(nvars, pieces)


def test_expand_matches_the_product_oracle():
    rng = random.Random(2024)
    for trial in range(300):
        nvars = 1 + trial % 4
        scale = math.factorial(nvars + 1) if trial % 5 == 0 else 1
        max_deg = scale * rng.choice([0, 1, 3, 6, 9])
        r = _random_rational(rng, nvars, max_deg // scale, scale)
        for deg in {0, max_deg, max_deg + 1}:
            assert r.expand(deg) == product_expand(r, deg), (trial, deg)


def test_expand_cancels_across_pieces():
    # 1/(1-x) - (1+x)/(1-x^2) = 0; adding x/(1-x^2) leaves the odd powers
    pieces = [({(0,): 1}, [(1,)]), ({(0,): -1, (1,): -1}, [(2,)])]
    assert rational_from_pieces(1, pieces).expand(9).terms == {}
    pieces.append(({(1,): 1}, [(2,)]))
    assert rational_from_pieces(1, pieces).expand(9).terms == {
        (k,): 1 for k in range(1, 10, 2)}
    # a vanishing coefficient inside one piece stops its carry:
    # (x - x^2)/(1 - x) = x
    r = rational_from_pieces(1, [({(1,): 1, (2,): -1}, [(1,)])])
    assert r.expand(7).terms == {(1,): 1}


def test_expand_at_degree_zero_and_above_every_term():
    r = rational_from_pieces(2, [({(0, 0): 5, (1, 0): 1}, [(1, 1), (0, 3)]),
                                 ({(4, 4): 1}, [(1, 0)])])
    assert r.expand(0).terms == {(0, 0): 5}
    assert r.expand(0) == product_expand(r, 0)
    assert r.expand(7) == product_expand(r, 7)
