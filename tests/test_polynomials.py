import json
from fractions import Fraction

import pytest

from latzeta.polynomials import IntPolynomial, MultiRational, MultiSeries


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


def test_derivative_and_eval():
    p = IntPolynomial([1, 0, -2, 0, 1])  # (1-u^2)^2
    assert p.derivative() == IntPolynomial([0, -4, 0, 4])
    assert p(3) == (1 - 9) ** 2
    assert p.coefficient(2) == -2 and p.coefficient(99) == 0


def test_int_polynomial_json_round_trip():
    p = IntPolynomial([1, 0, -12345678901234567890, 7])
    data = p.to_json_coeffs()
    assert data == ["1", "0", "-12345678901234567890", "7"]
    assert IntPolynomial.from_json_coeffs(data) == p


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
    assert MultiSeries.from_json_obj(obj) == s


def test_multi_series_specialize_first():
    s = MultiSeries(3, 6)
    s.add_term((2, 0, 0), 4)
    s.add_term((3, 1, 0), 9)   # killed by 0^1
    s.add_term((0, 0, 0), 1)
    assert s.specialize_first() == {2: 4, 0: 1}


def test_multi_rational_merges_equal_denominators():
    r = MultiRational(1)
    r.add_piece({(2,): 4}, [(2,)])
    r.add_piece({(4,): 1}, [(2,)])
    assert len(r.pieces) == 1


def test_multi_rational_expand_geometric():
    r = MultiRational(1)
    r.add_piece({(0,): 1}, [(1,)])  # 1/(1-x)
    s = r.expand(5)
    assert all(s.get((k,)) == 1 for k in range(6))


def test_multi_rational_combine_cancels_without_gcd():
    # 4 + 4x^2/(1-x^2) == 4/(1-x^2)
    r = MultiRational(1)
    r.add_piece({(0,): 4}, [])
    r.add_piece({(2,): 4}, [(2,)])
    num, den = r.combine()
    assert num == {(0,): 4}
    assert den == ((2,),)


def test_multi_rational_json_round_trip():
    r = MultiRational(2)
    r.add_piece({(1, 1): 1}, [(1, 0), (0, 1)])
    r.add_piece({(0, 0): 3}, [])
    obj = r.to_json_obj()
    back = MultiRational.from_json_obj(obj)
    assert back.pieces == r.pieces
    # emitted object is plain JSON
    json.dumps(obj)


def test_multi_rational_rejects_zero_factor():
    r = MultiRational(2)
    with pytest.raises(ValueError):
        r.add_piece({(0, 0): 1}, [(0, 0)])
