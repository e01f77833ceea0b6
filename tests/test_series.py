"""The integer EGF operations of cyclopadic.series, and the rational-series
oracle in tests/oracles.py that the Meixner tests compare them with."""
from fractions import Fraction
from math import comb, factorial

import pytest

from cyclopadic.polyring import UniPoly
from cyclopadic.series import series_exp, series_mul
from oracles import (
    RationalSeries,
    rational_arctan,
    rational_exp,
    rational_inv_sqrt,
    rational_mul,
    rational_one_plus_t2,
    rational_pow,
)

F = Fraction


def scalar(series, n):
    c = series[n]
    assert len(c) <= 1
    return c[0] if c else F(0)


def test_arctan_textbook():
    s = rational_arctan(5)
    vals = [scalar(s, k) for k in range(6)]
    assert vals == [0, 1, 0, F(-1, 3), 0, F(1, 5)]


def test_exp_of_zero():
    z = RationalSeries.zero(4)
    e = rational_exp(z)
    assert [scalar(e, k) for k in range(5)] == [1, 0, 0, 0, 0]


def test_exp_requires_zero_constant():
    s = RationalSeries.from_rationals([F(1), F(1)])
    with pytest.raises(ValueError):
        rational_exp(s)


def test_exp_of_t_is_exponential():
    s = RationalSeries.from_rationals([F(0), F(1)] + [F(0)] * 8)
    e = rational_exp(s)
    for k in range(10):
        assert scalar(e, k) == F(1, factorial(k))


def test_inv_sqrt_central_binomials():
    # (1+t^2)^(-1/2) = sum (-1)^k C(2k,k)/4^k t^(2k)
    s = rational_inv_sqrt(rational_one_plus_t2(12))
    for k in range(7):
        assert scalar(s, 2 * k) == F((-1) ** k * comb(2 * k, k), 4**k)
        if 2 * k + 1 <= 12:
            assert scalar(s, 2 * k + 1) == 0


def test_pow_rational_integer_exponent_oracle():
    s = rational_one_plus_t2(8)
    cube = rational_pow(s, F(3))
    direct = rational_mul(rational_mul(s, s), s)
    assert cube.coeffs[:9] == direct.coeffs[:9]


def test_pow_requires_unit_constant():
    with pytest.raises(ValueError):
        rational_pow(RationalSeries.zero(3), F(1, 2))


def test_exp_x_arctan_coefficient():
    # coefficient of t^3 in exp(X arctan t), times 3!, must be X^3 - 2X
    a = rational_arctan(6).scaled_by_x()
    e = rational_exp(a)
    c3 = e[3]
    poly = [x * 6 for x in c3] + [F(0)] * (4 - len(c3))
    assert poly[:4] == [0, -2, 0, 1]


def test_mul_truncation_is_min():
    a = RationalSeries.from_rationals([F(1)] * 5)
    b = RationalSeries.from_rationals([F(1)] * 3)
    assert rational_mul(a, b).truncation == 2


# the integer EGF route: a series is the list of its EGF coefficients k! [t^k]


def constants(values):
    return [UniPoly.constant(v) for v in values]


def test_egf_exp_counts_set_partitions():
    # exp(e^t - 1) is the EGF of the Bell numbers
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]
    assert series_exp(constants([0] + [1] * 9), []) == constants(bell)


def test_egf_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        series_exp(constants([1, 1]), [])


def test_egf_mul_is_binomial_convolution():
    # e^t * e^t = e^(2t), truncated at the shorter factor
    assert series_mul(constants([1] * 8), constants([1] * 6), []) == constants(
        [2**m for m in range(6)]
    )


def test_egf_extension_appends_only_missing_degrees():
    ones = constants([1] * 5)
    out = series_mul(ones, ones, [])
    first = list(out)
    ones += constants([1] * 4)
    assert series_mul(ones, ones, out) is out
    assert out[:5] == first and all(a is b for a, b in zip(out, first))
    assert out == constants([2**m for m in range(9)])
    g = series_exp(constants([0, 1]), [])
    assert series_exp(constants([0, 1, 0, 0]), g) == constants([1] * 4)

