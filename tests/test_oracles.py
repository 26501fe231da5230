"""The slow reference computations everything else is checked against."""

import pytest

from etaq.oracles import (
    CONDUCTOR_11_CURVE,
    EllipticCurve,
    brute_eta_expand,
    colored_partition_series,
    euler_factor,
    primes_up_to,
    sigma,
)
from etaq.qseries import ZZ


def test_sigma_spot_values():
    assert sigma(1, 1) == 1
    assert sigma(6, 1) == 12
    assert sigma(6, 0) == 4
    assert sigma(2, 11) == 2049
    assert sigma(12, 1) == 28
    for p in (2, 3, 5, 7, 11, 97):
        assert sigma(p, 0) == 2
        assert sigma(p, 3) == 1 + p**3


def test_sigma_multiplicative_on_coprime_arguments():
    for m, n in ((4, 9), (8, 27), (5, 16), (7, 25)):
        for nu in (1, 3, 5):
            assert sigma(m * n, nu) == sigma(m, nu) * sigma(n, nu)


def test_sigma_rejects_nonpositive():
    with pytest.raises(ValueError):
        sigma(0, 1)


def test_point_counts_on_the_level_11_curve():
    assert CONDUCTOR_11_CURVE.count_points(2) == 5
    assert CONDUCTOR_11_CURVE.count_points(3) == 5
    assert CONDUCTOR_11_CURVE.ap(2) == -2
    assert CONDUCTOR_11_CURVE.ap(3) == -1


def test_point_count_matches_naive_enumeration():
    # full brute force over both coordinates, independent of the Legendre route
    curve = CONDUCTOR_11_CURVE
    for p in (3, 5, 7, 13):
        naive = 1  # point at infinity
        for x in range(p):
            for y in range(p):
                lhs = (y * y + curve.a1 * x * y + curve.a3 * y) % p
                rhs = (x**3 + curve.a2 * x * x + curve.a4 * x + curve.a6) % p
                if lhs == rhs:
                    naive += 1
        assert curve.count_points(p) == naive


def test_printed_conductor_37_curve_disagrees_at_3():
    # The familiar-looking curve y^2 - y = x^3 - x has a(3) = -3, not the
    # -1 carried by the level-11 newform; keeping this pinned documents why
    # the catalog checks run against y^2 + y = x^3 - x^2 instead.
    other = EllipticCurve(0, 0, -1, -1, 0)
    assert other.ap(3) == -3
    assert CONDUCTOR_11_CURVE.ap(3) == -1


def test_colored_partition_series_small_values():
    v = colored_partition_series(30)
    assert v[0] == 1
    assert v[1] == -2
    assert v[2] == -1
    assert v[3] == 2


def test_brute_delta_matches_tau():
    series = brute_eta_expand({1: 24}, 5)
    assert [series[n] for n in range(6)] == [0, 1, -24, 252, -1472, 4830]


def test_brute_level_two_weight_eight():
    series = brute_eta_expand({1: 8, 2: 8}, 3)
    assert series[1] == 1
    assert series[2] == -8
    assert series[3] == 12


def test_brute_eta2_12():
    series = brute_eta_expand({2: 12}, 5)
    assert series[1] == 1
    assert series[2] == 0
    assert series[3] == -12
    assert series[5] == 54


def test_euler_factor_is_the_product_multiplied_out():
    # Euler's pentagonal number theorem against prod (1 - q^(delta n)) taken
    # one factor at a time
    for delta in (1, 2, 5):
        coeffs = [1] + [0] * 100
        for step in range(delta, 101, delta):
            for i in range(100, step - 1, -1):
                coeffs[i] -= coeffs[i - step]
        assert euler_factor(delta, 100, ZZ).coeffs == tuple(coeffs), delta


def test_brute_rejects_bad_exponent_sum():
    with pytest.raises(ValueError, match="not divisible by 24"):
        brute_eta_expand({1: 1}, 10)


def test_brute_handles_negative_exponents():
    # eta(4z)^36 / (eta(2z) eta(8z))^12 is the sign-flipped twin of
    # eta(2z)^12: q + 12q^3 + 54q^5 + ...
    series = brute_eta_expand({4: 36, 2: -12, 8: -12}, 9)
    assert series[1] == 1
    assert series[2] == series[4] == 0
    assert series[3] == 12
    assert series[5] == 54


def test_primes_up_to():
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(2) == [2]
    assert len(primes_up_to(10_000)) == 1229
