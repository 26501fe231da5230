"""Index bounds that decide when two expansions agree identically."""

from fractions import Fraction
from math import prod

import pytest

from etaq.characters import factor
from etaq.oracles import primes_up_to
from etaq.sturm import agreement_bound, group_index


def reference_group_index(level):
    """N prod_{p | N} (1 + 1/p) in exact rationals, the primes from the
    reference sieve."""
    b = Fraction(level)
    for p in primes_up_to(level):
        if level % p == 0:
            b *= Fraction(p + 1, p)
    assert b.denominator == 1
    return int(b)


def reference_agreement_bounds(weights, index, level):
    """{(k, cuspidal): floor(k b / 12 - [cuspidal] (b - 1) / N)} in exact rationals."""
    out = {}
    for k in weights:
        full = k * Fraction(index, 12)
        cusp = full - Fraction(index - 1, level)
        out[k, False] = full.numerator // full.denominator
        out[k, True] = cusp.numerator // cusp.denominator
    return out


def test_group_index_values():
    assert group_index(1) == 1
    assert group_index(2) == 3
    assert group_index(4) == 6
    assert group_index(6) == 12
    assert group_index(9) == 12
    assert group_index(36) == 72
    assert group_index(144) == 288


def test_group_index_multiplicative_on_coprime_levels():
    for a, b in ((4, 9), (2, 25), (8, 27), (5, 16)):
        assert group_index(a * b) == group_index(a) * group_index(b)


def test_agreement_bound_pinned_examples():
    assert agreement_bound(320, 36, cuspidal=True) == 1918
    assert agreement_bound(12, 1, cuspidal=False) == 1
    assert agreement_bound(16, 4, cuspidal=True) == 6


def test_cuspidal_bound_is_never_larger():
    for weight in (2, 4, 12, 36):
        for level in (1, 4, 11, 36, 144):
            cusp = agreement_bound(weight, level, cuspidal=True)
            full = agreement_bound(weight, level, cuspidal=False)
            assert cusp <= full


def test_bound_monotone_in_weight_and_level():
    for level in (1, 6, 20):
        bounds = [agreement_bound(k, level, cuspidal=True) for k in range(4, 40, 2)]
        assert bounds == sorted(bounds)
    for weight in (4, 12):
        bounds = [agreement_bound(weight, n, cuspidal=False) for n in (1, 2, 4, 8, 16)]
        assert bounds == sorted(bounds)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        group_index(0)
    with pytest.raises(ValueError):
        agreement_bound(0, 4, cuspidal=True)


def test_integer_formulas_match_the_rational_ones():
    # levels 1-3000, weights 1-60, with and without the cusp-form saving
    for level in range(1, 3001):
        index = group_index(level)
        assert index == reference_group_index(level), level
        expected = reference_agreement_bounds(range(1, 61), index, level)
        got = {(k, cusp): agreement_bound(k, level, cusp) for k, cusp in expected}
        assert got == expected, level


def test_factor_round_trips_and_refuses_zero_and_past_the_limit():
    for n in (1, -1, 2, 97, -360, 2**39, 3**25, 999983 * 1000003, 10**12, -(10**12), 10**12 - 11):
        factors = factor(n)
        assert all(factor(p) == {p: 1} for p in factors)
        assert prod(p**e for p, e in factors.items()) == abs(n)
    assert factor(-360) == {2: 3, 3: 2, 5: 1}
    with pytest.raises(ValueError, match="0 has no prime factorization"):
        factor(0)
    for n in (10**12 + 1, -(10**12) - 1, 2 ** (10**6 - 1)):
        with pytest.raises(ValueError, match=r"beyond the limit \|n\| <= 10\^12"):
            factor(n)
    # an integer past 100 digits is named by its exact digit count
    for n, digits in ((10**150 - 1, 150), (10**150, 151), (-(10**5000), 5001)):
        with pytest.raises(ValueError, match=f"^integer of {digits} digits is beyond"):
            factor(n)
    with pytest.raises(ValueError, match="^level of 301030 digits is beyond the limit"):
        group_index(2 ** (10**6 - 1))
    with pytest.raises(ValueError, match="^level 1000000014000000049 is beyond the limit"):
        agreement_bound(12, (10**9 + 7) ** 2, cuspidal=True)
