"""Index bounds that decide when two expansions agree identically."""

import pytest

from etaq.sturm import agreement_bound, group_index


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
