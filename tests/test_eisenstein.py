"""Bernoulli numbers and the Eisenstein-series constructors."""

from fractions import Fraction

import pytest

from etaq import congruence
from etaq.characters import parse_character
from etaq.claims import builtin_claims
from etaq.eisenstein import (
    bernoulli,
    e2_replacement,
    eisenstein_E,
    eisenstein_E2,
    eisenstein_E2_level,
    eisenstein_G,
)
from etaq.oracles import primes_up_to, sigma
from etaq.qseries import QQ, QSeries, first_mismatch, reduce_mod, residue_ring


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(30) == Fraction(8615841276005, 14322)


def test_bernoulli_von_staudt_clausen():
    # denominator of B_2k is the product of primes p with (p-1) | 2k
    for k2 in range(2, 42, 2):
        denom = 1
        for p in primes_up_to(k2 + 1):
            if k2 % (p - 1) == 0:
                denom *= p
        assert bernoulli(k2).denominator == denom


def test_bernoulli_kummer_congruence():
    # (1 - p^(k-1)) B_k / k is stable mod p across k = k + (p-1)
    for p, k in ((5, 6), (7, 8), (11, 4)):
        a = bernoulli(k) / k * (1 - p ** (k - 1))
        b = bernoulli(k + p - 1) / (k + p - 1) * (1 - p ** (k + p - 2))
        diff = a - b
        assert diff.denominator % p != 0
        assert diff.numerator % p == 0


def test_G4_and_E4():
    g = eisenstein_G(4, 6)
    assert g[0] == Fraction(1, 240)
    assert g[1] == 1
    assert g[2] == 9
    assert g[3] == 28
    e = eisenstein_E(4, 6)
    assert e[0] == 1
    assert e[1] == 240
    for n in range(7):
        assert e[n] == g[n] * 240


def test_G_rejects_bad_weights():
    with pytest.raises(ValueError):
        eisenstein_G(2, 10)
    with pytest.raises(ValueError):
        eisenstein_G(5, 10)


def test_E2():
    e2 = eisenstein_E2(8)
    assert e2[0] == 1
    assert e2[1] == -24
    assert e2[2] == -72
    for n in range(1, 9):
        assert e2[n] == -24 * sigma(n, 1)


def test_E2_level_series():
    for level in (2, 3, 4, 6):
        s = eisenstein_E2_level(level, 40)
        assert s[0] == Fraction(level - 1, 24)
        for n in range(1, 41):
            expected = sigma(n, 1)
            if n % level == 0:
                expected -= level * sigma(n // level, 1)
            assert s[n] == expected
    with pytest.raises(ValueError):
        eisenstein_E2_level(1, 10)


def test_e2_replacement_small_values():
    f = e2_replacement(3, 2, 6)
    assert f[0] == -8  # -(3-1) * (1 + 3)
    assert f[1] == -960  # -2 * 480
    e2 = eisenstein_E2(6)
    for n in range(7):
        assert (f[n] - e2[n]) % 9 == 0


def test_e2_replacement_congruences():
    for ell, t in ((3, 2), (3, 3), (2, 4), (2, 5)):
        f = reduce_mod(e2_replacement(ell, t, 500), ell, t)
        e2 = reduce_mod(eisenstein_E2(500), ell, t)
        assert first_mismatch(f, e2) is None, (ell, t)


def test_e2_replacement_domain():
    with pytest.raises(ValueError):
        e2_replacement(3, 1, 10)
    with pytest.raises(ValueError):
        e2_replacement(2, 3, 10)
    with pytest.raises(ValueError):
        e2_replacement(5, 2, 10)


def test_eisenstein_reduction_mod_small_primes():
    # E_4 = 1 mod 3 and E_6 = 1 mod 9 underpin the weight bookkeeping
    e4 = reduce_mod(eisenstein_E(4, 60), 3, 1)
    assert first_mismatch(e4, QSeries.one(e4.ring, 60)) is None
    e6 = reduce_mod(eisenstein_E(6, 60), 3, 2)
    assert first_mismatch(e6, QSeries.one(e6.ring, 60)) is None
    for ell in (5, 7, 11):
        e = reduce_mod(eisenstein_E(ell - 1, 60), ell, 1)
        assert first_mismatch(e, QSeries.one(e.ring, 60)) is None


def test_weight_two_paddings_for_even_levels():
    # 24 E_{2,2} = 1 mod 8, 12 E_{2,3} = 1 mod 3: both are used to pad
    # weight gaps at even and 3-divisible levels
    p2 = reduce_mod(eisenstein_E2_level(2, 80).scale(24), 2, 3)
    assert first_mismatch(p2, QSeries.one(p2.ring, 80)) is None
    p3 = reduce_mod(eisenstein_E2_level(3, 80).scale(12), 3, 1)
    assert first_mismatch(p3, QSeries.one(p3.ring, 80)) is None


def test_parse_character_strings_used_by_claims():
    # every psi string in the builtin claims must parse
    for claim in builtin_claims():
        if claim.psi is not None:
            parse_character(claim.psi)


def _builtin_eisenstein_builds(monkeypatch):
    """(constructor, its arguments) for every Eisenstein series that verifying
    the built-in series claims builds."""
    builds = []
    for name in ("eisenstein_G", "eisenstein_E", "eisenstein_E2_level"):
        real = getattr(congruence, name)

        def record(*args, real=real):
            builds.append((real, args))
            return real(*args)

        monkeypatch.setattr(congruence, name, record)
    congruence.verify_claims(c for c in builtin_claims() if c.kind not in ("prime-power", "unit-factor"))
    return builds


def _sigma_mod(build, arg, n, m):
    """Coefficient n >= 1 of a built-in Eisenstein series mod m, from the oracle's sigma."""
    if build is eisenstein_G:
        return sigma(n, arg - 1) % m
    if build is eisenstein_E:
        scale = Fraction(-2 * arg) / bernoulli(arg) * sigma(n, arg - 1)
        return scale.numerator * pow(scale.denominator, -1, m) % m
    value = sigma(n, 1) - (arg * sigma(n // arg, 1) if n % arg == 0 else 0)
    return value % m


def test_residue_ring_series_match_the_rational_ones(monkeypatch):
    builds = _builtin_eisenstein_builds(monkeypatch)
    assert {build for build, _ in builds} == {eisenstein_G, eisenstein_E, eisenstein_E2_level}
    for build, args in builds:
        arg, precision, ring = args[:3]
        got = build(*args)
        assert got.ring == ring and got.precision == precision
        exact = build(arg, precision)
        if args[3:] == (False,):  # built without its constant: a(0) = 0
            assert got[0] == 0
            exact = QSeries(QQ, [0, *exact.coeffs[1:]], precision)
        assert got == reduce_mod(exact, ring.ell, ring.t), (build.__name__, args)
        if build is eisenstein_E:  # a pad: E_w = 1 mod ell^t
            assert got == QSeries.one(ring, precision)
        m = ring.modulus
        for n in sorted({1, 2, 6, 12, precision // 2, precision} & set(range(1, precision + 1))):
            assert got[n] == _sigma_mod(build, arg, n, m), (build.__name__, args, n)


def test_residue_ring_constants_reduce_or_are_refused():
    # G_12 has constant 691/65520: 0 mod 691, no image mod 5
    assert eisenstein_G(12, 4, residue_ring(691))[0] == 0
    with pytest.raises(ValueError, match="not 5-integral"):
        eisenstein_G(12, 4, residue_ring(5))
    assert eisenstein_G(12, 4, residue_ring(5), constant=False)[0] == 0
    # (N - 1)/24 for N = 5 is 1/6: a 5-adic unit, no 2-adic image
    assert eisenstein_E2_level(5, 4, residue_ring(5, 2))[0] * 6 % 25 == 1
    with pytest.raises(ValueError, match="not 2-integral"):
        eisenstein_E2_level(5, 4, residue_ring(2))
    # the normalizer -2k/B_k of E_k: -24/B_12 = 65520/691 has no image mod 691
    with pytest.raises(ValueError, match="a\\(1\\) = 65520/691 is not 691-integral"):
        eisenstein_E(12, 4, residue_ring(691))
    assert eisenstein_E(4, 30, residue_ring(3)) == QSeries.one(residue_ring(3), 30)
