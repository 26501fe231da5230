"""Bernoulli numbers and the Eisenstein-series constructors."""

from fractions import Fraction

import pytest

from etaq import congruence
from etaq.characters import parse_character
from etaq.claims import builtin_claims
from etaq.eisenstein import bernoulli, eisenstein_E, eisenstein_E2_level, eisenstein_G
from etaq.oracles import e2_replacement, eisenstein_E2, primes_up_to, sigma
from etaq.qseries import QSeries, ZZ, first_mismatch, residue_ring


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
    ring = residue_ring(7, 3)
    g = eisenstein_G(4, 6, ring)
    assert g[0] * 240 % 343 == 1  # 1/240
    assert g[1] == 1
    assert g[2] == 9
    assert g[3] == 28
    e = eisenstein_E(4, 6, ring)
    assert e[0] == 1
    assert e[1] == 240
    for n in range(7):
        assert e[n] == g[n] * 240 % 343


def test_G_rejects_bad_weights():
    with pytest.raises(ValueError):
        eisenstein_G(2, 10, residue_ring(7))
    with pytest.raises(ValueError):
        eisenstein_G(5, 10, residue_ring(7))
    # every Eisenstein series is built in a residue ring
    with pytest.raises(ValueError, match="only makes sense for residue rings"):
        eisenstein_G(4, 10, ZZ)


def test_E2():
    ring = residue_ring(5, 3)
    e2 = eisenstein_E2(60, ring)
    assert [e2[n] for n in range(4)] == [1, -24 % 125, -72 % 125, -96 % 125]
    # 24 E_{2,N} = N E_2(Nz) - E_2(z): the sieved level series against the
    # oracle's trial-division E_2, constants included (24 is a unit mod 5)
    for level in (2, 3, 4, 5, 6):
        lhs = eisenstein_E2_level(level, 60, ring).scale(24)
        rhs = QSeries(ring, [(level * e2[n // level] if n % level == 0 else 0) - e2[n] for n in range(61)])
        assert lhs == rhs, level


def test_E2_level_series():
    ring = residue_ring(5, 4)
    for level in (2, 3, 4, 6):
        s = eisenstein_E2_level(level, 40, ring)
        assert s[0] * 24 % 625 == level - 1
        for n in range(1, 41):
            expected = sigma(n, 1)
            if n % level == 0:
                expected -= level * sigma(n // level, 1)
            assert s[n] == expected % 625
    with pytest.raises(ValueError):
        eisenstein_E2_level(1, 10, ring)


def test_e2_replacement_small_values():
    f = e2_replacement(3, 2, 6)
    assert f.ring == residue_ring(3, 2)
    assert f[0] == -8 % 9  # -(3-1) * (1 + 3)
    assert f[1] == -960 % 9  # -2 * 480, with E_8 = 1 + 480 sum sigma_7(n) q^n
    assert f[3] == -2 * (480 * sigma(3, 7) + 3 * 480) % 9
    e2 = eisenstein_E2(6, residue_ring(3, 2))
    for n in range(7):
        assert (f[n] - e2[n]) % 9 == 0


def test_e2_replacement_congruences():
    for ell, t in ((3, 2), (3, 3), (2, 4), (2, 5)):
        f = e2_replacement(ell, t, 500)
        e2 = eisenstein_E2(500, residue_ring(ell, t))
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
    e4 = eisenstein_E(4, 60, residue_ring(3))
    assert first_mismatch(e4, QSeries.one(e4.ring, 60)) is None
    e6 = eisenstein_E(6, 60, residue_ring(3, 2))
    assert first_mismatch(e6, QSeries.one(e6.ring, 60)) is None
    for ell in (5, 7, 11):
        e = eisenstein_E(ell - 1, 60, residue_ring(ell))
        assert first_mismatch(e, QSeries.one(e.ring, 60)) is None


def test_weight_two_paddings_for_even_levels():
    # 24 E_{2,2} = 1 mod 8, 12 E_{2,3} = 1 mod 3: both are used to pad
    # weight gaps at even and 3-divisible levels
    # (their constants 1/24 and 1/12 have no image mod 2 or 3; scaled by 24
    # and 12 they are exactly 1, so only q^1 onwards is built and checked)
    p2 = eisenstein_E2_level(2, 80, residue_ring(2, 3), constant=False).scale(24)
    assert first_mismatch(p2, QSeries.zero(p2.ring, 80)) is None
    p3 = eisenstein_E2_level(3, 80, residue_ring(3), constant=False).scale(12)
    assert first_mismatch(p3, QSeries.zero(p3.ring, 80)) is None


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


def _oracle_coefficient(build, arg, n, m):
    """Coefficient n of a built-in Eisenstein series mod m, from the oracle's
    trial-division sigma and the Bernoulli numbers alone."""
    if build is eisenstein_G:
        value = sigma(n, arg - 1) if n else -bernoulli(arg) / (2 * arg)
    elif build is eisenstein_E:
        value = Fraction(-2 * arg) / bernoulli(arg) * sigma(n, arg - 1) if n else 1
    elif n:
        value = sigma(n, 1) - (arg * sigma(n // arg, 1) if n % arg == 0 else 0)
    else:
        value = Fraction(arg - 1, 24)
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, m) % m


def test_residue_ring_series_match_the_rational_ones(monkeypatch):
    # the rational coefficients -B_k/2k, sigma_(k-1)(n), -2k/B_k sigma_(k-1)(n)
    # and (N - 1)/24, sigma_1(n) - N sigma_1(n/N), each reduced mod ell^t
    builds = _builtin_eisenstein_builds(monkeypatch)
    assert {build for build, _ in builds} == {eisenstein_G, eisenstein_E, eisenstein_E2_level}
    for build, args in builds:
        arg, precision, ring = args[:3]
        got = build(*args)
        assert got.ring == ring and got.precision == precision
        m = ring.modulus
        if args[3:] == (False,):  # built without its constant: a(0) = 0
            assert got[0] == 0
        else:
            assert got[0] == _oracle_coefficient(build, arg, 0, m), (build.__name__, args)
        if build is eisenstein_E:  # a pad: E_w = 1 mod ell^t
            assert got == QSeries.one(ring, precision)
        sampled = {1, 2, 6, 12, precision // 2, precision} & set(range(1, precision + 1))
        for n in sorted(set(range(1, min(precision, 600) + 1)) | sampled):
            assert got[n] == _oracle_coefficient(build, arg, n, m), (build.__name__, args, n)


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
