"""Bernoulli numbers and the Eisenstein-series constructors."""

from fractions import Fraction

import pytest

from etaq import congruence
from etaq.characters import parse_character
from etaq.claims import builtin_claims
from etaq.congruence import Side, _side_space
from etaq.eisenstein import bernoulli, eisenstein_E2_level, eisenstein_G
from etaq.oracles import e2_replacement, eisenstein_E2, primes_up_to, sigma
from etaq.qseries import QSeries, ZZ, residue_ring


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
    # E_4 = -(8/B_4) G_4 = 240 G_4 = 1 + 240 q + 2160 q^2 + 6720 q^3 + ...
    assert -8 / bernoulli(4) == 240
    e = QSeries(g.ring, [240 * a for a in g.coeffs])
    assert [e[n] for n in range(4)] == [1, 240, 2160 % 343, 6720 % 343]


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
        e2_level = eisenstein_E2_level(level, 60, ring)
        lhs = QSeries(ring, [24 * a for a in e2_level.coeffs])
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
        assert f == e2, (ell, t)


def test_e2_replacement_domain():
    with pytest.raises(ValueError):
        e2_replacement(3, 1, 10)
    with pytest.raises(ValueError):
        e2_replacement(2, 3, 10)
    with pytest.raises(ValueError):
        e2_replacement(5, 2, 10)


def _valuation(x: Fraction, ell: int) -> int:
    v, num, den = 0, x.numerator, x.denominator
    while num % ell == 0:
        num, v = num // ell, v + 1
    while den % ell == 0:
        den, v = den // ell, v - 1
    return v


def test_eisenstein_reduction_mod_small_primes():
    # A side's pad E_w^e is bookkeeping only: it raises the weight and is
    # never built, so every pad the engine admits must be 1 mod ell^t term
    # by term.  E_w - 1 = -(2w/B_w) sum sigma_(w-1)(n) q^n, so that is
    # v_ell(2w/B_w) >= t, checked exactly for every prime ell < 100, every
    # ell^t with phi(ell^t) <= 200 and every w <= 200; the engine admits
    # exactly the even w >= 4 with phi(ell^t) | w (E_4 = 1 mod 3, E_6 = 1
    # mod 9, E_(ell-1) = 1 mod ell among them)
    admitted = 0
    for ell in primes_up_to(100):
        t = 1
        while (phi := ell ** (t - 1) * (ell - 1)) <= 200:
            for w in range(201):
                try:
                    meta, _ = _side_space(Side("G", 4, pad=(w, 3)), ell, t)
                except ValueError as exc:
                    assert "is not 1 mod" in str(exc)
                    assert w < 4 or w % 2 or w % phi, (ell, t, w)
                    continue
                assert w >= 4 and w % 2 == 0 and w % phi == 0, (ell, t, w)
                assert meta.weight == 4 + 3 * w
                assert _valuation(2 * w / bernoulli(w), ell) >= t, (ell, t, w)
                admitted += 1
            t += 1
    assert admitted > 500


def test_weight_two_paddings_for_even_levels():
    # 24 E_{2,2} = 1 mod 8, 12 E_{2,3} = 1 mod 3: both are used to pad
    # weight gaps at even and 3-divisible levels
    # (their constants 1/24 and 1/12 have no image mod 2 or 3; scaled by 24
    # and 12 they are exactly 1, so only q^1 onwards is built and checked)
    e22 = eisenstein_E2_level(2, 80, residue_ring(2, 3), constant=False)
    p2 = QSeries(e22.ring, [24 * a for a in e22.coeffs])
    assert p2 == QSeries(p2.ring, [0], 80)
    e23 = eisenstein_E2_level(3, 80, residue_ring(3), constant=False)
    p3 = QSeries(e23.ring, [12 * a for a in e23.coeffs])
    assert p3 == QSeries(p3.ring, [0], 80)


def test_parse_character_strings_used_by_claims():
    # every psi string in the builtin claims must parse
    for claim in builtin_claims():
        if claim.psi is not None:
            parse_character(claim.psi)


def _builtin_eisenstein_builds(monkeypatch):
    """(constructor, its arguments) for every Eisenstein series that verifying
    the built-in series claims builds."""
    builds = []
    for name in ("eisenstein_G", "eisenstein_E2_level"):
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
    elif n:
        value = sigma(n, 1) - (arg * sigma(n // arg, 1) if n % arg == 0 else 0)
    else:
        value = Fraction(arg - 1, 24)
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, m) % m


def test_residue_ring_series_match_the_rational_ones(monkeypatch):
    # the rational coefficients -B_k/2k, sigma_(k-1)(n) and (N - 1)/24,
    # sigma_1(n) - N sigma_1(n/N), each reduced mod ell^t; a pad is never built
    builds = _builtin_eisenstein_builds(monkeypatch)
    assert {build for build, _ in builds} == {eisenstein_G, eisenstein_E2_level}
    for build, args in builds:
        arg, precision, ring = args[:3]
        got = build(*args)
        assert got.ring == ring and got.precision == precision
        m = ring.modulus
        if args[3:] == (False,):  # built without its constant: a(0) = 0
            assert got[0] == 0
        else:
            assert got[0] == _oracle_coefficient(build, arg, 0, m), (build.__name__, args)
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
