"""Bernoulli numbers and the Eisenstein-series constructors."""

from fractions import Fraction
from math import comb, gcd

import pytest

from etaq import congruence
from etaq.characters import parse_character, trivial_mod
from etaq.claims import builtin_claims
from etaq.congruence import Side, _side_space
from etaq.eisenstein import bernoulli, eisenstein_G
from etaq.etaquot import lookup
from etaq.operators import theta
from etaq.oracles import e2_replacement, eisenstein_E2, primes_up_to, sigma
from etaq.qseries import QSeries, ZZ, reduce_coefficient, residue_ring


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(30) == Fraction(8615841276005, 14322)


def test_bernoulli_matches_the_defining_recurrence():
    # the tangent-number passes against sum_{j=0}^{k} C(k+1, j) B_j = 0,
    # the O(k^3) Fraction recurrence they replace, for every k <= 300
    reference = [Fraction(1)]
    for k in range(1, 301):
        reference.append(-sum(comb(k + 1, j) * reference[j] for j in range(k)) / (k + 1))
    assert [bernoulli(k) for k in range(301)] == reference


def test_eisenstein_G_refuses_a_constant_past_its_weight_limit():
    # B_k for the constant term costs k^2 passes, so past weight 2000 it is
    # refused before any work; a side with a(0) killed needs no constant
    ring = residue_ring(7)
    assert eisenstein_G(2000, 10, ring)[0] == reduce_coefficient(-bernoulli(2000) / 4000, ring)
    with pytest.raises(ValueError, match=r"constant term of G_2002 is beyond the limit k <= 2000"):
        eisenstein_G(2002, 10, ring)
    assert eisenstein_G(2002, 10, ring, constant=False)[0] == 0


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
        eisenstein_G(0, 10, residue_ring(7))
    with pytest.raises(ValueError):
        eisenstein_G(5, 10, residue_ring(7))
    # every Eisenstein series is built in a residue ring
    with pytest.raises(ValueError, match="only makes sense for residue rings"):
        eisenstein_G(4, 10, ZZ)


def test_E2():
    ring = residue_ring(5, 3)
    e2 = eisenstein_E2(60, ring)
    assert [e2[n] for n in range(4)] == [1, -24 % 125, -72 % 125, -96 % 125]
    # -24 G_2 = E_2: the sieved series against the oracle's trial-division
    # E_2, constant included (24 is a unit mod 5); masked by 1_N, 24 G_2 is
    # N E_2(Nz) - E_2(z), whose N E_2(Nz) vanishes off (n, N) = 1
    g2 = eisenstein_G(2, 60, ring)
    assert QSeries(ring, [-24 * a for a in g2.coeffs]) == e2
    for level in (2, 3, 4, 5, 6):
        lhs = QSeries(ring, [24 * a for a in theta(g2, 0, trivial_mod(level)).coeffs])
        level_series = [(level * e2[n // level] if n % level == 0 else 0) - e2[n] for n in range(61)]
        rhs = QSeries(ring, [c if gcd(n, level) == 1 else 0 for n, c in enumerate(level_series)])
        assert lhs == rhs, level


def test_E2_level_series():
    # the weight-2 level-N series sigma_1(n) - N sigma_1(n/N), masked by 1_N,
    # is G_2 twisted by 1_N, and that side has the level series' space,
    # M_2(Gamma_0(N^2)); untwisted, or twisted by 1_1, G_2 is refused
    ring = residue_ring(5, 4)
    g2 = eisenstein_G(2, 40, ring)
    assert g2[0] * 24 % 625 == 624  # -1/24
    for level in (2, 3, 4, 6):
        s = theta(g2, 0, trivial_mod(level))
        assert s[0] == 0
        for n in range(1, 41):
            expected = sigma(n, 1)
            if n % level == 0:
                expected -= level * sigma(n // level, 1)
            assert s[n] == (expected if gcd(n, level) == 1 else 0) % 625
        meta, _ = _side_space(Side("G", 2, trivial_mod(level)), 5, 4)
        assert (meta.weight, meta.level, meta.cuspidal) == (2, level**2, False)
    for twist in (None, trivial_mod(1)):
        with pytest.raises(ValueError, match="G_2 is not modular"):
            _side_space(Side("G", 2, twist), 5, 4)


def test_the_weight_two_kernel_is_the_masked_level_series():
    # every built-in two-exponent row of width 2 at level N >= 2 compares
    # against theta^(m+1) of G_2 twisted by psi 1_N: at every n up to its
    # bound, psi 1_N(n) n^(m+1) (sigma_1(n) - N sigma_1(n/N)) mod ell^t
    rows = 0
    for claim in builtin_claims():
        if claim.kind != "two-exponent":
            continue
        _, rhs, detail, (bound, *_) = congruence._derive(claim, congruence.DEFAULT_PRIME_BOUND)
        n_level = lookup(claim.form).level
        if rhs.arg != 2:
            assert "level" not in detail, claim.claim_id
            continue
        assert rhs.base == "G" and n_level >= 2 and detail.startswith(f"kernel weight-2 level-{n_level} series")
        chi, modulus = parse_character(claim.psi) * trivial_mod(n_level), claim.ell**claim.t
        got = congruence._side_coeffs(rhs, claim.ell, claim.t, bound).tolist()
        for n in range(1, bound + 1):
            level_series = sigma(n, 1) - (n_level * sigma(n // n_level, 1) if n % n_level == 0 else 0)
            assert got[n] == chi(n) * n ** rhs.theta * level_series % modulus, (claim.claim_id, n)
        rows += 1
    assert rows > 0


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


def test_parse_character_strings_used_by_claims():
    # every psi string in the builtin claims must parse
    for claim in builtin_claims():
        if claim.psi is not None:
            parse_character(claim.psi)


def _builtin_eisenstein_builds(monkeypatch):
    """The arguments of every Eisenstein series that verifying the built-in
    series claims builds."""
    builds = []

    def record(*args):
        builds.append(args)
        return eisenstein_G(*args)

    monkeypatch.setattr(congruence, "eisenstein_G", record)
    congruence.verify_claims(c for c in builtin_claims() if c.kind not in ("prime-power", "unit-factor"))
    return builds


def _oracle_coefficient(arg, n, m):
    """Coefficient n of a built-in Eisenstein series mod m, from the oracle's
    trial-division sigma and the Bernoulli numbers alone."""
    value = Fraction(sigma(n, arg - 1) if n else -bernoulli(arg) / (2 * arg))
    return value.numerator * pow(value.denominator, -1, m) % m


def test_residue_ring_series_match_the_rational_ones(monkeypatch):
    # the rational coefficients -B_k/2k and sigma_(k-1)(n), each reduced
    # mod ell^t, G_2 among them; a pad is never built
    builds = _builtin_eisenstein_builds(monkeypatch)
    assert 2 in {args[0] for args in builds}
    for args in builds:
        arg, precision, ring = args[:3]
        got = eisenstein_G(*args)
        assert got.ring == ring and got.precision == precision
        m = ring.modulus
        if args[3:] == (False,):  # built without its constant: a(0) = 0
            assert got[0] == 0
        else:
            assert got[0] == _oracle_coefficient(arg, 0, m), args
        sampled = {1, 2, 6, 12, precision // 2, precision} & set(range(1, precision + 1))
        for n in sorted(set(range(1, min(precision, 600) + 1)) | sampled):
            assert got[n] == _oracle_coefficient(arg, n, m), (args, n)


def test_residue_ring_constants_reduce_or_are_refused():
    # G_12 has constant 691/65520: 0 mod 691, no image mod 5
    assert eisenstein_G(12, 4, residue_ring(691))[0] == 0
    with pytest.raises(ValueError, match="not 5-integral"):
        eisenstein_G(12, 4, residue_ring(5))
    assert eisenstein_G(12, 4, residue_ring(5), constant=False)[0] == 0
    # G_2 has constant -1/24: a 5-adic unit, no 2-adic image
    assert eisenstein_G(2, 4, residue_ring(5, 2))[0] * 24 % 25 == 24
    with pytest.raises(ValueError, match="not 2-integral"):
        eisenstein_G(2, 4, residue_ring(2))
