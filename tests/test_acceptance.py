"""The acceptance gate: nine end-to-end criteria, one test (and one printed
pass line) per criterion.  Every check is exact residue arithmetic; the only
tolerances anywhere are the two wall-clock budgets, pinned in their tests."""

import random
import time
from math import gcd

from etaq.characters import kronecker
from etaq.claims import builtin_claims
from etaq.congruence import classify_square_class_prime, verify_claim, verify_claims
from etaq.etaquot import _expand_rings, catalog, lookup
from etaq.oracles import (
    CONDUCTOR_11_CURVE,
    brute_eta_expand,
    colored_partition_series,
    e2_replacement,
    eisenstein_E2,
    primes_up_to,
)
from etaq.qseries import QSeries, ZZ, residue_ring

TWO_MINUTES = 120.0
ONE_MINUTE = 60.0


def by_kind(kind):
    return [c for c in builtin_claims() if c.kind == kind]


def announce(number, detail):
    print(f"criterion {number}: PASS - {detail}")


def test_criterion_1_two_exponent_suite():
    claims = by_kind("two-exponent")
    assert len(claims) == 30
    started = time.perf_counter()
    reports = verify_claims(claims)
    elapsed = time.perf_counter() - started
    assert all(r.status == "ok" for r in reports)
    evidence = [r for r in reports if r.rigor == "numerical-evidence"]
    proved = [r for r in reports if r.rigor == "sturm-proved"]
    assert len(evidence) == 12 and len(proved) == 18
    for r in reports:
        entry = lookup(r.claim.form)
        wants_evidence = entry.level % r.claim.ell == 0
        assert (r.rigor == "numerical-evidence") == wants_evidence, r.claim.claim_id
        assert r.verdict == ("evidence" if wants_evidence else "proved")
    assert elapsed < TWO_MINUTES
    announce(1, f"30 rows, 18 sturm-proved / 12 evidence, {elapsed:.1f}s")


def test_criterion_2_square_class_suite_and_restatement():
    claims = by_kind("square-class")
    real = [c for c in claims if c.expect == "pass"]
    control = [c for c in claims if c.expect == "fail"]
    assert len(real) == 21 and len(control) == 1

    reports = verify_claims(real)
    assert all(r.status == "ok" for r in reports)

    # coefficient restatement: a(n) = 0 mod ell for (n/ell) = -1, gcd(n, N ell) = 1
    for claim in real:
        entry = lookup(claim.form)
        f = entry.expand(500, residue_ring(claim.ell))
        hits = 0
        for n in range(1, 501):
            if kronecker(n, claim.ell) == -1 and gcd(n, entry.level * claim.ell) == 1:
                assert f[n] == 0, (claim.claim_id, n)
                hits += 1
        assert hits > 50, claim.claim_id

    refuted = verify_claim(control[0])
    assert refuted.status == "refuted-as-expected"
    assert refuted.first_failure is not None and refuted.first_failure <= 50
    announce(2, f"21 rows + restatement; (delta, 29) refuted at index {refuted.first_failure}")


def test_criterion_3_deep_identity_replication():
    (claim,) = by_kind("raw-identity")
    started = time.perf_counter()
    report = verify_claim(claim)
    elapsed = time.perf_counter() - started
    assert report.verdict == "proved"
    assert report.bound == 1918
    assert report.weight == 320 and report.level == 36
    assert elapsed < ONE_MINUTE
    announce(3, f"indices through 1918 agree mod 27, {elapsed:.1f}s")


def test_criterion_4_prime_power_suite_and_sharpness():
    claims = by_kind("prime-power")
    sharper = next(c for c in claims if c.claim_id == "prime-power:eta1^8 eta2^8:l2^7")
    control = next(c for c in claims if c.claim_id.endswith(":sharpened"))
    table_rows = [c for c in claims if c not in (sharper, control)]
    assert len(table_rows) == 19

    for report in verify_claims(table_rows):
        assert report.status == "ok", report.claim.claim_id
        assert report.bound == 10_000
        assert report.primes_checked and report.primes_checked > 0

    # The tabulated modulus 2^6 on the first row understates the truth: the
    # congruence a(p) = 1 + p^7 actually holds mod 2^7 for every odd prime,
    # and the first genuine failure is one power higher, at 2^8 with witness
    # prime 3 (a(3) = 12, and 12 - (1 + 3^7) = -2176 = -2^7 x 17).
    assert verify_claim(sharper).status == "ok"
    refuted = verify_claim(control)
    assert refuted.status == "refuted-as-expected"
    assert refuted.first_failure == 3

    unit_reports = verify_claims(by_kind("unit-factor"))
    assert len(unit_reports) == 2
    assert all(r.status == "ok" for r in unit_reports)
    announce(4, "19 rows pass to 10^4; sharpened control refuted at p=3; unit rows pass")


def test_criterion_5_twist_power_suite():
    reports = {r.claim.claim_id: r for r in verify_claims(by_kind("twist-power"))}
    assert len(reports) == 24
    for form in ("eta3^8", "eta2^3 eta6^3", "eta3^2 eta9^2", "eta6^4"):
        for a in range(1, 6):
            assert reports[f"twist-power:{form}:l3^{a}"].verdict == "proved", (form, a)
    for a in (1, 2, 3):
        assert reports[f"twist-power:eta2^12:l3^{a}"].verdict == "proved", a
    control = reports["twist-power:eta2^12:l3^4"]
    assert control.status == "refuted-as-expected"
    assert control.first_failure == 5
    announce(5, "four CM forms proved through 3^5; eta2^12 sharp at 3^3 (control fails at q^5)")


def test_criterion_6_weight_two_replacements():
    for t in (2, 3):
        lhs = eisenstein_E2(500, residue_ring(3, t))
        rhs = e2_replacement(3, t, 500)
        assert lhs == rhs, t
    one = QSeries(residue_ring(2, 3), [1] + [0] * 500, 500)
    assert eisenstein_E2(500, residue_ring(2, 3)) == one
    announce(6, "E2 matches both depth-3 replacements mod 9 and 27, and is 1 mod 8, through q^500")


def test_criterion_7_decimation_dichotomy():
    assert classify_square_class_prime("delta", 23) == "two-k-minus-1"
    tau23 = lookup("delta").expand(23)[23]
    assert tau23 % 23 != 0

    assert classify_square_class_prime("eta1^4 eta2^2 eta4^4", 7) == "two-k-minus-3"
    a7 = lookup("eta1^4 eta2^2 eta4^4").expand(7)[7]
    assert a7 % 7 == 0
    announce(7, "(delta, 23) lands on 2k-1 with tau(23) a unit; level-8 form lands on 2k-3")


def test_criterion_8_elliptic_curve_oracles():
    curve = CONDUCTOR_11_CURVE
    form = lookup("eta1^2 eta11^2").expand(500)

    for p in primes_up_to(200):
        if p != 11:
            assert form[p] == curve.ap(p), p

    for p in primes_up_to(1000):
        if 55 % p != 0:
            assert curve.count_points(p) % 5 == 0, p

    partitions = colored_partition_series(500)
    for n in range(1, 501):
        if gcd(n, 11) == 1:
            assert (partitions[n - 1] - form[n]) % 5 == 0, n
    announce(8, "point counts match a(p) to 200, kill 5 to 1000, and track v(n-1) mod 5 to 500")


def test_criterion_9_property_suites():
    # ring axioms of the product over ZZ and a residue ring, on seeded random
    # series; sums are numpy on the residues, reduced by the normalizing build
    rng = random.Random(11)
    for ring, span in ((ZZ, 40), (residue_ring(3, 2), 9)):
        for _ in range(20):
            a, b, c = (
                QSeries(ring, [rng.randrange(-span, span) for _ in range(12)], 11)
                for _ in range(3)
            )
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            b_plus_c = QSeries(ring, b.residues() + c.residues())
            assert a * b_plus_c == QSeries(ring, (a * b).residues() + (a * c).residues())

    # coefficient multiplicativity for every catalog form, m, n <= 60
    for e in catalog():
        k, chi = int(e.weight), e.nebentypus
        f = e.expand(3600)
        for m in range(2, 61):
            for n in range(2, 61):
                rhs = sum(
                    chi(d) * d ** (k - 1) * f[m * n // (d * d)]
                    for d in range(1, gcd(m, n) + 1)
                    if m % d == 0 and n % d == 0
                )
                assert f[m] * f[n] == rhs, (e.form_id, m, n)

    # dilation-vs-power Frobenius congruence for the euler factors
    for ell in (2, 3, 5):
        dilated = _expand_rings({ell: 1}, 0, [100], [ZZ])[0]
        powered = _expand_rings({1: ell}, 0, [100], [ZZ])[0]
        ring = residue_ring(ell)
        assert QSeries(ring, dilated.coeffs) == QSeries(ring, powered.coeffs)

    # odd-square support of the weight-12 level-1 form mod 2
    delta_mod2 = lookup("delta").expand(200, residue_ring(2))
    odd_squares = {(2 * i + 1) ** 2 for i in range(10)}
    for n in range(201):
        assert delta_mod2[n] == (1 if n in odd_squares else 0), n

    # brute-force oracle equivalence for the whole catalog
    for e in catalog():
        assert e.expand(60) == brute_eta_expand(dict(e.quotient.factors), 60), e.form_id

    announce(9, "ring axioms, multiplicativity to 60, dilation congruence, mod-2 support, oracle parity")
