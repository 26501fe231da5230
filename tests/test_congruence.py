"""The verification engine end to end: verdicts, rigor labels, scans."""

import dataclasses
import json
import random
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from etaq import congruence, etaquot
from etaq.characters import kronecker, kronecker_character, trivial_mod
from etaq.claims import KINDS, CongruenceClaim, builtin_claims
from etaq.congruence import (
    VerificationReport,
    classify_square_class_prime,
    clear_expansion_cache,
    scan_exceptional,
    verify_claim,
    verify_claims,
)
from etaq.cli import main
from etaq.oracles import primes_up_to
from etaq.qseries import QSeries, ZZ, powers_mod, residue_ring
from etaq.sturm import agreement_bound
from etaq.etaquot import catalog, lookup


PINNED_REPORTS = Path(__file__).parent / "data" / "builtin_reports.json"
PINNED_SCANS = Path(__file__).parent / "data" / "scan_findings.json"
PINNED_SCANS_691 = Path(__file__).parent / "data" / "scan_findings_691.json"


def claim_by_id(claim_id):
    matches = [c for c in builtin_claims() if c.claim_id == claim_id]
    assert len(matches) == 1, claim_id
    return matches[0]


def test_builtin_reports_match_the_pinned_fixture():
    # every field but the timing, detail strings included, for all 100 rows
    pinned = json.loads(PINNED_REPORTS.read_text())["reports"]
    got = []
    for report in verify_claims(builtin_claims()):
        data = report.to_json()
        del data["seconds"]
        got.append(data)
    assert len(got) == len(pinned) == 100
    for mine, theirs in zip(got, pinned):
        assert mine == theirs, theirs["claim"]


def test_prime_power_detail_names_the_classes_it_reads():
    claim = CongruenceClaim(
        claim_id="x", kind="prime-power", form="delta", ell=691, m=0, m_prime=11
    )
    assert verify_claim(claim, prime_bound=500).detail == "classes all"
    with_modulus = dataclasses.replace(claim, residue_modulus=4)
    assert verify_claim(with_modulus, prime_bound=500).detail == "classes all mod 4"
    with_classes = dataclasses.replace(with_modulus, residues=(1, 3))
    assert verify_claim(with_classes, prime_bound=500).detail == "classes [1, 3] mod 4"


def test_two_exponent_delta_691():
    report = verify_claim(claim_by_id("two-exponent:delta:l691"))
    assert report.verdict == "proved"
    assert report.rigor == "sturm-proved"
    assert report.status == "ok"
    assert report.bound == 58
    assert report.first_failure is None


def test_two_exponent_ell_dividing_level_is_only_evidence():
    report = verify_claim(claim_by_id("two-exponent:eta2^12:l2"))
    assert report.verdict == "evidence"
    assert report.rigor == "numerical-evidence"
    assert report.status == "ok"


def test_square_class_delta_23():
    report = verify_claim(claim_by_id("square-class:delta:l23"))
    assert report.verdict == "proved"
    assert report.bound == 25


def test_square_class_planted_refutation():
    report = verify_claim(claim_by_id("square-class:delta:l29"))
    assert report.verdict == "failed"
    assert report.status == "refuted-as-expected"
    assert report.first_failure is not None
    assert report.first_failure <= 50


def test_square_class_coefficient_restatement():
    # a(n) = 0 mod ell whenever (n/ell) = -1 and gcd(n, N ell) = 1, n <= 500
    for form_id, ell in (
        ("delta", 23),
        ("eta1^4 eta2^2 eta4^4", 7),
        ("eta2^12", 11),
        ("eta3^8", 5),
    ):
        entry = lookup(form_id)
        f = entry.expand(500)
        hits = 0
        for n in range(1, 501):
            if kronecker(n, ell) == -1 and gcd(n, entry.level * ell) == 1:
                assert f[n] % ell == 0, (form_id, ell, n)
                hits += 1
        assert hits > 100, (form_id, ell)


def test_prime_power_scan_details():
    report = verify_claim(claim_by_id("prime-power:eta2^12:l3^2"))
    assert report.verdict == "evidence"
    assert report.rigor == "numerical-evidence"
    assert report.primes_checked and report.primes_checked > 100


def test_prime_power_sharpened_control_fails():
    report = verify_claim(claim_by_id("prime-power:eta1^8 eta2^8:l2^8:sharpened"))
    assert report.verdict == "failed"
    assert report.status == "refuted-as-expected"
    assert report.first_failure == 3


def test_prime_power_respects_prime_bound_flag():
    claim = claim_by_id("prime-power:eta1^2 eta11^2:l5^2")
    small = verify_claim(claim, prime_bound=500)
    assert small.verdict == "evidence"
    assert small.primes_checked < verify_claim(claim, prime_bound=2000).primes_checked
    with pytest.raises(ValueError):
        verify_claim(claim, prime_bound=10)


@pytest.mark.parametrize("claim_id", ["prime-power:eta1^2 eta11^2:l5^2", "unit-factor:eta2^12:l2"])
def test_scan_verifiers_check_their_own_prime_bound(claim_id):
    # a derivation made at a good bound does not let the scan run at a vacuous one
    claim = claim_by_id(claim_id)
    verifier = getattr(congruence, "verify_" + claim.kind.replace("-", "_"))
    with pytest.raises(ValueError, match="vacuous"):
        verifier(claim, 10, congruence._derive(claim, 500))


def test_unit_factor_rows():
    for claim_id in ("unit-factor:eta2^12:l2", "unit-factor:eta1^6 eta3^6:l2"):
        report = verify_claim(claim_by_id(claim_id))
        assert report.verdict == "evidence", claim_id
        assert report.status == "ok"


def test_twist_power_rows_and_control():
    for a in (1, 2, 3):
        report = verify_claim(claim_by_id(f"twist-power:eta2^12:l3^{a}"))
        assert report.verdict == "proved", a
    control = verify_claim(claim_by_id("twist-power:eta2^12:l3^4"))
    assert control.verdict == "failed"
    assert control.status == "refuted-as-expected"
    assert control.first_failure == 5


def test_twist_power_cm_rows_prove_to_depth_five():
    for form in ("eta3^8", "eta2^3 eta6^3", "eta3^2 eta9^2", "eta6^4"):
        for a in (1, 5):
            report = verify_claim(claim_by_id(f"twist-power:{form}:l3^{a}"))
            assert report.verdict == "proved", (form, a)


def test_raw_identity_replication():
    report = verify_claim(claim_by_id("raw-identity:eta1^8 eta2^8:l3^3"))
    assert report.verdict == "proved"
    assert report.bound == 1918
    assert report.weight == 320
    assert report.level == 36


def test_declared_space_must_contain_the_derived_one():
    # the sides derive to weight 12, level 5 (delta is 12/1, eta1^4 eta5^4 is 4/5)
    claim = CongruenceClaim(
        claim_id="x", kind="raw-identity", form="delta", ell=5,
        lhs={"form": "delta"}, rhs={"form": "eta1^4 eta5^4"},
    )
    derived = verify_claim(claim)
    assert (derived.weight, derived.level, derived.bound) == (12, 5, 5)
    wider = verify_claim(dataclasses.replace(claim, level=10))
    assert (wider.weight, wider.level, wider.bound) == (12, 10, 16)
    for weight, level in ((12, 1), (11, 5), (12, 3)):
        with pytest.raises(ValueError, match="does not contain the derived"):
            verify_claim(dataclasses.replace(claim, weight=weight, level=level))
    # a weight of 0 is printed as such, not passed to a logarithm
    weightless = dataclasses.replace(claim, lhs={"G": 0, "twist": "kron(-4)"}, rhs={"G": 0}, level=3)
    with pytest.raises(ValueError, match="declared weight 0, level 3 does not contain the derived weight 0, "):
        verify_claim(weightless)


def test_theta_step_regime_sets_the_rigor():
    # theta(delta) = theta(delta x 1_ell) mod ell^t holds.  Theta mod 5^2 is
    # conservative and mod 3^3 exact; mod 5 it is exact on the untwisted side
    # (level 1) and conservative on the twisted one (level 25), and that one
    # conservative side, whichever it is, makes agreement evidence
    def claim(ell, t, swap=False):
        plain = {"form": "delta", "theta": 1}
        twisted = dict(plain, twist=f"1_{ell}")
        lhs, rhs = (twisted, plain) if swap else (plain, twisted)
        return CongruenceClaim(
            claim_id="x", kind="raw-identity", form="delta", ell=ell, t=t, lhs=lhs, rhs=rhs
        )

    for conservative in (claim(5, 2), claim(5, 1), claim(5, 1, swap=True)):
        report = verify_claim(conservative)
        assert (report.verdict, report.rigor) == ("evidence", "numerical-evidence")
    exact = verify_claim(claim(3, 3))
    assert (exact.verdict, exact.rigor) == ("proved", "sturm-proved")
    assert (exact.weight, exact.level) == (32, 81)


def test_every_series_bound_is_the_derived_agreement_bound():
    # no input moves a bound: the prime bound is keyword-only, so an old
    # positional margin is an error rather than a prime bound, and each
    # series comparison runs to the agreement bound of its space
    claim = claim_by_id("two-exponent:delta:l691")
    with pytest.raises(TypeError):
        verify_claim(claim, 50)
    with pytest.raises(TypeError):
        verify_claims([claim], 50)
    series = [r for r in verify_claims(builtin_claims()) if r.claim.kind in congruence._SIDES]
    assert len(series) > 50
    for r in series:
        derived = {agreement_bound(r.weight, r.level, cuspidal) for cuspidal in (True, False)}
        assert r.bound in derived, r.claim.claim_id


def test_corrupted_claim_is_caught():
    base = claim_by_id("two-exponent:delta:l691")
    bad = dataclasses.replace(base, m=2, m_prime=9, claim_id="two-exponent:delta:l691:bad")
    report = verify_claim(bad)
    assert report.verdict == "failed"
    assert report.status == "fail"
    assert report.first_failure is not None


def test_exponent_relation_violation_raises():
    base = claim_by_id("two-exponent:delta:l691")
    bad = dataclasses.replace(base, m_prime=12, claim_id="x")
    with pytest.raises(ValueError, match="exponents violate"):
        verify_claim(bad)


def test_report_json_shape():
    report = verify_claim(claim_by_id("square-class:delta:l23"))
    data = report.to_json()
    assert data["claim"] == "square-class:delta:l23"
    assert data["verdict"] == "proved"
    assert data["rigor"] == "sturm-proved"
    assert data["status"] == "ok"
    assert data["bound"] == 25
    assert isinstance(data["seconds"], float)


def test_report_invariant_proved_requires_sturm():
    claim = claim_by_id("square-class:delta:l23")
    with pytest.raises(ValueError):
        VerificationReport(
            claim=claim, verdict="proved", rigor="numerical-evidence", bound=10
        )


def test_verify_claims_sorts_reports_by_claim_id():
    subset = sorted((c for c in builtin_claims() if c.form == "delta"), key=lambda c: c.claim_id)
    reports = verify_claims(reversed(subset))
    assert [r.claim for r in reports] == subset
    assert [r.verdict for r in reports] == [verify_claim(c).verdict for c in subset]


def test_verify_claim_dispatches_through_the_module_attribute(monkeypatch):
    # tracers wrap verify_* by replacing module attributes; dispatch must see them
    # and hand it the claim's derivation
    claim = claim_by_id("square-class:delta:l23")
    seen = []

    def replacement(claim, prime_bound, derived):
        seen.append((claim, prime_bound, derived))
        return "x"

    monkeypatch.setattr(congruence, "verify_square_class", replacement)
    assert verify_claim(claim, prime_bound=997) == "x"
    assert seen == [(claim, 997, congruence._derive(claim, 997))]


@pytest.mark.parametrize(
    "claim_id, change",
    [
        ("prime-power:eta2^12:l3^2", {"residues": (0,), "residue_modulus": 4}),
        ("unit-factor:eta2^12:l2", {"units": ((0, 1, 14),)}),
    ],
)
def test_prime_scan_without_admissible_primes_raises(claim_id, change):
    claim = dataclasses.replace(claim_by_id(claim_id), **change)
    with pytest.raises(ValueError, match="no admissible primes"):
        verify_claim(claim, prime_bound=500)


RULE_PRIMES = primes_up_to(60)


def _kron_minus_4(p):
    return (0, 1, 0, -1)[p % 4]


@pytest.mark.parametrize(
    "ring, a, m, mp, period, classes, witness, checked",
    [
        # every prime; a(31) is off by 3, right mod 3 but not mod 9
        ((3, 2), lambda p: 1 + p + 3 * (p == 31), 0, 1, 1, {0: (1, 9)}, 31, 11),
        # classes 1, 4 mod 5 (11 19 29 31 41 59); a(p) = 5 off them is never judged
        ((3, 2), lambda p: p + p * p + (p == 41) if p % 5 in (1, 4) else 5,
         1, 2, 5, {1: (1, 9), 4: (1, 9)}, 41, 5),
        ((3, 2), lambda p: p + p * p if p % 5 in (1, 4) else 5,
         1, 2, 5, {1: (1, 9), 4: (1, 9)}, None, 6),
        # unit-factor: u and 2^(t_c) per class mod 8; class 1 holds only mod 2^3,
        # class 7 only mod 2^4, and a(43) (class 3) is off by 16, wrong mod 2^5
        ((2, 5), lambda p: {1: 1 * (1 + p**5) + 8, 3: 3 * (1 + p**5) + 16 * (p == 43),
                            7: 5 * (1 + p**5) + 16}.get(p % 8, 1),
         0, 5, 8, {1: (1, 8), 3: (3, 32), 7: (5, 16)}, 43, 9),
        # type I with psi = kron(-4): psi(2) = 0 and psi(p) = -1 for p = 3 mod 4
        ((5, 1), lambda p: _kron_minus_4(p) * (1 + p),
         0, 1, 4, {c: (_kron_minus_4(c), 5) for c in range(4)}, None, 17),
        ((5, 1), lambda p: _kron_minus_4(p) * (1 + p) + (p == 2),
         0, 1, 4, {c: (_kron_minus_4(c), 5) for c in range(4)}, 2, 1),
        # type II mod 7: u = 0 on the non-squares 3, 5, 6; a(p) = 1 on the rest
        ((7, 1), lambda p: 2 * (p == 41) if p % 7 in (3, 5, 6) else 1,
         0, 0, 7, dict.fromkeys((3, 5, 6), (0, 7)), 41, 7),
    ],
    ids=[
        "prime-power-every-prime",
        "prime-power-classes",
        "prime-power-classes-hold",
        "unit-factor-per-class-modulus",
        "two-exponent-kron-4-holds",
        "two-exponent-psi-zero-class",
        "square-class-non-squares",
    ],
)
def test_first_failure_checks_each_class_against_its_rule(
    ring, a, m, mp, period, classes, witness, checked
):
    coeffs = [a(n) if n in RULE_PRIMES else 0 for n in range(61)]
    series = QSeries(residue_ring(*ring), coeffs)
    got = congruence._first_failure(series.residues(), np.array(RULE_PRIMES), m, mp, period, classes)
    assert got == (witness, checked)
    assert _first_failure_reference(series.coeffs, RULE_PRIMES, m, mp, period, classes) == got


def _first_failure_reference(coeffs, primes, m, mp, period, classes):
    """The per-prime loop the class-table check replaces, kept as its
    reference: a(p) = u_c (p^m + p^m') mod q_c at each prime in a class."""
    checked = 0
    for p in primes:
        rule = classes.get(p % period)
        if rule is None:
            continue
        u, q = rule
        checked += 1
        if (coeffs[p] - u * (pow(p, m, q) + pow(p, mp, q))) % q:
            return p, checked
    return None, checked


@pytest.mark.parametrize("plant", ["first", "last", "none", "no-judged-prime"])
def test_first_failure_matches_the_per_prime_reference_on_random_tables(plant):
    # random tables: mixed q_c = ell^(t_c) per class, negative u_c, and the
    # coefficients right mod q_c at every judged prime but the planted one
    rng = random.Random(plant)
    primes = primes_up_to(3000)
    for _ in range(40):
        ell = rng.choice((2, 3, 5, 7))
        t = rng.randint(1, 8)
        period = rng.choice((1, 3, 4, 5, 8, 12, 24, 25))
        units = {c: rng.choice((1, 2, 3, 4, 5)) for c in range(period) if gcd(c, period) == 1}
        keep = rng.sample(sorted(units), rng.randint(1, len(units)))
        if plant == "no-judged-prime":  # classes that hold no prime (or no class at all)
            keep = sorted(set(range(period)) - {p % period for p in primes}) or [period]
        classes = {c: (rng.randint(-50, 50), ell ** rng.randint(1, t)) for c in keep}
        m, mp = rng.randint(0, 12), rng.randint(0, 30)
        modulus = ell**t
        coeffs = [rng.randrange(modulus) for _ in range(primes[-1] + 1)]
        judged = [p for p in primes if p % period in classes]
        for p in judged:
            u, q = classes[p % period]
            want = u * (pow(p, m, q) + pow(p, mp, q))
            coeffs[p] = (want + q * rng.randrange(modulus // q)) % modulus
        planted = {"first": judged[:1], "last": judged[-1:]}.get(plant, [])
        for p in planted:
            coeffs[p] = (coeffs[p] + 1) % modulus
        got = congruence._first_failure(np.array(coeffs), np.array(primes), m, mp, period, classes)
        assert got == _first_failure_reference(coeffs, primes, m, mp, period, classes)
        if plant == "none":
            assert got == (None, len(judged))
        elif plant == "no-judged-prime":
            assert got == (None, 0)
        else:
            assert got == (planted[0], judged.index(planted[0]) + 1)


def test_first_failure_reads_a_period_beyond_int64_like_the_reference():
    # a claim file may state any residue modulus: past every prime, each
    # prime is its own class, and only a class that is a prime is judged
    primes = primes_up_to(200)
    coeffs = [(1 + p**4) % 9 if p in primes else 0 for p in range(201)]
    for period, classes in (
        (2**64, {13: (1, 9), 2**63 + 5: (1, 9)}),
        (2**64, {2**63 + 5: (1, 9)}),
        (2**62 + 1, {2: (1, 9), 199: (1, 3)}),
    ):
        got = congruence._first_failure(np.array(coeffs), np.array(primes), 0, 4, period, classes)
        assert got == _first_failure_reference(coeffs, primes, 0, 4, period, classes), period
    claim = dataclasses.replace(
        claim_by_id("prime-power:eta2^12:l3^2"), residues=(2,), residue_modulus=2**64
    )
    with pytest.raises(ValueError, match="no admissible primes"):
        verify_claim(claim, prime_bound=500)


def test_wide_moduli_take_the_object_path_and_match_the_reference():
    # mod 3^30 and 2^40 a product of two residues overflows int64, so the
    # cached residues are Python ints; each report matches a reference made
    # from the expansion over ZZ, reduced, with the per-prime loop
    clear_expansion_cache()
    twist_claim = dataclasses.replace(
        claim_by_id("twist-power:eta2^12:l3^4"), claim_id="twist-power:eta2^12:l3^30", t=30
    )
    report = verify_claim(twist_claim)
    modulus = 3**30
    exact = lookup("eta2^12").expand(report.bound)
    sides = [
        [chi(n) * c % modulus for n, c in enumerate(exact.coeffs)]
        for chi in (kronecker_character(-3) * trivial_mod(3), trivial_mod(3))
    ]
    mismatch = next((n for n, (a, b) in enumerate(zip(*sides)) if a != b), None)
    assert mismatch is not None and report.first_failure == mismatch
    assert report.verdict == "failed"
    power_claim = dataclasses.replace(
        claim_by_id("prime-power:eta2^12:l2^11"), claim_id="prime-power:eta2^12:l2^40", t=40
    )
    report = verify_claim(power_claim, prime_bound=2000)
    cached = congruence._expansion_cache["eta2^12", residue_ring(2, 40)].residues()
    assert cached.dtype == object and {type(c) for c in cached.tolist()} == {int}
    coeffs = [c % 2**40 for c in lookup("eta2^12").expand(2000).coeffs]
    primes = [p for p in primes_up_to(2000) if p != 2 and 4 % p]
    reference = _first_failure_reference(coeffs, primes, 0, 5, 8, {1: (1, 2**40)})
    assert reference[0] is not None
    assert (report.first_failure, report.primes_checked) == reference
    clear_expansion_cache()


def test_classifier_branches():
    assert classify_square_class_prime("delta", 23) == "two-k-minus-1"
    assert classify_square_class_prime("eta1^4 eta2^2 eta4^4", 7) == "two-k-minus-3"
    assert classify_square_class_prime("eta3^8", 3) == "small-ell"


def test_classifier_rejects_inconsistent_prime():
    with pytest.raises(ValueError):
        classify_square_class_prime("delta", 19)


def test_scan_square_class_delta():
    findings = scan_exceptional("delta", "square-class", ell_max=40)
    by_ell = {f.ell: f for f in findings}
    assert set(by_ell) == {3, 7, 23}
    assert not by_ell[23].masked
    assert by_ell[3].masked
    assert by_ell[7].masked


def test_scan_square_class_eta3_8():
    findings = scan_exceptional("eta3^8", "square-class", ell_max=10)
    assert sorted(f.ell for f in findings) == [3, 5, 7]
    assert all(not f.masked for f in findings)


def test_scan_square_class_level_11_form_finds_nothing():
    assert scan_exceptional("eta1^2 eta11^2", "square-class", ell_max=40) == []


def test_scan_two_exponent_delta_hits_the_table():
    findings = scan_exceptional("delta", "two-exponent", ell_max=700)
    found = {(f.ell, f.m, f.m_prime) for f in findings}
    assert (691, 0, 11) in found
    assert (3, 0, 1) in found
    assert {f.ell for f in findings} >= {3, 5, 7, 691}


def test_scan_findings_match_the_pinned_fixture():
    # both kinds over every catalog form up to ell = 100, masked flags included
    pinned = json.loads(PINNED_SCANS.read_text())["scans"]
    assert [(s["form"], s["kind"]) for s in pinned] == [
        (entry.form_id, kind) for entry in catalog() for kind in ("two-exponent", "square-class")
    ]
    for scan in pinned:
        found = [f.to_json() for f in scan_exceptional(scan["form"], scan["kind"], ell_max=100)]
        assert found == scan["findings"], (scan["form"], scan["kind"])
    assert sum(len(s["findings"]) for s in pinned) == 76


def test_scan_findings_to_691_match_the_pinned_fixture():
    # the whole catalog, both kinds, every prime ell up to 691
    pinned = json.loads(PINNED_SCANS_691.read_text())["scans"]
    assert [(s["form"], s["kind"]) for s in pinned] == [
        (entry.form_id, kind) for entry in catalog() for kind in ("two-exponent", "square-class")
    ]
    for scan in pinned:
        found = [f.to_json() for f in scan_exceptional(scan["form"], scan["kind"], ell_max=691)]
        assert found == scan["findings"], (scan["form"], scan["kind"])
    assert sum(len(s["findings"]) for s in pinned) == 77


def test_pinned_square_class_findings_judge_every_good_non_square_prime():
    # a type II finding judges each prime p <= the prime bound with p not
    # dividing N ell and p a non-square mod ell, counted here with pow
    pinned = json.loads(PINNED_SCANS_691.read_text())["scans"]
    primes = primes_up_to(congruence.DEFAULT_PRIME_BOUND)
    findings = [(s["form"], f) for s in pinned if s["kind"] == "square-class" for f in s["findings"]]
    assert len(findings) > 10
    for form_id, finding in findings:
        ell, n_level = finding["ell"], lookup(form_id).level
        judged = [p for p in primes if (n_level * ell) % p and pow(p, (ell - 1) // 2, ell) == ell - 1]
        assert finding["primes_checked"] == len(judged), (form_id, ell)


def _is_fundamental(d):
    """d is a fundamental discriminant other than 1, by plain loops."""
    if d % 4 == 0:
        m = d // 4
        if m % 4 not in (2, 3):
            return False
    elif d % 4 == 1:
        m = d
    else:
        return False
    return d != 1 and all(m % (p * p) for p in range(2, abs(m) + 1))


# the discriminants the scan tried before it derived them from the level
_LISTED_DISCRIMINANTS = (-3, -4, 5, -7, -8, 8, -11, 13, -15, 12)


def test_candidate_characters_are_every_fundamental_discriminant_dividing_4n():
    for n_level in sorted({entry.level for entry in catalog()}):
        base = trivial_mod(n_level)
        divisors = [d for d in range(-4 * n_level, 4 * n_level + 1) if d and (4 * n_level) % d == 0]
        fundamental = sorted(filter(_is_fundamental, divisors), key=lambda d: (abs(d), d))
        want = [base] + [kronecker_character(d) * base for d in fundamental]
        got = congruence._candidate_psi(n_level)
        assert got == want, n_level
        assert all((4 * n_level) % chi.modulus == 0 and chi.modulus % n_level == 0 for chi in got), n_level
        listed = {kronecker_character(d) * base for d in _LISTED_DISCRIMINANTS}
        assert {chi for chi in listed if (4 * n_level) % chi.modulus == 0} <= set(got), n_level
    # kron(-20) folded with 1_5 is new at level 5, and 4 is no fundamental discriminant
    assert kronecker_character(-20) * trivial_mod(5) in congruence._candidate_psi(5)
    assert trivial_mod(2) not in congruence._candidate_psi(1)


def reference_survivors(ell, k, psis, rows):
    """The two-exponent congruences mod ell that hold at every prime of `rows`
    but ell, each as (index of psi, m, m'), found one prime at a time as the
    scan did before its array passes.  `rows` holds (p, a(p), psi(p) for
    every psi).  Exponents only matter mod ell - 1, so each unordered pair
    {m, k - 1 - m} is tried at its smaller member, and mod 2 only 1_N =
    psis[0].  A prime reads a(p), psi(p) and its table of p^j mod ell,
    j < ell - 1, and drops the (psi, m) it refutes."""
    span = max(ell - 1, 1)
    pairs = tuple(m for m in range(span) if (k - 1 - m) % span >= m)
    alive = dict.fromkeys(range(len(psis) if ell > 2 else 1), pairs)  # psi index -> its m
    for p, a_p, psi_p in rows:
        if p == ell:
            continue
        power = [1] * span
        for j in range(1, span):
            power[j] = power[j - 1] * p % ell
        alive = {
            i: tuple(m for m in ms if (psi_p[i] * (power[m] + power[(k - 1 - m) % span]) - a_p) % ell == 0)
            for i, ms in alive.items()
        }
        alive = {i: ms for i, ms in alive.items() if ms}
        if not alive:
            return []
    return [(i, m, m + ((k - 1 - 2 * m) % span or span)) for i, ms in alive.items() for m in ms]


def _survivor_inputs(primes, a, psis):
    """The arguments of `reference_survivors` (rows) and of the scan's
    `_two_exponent_survivors` (primes, psi(p) table, a(p)) for the same data."""
    rows = [(p, int(a[p]), tuple(psi(p) for psi in psis)) for p in primes]
    table = np.array([[psi(p) for p in primes] for psi in psis], dtype=np.int64)
    return rows, (np.array(primes, dtype=np.int64), table, np.array([a[p] for p in primes], dtype=np.int64))


def reference_prescan(form_id, kind, ell_max, prime_bound=congruence.DEFAULT_PRIME_BOUND):
    """The ell that survive the prescan of a scan, found one ell at a time as
    the scan did before its array passes: square-class by `_first_failure`
    over a table of every non-square class mod ell (ell = 2 has none),
    two-exponent by `reference_survivors` on every ell, which the array
    filter `_two_exponent_survivors` matches exactly."""
    entry = lookup(form_id)
    k, n_level = entry.weight, entry.level
    small = entry.expand(min(congruence._PRESCAN_PRECISION, prime_bound))
    prescan = [p for p in primes_up_to(small.precision) if n_level % p]
    psis = congruence._candidate_psi(n_level)
    rows, arrays = _survivor_inputs(prescan, small.coeffs, psis)
    kept = set()
    for ell in primes_up_to(ell_max):
        if kind == "two-exponent":
            found = reference_survivors(ell, k, psis, rows)
            assert congruence._two_exponent_survivors(ell, k, *arrays) == found, (form_id, ell)
            if found:
                kept.add(ell)
            continue
        squares = {x * x % ell for x in range(1, ell)}
        table = (0, 0, ell, dict.fromkeys(set(range(1, ell)) - squares, (0, ell)))
        good = np.array([p for p in prescan if p != ell], dtype=np.int64)
        if table[3] and congruence._first_failure(small.residues(), good, *table)[0] is None:
            kept.add(ell)
    return kept


def test_the_array_prescan_keeps_the_same_ell_as_the_per_ell_loops(monkeypatch):
    # every catalog form, both kinds, ell <= 691: the ell whose series the
    # scan expands for its full pass are the reference's survivors, all in
    # one `_expand_misses` call; it then reads each through
    # `cached_expansion`, in increasing ell
    expanded = []
    real = congruence._expand_misses

    def spy(entry, reads):
        reads = list(reads)
        if all(precision == congruence.DEFAULT_PRIME_BOUND for _, precision in reads):
            expanded.append({ring.ell for ring, _ in reads})
        return real(entry, reads)

    monkeypatch.setattr(congruence, "_expand_misses", spy)
    for entry in catalog():
        for kind in ("two-exponent", "square-class"):
            expanded.clear()
            scan_exceptional(entry.form_id, kind, ell_max=691)
            kept = reference_prescan(entry.form_id, kind, 691)
            assert expanded == [kept] + [{ell} for ell in sorted(kept)], (entry.form_id, kind)


def test_euler_criterion_matches_pow():
    # the scan's square-class passes read Euler's criterion x^((ell - 1)/2)
    # mod ell off powers_mod for a column of odd primes ell, each row its
    # own modulus and exponent, x up to +-10^12
    rng = random.Random(11)
    ells = np.array([3, 5, 7, 23, 691, 7919, 999983], dtype=np.int64)[:, None]
    x = np.array([rng.randrange(-(10**12), 10**12) for _ in range(40)] + [0, 1, 2], dtype=np.int64)
    got = powers_mod(x, (ells - 1) // 2, ells)
    for row, ell in zip(got.tolist(), ells[:, 0].tolist()):
        assert row == [pow(v, (ell - 1) // 2, ell) for v in x.tolist()], ell


@pytest.mark.parametrize("seed", range(4))
def test_the_discriminant_pass_keeps_planted_two_exponent_congruences(seed, monkeypatch):
    # a(p) = psi(p)(p^m + p^m') + ell r with m + m' = k - 1 mod ell - 1 at
    # every good prescan prime: the discriminant pass keeps ell and the exact
    # filter keeps (psi, m), and once one a(p) is changed by 1 the prescan
    # (that pass, then the exact filter) refutes ell; the filter matches the
    # per-prime reference either way, also when each pass takes one prime
    rng = random.Random(seed)
    odd_ells = primes_up_to(10_000)[1:]
    prescan = primes_up_to(congruence._PRESCAN_PRECISION)
    for _ in range(25):
        ell, level, k = rng.choice(odd_ells), rng.choice([e.level for e in catalog()]), rng.randrange(2, 13)
        psis = congruence._candidate_psi(level)
        psi = rng.choice(psis)
        m = rng.randrange(ell - 1)
        mp = (k - 1 - m) % (ell - 1)
        good = [p for p in prescan if level % p and p != ell]
        a = np.zeros(prescan[-1] + 1, dtype=np.int64)
        for p in good:
            a[p] = psi(p) * (pow(p, m, ell) + pow(p, mp, ell)) + ell * rng.randrange(-(10**6), 10**6)
        odd = np.array([p for p in good if p % 2])
        assert congruence._odd_prescan(np.array([ell]), odd, a, k) == [ell], (seed, ell, k, m)
        rows, arrays = _survivor_inputs(good, a, psis)
        found = congruence._two_exponent_survivors(ell, k, *arrays)
        assert found == reference_survivors(ell, k, psis, rows), (seed, ell)
        assert (psis.index(psi), min(m, mp)) in [row[:2] for row in found], (seed, ell, k, m)
        with monkeypatch.context() as patch:
            patch.setattr(congruence, "_FILTER_CELLS", 1)
            assert congruence._two_exponent_survivors(ell, k, *arrays) == found, (seed, ell)
        a[rng.choice(odd)] += 1
        rows, arrays = _survivor_inputs(good, a, psis)
        kept = congruence._odd_prescan(np.array([ell]), odd, a, k)
        found = congruence._two_exponent_survivors(ell, k, *arrays)
        assert found == reference_survivors(ell, k, psis, rows), (seed, ell)
        assert not (kept and found), (seed, ell)


@pytest.mark.parametrize("seed", range(4))
def test_the_square_class_pass_keeps_exactly_the_planted_zeros(seed):
    # a(p) = 0 mod ell at every prescan prime that is a non-square mod ell:
    # the pass keeps ell, and refutes it once one of those a(p) moves by 1
    rng = random.Random(seed)
    odd_ells = primes_up_to(10_000)[1:]
    for _ in range(25):
        ell = rng.choice(odd_ells)
        good = np.array([p for p in primes_up_to(congruence._PRESCAN_PRECISION) if p != ell])
        squares = {x * x % ell for x in range(1, ell)}
        a = np.zeros(good[-1] + 1, dtype=np.int64)
        for p in good.tolist():
            a[p] = ell * rng.randrange(-(10**6), 10**6) + (p % ell in squares) * rng.randrange(ell)
        assert congruence._odd_prescan(np.array([ell]), good, a, None) == [ell], (seed, ell)
        a[rng.choice([p for p in good.tolist() if p % ell not in squares])] += 1
        assert congruence._odd_prescan(np.array([ell]), good, a, None) == [], (seed, ell)
    # only odd ell are prescanned: ell = 2 has no non-squares
    assert congruence._odd_prescan(np.array([2, 3]), np.array([5]), np.zeros(6, dtype=np.int64), None) == [3]


def test_swinnerton_dyer_table_for_delta_to_ell_100000():
    # Swinnerton-Dyer (1973): Delta's exceptional primes of type I are 2, 3,
    # 5, 7 and 691, and of type II 3, 7 and 23, where 3 and 7 are forced by
    # their type I congruences
    type_one = scan_exceptional("delta", "two-exponent", ell_max=10**5)
    assert sorted({f.ell for f in type_one}) == [2, 3, 5, 7, 691]
    type_two = scan_exceptional("delta", "square-class", ell_max=10**5)
    assert [(f.ell, f.masked) for f in type_two] == [(3, True), (7, True), (23, False)]


def test_scan_caches_match_fresh_expansions_and_verify_after(capsys, monkeypatch):
    # both scans store their batched mod-ell series in the expansion cache
    # under their (form, ring) key, and later verify calls read them from there
    clear_expansion_cache()
    for kind in ("I", "II"):
        assert main(["scan", "--form", "delta", "--type", kind, "--ell-max", "691"]) == 0
    capsys.readouterr()
    entry = lookup("delta")
    residues = {key: series for key, series in congruence._expansion_cache.items() if key[1] != ZZ}
    assert {("delta", residue_ring(ell)) for ell in (2, 3, 5, 7, 23, 691)} <= set(residues)
    for (form_id, ring), series in residues.items():
        assert (form_id, ring) == ("delta", residue_ring(series.ring.ell)) and series.ring == ring
        assert series == entry.expand(series.precision, ring), ring

    def refuse(quotient, precision, rings):
        names = [ring.describe() for ring in rings]
        raise AssertionError(f"verify expanded {quotient} over {names} again")

    monkeypatch.setattr(etaquot, "expand_all", refuse)
    pinned = {r["claim"]: r for r in json.loads(PINNED_REPORTS.read_text())["reports"]}
    for claim_id in ("square-class:delta:l23", "two-exponent:delta:l691"):
        data = verify_claim(claim_by_id(claim_id)).to_json()
        del data["seconds"]
        assert data == pinned[claim_id]


def test_builtin_claims_and_planted_controls_multiply_no_two_series(capsys, monkeypatch):
    # a side is its base times one table of chi(n) n^j, and a pad E_w = 1 mod
    # ell^t changes no coefficient, so no verify run multiplies two series
    def refuse(self, other):
        raise AssertionError("verify multiplied two series")

    clear_expansion_cache()
    monkeypatch.setattr(QSeries, "__mul__", refuse)
    assert main(["verify"]) == 0
    assert "100/100 claims as expected" in capsys.readouterr().out
    controls = sorted((Path(__file__).parent / "data").glob("control_*.json"))
    codes = {path.name: main(["verify", str(path)]) for path in controls}
    assert codes == {
        "control_conservative_theta.json": 0,
        "control_declared_space_too_small.json": 2,
        "control_kron3_twist.json": 2,
        "control_pad_not_one.json": 2,
        "control_weights_not_congruent.json": 2,
    }
    assert "pad E_12 is not 1 mod 3^3" in capsys.readouterr().err
    clear_expansion_cache()


def test_scan_rejects_bad_input():
    with pytest.raises(ValueError):
        scan_exceptional("delta", "twist-power")
    with pytest.raises(ValueError):
        scan_exceptional("delta", "square-class", prime_bound=10)
    with pytest.raises(KeyError):
        scan_exceptional("eta9^99", "square-class")


@pytest.mark.parametrize("ell_max", [1, 0, -5])
def test_scan_rejects_ell_max_below_two(ell_max):
    for kind in ("two-exponent", "square-class"):
        with pytest.raises(ValueError, match="ell_max"):
            scan_exceptional("delta", kind, ell_max=ell_max)


def _count_expansions(monkeypatch):
    """Wrap etaquot.expand_all; returns the list of ring lists it expanded."""
    calls = []
    real = etaquot.expand_all

    def spy(quotient, precision, rings):
        calls.append([ring.describe() for ring in rings])
        return real(quotient, precision, rings)

    monkeypatch.setattr(etaquot, "expand_all", spy)
    return calls


def test_expand_misses_expands_each_miss_once_and_together(monkeypatch):
    clear_expansion_cache()
    entry = lookup("eta1^4 eta5^4")
    rings = [residue_ring(3), ZZ, residue_ring(7, 2), residue_ring(3), residue_ring(11)]
    fresh = {ring: entry.expand(400, ring) for ring in rings}
    calls = _count_expansions(monkeypatch)
    congruence._expand_misses(entry, [(ring, 200) for ring in rings[:4]])
    first = [congruence.cached_expansion(entry, 200, ring) for ring in rings[:4]]
    assert calls == [["Z/3", "ZZ", "Z/7^2"]]
    assert first == [fresh[ring].truncate(200) for ring in rings[:4]]
    # a hit at a lower precision is a truncation of the cached series
    congruence._expand_misses(entry, [(ring, 120) for ring in rings])
    lower = [congruence.cached_expansion(entry, 120, ring) for ring in rings]
    assert calls == [["Z/3", "ZZ", "Z/7^2"], ["Z/11"]]
    assert lower == [fresh[ring].truncate(120) for ring in rings]
    assert congruence.cached_expansion(entry, 200, ZZ) is first[1]
    assert len(calls) == 2
    # above the cached precision the ring is expanded again, and kept there
    assert congruence.cached_expansion(entry, 400, rings[2]) == fresh[rings[2]]
    assert congruence.cached_expansion(entry, 300, rings[2]) == fresh[rings[2]].truncate(300)
    assert calls[2:] == [["Z/7^2"]]
    clear_expansion_cache()


def test_verify_claims_expands_each_form_once_in_any_order(monkeypatch):
    # the run plans its reads first: one expand_all call per catalog form,
    # over every ring it is read in, whatever the claim order
    claims = list(builtin_claims())
    forms = {claim.form for claim in claims}
    pinned = json.loads(PINNED_REPORTS.read_text())["reports"]
    expanded = []
    real = etaquot.expand_all

    def spy(quotient, precision, rings):
        expanded.append(quotient.name())
        return real(quotient, precision, rings)

    monkeypatch.setattr(etaquot, "expand_all", spy)
    for seed in (1, 2, 3):
        random.Random(seed).shuffle(claims)
        clear_expansion_cache()
        expanded.clear()
        reports = [r.to_json() for r in verify_claims(claims)]
        for data in reports:
            del data["seconds"]
        assert reports == pinned, seed
        assert sorted(expanded) == sorted(lookup(form_id).quotient.name() for form_id in forms)
        assert len(forms) == 22
    clear_expansion_cache()


def test_verify_claims_keeps_one_form_in_the_cache_at_a_time(monkeypatch):
    # claims run form by form: at every claim the cache holds the expansions
    # of its form alone, and a form leaves the cache after its last claim
    claims = list(builtin_claims())
    pinned = json.loads(PINNED_REPORTS.read_text())["reports"]
    seen = []

    def spy(real):
        def verify(claim, *args):
            seen.append((claim.form, {form_id for form_id, _ in congruence._expansion_cache}))
            return real(claim, *args)

        return verify

    for kind in KINDS:
        name = "verify_" + kind.replace("-", "_")
        monkeypatch.setattr(congruence, name, spy(getattr(congruence, name)))
    for seed in (1, 2, 3):
        random.Random(seed).shuffle(claims)
        clear_expansion_cache()
        seen.clear()
        reports = [r.to_json() for r in verify_claims(claims)]
        for data in reports:
            del data["seconds"]
        assert reports == pinned, seed
        assert len(seen) == len(claims) == 100
        assert all(cached == {form} for form, cached in seen), seed
        assert not {form_id for form_id, _ in congruence._expansion_cache} & {c.form for c in claims}
    clear_expansion_cache()


def test_verify_claims_derives_each_claim_once(monkeypatch):
    # a claim's sides or class table, and a series claim's comparison, are
    # derived once per run, for its reads and its verifier alike
    claims = list(builtin_claims())
    derived, compared = [], []

    def spy(real, calls):
        def derive(claim, *args):
            calls.append(claim.claim_id)
            return real(claim, *args)

        return derive

    for table in (congruence._SIDES, congruence._TABLES):
        for kind, real in table.items():  # spied on in the table and on the module
            monkeypatch.setitem(table, kind, spy(real, derived))
            monkeypatch.setattr(congruence, real.__name__, table[kind])
    monkeypatch.setattr(congruence, "_comparison", spy(congruence._comparison, compared))
    clear_expansion_cache()
    assert len(verify_claims(claims)) == 100
    series = [c.claim_id for c in claims if c.kind in congruence._SIDES]
    assert sorted(derived) == sorted(c.claim_id for c in claims)
    assert sorted(compared) == sorted(series) and len(series) == 77


def test_verify_claim_alone_matches_the_pinned_reports():
    # the standalone path derives each claim itself
    pinned = {row["claim"]: row for row in json.loads(PINNED_REPORTS.read_text())["reports"]}
    clear_expansion_cache()
    for claim in builtin_claims():
        data = verify_claim(claim).to_json()
        del data["seconds"]
        assert data == pinned[claim.claim_id], claim.claim_id
    assert len(pinned) == 100
    clear_expansion_cache()


def test_verify_claims_raises_the_first_fault_in_file_order(tmp_path, capsys):
    # Delta's claims run as one batch before eta2^12's, so bad-delta raises
    # first at run time; the run still reports bad-eta2^12, first in the file
    def claim(claim_id, **fields):
        return {"claim_id": claim_id, "kind": "prime-power", "ell": 2, "m": 0, "residues": [0],
                "residue_modulus": 4, **fields}

    rows = [
        {"claim_id": "ok-delta", "kind": "square-class", "form": "delta", "ell": 23},
        claim("bad-eta2^12", form="eta2^12", t=8, m_prime=5),
        claim("bad-delta", form="delta", t=3, m_prime=11),
    ]
    path = tmp_path / "claims.json"
    path.write_text(json.dumps({"claims": rows}))
    clear_expansion_cache()
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: bad-eta2^12: no admissible primes below 10000\n"
    clear_expansion_cache()


def _is_sieve_of(primes, bound):
    """The engine's prime list: a read-only int64 array of the primes <= bound."""
    return (
        isinstance(primes, np.ndarray)
        and primes.dtype == np.int64
        and not primes.flags.writeable
        and primes.tolist() == primes_up_to(bound)
    )


def test_scan_sieves_once(monkeypatch):
    # one sieve per process, rerun only for a bound above every earlier one
    # (each sieve stores its bound and primes in _sieve, so a replaced
    # _sieve is a sieve that ran)
    sieves = []
    real = congruence._primes_to

    def spy(bound):
        before = congruence._sieve
        primes = real(bound)
        if congruence._sieve is not before:
            sieves.append(congruence._sieve[0])
        return primes

    monkeypatch.setattr(congruence, "_primes_to", spy)
    monkeypatch.setattr(congruence, "_sieve", (-1, None))
    for ell_max, prime_bound in ((691, 500), (100, 10_000)):
        for kind in ("two-exponent", "square-class"):
            scan_exceptional("delta", kind, ell_max=ell_max, prime_bound=prime_bound)
    verify_claim(claim_by_id("prime-power:eta2^12:l3^2"))
    assert sieves == [691, 10_000]
    for bound in (10_000, 7919, 7918, 2, 1):
        assert _is_sieve_of(congruence._primes_to(bound), bound), bound
    assert sieves == [691, 10_000]


def test_the_engine_sieve_matches_the_reference_sieve(monkeypatch):
    # each bound sieved afresh, then cut from the largest sieve; a caller
    # cannot write into the shared sieve through its cut
    bounds = (0, 1, 2, 3, 4, 30, 97, 7919, 65_536, 99_991, 100_000)
    for bound in bounds:
        monkeypatch.setattr(congruence, "_sieve", (-1, None))
        assert _is_sieve_of(congruence._primes_to(bound), bound), bound
    for bound in bounds:
        assert _is_sieve_of(congruence._primes_to(bound), bound), bound
    with pytest.raises(ValueError, match="read-only"):
        congruence._primes_to(100)[0] = 4


def test_every_claim_kind_has_one_verifier_and_one_reading():
    # CongruenceClaim refuses every other kind, so dispatch needs no fallback
    sides, tables = set(congruence._SIDES), set(congruence._TABLES)
    assert set(KINDS) == sides | tables
    assert not sides & tables
    for kind in KINDS:
        assert callable(getattr(congruence, "verify_" + kind.replace("-", "_"))), kind


def test_expansion_cache_can_be_cleared():
    clear_expansion_cache()
    verify_claim(claim_by_id("square-class:delta:l23"))
    clear_expansion_cache()
