"""Eta-quotient expansion and the newform catalog."""

from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np
import pytest

from etaq import congruence, etaquot
from etaq.characters import parse_character
from etaq.claims import builtin_claims
from etaq.etaquot import (
    _BLOCKS,
    EtaQuotient,
    _block_norm,
    _block_terms,
    _plan_blocks,
    catalog,
    expand,
    expand_all,
    lookup,
)
from etaq.oracles import brute_eta_expand, euler_factor, long_division, primes_up_to
from etaq.qseries import QSeries, ZZ, residue_ring


def test_parse_and_name_roundtrip():
    q = EtaQuotient.parse("1:2,11:2")
    assert q.factors == ((1, 2), (11, 2))
    assert q.name() == "eta1^2 eta11^2"
    assert EtaQuotient.parse("4:36,2:-12,8:-12").name() == "eta4^36 / eta2^12 eta8^12"
    # merging duplicate deltas and dropping zero sums
    assert EtaQuotient.parse("1:1,1:23").factors == ((1, 24),)
    with pytest.raises(ValueError):
        EtaQuotient.parse("0:4")
    with pytest.raises(ValueError):
        EtaQuotient.parse("nonsense")


def test_weight_and_exponent_sum():
    delta = EtaQuotient.parse("1:24")
    assert delta.weight == Fraction(12)
    assert delta.exponent_sum == 24
    q = EtaQuotient.parse("8:38,4:-14,16:-14")
    assert q.weight == Fraction(5)
    assert q.exponent_sum == 8 * 38 - 4 * 14 - 16 * 14


def test_expand_rejects_bad_sum_and_low_precision():
    with pytest.raises(ValueError, match="not divisible by 24"):
        expand(EtaQuotient.parse("1:1"), 10)
    with pytest.raises(ValueError):
        expand(EtaQuotient.parse("1:24"), 0)


def test_catalog_has_22_distinct_forms():
    entries = catalog()
    assert len(entries) == 22
    ids = [e.form_id for e in entries]
    assert len(set(ids)) == 22
    for e in entries:
        assert e.weight == e.quotient.weight
        assert e.quotient.exponent_sum % 24 == 0
        for delta, _ in e.quotient.factors:
            assert e.level % delta == 0


def test_lookup_normalizes_and_aliases():
    assert lookup("delta").level == 1
    assert lookup("  eta1^8   eta2^8 ") is lookup("eta1^8 eta2^8")
    with pytest.raises(KeyError):
        lookup("eta1^3")


def test_every_catalog_form_matches_brute_oracle():
    for e in catalog():
        fast = e.expand(60)
        slow = brute_eta_expand(dict(e.quotient.factors), 60)
        assert fast == slow, e.form_id


def dense_reference(quotient, precision, ring):
    """The quotient from dense Euler factors: powers and products by the
    Kronecker kernel, no dilation, then one long division by the brute
    oracle's `long_division` (the denominator has constant term 1, so it
    divides the canonical residues exactly).

    The oracle's `euler_factor` writes its own pentagonal terms, so it
    shares no code with the sparse passes or their division;
    `brute_eta_expand` is the check independent of the kernel.
    """
    lead = quotient.exponent_sum // 24
    work = precision - lead
    num = den = QSeries(ring, [1], work)
    for delta, r in quotient.factors:
        piece = euler_factor(delta, work, ring)
        for _ in range(abs(r)):
            if r > 0:
                num = num * piece
            else:
                den = den * piece
    return QSeries(ring, [0] * lead + long_division(list(num.coeffs), list(den.coeffs)))


def test_sparse_expansion_matches_dense_and_brute_for_every_form():
    # 150 terms reach past 18 pentagonal exponents of prod (1 - q^n); 2^70
    # overflows the int64 guard, so it reduces the exact (CRT) product
    precision = 150
    rings = [residue_ring(ell, t) for ell, t in ((2, 8), (3, 5), (7, 2), (691, 1), (2, 70))]
    for e in catalog():
        exact = e.expand(precision)
        assert exact == brute_eta_expand(dict(e.quotient.factors), precision), e.form_id
        assert exact == dense_reference(e.quotient, precision, ZZ), e.form_id
        for ring in rings:
            sparse = e.expand(precision, ring)
            assert sparse == QSeries(ring, exact.coeffs), (e.form_id, ring.describe())
        sparse = e.expand(precision, rings[1])
        assert sparse == dense_reference(e.quotient, precision, rings[1]), e.form_id


def test_exact_expansion_of_every_form_matches_dense_reference_at_1500_terms():
    # at 1500 terms three of these exact products join two int64 runs by CRT
    # and the other nineteen lift one run to the symmetric range; the dense
    # reference shares no code with the sparse passes
    for e in catalog():
        assert e.expand(1500) == dense_reference(e.quotient, 1500, ZZ), e.form_id


def _crt_case(exponents, precision):
    # the guard weight, the coefficient bound B and the CRT moduli of the
    # exact product of a quotient's blocks
    blocks, _ = _plan_blocks(exponents)
    norms = [1 + sum(abs(c) for _, c in _block_terms(*key, precision)) for key in blocks]
    weight, bound = max(norms), prod(norms)
    return weight, bound, etaquot._crt_moduli(weight, bound)


def test_crt_moduli_are_coprime_inside_the_guard_and_cover_twice_the_bound():
    # greedily downward from the largest m with weight (m - 1) < 2^63 - 1,
    # skipping any m that shares a factor with one taken, until the product
    # exceeds 2B; delta at 10^4 terms has a 115-bit B and needs three moduli
    cases = [
        ({1: 24}, 1500, 93, [0, 1]),
        ({1: 24}, 10000, 115, [0, 1, 3]),
        ({1: 48}, 1000, 176, [0, 1, 2, 4]),
        ({1: 8, 2: 8}, 1500, 68, [0, 1]),
        ({1: 2, 11: 2}, 1500, 21, [0]),
        ({1: 1}, 10, 3, [0]),
    ]
    for exponents, precision, bits, below_top in cases:
        weight, bound, moduli = _crt_case(exponents, precision)
        where = (exponents, precision)
        top = (2**63 - 2) // weight + 1
        assert weight * (top - 1) < 2**63 - 1 <= weight * top, where
        assert bound.bit_length() == bits, where
        assert moduli == [top - k for k in below_top], where
        for m in range(moduli[-1], top + 1):
            if m in moduli:
                assert weight * (m - 1) < 2**63 - 1, where
                assert all(gcd(m, other) == 1 for other in moduli if other != m), where
            else:
                assert any(gcd(m, taken) > 1 for taken in moduli if taken > m), where
        assert prod(moduli) > 2 * bound >= prod(moduli[:-1]), where
    # the symmetric range of one modulus m holds |c| <= (m - 1) / 2, no more
    top = (2**63 - 2) // 3025 + 1
    assert etaquot._crt_moduli(3025, (top - 1) // 2) == [top]
    assert etaquot._crt_moduli(3025, (top + 1) // 2) == [top, top - 1]


def test_an_exact_product_over_four_moduli_matches_dense_and_brute():
    # eta(z)^48 at 1000 terms has a 176-bit bound: four int64 runs
    quotient = EtaQuotient.from_dict({1: 48})
    assert len(_crt_case({1: 48}, 998)[2]) == 4
    series = expand(quotient, 1000)
    assert series == dense_reference(quotient, 1000, ZZ)
    assert series.truncate(150) == brute_eta_expand({1: 48}, 150)
    assert min(series.coeffs) < -(2**64) and max(series.coeffs) > 2**64


def test_crt_join_lifts_negative_coefficients_to_the_symmetric_range():
    # prod (1 - q^n)^24 = sum tau(n + 1) q^n changes sign.  Joined from the
    # fewest small primes whose product exceeds 2 max |tau|, the symmetric
    # lift returns every coefficient; one prime fewer cannot
    precision = 80
    blocks, _ = _plan_blocks({1: 24})
    terms = {key: _block_terms(*key, precision) for key in set(blocks)}
    tau = list(brute_eta_expand({1: 24}, precision + 1).coeffs[1:])
    assert min(tau) < 0 < max(tau)
    moduli = []
    for p in primes_up_to(1000):
        if prod(moduli) > 2 * max(map(abs, tau)):
            break
        moduli.append(p)
    assert len(moduli) >= 3
    joined = etaquot._exact_product(blocks, terms, precision, moduli, 1)
    assert joined.dtype == object and joined.tolist() == tau
    assert etaquot._exact_product(blocks, terms, precision, moduli[:-1], 1).tolist() != tau


def test_an_exact_run_is_an_object_array_of_python_ints():
    # eta1^2 eta11^2 at 150 terms fits one int64 run (lifted in int64), delta
    # takes two (joined on object arrays): either way the Euler part over ZZ
    # is an object array of Python ints, the brute series from q^1 on
    for exponents, runs in (({1: 2, 11: 2}, 1), ({1: 24}, 2)):
        assert len(_crt_case(exponents, 150)[2]) == runs, exponents
        acc = etaquot._Plan(exponents, 150).product(None, 150)
        assert isinstance(acc, np.ndarray) and acc.dtype == object, exponents
        assert {type(c) for c in acc} == {int}, exponents
        assert acc.tolist() == list(brute_eta_expand(exponents, 151).coeffs[1:]), exponents


def test_a_three_run_exact_product_agrees_with_its_residue_runs():
    # delta at 10^4 terms has a 115-bit bound: three int64 runs joined by
    # CRT, read mod m, equal the plan's own run mod m
    plan = etaquot._Plan({1: 24}, 10_000)
    assert len(_crt_case({1: 24}, 10_000)[2]) == 3
    exact = plan.product(None, 10_000)
    assert exact.dtype == object and max(exact) > 2**64
    for m in (2**8, 3**5, 691):
        assert (exact % m).tolist() == plan.product(m, 10_000).tolist(), m


def test_the_empty_quotient_is_one_in_every_ring():
    # no block at all: over ZZ and past the int64 guard (2^70) the exact
    # path joins one run of the constant 1, as mod 5 its one residue run is
    for ring in (ZZ, residue_ring(5), residue_ring(2, 70)):
        assert etaquot._expand_rings({}, 0, [4], [ring]) == [QSeries(ring, [1], 4)], ring.describe()
    with pytest.raises(ValueError, match="empty eta quotient"):
        EtaQuotient.parse(",")


def test_quotients_with_a_denominator_match_brute_oracle_over_zz():
    # these five expand through the theta-series blocks; the brute oracle
    # multiplies and long-divides term by term, sharing no code with them
    precision = 600
    forms = [e for e in catalog() if any(r < 0 for _, r in e.quotient.factors)]
    assert len(forms) == 5
    for e in forms:
        assert e.expand(precision) == brute_eta_expand(dict(e.quotient.factors), precision), e.form_id


def test_block_norms_in_closed_form_sum_the_terms():
    # the int64 guard weights each block by 1 + sum |c| to q^reach, read off
    # a closed form instead of the terms
    for name in _BLOCKS:
        for delta in (1, 2, 3, 5):
            for reach in (0, 1, 2, 5, 7, 12, 15, 100, 1000, 9999, 34558):
                norm = 1 + sum(abs(c) for _, c in _block_terms(name, delta, reach))
                assert _block_norm(name, delta, reach) == norm, (name, delta, reach)


def test_each_block_matches_brute_oracle_of_its_eta_product():
    # a block is the Euler part of an eta product.  When 24 does not divide
    # its exponent sum s, compare (24 / gcd(24, s))-th powers: over ZZ a
    # series with constant term 1 is determined by any power of it
    precision = 300
    for name in ("C", "theta3", "theta4", "psi"):
        eta = _BLOCKS[name]
        for delta in (1, 2, 3):
            coeffs = [1] + [0] * precision
            for e, c in _block_terms(name, delta, precision):
                coeffs[e] = c
            exponents = {m * delta: r for m, r in eta}
            s = sum(d * r for d, r in exponents.items())
            power = 24 // gcd(24, s)
            lead = s * power // 24
            expected = brute_eta_expand({d: power * r for d, r in exponents.items()}, precision + lead)
            powered = QSeries(ZZ, coeffs)
            for _ in range(power - 1):
                powered = powered * QSeries(ZZ, coeffs)
            assert QSeries(ZZ, [0] * lead + list(powered.coeffs)) == expected, (name, delta)


def test_sparse_product_matches_the_brute_oracle_mod_small_moduli():
    # each catalog plan, and its Frobenius rewrite mod m where it runs one,
    # run mod m from P = 0 up, against the brute-force oracle of the form
    # reduced mod m.  Mod 2, 3, 4 and 9 every theta, psi or Jacobi block
    # drops or shrinks terms, single-block runs place their one block
    # directly (eta3^8, eta6^4 and eta12^12 / eta6^4 eta24^4 are E(24) mod
    # 2), and delta mod 23 is E(1) E(23)
    moduli = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 9: (3, 2), 23: (23, 1), 243: (3, 5)}
    single = 0
    for e in catalog():
        exponents = dict(e.quotient.factors)
        lead = e.quotient.exponent_sum // 24
        brute = brute_eta_expand(exponents, 600 + lead).coeffs[lead:]
        for m, (ell, t) in moduli.items():
            rewritten = etaquot._frobenius(exponents, ell, t)
            # a rewrite that leaves a denominator is never taken
            runs = [exponents] + ([rewritten] if rewritten and not _plan_blocks(rewritten)[1] else [])
            for plan_exponents in runs:
                for precision in (0, 1, 7, 150, 600):
                    plan = etaquot._Plan(plan_exponents, precision)
                    assert not plan.den_blocks, (e.form_id, plan_exponents)
                    dtype = (np.int32, np.int64)[plan.width(m, precision)]
                    acc = etaquot._sparse_product(plan.blocks, plan.terms, precision, m, plan.stride, dtype)
                    expected = [c % m for c in brute[: precision + 1 : plan.stride]]
                    assert acc.tolist() == expected, (e.form_id, plan_exponents, m, precision)
                single += len(plan.blocks) == 1
    assert etaquot._frobenius({1: 24}, 23, 1) == {1: 1, 23: 1}
    assert _plan_blocks({1: 1, 23: 1}) == ([("E", 1), ("E", 23)], {})
    assert single == 3


def test_no_catalog_plan_or_taken_rewrite_has_denominator_blocks(monkeypatch):
    # the theta blocks cover every catalog denominator, and _expand_rings
    # takes no Frobenius rewrite that leaves one: over a verify run of the
    # built-in claims and every catalog form in the mixed rings, every ring
    # group runs a plan without denominator blocks, and the five built-in
    # rings whose rewrite would leave one run on the shared plan
    for e in catalog():
        assert not etaquot._Plan(dict(e.quotient.factors), 600).den_blocks, e.form_id
    seen, current = [], []
    real_rings, real_groups = etaquot._expand_rings, etaquot._ring_groups

    def rings_spy(exponents, lead, precisions, rings):
        current[:] = [exponents]
        return real_rings(exponents, lead, precisions, rings)

    def groups_spy(rings, reaches, plans, shared):
        groups = real_groups(rings, reaches, plans, shared)
        seen.append((current[0], rings, plans, shared, groups))
        return groups

    monkeypatch.setattr(etaquot, "_expand_rings", rings_spy)
    monkeypatch.setattr(etaquot, "_ring_groups", groups_spy)
    congruence.clear_expansion_cache()
    congruence.verify_claims(builtin_claims())
    congruence.clear_expansion_cache()
    verified = len(seen)
    for e in catalog():
        expand_all(e.quotient, 300, _mixed_rings())
    left = set()
    for k, (exponents, rings, plans, shared, groups) in enumerate(seen):
        assert all(not plan.den_blocks for _, _, plan in groups), exponents
        for ring, plan in zip(rings, plans):
            rewritten = etaquot._frobenius(exponents, ring.ell, ring.t) if ring.kind == "mod" else None
            if rewritten is not None and _plan_blocks(rewritten)[1]:
                assert plan is shared, (exponents, ring.describe())
                if k < verified:
                    left.add((EtaQuotient.from_dict(exponents).name(), ring.describe()))
    assert left == {
        ("eta4^9 eta12^9 / eta2^3 eta6^3 eta8^3 eta24^3", "Z/3"),
        ("eta8^18 / eta4^6 eta16^6", "Z/3"),
        ("eta12^12 / eta6^4 eta24^4", "Z/3"),
        ("eta4^36 / eta2^12 eta8^12", "Z/3"),
        ("eta4^36 / eta2^12 eta8^12", "Z/11"),
    }


def test_leftover_denominator_is_divided_by_euler_recurrences(monkeypatch):
    # no block covers eta(z)^-1 alone: 1 / prod (1 - q^n) counts partitions
    assert _plan_blocks({1: -1}) == ([], {1: 1})
    partitions = [1] + [0] * 200
    for part in range(1, 201):
        for n in range(part, 201):
            partitions[n] += partitions[n - part]
    series = etaquot._expand_rings({1: -1}, 0, [200], [ZZ])[0]
    assert list(series.coeffs) == partitions
    assert series[200] == 3972999029388
    ring = residue_ring(3, 5)
    assert etaquot._expand_rings({1: -1}, 0, [200], [ring])[0] == QSeries(ring, series.coeffs)
    # (q^2; q^2) / (q; q) counts partitions into distinct parts
    assert _plan_blocks({1: -1, 2: 1}) == ([("E", 2)], {1: 1})
    distinct = [1] + [0] * 200
    for part in range(1, 201):
        for n in range(200, part - 1, -1):
            distinct[n] += distinct[n - part]
    assert list(etaquot._expand_rings({1: -1, 2: 1}, 0, [200], [ZZ])[0].coeffs) == distinct
    # a leftover is split into denominator blocks as a numerator is, and
    # each run is divided by them once: over ZZ, 2^70 and 3^40 (past the
    # int64 guard) on the CRT-joined integers, mod 5^3 and 7 on the residues
    # of one shared run.  eta(5z)^5 / eta(z) is the form behind
    # p(5n + 4) = 0 mod 5; eta(2z)^-1 divides at stride 2
    leftovers = [
        ({1: -1, 5: 5}, [("E", 1)]),
        ({2: -1, 10: 5}, [("E", 2)]),
        ({3: -1, 1: 3}, [("E", 3)]),
        ({1: -24, 24: 1}, [("C", 1)] * 8),
    ]
    rings = [ZZ, residue_ring(2, 70), residue_ring(3, 40), residue_ring(5, 3), residue_ring(7)]
    runs, crt, groups = _record_runs(monkeypatch)
    for exponents, den_blocks in leftovers:
        assert etaquot._Plan(exponents, 150).den_blocks == den_blocks, exponents
        runs.clear()
        crt.clear()
        series = expand_all(EtaQuotient.from_dict(exponents), 150, rings)
        exact = brute_eta_expand(exponents, 150)
        for ring, got in zip(rings, series):
            assert got == QSeries(ring, exact.coeffs), (exponents, ring.describe())
        assert [group[:2] for group in groups] == [[[0], None], [[1], None], [[2], None], [[3, 4], 875]]
        assert [ran_at for ran_at, _, _ in runs] == _expected_moduli(groups, crt, 1), exponents


def test_expand_mod_primes_shares_runs_on_a_leftover_denominator(monkeypatch):
    # over the mixed rings the leftover groups as a catalog form does, one
    # run per group, each int32 exactly inside its guard
    quotient = EtaQuotient.from_dict({1: -1, 5: 5})
    rings = _mixed_rings() + [residue_ring(2, 2)]
    runs, crt, groups = _record_runs(monkeypatch)
    series = expand_all(quotient, 300, rings)
    assert sum(len(group) > 1 for group, _, _ in groups) >= 2
    assert [ran_at for ran_at, _, _ in runs] == _expected_moduli(groups, crt, 1)
    assert _int32_exactly_inside_its_guard(runs)
    exact = brute_eta_expand({1: -1, 5: 5}, 300)
    for ring, got in zip(rings, series):
        assert got == expand(quotient, 300, ring) == QSeries(ring, exact.coeffs), ring.describe()


def test_a_runs_dtype_is_the_plan_width_over_all_its_blocks_denominators_included():
    # the numerator E(24) alone would keep a run mod 3^15 in int32, but each
    # C(1) denominator block weighs 1 + sum |c| = 289 at 150 terms, and
    # `_Plan.width` counts it, so the whole run, product and divisions
    # alike, is int64 once 289 (m - 1) reaches 2^31 - 1, and int32 below that
    plan = etaquot._Plan({1: -24, 24: 1}, 150)
    exact = brute_eta_expand({1: -24, 24: 1}, 150).coeffs
    assert max(plan.norms(150).values()) == 289
    for m, dtype in ((3**12, np.int32), (3**15, np.int64)):
        assert (289 * (m - 1) < 2**31 - 1) == (dtype == np.int32)
        acc = plan.product(m, 150)
        assert acc.dtype == dtype and acc.tolist() == [c % m for c in exact], m


def test_partition_numbers_keep_ramanujans_congruences():
    # 1 / prod (1 - q^n) = sum p(n) q^n is one E(1) division: p(5n + 4),
    # p(7n + 5) and p(11n + 6) vanish mod 5, 7 and 11, and no other class does
    for ell, r in ((5, 4), (7, 5), (11, 6)):
        p = etaquot._expand_rings({1: -1}, 0, [2000], [residue_ring(ell)])[0].coeffs
        assert not any(p[r::ell]), ell
        assert all(any(p[s::ell]) for s in range(ell) if s != r), ell


def test_int64_guard_weights_each_pass_by_its_coefficients():
    # a cube pass moves a slot by up to (1 + sum |c|)(modulus - 1).  At 600
    # terms that weight is 35^2 + 1 against 35 terms, so 3^33 runs in int64,
    # 3^34 just above the limit reduces the exact (CRT) product, and a guard
    # sized by the term count would wrongly take int64 up to 3^36.  (A power
    # of 2 would not show an overflow: int64 wraps modulo 2^64.)
    precision = 600
    terms = _block_terms("C", 1, precision)
    weight = 1 + sum(abs(c) for _, c in terms)
    below = max(t for t in range(1, 40) if weight * (3**t - 1) < 2**63)
    by_count = max(t for t in range(1, 40) if (len(terms) + 1) * (3**t - 1) < 2**63)
    assert (below, by_count) == (33, 36)
    plan = etaquot._Plan({1: 24}, precision)
    assert max(plan.norms(precision).values()) == weight
    for t in range(below, by_count + 1):
        run = 3**t if t == below else None
        assert etaquot._ring_groups([residue_ring(3, t)], [precision], [plan], plan) == [[[0], run, plan]], t
    exact = etaquot._expand_rings({1: 24}, 0, [precision], [ZZ])[0]
    for t in range(below, by_count + 1):
        ring = residue_ring(3, t)
        assert etaquot._expand_rings({1: 24}, 0, [precision], [ring])[0] == QSeries(ring, exact.coeffs), t


def _mixed_rings():
    rings = [ZZ] + [residue_ring(ell, t) for ell, t in ((2, 70), (3, 5), (7, 2), (2, 14))]
    return rings + [residue_ring(ell) for ell in primes_up_to(691)]


def _pass_weight(terms, precision):
    # the largest 1 + sum |c| over the terms up to q^precision of every block
    # of the run's plan, denominators included: what its passes and
    # divisions add
    return max(1 + sum(abs(c) for e, c in block if e <= precision) for block in terms.values())


def _int32_exactly_inside_its_guard(runs):
    # every run is int32 exactly when weight (M - 1) < 2^31 - 1, else int64
    return all(
        dtype == (np.int32 if weight * (modulus - 1) < 2**31 - 1 else np.int64)
        for modulus, dtype, weight in runs
    )


def _record_runs(monkeypatch):
    # spy on expand_all: each _sparse_product run as (modulus, dtype, pass
    # weight), the CRT moduli of each exact product, and the ring groups of
    # the latest call
    runs, exact, groups = [], [], []
    real_product, real_groups = etaquot._sparse_product, etaquot._ring_groups
    real_moduli = etaquot._crt_moduli

    def product_spy(blocks, terms, precision, modulus, stride, dtype):
        acc = real_product(blocks, terms, precision, modulus, stride, dtype)
        runs.append((modulus, acc.dtype, _pass_weight(terms, precision)))
        return acc

    def moduli_spy(*args):
        exact.append(real_moduli(*args))
        return exact[-1]

    def groups_spy(*args):
        groups[:] = real_groups(*args)
        return groups

    monkeypatch.setattr(etaquot, "_sparse_product", product_spy)
    monkeypatch.setattr(etaquot, "_crt_moduli", moduli_spy)
    monkeypatch.setattr(etaquot, "_ring_groups", groups_spy)
    return runs, exact, groups


def _expected_moduli(groups, exact, products):
    # the moduli _sparse_product should run at: `products` runs per group,
    # each at the group's modulus, or at the next CRT moduli (None: exact)
    crt = iter(exact)
    return [
        m for _, modulus, _ in groups for _ in range(products) for m in ([modulus] if modulus else next(crt))
    ]


def _rewritten_blocks(exponents, ring):
    # the blocks of the ring's Frobenius rewrite of the exponents, or None
    # when no |r_delta| reaches ell^t or the rewrite leaves a denominator
    rewritten = etaquot._frobenius(exponents, ring.ell, ring.t) if ring.kind == "mod" else None
    if rewritten is None:
        return None
    blocks, leftover = _plan_blocks(rewritten)
    return None if leftover else blocks


def _check_rewritten_groups(exponents, rings, reaches, groups):
    # a ring with a rewrite runs it alone, or rides on a residue run of the
    # shared plan that reads as far; every other ring runs the shared plan;
    # returns how many rings ran their rewrite
    shared = {id(plan) for group, modulus, plan in groups if _rewritten_blocks(exponents, rings[group[0]]) is None}
    assert len(shared) <= 1, exponents
    ran = 0
    for group, modulus, plan in groups:
        if id(plan) not in shared:
            (i,) = group
            assert plan.blocks == _rewritten_blocks(exponents, rings[i]), (exponents, i)
            assert modulus == rings[i].modulus, (exponents, i)
            ran += 1
            continue
        for i in group:
            if _rewritten_blocks(exponents, rings[i]) is not None:
                assert modulus and reaches[i] <= max(reaches[j] for j in group), (exponents, i)
    return ran


def test_expand_mod_primes_matches_per_prime_expansion(monkeypatch):
    # one expand_all call over a mixed list of rings gives, for every catalog
    # form, the one-ring expansion in each ring (with its coefficient type).
    # Every ring sits in exactly one group, and each _sparse_product run is
    # one at the group's modulus, the lcm M of its rings' moduli with
    # weight (M - 1) < 2^63, or a CRT run of an exact group (ZZ, 2^70);
    # a run is int32 exactly when weight (M - 1) < 2^31 - 1, and every CRT
    # run is int64.  The primes up to 691 do not fit one int64 modulus for
    # delta.  A ring ell^t in which some |r_delta| reaches ell^t rides on a
    # shared run that reads as far, or else runs its Frobenius rewrite alone
    # (`_frobenius`), as every such ring does in a call without the others;
    # both give the same series.
    rings = _mixed_rings()
    runs, exact, groups = _record_runs(monkeypatch)
    rewritten = 0
    for e in catalog():
        exponents = dict(e.quotient.factors)
        lead = e.quotient.exponent_sum // 24
        own = [i for i, ring in enumerate(rings) if _rewritten_blocks(exponents, ring) is not None]
        runs.clear()
        alone = expand_all(e.quotient, 1000, [rings[i] for i in own])
        assert [group for group, _, _ in groups] == [[k] for k in range(len(own))], e.form_id
        assert [ran_at for ran_at, _, _ in runs] == _expected_moduli(groups, [], 1), e.form_id
        assert _int32_exactly_inside_its_guard(runs), e.form_id
        assert _check_rewritten_groups(exponents, [rings[i] for i in own], [1000 - lead] * len(own), groups) == len(own)
        rewritten += len(own)
        runs.clear()
        exact.clear()
        series = expand_all(e.quotient, 1000, rings)
        assert sorted(i for group, _, _ in groups for i in group) == list(range(len(rings))), e.form_id
        assert [ran_at for ran_at, _, _ in runs] == _expected_moduli(groups, exact, 1), e.form_id
        assert _int32_exactly_inside_its_guard(runs), e.form_id
        assert {dtype for m, dtype, _ in runs if m in sum(exact, [])} == {np.dtype(np.int64)}, e.form_id
        assert len(exact) == 2, e.form_id
        for group, modulus, _ in groups:
            if modulus:
                assert modulus == lcm(*(rings[i].modulus for i in group)), e.form_id
        _check_rewritten_groups(exponents, rings, [1000 - lead] * len(rings), groups)
        if e.form_id == "delta":
            assert sum(len(group) > 1 for group, _, _ in groups) >= 2
            # the nine primes up to 24
            assert len(own) == 9
        for ring, got in zip(rings, series):
            where = (e.form_id, ring.describe())
            assert got == expand(e.quotient, 1000, ring), where
            assert {type(c) for c in got.coeffs} == {int}, where
        assert all(alone[k] == series[i] for k, i in enumerate(own)), e.form_id
    assert rewritten > len(catalog())


def test_int32_runs_of_the_builtin_plan_match_int64_and_the_brute_oracle(monkeypatch):
    # every sparse product of a verify run over the built-in claims, for
    # every catalog form and ring group the plan makes, the Frobenius
    # rewrites included: the run (int32 where its guard allows) equals the
    # same run forced into int64, and the brute-force oracle of the form
    # reduced mod M, whose coefficient lead + s n is the run's n-th for the
    # run's stride s
    runs, current = [], []
    real_rings, real_product = etaquot._expand_rings, etaquot._sparse_product

    def rings_spy(exponents, lead, precisions, rings):
        current[:] = [(exponents, lead)]
        return real_rings(exponents, lead, precisions, rings)

    def product_spy(blocks, terms, precision, modulus, stride, dtype):
        acc = real_product(blocks, terms, precision, modulus, stride, dtype)
        runs.append((*current, blocks, terms, precision, modulus, stride, acc))
        return acc

    monkeypatch.setattr(etaquot, "_expand_rings", rings_spy)
    monkeypatch.setattr(etaquot, "_sparse_product", product_spy)
    congruence.clear_expansion_cache()
    congruence.verify_claims(builtin_claims())
    congruence.clear_expansion_cache()
    assert len({tuple(sorted(exponents.items())) for (exponents, _), *_ in runs}) == len(catalog())
    assert np.dtype(np.int32) in {acc.dtype for *_, acc in runs}
    assert any(blocks != _plan_blocks(exponents)[0] for (exponents, _), blocks, *_ in runs)
    oracle = {}
    for (exponents, lead), blocks, terms, precision, modulus, stride, acc in runs:
        wide = real_product(blocks, terms, precision, modulus, stride, np.int64)
        assert wide.dtype == np.int64 and np.array_equal(acc, wide), (exponents, modulus)
        key = tuple(sorted(exponents.items()))
        if key not in oracle:
            oracle[key] = brute_eta_expand(exponents, 200).coeffs
        exact = oracle[key][lead::stride][: precision // stride + 1]
        assert acc[: len(exact)].tolist() == [c % modulus for c in exact], (exponents, modulus)


def test_expand_mod_primes_matches_the_brute_oracle():
    rings = _mixed_rings()
    for e in catalog():
        exact = brute_eta_expand(dict(e.quotient.factors), 60)
        for ring, got in zip(rings, expand_all(e.quotient, 60, rings)):
            assert got == QSeries(ring, exact.coeffs), (e.form_id, ring.describe())


def test_expand_all_reads_each_ring_to_its_own_precision(monkeypatch):
    # one call with a precision per ring, ZZ and residue rings mixed:
    # each series equals the one-ring expansion at its own precision, and a
    # group's product runs as far as its furthest ring reads and no further,
    # on the shared plan and on a ring's Frobenius rewrite alike (5 reads
    # further than any shared run, so it runs its rewrite where it has one)
    rings = [ZZ, residue_ring(3), residue_ring(2, 14), residue_ring(3, 5), residue_ring(2, 70),
             residue_ring(691), residue_ring(2, 9), residue_ring(7, 2), residue_ring(5), residue_ring(2)]
    precisions = [120, 900, 37, 1, 640, 900, 899, 2, 950, 10]
    reaches, groups = [], []
    real_product, real_groups = etaquot._sparse_product, etaquot._ring_groups

    def product_spy(blocks, terms, precision, modulus, stride, dtype):
        reaches.append(precision)
        return real_product(blocks, terms, precision, modulus, stride, dtype)

    def groups_spy(*args):
        groups[:] = real_groups(*args)
        return groups

    monkeypatch.setattr(etaquot, "_sparse_product", product_spy)
    monkeypatch.setattr(etaquot, "_ring_groups", groups_spy)
    leftover = EtaQuotient.from_dict({1: -1, 5: 5})
    rewritten = 0
    for quotient in [e.quotient for e in catalog()] + [leftover]:
        reaches.clear()
        series = expand_all(quotient, precisions, rings)
        lead = quotient.exponent_sum // 24
        subs = [p - lead for p in precisions]
        furthest = {max(subs[i] for i in group) for group, _, _ in groups}
        assert set(reaches) == furthest and len(furthest) > 2, quotient
        rewritten += _check_rewritten_groups(dict(quotient.factors), rings, subs, groups)
        for ring, precision, got in zip(rings, precisions, series):
            where = (quotient.name(), ring.describe(), precision)
            assert got.precision == precision, where
            assert got == expand(quotient, precision, ring), where
            assert {type(c) for c in got.coeffs} == {int}, where
    assert rewritten > 0
    with pytest.raises(ValueError, match="2 precisions for 3 rings"):
        expand_all(leftover, [10, 20], rings[:3])
    with pytest.raises(ValueError, match="cannot see the leading term"):
        expand_all(leftover, [10, 0], rings[:2])


def test_ring_groups_share_an_lcm_modulus_inside_the_int64_guard():
    # delta's blocks at 600 terms weight each pass by w = 35^2.  3 joins
    # 3^5 without growing its modulus; ZZ and 2^70 (too large for the guard)
    # run alone on the exact product (None) and end a run; a ring that
    # would push w (M - 1) past 2^63 opens a new run.  With a leftover
    # denominator the rings share runs alike, weighted by its blocks too
    plan = etaquot._Plan({1: 24}, 600)
    w = max(plan.norms(600).values())
    assert w == 35**2
    rings = [residue_ring(3, 5), residue_ring(3), residue_ring(7, 2), ZZ, residue_ring(5)]
    rings += [residue_ring(2, 70), residue_ring(2, 40), residue_ring(3, 20)]
    reaches = [600] * len(rings)
    assert etaquot._ring_groups(rings, reaches, [plan] * len(rings), plan) == [
        [[0, 1, 2], 3**5 * 7**2, plan],
        [[3], None, plan],
        [[4], 5, plan],
        [[5], None, plan],
        [[6], 2**40, plan],
        [[7], 3**20, plan],
    ]
    assert w * (2**40 * 3**20 - 1) >= 2**63 > w * (3**20 - 1)
    assert w * (2**70 - 1) >= 2**63
    leftover = etaquot._Plan({1: -1, 5: 5}, 600)
    assert leftover.den_blocks == [("E", 1)] and max(leftover.norms(600).values()) == 256
    assert etaquot._ring_groups(rings, reaches, [leftover] * len(rings), leftover) == [
        [group, modulus, leftover] for group, modulus, _ in etaquot._ring_groups(rings, reaches, [plan] * len(rings), plan)
    ]


def test_ring_groups_keep_a_run_in_int32_for_a_ring_that_reads_less():
    # 3^5 7^2 runs in int32 under w = 35^2; 5^4 would widen it to int64,
    # so it joins only when it reads as far as the run, and a ring with its
    # own (Frobenius) plan rides on the run only when the run reads as far
    # and keeps its dtype with the ring's modulus
    plan = etaquot._Plan({1: 24}, 600)
    w = max(plan.norms(600).values())
    assert w * (3**5 * 7**2 - 1) < 2**31 - 1 <= w * (3**5 * 7**2 * 5**4 - 1)
    rings = [residue_ring(3, 5), residue_ring(7, 2), residue_ring(5, 4)]
    for reach, expected in ((600, [[[0, 1, 2], 3**5 * 7**2 * 5**4, plan]]),
                            (599, [[[0, 1], 3**5 * 7**2, plan], [[2], 5**4, plan]])):
        assert etaquot._ring_groups(rings, [600, 600, reach], [plan] * 3, plan) == expected, reach
    mod23 = etaquot._Plan(etaquot._frobenius({1: 24}, 23, 1), 600)
    assert mod23.blocks == [("E", 1), ("E", 23)]
    rings = [residue_ring(3, 5), residue_ring(7, 2), residue_ring(23)]
    assert etaquot._ring_groups(rings, [600, 600, 600], [plan, plan, mod23], plan) == [
        [[0, 1, 2], 3**5 * 7**2 * 23, plan]
    ]
    assert etaquot._ring_groups(rings, [600, 600, 601], [plan, plan, mod23], plan) == [
        [[0, 1], 3**5 * 7**2, plan],
        [[2], 23, mod23],
    ]
    rings[2] = residue_ring(691)  # 3^5 7^2 691 needs int64
    assert etaquot._ring_groups(rings, [600, 600, 600], [plan, plan, mod23], plan) == [
        [[0, 1], 3**5 * 7**2, plan],
        [[2], 691, mod23],
    ]


def test_a_plan_that_no_run_reads_builds_no_terms(monkeypatch):
    # over the built-in verify plan and the scan sweep (types I and II of
    # four forms, ell <= 100), every _block_terms call is a block of a plan
    # some run reads, at that plan's reach.  Plans no run reads exist: delta's
    # shared plan in the sweep (each of its rings mod 2, 3, 5 and 7 is
    # rewritten) and eta1^8 eta2^8's rewritten plans mod 2, 3 and 5, riders
    plans, ran, built = [], set(), []
    real_init, real_product, real_terms = etaquot._Plan.__init__, etaquot._Plan.product, _block_terms

    def init_spy(self, exponents, reach):
        real_init(self, exponents, reach)
        plans.append((dict(exponents), self))

    def product_spy(self, modulus, reach):
        ran.add(id(self))
        return real_product(self, modulus, reach)

    def terms_spy(name, delta, precision):
        built.append((name, delta, precision))
        return real_terms(name, delta, precision)

    monkeypatch.setattr(etaquot._Plan, "__init__", init_spy)
    monkeypatch.setattr(etaquot._Plan, "product", product_spy)
    monkeypatch.setattr(etaquot, "_block_terms", terms_spy)
    congruence.clear_expansion_cache()
    congruence.verify_claims(builtin_claims())
    congruence.clear_expansion_cache()
    for form_id in ("delta", "eta1^8 eta2^8", "eta1^4 eta5^4", "eta1^2 eta11^2"):
        for kind in ("two-exponent", "square-class"):
            congruence.scan_exceptional(form_id, kind, ell_max=100)
    congruence.clear_expansion_cache()
    read = [plan for _, plan in plans if id(plan) in ran]
    unread = [(exponents, plan) for exponents, plan in plans if id(plan) not in ran]
    assert sorted(built) == sorted(
        (*key, plan.reach) for plan in read for key in set(plan.blocks + plan.den_blocks)
    )
    assert all("terms" not in vars(plan) for _, plan in unread)
    # the forms' Euler parts start at q^1, so 10^4 terms reach q^9999 of them
    unread_keys = [sorted(exponents.items()) for exponents, plan in unread if plan.reach == 9_999]
    assert [(1, 24)] in unread_keys
    for ell in (2, 3, 5):
        assert sorted(etaquot._frobenius({1: 8, 2: 8}, ell, 1).items()) in unread_keys, ell


def test_expansion_in_residue_ring_matches_reduced_exact():
    for form_id in ("delta", "eta2^12", "eta12^12 / eta6^4 eta24^4"):
        e = lookup(form_id)
        exact = e.expand(80)
        for ell, t in ((2, 3), (3, 2), (5, 1)):
            assert QSeries(residue_ring(ell, t), exact.coeffs) == e.expand(80, residue_ring(ell, t))


def test_gcd_dilation_consistency():
    # forms whose deltas share a common factor go through the dilation
    # shortcut; compare against the plain per-factor route
    direct = [0] * 81
    direct[::2] = etaquot._expand_rings({1: 12}, 0, [40], [ZZ])[0].coeffs
    assert etaquot._expand_rings({2: 12}, 0, [80], [ZZ])[0] == QSeries(ZZ, direct)
    sub = [0] * 121
    sub[::6] = etaquot._expand_rings({2: 12, 1: -4, 4: -4}, 0, [20], [ZZ])[0].coeffs
    assert etaquot._expand_rings({12: 12, 6: -4, 24: -4}, 0, [120], [ZZ])[0] == QSeries(ZZ, sub)


def test_eta_power_frobenius_congruence():
    # the delta-dilated euler factor matches the ell-th power mod ell
    for ell in (2, 3, 5):
        for r in (1, 2, 3):
            dilated = etaquot._expand_rings({ell: r}, 0, [100], [ZZ])[0]
            powered = etaquot._expand_rings({1: ell * r}, 0, [100], [ZZ])[0]
            ring = residue_ring(ell)
            assert QSeries(ring, dilated.coeffs) == QSeries(ring, powered.coeffs), (ell, r)


def test_frobenius_rewrite_matches_the_exact_expansion_and_the_brute_oracle(monkeypatch):
    # every catalog form in every ring ell^t with some |r_delta| >= ell^t,
    # for the primes up to 691 at t = 1 and every power of 2 and 3: each
    # such ring runs its rewrite alone, falls back to the shared plan when
    # the rewrite leaves a denominator, or rides on a run of such
    # fallbacks, and equals the exact expansion reduced mod ell^t to 2000
    # terms and the brute oracle to 200
    runs, _, groups = _record_runs(monkeypatch)
    moduli = [(ell, 1) for ell in primes_up_to(691)] + [(ell, t) for ell in (2, 3) for t in range(2, 7)]
    total = 0
    for e in catalog():
        exponents = dict(e.quotient.factors)
        top = max(abs(r) for r in exponents.values())
        rings = [residue_ring(ell, t) for ell, t in moduli if ell**t <= top]
        series = expand_all(e.quotient, 2000, rings)
        lead = e.quotient.exponent_sum // 24
        ran = _check_rewritten_groups(exponents, rings, [2000 - lead] * len(rings), groups)
        exact, brute = e.expand(2000), brute_eta_expand(exponents, 200)
        for ring, got in zip(rings, series):
            where = (e.form_id, ring.describe())
            assert got == QSeries(ring, exact.coeffs), where
            assert got.truncate(200) == QSeries(ring, brute.coeffs), where
        total += ran
    assert total == 58
    # mod 3 the rewrite of eta4^36 / eta2^12 eta8^12 leaves a denominator no
    # block covers, so that ring falls back to the shared plan, which has
    # none
    quotient = lookup("eta4^36 / eta2^12 eta8^12").quotient
    exponents = dict(quotient.factors)
    rewritten = etaquot._frobenius(exponents, 3, 1)
    assert rewritten == {6: -1, 18: -1, 24: -1, 36: 1, 72: -1, 108: 1}
    assert _plan_blocks(rewritten)[1] and not _plan_blocks(exponents)[1]
    (got,) = expand_all(quotient, 2000, [residue_ring(3)])
    ((group, modulus, plan),) = groups
    assert (group, modulus, plan.blocks, plan.den_blocks) == ([0], 3, _plan_blocks(exponents)[0], [])
    assert got == QSeries(residue_ring(3), expand(quotient, 2000).coeffs)


def test_frobenius_rewrite_steps():
    # E(delta)^(ell^t a) becomes E(ell delta)^(ell^(t-1) a), for negative a
    # too, until every |r_delta| < ell^t; the exponent sum is kept
    assert etaquot._frobenius({1: 24}, 29, 1) is None
    assert etaquot._frobenius({1: 24}, 23, 1) == {1: 1, 23: 1}
    assert etaquot._frobenius({1: 24}, 2, 1) == {8: 1, 16: 1}
    assert etaquot._frobenius({1: 24}, 2, 2) == {4: 2, 8: 2}
    assert etaquot._frobenius({1: 24}, 2, 3) == {2: 4, 4: 4}
    assert etaquot._frobenius({1: 24}, 3, 2) == {1: 6, 3: 6} and etaquot._frobenius({1: 24}, 3, 3) is None
    assert etaquot._frobenius({2: -12, 4: 36, 8: -12}, 2, 1) == {8: 1, 16: 1}
    assert etaquot._frobenius({1: -2, 2: 1}, 2, 1) == {}
    for exponents in ({1: 24}, {1: 8, 2: 8}, {12: 12, 6: -4, 24: -4}, {1: -7, 5: 9}):
        for ell, t in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)):
            rewritten = etaquot._frobenius(exponents, ell, t)
            if rewritten is not None:
                assert sum(d * r for d, r in rewritten.items()) == sum(d * r for d, r in exponents.items())
                assert all(abs(r) < ell**t for r in rewritten.values()), (exponents, ell, t)
    # E(2) / E(1)^2 = 1 mod 2: the rewrite leaves no block at all
    (got,) = expand_all(EtaQuotient.from_dict({1: -2, 2: 1}), 50, [residue_ring(2)])
    assert got == QSeries(residue_ring(2), [1] + [0] * 50)


def test_precision_past_the_limit_is_refused_before_any_expansion(monkeypatch):
    def refuse(*args):
        raise AssertionError("expansion started")

    etaquot.check_precision(etaquot.PRECISION_LIMIT, "precision")
    monkeypatch.setattr(etaquot, "_expand_rings", refuse)
    for precisions in (10**6 + 1, [10, 10**30]):
        with pytest.raises(ValueError, match="exceeds the limit of 1000000 coefficients"):
            expand_all(lookup("delta").quotient, precisions, [ZZ, residue_ring(5)])


def test_delta_is_sum_of_odd_squares_mod_2():
    # classical: delta = sum q^((2n+1)^2) mod 2
    series = lookup("delta").expand(200, residue_ring(2))
    squares = {(2 * n + 1) ** 2 for n in range(10)}
    for n in range(201):
        assert series[n] == (1 if n in squares else 0), n


def test_catalog_forms_are_hecke_eigenforms():
    # T_p f = a(p) f for the first two good primes of every catalog form
    from etaq.operators import FormMeta, hecke_tn

    for e in catalog():
        meta = FormMeta(int(e.weight), e.level, e.nebentypus, cuspidal=True)
        good = [p for p in primes_up_to(20) if e.level % p != 0][:2]
        f = e.expand(40 * max(good))
        for p in good:
            tp = hecke_tn(f, p, meta)
            ap = f[p]
            expected = QSeries(f.ring, [ap * a for a in f.truncate(tp.precision).coeffs])
            assert tp == expected, (e.form_id, p)


def test_coefficient_multiplicativity():
    # a(m) a(n) = sum over d | gcd(m,n) of chi(d) d^(k-1) a(mn/d^2)
    for e in catalog():
        k = int(e.weight)
        chi = e.nebentypus
        f = e.expand(1200)
        for m in range(2, 61):
            for n in range(2, 61):
                if m * n > 1200:
                    continue
                lhs = f[m] * f[n]
                rhs = sum(
                    chi(d) * d ** (k - 1) * f[m * n // (d * d)]
                    for d in range(1, gcd(m, n) + 1)
                    if m % d == 0 and n % d == 0
                )
                assert lhs == rhs, (e.form_id, m, n)


def test_nebentypus_matches_coefficient_signs():
    # a real nebentypus shows up in a(n) a(m) identities; spot-check that the
    # quadratic forms carry the advertised character by testing T_p^2 action
    e = lookup("eta1^4 eta2^2 eta4^4")
    assert e.nebentypus.disc == -1
    assert e.nebentypus.modulus == 4
    e2 = lookup("eta1^3 eta7^3")
    assert e2.nebentypus.disc == -7
    assert e2.nebentypus.modulus == 7
    # principal-character forms keep the level as modulus
    assert lookup("eta1^2 eta11^2").nebentypus == parse_character("1_11")
