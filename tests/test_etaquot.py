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
    _block_terms,
    _plan_blocks,
    catalog,
    euler_factor,
    expand,
    expand_all,
    expand_euler_part,
    lookup,
)
from etaq.oracles import brute_eta_expand, primes_up_to
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
    """The quotient from dense Euler factors: powers, products, one inverse, no dilation.

    It multiplies with the same Kronecker kernel as `expand`, so it checks
    the sparse passes; `brute_eta_expand` is the check independent of the kernel.
    """
    lead = quotient.exponent_sum // 24
    work = precision - lead
    num = den = QSeries.constant(ring, 1, work)
    for delta, r in quotient.factors:
        piece = euler_factor(delta, work, ring)
        for _ in range(abs(r)):
            if r > 0:
                num = num * piece
            else:
                den = den * piece
    return QSeries(ring, [0] * lead + list((num * den.inverse()).coeffs))


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
    assert etaquot._exact_product(blocks, terms, precision, moduli) == tau
    assert etaquot._exact_product(blocks, terms, precision, moduli[:-1]) != tau


def test_quotients_with_a_denominator_match_brute_oracle_over_zz():
    # these five expand through the theta-series blocks; the brute oracle
    # multiplies and long-divides term by term, sharing no code with them
    precision = 600
    forms = [e for e in catalog() if any(r < 0 for _, r in e.quotient.factors)]
    assert len(forms) == 5
    for e in forms:
        assert e.expand(precision) == brute_eta_expand(dict(e.quotient.factors), precision), e.form_id


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


def test_catalog_expands_without_the_newton_inverse(monkeypatch):
    def refuse(self):
        raise AssertionError("Newton inverse called")

    monkeypatch.setattr(QSeries, "inverse", refuse)
    for e in catalog():
        exact = e.expand(400)
        assert e.expand(400, residue_ring(3, 5)) == QSeries(residue_ring(3, 5), exact.coeffs), e.form_id


def test_leftover_denominator_goes_through_the_newton_inverse():
    # no block covers eta(z)^-1 alone: 1 / prod (1 - q^n) counts partitions
    assert _plan_blocks({1: -1}) == ([], {1: 1})
    partitions = [1] + [0] * 200
    for part in range(1, 201):
        for n in range(part, 201):
            partitions[n] += partitions[n - part]
    series = expand_euler_part({1: -1}, 200, ZZ)
    assert list(series.coeffs) == partitions
    assert series[200] == 3972999029388
    assert expand_euler_part({1: -1}, 200, residue_ring(3, 5)) == QSeries(residue_ring(3, 5), series.coeffs)
    # (q^2; q^2) / (q; q) counts partitions into distinct parts
    assert _plan_blocks({1: -1, 2: 1}) == ([("E", 2)], {1: 1})
    distinct = [1] + [0] * 200
    for part in range(1, 201):
        for n in range(200, part - 1, -1):
            distinct[n] += distinct[n - part]
    assert list(expand_euler_part({1: -1, 2: 1}, 200, ZZ).coeffs) == distinct


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
    for t in range(below, by_count + 1):
        run = 3**t if t == below else None
        assert etaquot._ring_groups([residue_ring(3, t)], weight, False) == [[[0], run]], t
    exact = expand_euler_part({1: 24}, precision, ZZ)
    for t in range(below, by_count + 1):
        assert expand_euler_part({1: 24}, precision, residue_ring(3, t)) == QSeries(residue_ring(3, t), exact.coeffs), t


def _mixed_rings():
    rings = [ZZ] + [residue_ring(ell, t) for ell, t in ((2, 70), (3, 5), (7, 2), (2, 14))]
    return rings + [residue_ring(ell) for ell in primes_up_to(691)]


def _pass_weight(blocks, terms):
    # the largest 1 + sum |c| over the blocks of one sparse product
    return max(1 + sum(abs(c) for _, c in terms[key]) for key in blocks)


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

    def product_spy(blocks, terms, precision, modulus):
        acc = real_product(blocks, terms, precision, modulus)
        runs.append((modulus, acc.dtype, _pass_weight(blocks, terms)))
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
        m for _, modulus in groups for _ in range(products) for m in ([modulus] if modulus else next(crt))
    ]


def test_expand_mod_primes_matches_per_prime_expansion(monkeypatch):
    # one expand_all call over a mixed list of rings gives, for every catalog
    # form, the one-ring expansion in each ring (with its coefficient type).
    # Every ring sits in exactly one group, and each _sparse_product run is
    # one at the group's modulus, the lcm M of its rings' moduli with
    # weight (M - 1) < 2^63, or a CRT run of an exact group (ZZ, 2^70);
    # a run is int32 exactly when weight (M - 1) < 2^31 - 1, and every CRT
    # run is int64.  The primes up to 691 do not fit one int64 modulus for
    # delta.
    rings = _mixed_rings()
    runs, exact, groups = _record_runs(monkeypatch)
    for e in catalog():
        runs.clear()
        exact.clear()
        series = expand_all(e.quotient, 1000, rings)
        assert sorted(i for group, _ in groups for i in group) == list(range(len(rings))), e.form_id
        assert [ran_at for ran_at, _, _ in runs] == _expected_moduli(groups, exact, 1), e.form_id
        assert _int32_exactly_inside_its_guard(runs), e.form_id
        assert {dtype for m, dtype, _ in runs if m in sum(exact, [])} == {np.dtype(np.int64)}, e.form_id
        assert len(exact) == 2, e.form_id
        for group, modulus in groups:
            if modulus:
                assert modulus == lcm(*(rings[i].modulus for i in group)), e.form_id
        if e.form_id == "delta":
            assert sum(len(group) > 1 for group, _ in groups) >= 2
        for ring, got in zip(rings, series):
            where = (e.form_id, ring.describe())
            assert got == expand(e.quotient, 1000, ring), where
            assert {type(c) for c in got.coeffs} == {int}, where


def test_int32_runs_of_the_builtin_plan_match_int64_and_the_brute_oracle(monkeypatch):
    # every sparse product of a verify run over the built-in claims, for
    # every catalog form and ring group the plan makes: the run (int32 where
    # its guard allows) equals the same run forced into int64, and the
    # brute-force oracle reduced mod M, whose coefficient lead + g n is the
    # run's n-th
    runs, current = [], []
    real_rings, real_product = etaquot._expand_rings, etaquot._sparse_product

    def rings_spy(exponents, lead, precisions, rings):
        current[:] = [(exponents, lead)]
        return real_rings(exponents, lead, precisions, rings)

    def product_spy(blocks, terms, precision, modulus):
        acc = real_product(blocks, terms, precision, modulus)
        runs.append((*current, blocks, terms, precision, modulus, acc))
        return acc

    monkeypatch.setattr(etaquot, "_expand_rings", rings_spy)
    monkeypatch.setattr(etaquot, "_sparse_product", product_spy)
    congruence.clear_expansion_cache()
    congruence.verify_claims(builtin_claims())
    congruence.clear_expansion_cache()
    assert len({tuple(sorted(exponents.items())) for (exponents, _), *_ in runs}) == len(catalog())
    assert np.dtype(np.int32) in {acc.dtype for *_, acc in runs}
    monkeypatch.setattr(etaquot, "_INT32_LIMIT", 0)  # every run in int64
    oracle = {}
    for (exponents, lead), blocks, terms, precision, modulus, acc in runs:
        wide = real_product(blocks, terms, precision, modulus)
        assert wide.dtype == np.int64 and np.array_equal(acc, wide), (exponents, modulus)
        key = tuple(sorted(exponents.items()))
        if key not in oracle:
            oracle[key] = brute_eta_expand(exponents, 200).coeffs
        exact = oracle[key][lead :: gcd(*exponents)][: precision + 1]
        assert acc[: len(exact)].tolist() == [c % modulus for c in exact], (exponents, modulus)


def test_expand_mod_primes_matches_the_brute_oracle():
    rings = _mixed_rings()
    for e in catalog():
        exact = brute_eta_expand(dict(e.quotient.factors), 60)
        for ring, got in zip(rings, expand_all(e.quotient, 60, rings)):
            assert got == QSeries(ring, exact.coeffs), (e.form_id, ring.describe())


def test_expand_mod_primes_falls_back_per_prime_on_a_leftover_denominator(monkeypatch):
    # eta(z)^-1 eta(5z)^5: no block covers eta(z)^-1, so each ring of
    # expand_all runs alone, with its own product for the numerator and the
    # denominator and its own Newton inverse
    quotient = EtaQuotient.from_dict({1: -1, 5: 5})
    assert _plan_blocks(dict(quotient.factors))[1] == {1: 1}
    rings = _mixed_rings()
    runs, crt, groups = _record_runs(monkeypatch)
    series = expand_all(quotient, 300, rings)
    assert [group for group, _ in groups] == [[i] for i in range(len(rings))]
    assert [ran_at for ran_at, _, _ in runs] == _expected_moduli(groups, crt, 2)
    assert _int32_exactly_inside_its_guard(runs)
    assert {dtype for _, dtype, _ in runs} == {np.dtype(np.int32), np.dtype(np.int64)}
    assert len(crt) == 2 * 2
    exact = brute_eta_expand({1: -1, 5: 5}, 300)
    for ring, got in zip(rings, series):
        where = ring.describe()
        assert got == expand(quotient, 300, ring), where
        assert got == QSeries(ring, exact.coeffs), where


def test_expand_all_reads_each_ring_to_its_own_precision(monkeypatch):
    # one call with a precision per ring, ZZ and residue rings mixed:
    # each series equals the one-ring expansion at its own precision, and a
    # group's product runs as far as its furthest ring reads and no further
    rings = [ZZ, residue_ring(3), residue_ring(2, 14), residue_ring(3, 5), residue_ring(2, 70),
             residue_ring(691), residue_ring(2, 9), residue_ring(7, 2)]
    precisions = [120, 900, 37, 1, 640, 900, 899, 2]
    reaches, groups = [], []
    real_product, real_groups = etaquot._sparse_product, etaquot._ring_groups

    def product_spy(blocks, terms, precision, modulus):
        reaches.append(precision)
        return real_product(blocks, terms, precision, modulus)

    def groups_spy(*args):
        groups[:] = real_groups(*args)
        return groups

    monkeypatch.setattr(etaquot, "_sparse_product", product_spy)
    monkeypatch.setattr(etaquot, "_ring_groups", groups_spy)
    leftover = EtaQuotient.from_dict({1: -1, 5: 5})
    for quotient in [e.quotient for e in catalog()] + [leftover]:
        reaches.clear()
        series = expand_all(quotient, precisions, rings)
        lead = quotient.exponent_sum // 24
        g = gcd(*(d for d, _ in quotient.factors))
        subs = [(p - lead) // g for p in precisions]
        # the leftover runs every ring alone, numerator and denominator alike
        furthest = {max(subs[i] for i in group) for group, _ in groups}
        assert set(reaches) == furthest and len(furthest) > 2, quotient
        for ring, precision, got in zip(rings, precisions, series):
            where = (quotient.name(), ring.describe(), precision)
            assert got.precision == precision, where
            assert got == expand(quotient, precision, ring), where
            assert {type(c) for c in got.coeffs} == {int}, where
    with pytest.raises(ValueError, match="2 precisions for 3 rings"):
        expand_all(leftover, [10, 20], rings[:3])
    with pytest.raises(ValueError, match="cannot see the leading term"):
        expand_all(leftover, [10, 0], rings[:2])


def test_ring_groups_share_an_lcm_modulus_inside_the_int64_guard():
    # 3 joins 3^5 without growing its modulus; ZZ and 2^70 (too large
    # for the guard) run alone on the exact product (None) and end a run; a
    # ring that would push weight (M - 1) past 2^63 opens a new run; with a
    # leftover denominator every ring runs alone
    rings = [residue_ring(3, 5), residue_ring(3), residue_ring(7, 2), ZZ, residue_ring(5)]
    rings += [residue_ring(2, 70), residue_ring(2, 40), residue_ring(3, 20)]
    assert etaquot._ring_groups(rings, 1000, False) == [
        [[0, 1, 2], 3**5 * 7**2],
        [[3], None],
        [[4], 5],
        [[5], None],
        [[6], 2**40],
        [[7], 3**20],
    ]
    assert 1000 * (2**40 * 3**20 - 1) >= 2**63 > 1000 * (3**20 - 1)
    assert 1000 * (2**70 - 1) >= 2**63
    assert etaquot._ring_groups(rings, 1000, True) == [
        [[i], None if ring.kind != "mod" or i == 5 else ring.modulus] for i, ring in enumerate(rings)
    ]


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
    direct[::2] = expand_euler_part({1: 12}, 40, ZZ).coeffs
    assert expand_euler_part({2: 12}, 80, ZZ) == QSeries(ZZ, direct)
    sub = [0] * 121
    sub[::6] = expand_euler_part({2: 12, 1: -4, 4: -4}, 20, ZZ).coeffs
    assert expand_euler_part({12: 12, 6: -4, 24: -4}, 120, ZZ) == QSeries(ZZ, sub)


def test_eta_power_frobenius_congruence():
    # the delta-dilated euler factor matches the ell-th power mod ell
    for ell in (2, 3, 5):
        for r in (1, 2, 3):
            dilated = expand_euler_part({ell: r}, 100, ZZ)
            powered = expand_euler_part({1: ell * r}, 100, ZZ)
            ring = residue_ring(ell)
            assert QSeries(ring, dilated.coeffs) == QSeries(ring, powered.coeffs), (ell, r)


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
