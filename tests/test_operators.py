"""theta, U, twist, and Hecke operators plus the weight bookkeeping."""

from etaq.characters import kronecker_character, trivial_mod
from etaq.etaquot import lookup
from etaq.operators import (
    FormMeta,
    common_space,
    hecke_tn,
    theta,
    theta_mod_rule,
    twist,
    twist_meta,
    twist_theta_factors,
    u_operator,
)
from etaq.qseries import QQ, QSeries, ZZ, first_mismatch, reduce_mod, residue_dtype, residue_ring


def test_theta_multiplies_by_index():
    f = QSeries(ZZ, [7, 1, 1, 1, 1])
    assert list(theta(f).coeffs) == [0, 1, 2, 3, 4]
    assert list(theta(f, 2).coeffs) == [0, 1, 4, 9, 16]
    assert theta(f, 0) is f


def test_theta_is_a_derivation_mod_ell():
    ring = residue_ring(7)
    f = lookup("delta").expand(50, ring)
    g = lookup("eta1^8 eta2^8").expand(50, ring)
    lhs = theta(f * g)
    rhs = theta(f) * g + f * theta(g)
    assert first_mismatch(lhs, rhs) is None


def test_theta_ell_power_collapses_mod_ell():
    # theta^ell = theta on series mod ell (Fermat)
    for ell in (3, 5):
        f = lookup("delta").expand(60, residue_ring(ell))
        assert first_mismatch(theta(f, ell), theta(f, 1)) is None


def test_theta_mod_rule_pinned_examples():
    exact, regime = theta_mod_rule(23, 1, 1, FormMeta(12, 1, trivial_mod(1)))
    assert (exact.weight, exact.level, regime) == (36, 1, "exact")

    power, regime = theta_mod_rule(3, 3, 1, FormMeta(20, 4, trivial_mod(4)))
    assert (power.weight, power.level, regime) == (40, 36, "exact")

    cons, regime = theta_mod_rule(5, 2, 1, FormMeta(4, 5, trivial_mod(5)))
    assert (cons.weight, cons.level, regime) == (46, 125, "conservative")


def test_theta_mod_rule_is_conservative_when_ell_divides_the_level():
    # the t = 1 filtration step is only trusted when ell does not divide N
    meta = FormMeta(6, 3, trivial_mod(3), cuspidal=False)
    image, regime = theta_mod_rule(3, 1, 2, meta)
    assert (image.weight, image.level, image.cuspidal, regime) == (14, 3, True, "conservative")
    _, regime = theta_mod_rule(5, 1, 1, meta)
    assert regime == "exact"


def test_common_space_joins_weight_level_and_cusp_flag():
    a = FormMeta(68, 36, trivial_mod(2))
    b = FormMeta(320, 4, trivial_mod(1), cuspidal=False)
    joint = common_space(a, b)
    assert (joint.weight, joint.level, joint.cuspidal) == (320, 36, False)
    assert common_space(a, a).cuspidal


def test_theta_mod_rule_iterates_with_applications():
    base = FormMeta(12, 1, trivial_mod(1))
    three, regime = theta_mod_rule(23, 1, 3, base)
    assert three.weight == 12 + 3 * 24
    assert regime == "exact"


def test_u_after_v_is_identity():
    f = lookup("delta").expand(60)
    for m in (2, 3, 5):
        assert first_mismatch(u_operator(f.dilate(m, f.precision), m), f.truncate(60 // m)) is None


def test_v_after_u_projects_onto_multiples():
    f = lookup("delta").expand(60)
    image = u_operator(f, 2)
    proj = image.dilate(2, image.precision)
    for n in range(proj.precision + 1):
        assert proj[n] == (f[n] if n % 2 == 0 else 0)


def test_u_distributes_over_dilated_cofactor():
    # (f * g(q^m)) | U_m = (f | U_m) * g
    f = lookup("delta").expand(90)
    g = lookup("eta1^8 eta2^8").expand(30)
    lhs = u_operator(f * g.dilate(3, 90), 3)
    rhs = u_operator(f, 3) * g
    assert first_mismatch(lhs, rhs) is None


def test_twist_by_character():
    chi = kronecker_character(-4)
    f = lookup("delta").expand(12)
    tw = twist(f, chi)
    for n in range(13):
        assert tw[n] == chi(n) * f[n]


def _characters_in_use():
    """Every character the catalog, the built-in claims and the scan candidates build."""
    from etaq.characters import parse_character
    from etaq.claims import builtin_claims
    from etaq.congruence import _candidate_psi
    from etaq.etaquot import catalog

    chars = set()
    for e in catalog():
        chars |= {e.nebentypus, trivial_mod(e.level), *_candidate_psi(e.level)}
    for c in builtin_claims():
        if c.psi:
            one_n = trivial_mod(lookup(c.form).level)
            chars |= {one_n, parse_character(c.psi) * one_n}
        if c.kind == "twist-power":
            chars |= {trivial_mod(c.ell), kronecker_character(c.ell if c.ell % 4 == 1 else -c.ell)}
        for side in (c.lhs or {}, c.rhs or {}):
            if "twist" in side:
                chars.add(parse_character(side["twist"]))
    return chars


def test_twist_reads_chi_from_one_period_for_every_character_in_use():
    chars = _characters_in_use()
    assert len(chars) > 20
    for chi in chars:
        m = chi.modulus
        assert chi.values(3 * m + 1) == [chi(n) for n in range(3 * m + 1)], chi
        f = QSeries(ZZ, [n * n - 7 for n in range(3 * m + 1)])
        assert list(twist(f, chi).coeffs) == [chi(n) * f[n] for n in range(3 * m + 1)], chi


def test_twist_theta_factors_match_the_integer_operators_reduced():
    # chi(n) n^times mod ell^t from one period, against twist and theta over
    # ZZ reduced: as the factor table times a(n), and through the residue
    # operators; some of the periods wrap, some do not, and the moduli 3^30
    # and 2^40 take the object dtype
    moduli = ((2, 1), (3, 1), (2, 14), (5, 2), (691, 1), (3, 30), (2, 40))
    rings = [residue_ring(ell, t) for ell, t in moduli]
    for chi in [None, *_characters_in_use()]:
        precision = 2 * (chi.modulus if chi else 1) + 40
        f = QSeries(ZZ, [(-1) ** n * (n**3 - 7 * n + 5) for n in range(precision + 1)])
        for times in (0, 1, 2, 5):
            exact = theta(f if chi is None else twist(f, chi), times)
            for ring in rings:
                m = ring.modulus
                want = list(reduce_mod(exact, ring.ell, ring.t).coeffs)
                factors = twist_theta_factors(chi, times, m, precision + 1)
                assert factors.dtype == residue_dtype(m), ring
                got = [x * c % m for x, c in zip(factors.tolist(), f.coeffs)]
                assert got == want, (chi, times, ring)
                residue = QSeries(ring, f.coeffs)
                residue = residue if chi is None else twist(residue, chi)
                assert list(theta(residue, times).coeffs) == want, (chi, times, ring)


def test_double_twist_by_quadratic_character_restores_coprime_part():
    chi = kronecker_character(-4)
    f = lookup("delta").expand(30)
    back = twist(twist(f, chi), chi)
    for n in range(31):
        assert back[n] == (f[n] if n % 2 != 0 else 0)


def test_twist_level_bound():
    def twist_level(level, chi):
        return twist_meta(FormMeta(2, level, trivial_mod(1)), chi).level

    assert twist_level(1, trivial_mod(1)) == 1
    assert twist_level(4, trivial_mod(3)) == 36
    assert twist_level(11, trivial_mod(11)) == 121
    assert twist_level(2, kronecker_character(-4)) == 16


def test_twist_meta_updates_level_and_character():
    meta = FormMeta(6, 4, trivial_mod(2))
    chi = kronecker_character(-3)
    out = twist_meta(meta, chi)
    assert out.weight == 6
    assert out.level == 36  # lcm(4, 3^2)
    assert out.cuspidal


def test_hecke_tp_eigenvalue_on_delta():
    f = lookup("delta").expand(100)
    meta = FormMeta(12, 1, trivial_mod(1))
    for p in (2, 3, 5):
        tp = hecke_tn(f, p, meta)
        assert first_mismatch(tp, f.truncate(tp.precision).scale(f[p])) is None


def test_hecke_composition_identities():
    # T_4 = T_2^2 - chi(2) 2^(k-1) and T_6 = T_2 T_3 on a nontrivial level
    e = lookup("eta1^6 eta3^6")
    meta = FormMeta(6, 3, e.nebentypus)
    f = e.expand(360)
    t2 = hecke_tn(f, 2, meta)
    t2t2 = hecke_tn(t2, 2, meta)
    t4 = hecke_tn(f, 4, meta)
    correction = f.truncate(t2t2.precision).scale(e.nebentypus(2) * 2**5)
    assert first_mismatch(t4, t2t2 - correction) is None

    t6 = hecke_tn(f, 6, meta)
    t2t3 = hecke_tn(hecke_tn(f, 3, meta), 2, meta)
    assert first_mismatch(t6, t2t3) is None


def test_hecke_tn_eigenvalues_are_multiplicative():
    f = lookup("delta").expand(210)
    meta = FormMeta(12, 1, trivial_mod(1))
    t6 = hecke_tn(f, 6, meta)
    assert t6[1] == f[6]
    assert f[6] == f[2] * f[3]


def test_reduce_then_theta_commutes_with_theta_then_reduce():
    # a residue series reads n^times mod ell^t from a table of one period;
    # theta over ZZ, the integer formula n^times a(n), reduced is the
    # reference.  The moduli below 401 wrap that table, 691 and 2^70 do not
    moduli = ((2, 1), (2, 70), (3, 2), (3, 5), (5, 1), (5, 2), (23, 1), (691, 1))
    rings = [residue_ring(ell, t) for ell, t in moduli]
    for form_id in ("eta2^12", "delta"):
        f = lookup(form_id).expand(400)
        residues = [lookup(form_id).expand(400, ring) for ring in rings]
        for times in range(1, 14):
            exact = theta(f, times)
            assert list(exact.coeffs) == [n**times * c for n, c in enumerate(f.coeffs)], times
            for ring, g in zip(rings, residues):
                where = (form_id, times, ring.describe())
                assert reduce_mod(exact, ring.ell, ring.t) == theta(g, times), where


def test_operator_outputs_stay_canonical():
    # operators reduce their outputs in bulk instead of through Ring.normalize;
    # values and coefficient types must match a normalizing rebuild
    e = lookup("eta1^4 eta5^4")
    meta = FormMeta(e.weight, e.level, e.nebentypus)
    chi = kronecker_character(-3)
    for ring in (ZZ, QQ, residue_ring(5, 2), residue_ring(2, 70)):
        f = e.expand(120, ring)
        images = (
            theta(f, 3),
            twist(f, chi),
            u_operator(f, 4),
            hecke_tn(f, 3, meta),
            hecke_tn(f, 6, meta),
        )
        for image in images:
            rebuilt = QSeries(ring, image.coeffs, image.precision)
            assert image == rebuilt
            assert [type(c) for c in image.coeffs] == [type(c) for c in rebuilt.coeffs]
