"""Ring/series substrate: arithmetic, reduction, precision discipline."""

import random
from fractions import Fraction

import numpy as np
import pytest

from etaq.characters import kronecker_character
from etaq.eisenstein import eisenstein_G
from etaq.etaquot import EtaQuotient, expand, expand_all, lookup
from etaq.operators import theta, u_operator
from etaq.oracles import slow_convolve
from etaq.qseries import (
    QSeries,
    Ring,
    ZZ,
    powers_mod,
    residue_dtype,
    residue_ring,
)


def test_ring_descriptions():
    assert ZZ.describe() == "ZZ"
    assert residue_ring(3, 2).describe() == "Z/3^2"
    assert residue_ring(5).describe() == "Z/5"


def test_residue_ring_validation():
    with pytest.raises(ValueError):
        residue_ring(4)
    with pytest.raises(ValueError):
        residue_ring(3, 0)
    # every series is over ZZ or Z/ell^t: the rationals are no ring kind
    with pytest.raises(ValueError, match="unknown ring kind 'QQ'"):
        Ring("QQ")
    # the base is certified prime by `factor`, trial division to 10^12: a
    # strong pseudoprime to the bases 2..7 is composite, the largest prime
    # below the limit is a base, and past it a base is refused, prime or not
    with pytest.raises(ValueError, match="is not prime"):
        residue_ring(3215031751)
    assert residue_ring(10**12 - 11).modulus == 10**12 - 11
    for big in (3825123056546413051, 2**89 - 1, 10**20 + 39):
        with pytest.raises(ValueError, match=r"residue ring base .* is beyond the limit \|ell\| <= 10\^12"):
            residue_ring(big)
    # a modulus ell^t is at most 2^512: 3^323 < 2^512 < 3^324
    assert residue_ring(2, 512).modulus == 2**512
    assert residue_ring(3, 323).modulus == 3**323
    for ell, t in ((2, 513), (3, 324), (2, 10**7)):
        with pytest.raises(ValueError, match=rf"modulus {ell}\^{t} is beyond the limit ell\^t <= 2\^512"):
            residue_ring(ell, t)


@pytest.mark.parametrize("ring", [ZZ, residue_ring(5), residue_ring(3, 3)])
def test_normalize_accepts_integers_only(ring):
    m = ring.modulus if ring.kind == "mod" else None
    for x in (7, -4, 2**80, np.int64(-9), np.int32(12), np.uint8(200)):
        assert ring.normalize(x) == (int(x) % m if m else int(x))
        assert type(ring.normalize(x)) is int
    # a float or a fraction is refused, never truncated
    for x in (1.5, 2.0, np.float64(3.0), Fraction(1, 2), Fraction(4), "3", None):
        with pytest.raises(ValueError, match="is not an integer"):
            ring.normalize(x)
    with pytest.raises(ValueError, match="is not an integer"):
        QSeries(ring, [1.5, 2.7])


def test_multiplication_matches_slow_convolution():
    rng = random.Random(11)
    for _ in range(20):
        a = [rng.randrange(-30, 30) for _ in range(16)]
        b = [rng.randrange(-30, 30) for _ in range(16)]
        fast = QSeries(ZZ, a) * QSeries(ZZ, b)
        assert list(fast.coeffs) == slow_convolve(a, b, 15)


def test_kernel_matches_slow_convolution_on_wide_signed_integers():
    # slots hold max|a| * max|b| * length plus a sign bit; +-(2^k - 1) and -2^k
    # sit exactly at a slot boundary of the packed operands
    rng = random.Random(17)
    edges = [s * (2**k - 1) for k in (1, 7, 8, 63, 64, 200, 201) for s in (1, -1)]
    edges += [-(2**k) for k in (7, 8, 64, 200)]
    for _ in range(30):
        n = rng.randrange(1, 25)
        a = [rng.choice(edges) if rng.random() < 0.5 else rng.randrange(-(2**210), 2**210) for _ in range(n)]
        b = [rng.choice(edges) for _ in range(n)]
        assert list((QSeries(ZZ, a) * QSeries(ZZ, b)).coeffs) == slow_convolve(a, b, n - 1)
    # 15 terms of +-(2^k - 1) with 2k + 4 a multiple of 8 fill the top slot
    # c(14) to within its sign bit, so a slot one bit narrower would wrap
    for k in (2, 98, 202):
        top = [2**k - 1] * 15
        bottom = [-c for c in top]
        for a, b in ((top, top), (top, bottom), (bottom, bottom)):
            assert list((QSeries(ZZ, a) * QSeries(ZZ, b)).coeffs) == slow_convolve(a, b, 14)
    low = [-(2**200)] * 9
    assert list((QSeries(ZZ, low) * QSeries(ZZ, low)).coeffs) == slow_convolve(low, low, 8)


def test_kernel_edge_operands():
    negative = QSeries(ZZ, [-3, -1, -4, -1, -5, -9])
    assert list((negative * negative).coeffs) == slow_convolve(negative.coeffs, negative.coeffs, 5)
    assert list((negative * QSeries(ZZ, [-2, -7])).coeffs) == slow_convolve(
        negative.coeffs, [-2, -7], 1
    )
    zero = QSeries(ZZ, [0], 5)
    assert negative * zero == zero and zero * negative == zero
    assert QSeries(ZZ, [-7], 0) * QSeries(ZZ, [6], 0) == QSeries(ZZ, [-42], 0)
    for ring in (ZZ, residue_ring(2), residue_ring(691)):
        assert (QSeries(ring, [0], 0) * QSeries(ring, [1], 0)).coeffs == (0,)
    # unequal precision: the product keeps the smaller one
    long = QSeries(ZZ, list(range(-20, 20)))
    short = QSeries(ZZ, [5, -1, 2], precision=6)
    product = long * short
    assert product.precision == 6
    assert list(product.coeffs) == slow_convolve(list(long.coeffs), [5, -1, 2, 0, 0, 0, 0], 6)
    assert short * long == product


@pytest.mark.parametrize("ell, t", [(2, 1), (2, 7), (691, 1), (2, 70)])
def test_kernel_matches_slow_convolution_in_residue_rings(ell, t):
    # 2^70 residues need slots wider than 64 bits
    rng = random.Random(ell * 100 + t)
    ring = residue_ring(ell, t)
    m = ring.modulus
    for n in (1, 2, 17, 60):
        a = [rng.randrange(m) for _ in range(n)]
        b = [rng.choice((0, 1, m - 1, rng.randrange(m))) for _ in range(n)]
        product = QSeries(ring, a) * QSeries(ring, b)
        assert list(product.coeffs) == [c % m for c in slow_convolve(a, b, n - 1)]
        assert all(type(c) is int and 0 <= c < m for c in product.coeffs)


def test_residue_multiplication_matches_exact_reduction():
    rng = random.Random(13)
    ring = residue_ring(3, 4)
    for _ in range(20):
        a = [rng.randrange(-500, 500) for _ in range(40)]
        b = [rng.randrange(-500, 500) for _ in range(40)]
        exact = QSeries(ZZ, a) * QSeries(ZZ, b)
        modular = QSeries(ring, a) * QSeries(ring, b)
        assert QSeries(ring, exact.coeffs) == modular


def test_min_precision_rule():
    f = QSeries(ZZ, [1], 10)
    g = QSeries(ZZ, [1], 4)
    assert (f * g).precision == 4


def test_immutability():
    f = QSeries(ZZ, [1], 3)
    with pytest.raises(AttributeError):
        f.precision = 7
    with pytest.raises(TypeError):
        f.coeffs[0] = 2


def test_getitem_bounds():
    f = QSeries(ZZ, [1, 2, 3])
    assert f[2] == 3
    with pytest.raises(IndexError):
        f[3]


def test_coefficients_canonicalized_in_residue_rings():
    ring = residue_ring(7)
    f = QSeries(ring, [-1, 8, 13])
    assert list(f.coeffs) == [6, 1, 6]
    # a constant is a one-coefficient build, padded with zeros to its precision
    assert QSeries(residue_ring(3, 3), [30], 2).coeffs == (3, 0, 0)
    assert QSeries(residue_ring(3, 3), [-1], 2).coeffs == (26, 0, 0)
    assert QSeries(residue_ring(2, 70), [-(2**75)], 40) == QSeries(residue_ring(2, 70), [0] * 41)


def test_distributivity_random():
    rng = random.Random(23)
    ring = residue_ring(7, 2)
    for _ in range(15):
        f = QSeries(ring, [rng.randrange(49) for _ in range(10)])
        g = QSeries(ring, [rng.randrange(49) for _ in range(10)])
        h = QSeries(ring, [rng.randrange(49) for _ in range(10)])
        # sums are numpy on the residues, reduced by the normalizing build
        g_plus_h = QSeries(ring, g.residues() + h.residues())
        assert f * g_plus_h == QSeries(ring, (f * g).residues() + (f * h).residues())
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f


def test_structural_helpers_and_products_stay_canonical():
    # truncate and products skip Ring.normalize (or reduce in bulk); their
    # coefficients, and a scaling's, must still equal (value and type) the
    # normalized ones
    rng = random.Random(29)
    for ring in (ZZ, residue_ring(5, 2), residue_ring(2, 70)):
        f = QSeries(ring, [rng.randrange(-99, 99) for _ in range(12)])
        g = QSeries(ring, [rng.randrange(-99, 99) for _ in range(12)])
        for series in (f * g, f.truncate(5), QSeries(f.ring, [-3 * a for a in f.coeffs])):
            renormalized = QSeries(ring, series.coeffs, series.precision)
            assert series == renormalized
            assert [type(c) for c in series.coeffs] == [type(c) for c in renormalized.coeffs]


def test_residue_dtype_is_int64_while_a_product_of_two_residues_fits():
    assert residue_dtype(691) == residue_dtype(3**5) == residue_dtype(3037000500) == np.int64
    assert residue_dtype(3037000501) is residue_dtype(3**30) is residue_dtype(2**40) is object


@pytest.mark.parametrize("modulus", [2, 7, 3**5, 691, 3037000500, 3**30, 2**40, 2**70])
def test_powers_mod_matches_pow(modulus):
    rng = random.Random(modulus)
    values = [rng.randrange(10**6) for _ in range(50)] + [0, 1, modulus - 1]
    base = np.array(values, dtype=residue_dtype(modulus))
    for e in (0, 1, 2, 13, 690, np.int64(13)):
        want = [pow(v, int(e), modulus) for v in values]
        # one exponent multiplies at its set bits, an array of it picks them per entry
        assert powers_mod(base, e, modulus).tolist() == want, e
        assert powers_mod(base, np.full(len(values), e), modulus).tolist() == want, e
    # one modulus per element, as a class table reads them
    moduli = np.array([rng.choice((9, 27, 81)) for _ in values])
    got = powers_mod(np.array(values), 5, moduli).tolist()
    assert got == [pow(v, 5, q) for v, q in zip(values, moduli.tolist())]
    # one exponent per element, as the scan's two-exponent filter powers p^m
    exponents = np.array([0] + [rng.randrange(10**6) for _ in values[1:]])
    got = powers_mod(base[:1], exponents, modulus).tolist()
    assert got == [pow(values[0], e, modulus) for e in exponents.tolist()]


def test_a_series_made_from_an_array_keeps_it_and_reads_it_as_python_numbers():
    ring = residue_ring(3, 30)
    values = [random.Random(n).randrange(ring.modulus) for n in range(12)]
    for dtype, r in ((np.int64, residue_ring(691)), (object, ring)):
        residues = [v % r.modulus for v in values]
        array = np.array(residues, dtype=dtype)
        series = QSeries._canonical(r, array, 11)
        assert series.residues() is array and not array.flags.writeable
        assert series.coeffs == tuple(residues) and {type(c) for c in series.coeffs} == {int}
        plain = QSeries(r, residues)
        assert series == plain and hash(series) == hash(plain)
        assert plain.residues().tolist() == residues and plain.residues().dtype == dtype
        low = series.truncate(5)
        assert low.residues().base is array and low == plain.truncate(5)
    assert QSeries(ZZ, [2**70, -1]).residues().tolist() == [2**70, -1]
    # every path stores one read-only array of dtype ring.dtype, read back as Python ints
    leftover = EtaQuotient.from_dict({1: -1, 5: 5})
    chi = kronecker_character(-4)
    for ring in (ZZ, residue_ring(691), residue_ring(2, 70)):
        f = QSeries(ring, [v * (-1) ** n for n, v in enumerate(values)])
        g = expand(lookup("delta").quotient, 11, ring)
        made = [f, g, *expand_all(leftover, [11, 7], [ring, ring])]
        made += [theta(g, 3), theta(g, 1, chi), u_operator(g, 2), g.truncate(4)]
        made.append(f * g)
        if ring != ZZ:
            made.append(eisenstein_G(12, 11, ring, constant=False))
        for series in made:
            array = series.residues()
            assert not array.flags.writeable and array.dtype == ring.dtype, (ring, series)
            assert {type(c) for c in series.coeffs} == {int}, (ring, series)
