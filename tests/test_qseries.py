"""Ring/series substrate: arithmetic, reduction, precision discipline."""

import random
from fractions import Fraction

import numpy as np
import pytest

from etaq.oracles import slow_convolve
from etaq.qseries import (
    QQ,
    QSeries,
    ZZ,
    first_mismatch,
    powers_mod,
    reduce_mod,
    residue_dtype,
    residue_ring,
)


def geometric(ring, ratio, precision):
    return QSeries(ring, [ratio**n for n in range(precision + 1)])


def test_ring_descriptions():
    assert ZZ.describe() == "ZZ"
    assert QQ.describe() == "QQ"
    assert residue_ring(3, 2).describe() == "Z/3^2"
    assert residue_ring(5).describe() == "Z/5"


def test_residue_ring_validation():
    with pytest.raises(ValueError):
        residue_ring(4)
    with pytest.raises(ValueError):
        residue_ring(3, 0)


def test_addition_and_negation_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        coeffs = [rng.randrange(-50, 50) for _ in range(12)]
        f = QSeries(ZZ, coeffs)
        assert (f + (-f)).is_zero()
        assert f - f == QSeries.zero(ZZ, f.precision)


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
    zero = QSeries.zero(ZZ, 5)
    assert negative * zero == zero and zero * negative == zero
    assert QSeries(ZZ, [-7], 0) * QSeries(ZZ, [6], 0) == QSeries(ZZ, [-42], 0)
    for ring in (ZZ, QQ, residue_ring(2), residue_ring(691)):
        assert (QSeries(ring, [0], 0) * QSeries(ring, [1], 0)).coeffs == (ring.zero(),)
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


def test_kernel_matches_slow_convolution_over_rationals():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randrange(1, 15)
        a = [Fraction(rng.randrange(-50, 50), rng.choice((1, 2, 3, 7, 12, 691))) for _ in range(n)]
        b = [Fraction(rng.randrange(-50, 50), rng.choice((1, 5, 9, 2**40))) for _ in range(n)]
        product = QSeries(QQ, a) * QSeries(QQ, b)
        assert list(product.coeffs) == slow_convolve(a, b, n - 1)
        assert all(type(c) is Fraction for c in product.coeffs)


def test_series_times_its_inverse_is_one():
    rng = random.Random(23)
    for ring in (ZZ, residue_ring(3, 5)):
        for _ in range(5):
            coeffs = [rng.choice((1, -1))] + [rng.randrange(-10**6, 10**6) for _ in range(80)]
            f = QSeries(ring, coeffs)
            assert f * f.inverse() == QSeries.one(ring, 80)
            assert f.inverse() * f == QSeries.one(ring, 80)


def test_residue_multiplication_matches_exact_reduction():
    rng = random.Random(13)
    ring = residue_ring(3, 4)
    for _ in range(20):
        a = [rng.randrange(-500, 500) for _ in range(40)]
        b = [rng.randrange(-500, 500) for _ in range(40)]
        exact = QSeries(ZZ, a) * QSeries(ZZ, b)
        modular = QSeries(ring, a) * QSeries(ring, b)
        assert reduce_mod(exact, 3, 4) == modular


def test_min_precision_rule():
    f = QSeries.one(ZZ, 10)
    g = QSeries.one(ZZ, 4)
    assert (f * g).precision == 4
    assert (f + g).precision == 4


def test_immutability():
    f = QSeries.one(ZZ, 3)
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


def test_inverse_of_geometric_series():
    # 1/(1-q) = 1 + q + q^2 + ...; check in all three ring kinds
    for ring in (ZZ, QQ, residue_ring(5, 2)):
        f = QSeries(ring, [1, -1], precision=30)
        inv = f.inverse()
        assert inv == geometric(ring, 1, 30)


def test_inverse_roundtrips_random_units():
    rng = random.Random(17)
    for _ in range(60):
        coeffs = [1] + [rng.randrange(-9, 10) for _ in range(20)]
        f = QSeries(ZZ, coeffs)
        assert (f * f.inverse()) == QSeries.one(ZZ, 20)
    ring = residue_ring(3, 3)
    for _ in range(60):
        coeffs = [rng.choice([1, 2, 4])] + [rng.randrange(27) for _ in range(20)]
        f = QSeries(ring, coeffs)
        assert (f * f.inverse()) == QSeries.one(ring, 20)
    for _ in range(60):
        coeffs = [Fraction(rng.randrange(1, 9), rng.randrange(1, 9))]
        coeffs += [Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)) for _ in range(15)]
        f = QSeries(QQ, coeffs)
        assert (f * f.inverse()) == QSeries.one(QQ, 15)


def test_inverse_rejects_non_units():
    with pytest.raises(ValueError):
        QSeries(ZZ, [2, 1, 1]).inverse()
    with pytest.raises(ValueError):
        QSeries(residue_ring(3, 2), [3, 1]).inverse()
    with pytest.raises(ValueError):
        QSeries(ZZ, [0, 1]).inverse()


def test_pow_matches_repeated_multiplication():
    f = QSeries(ZZ, [1, 2, -1, 3], precision=12)
    by_hand = QSeries.one(ZZ, 12)
    for _ in range(5):
        by_hand = by_hand * f
    assert f.pow(5) == by_hand
    assert f**5 == by_hand
    assert f.pow(0) == QSeries.one(ZZ, 12)


def test_negative_pow_inverts():
    f = QSeries(ZZ, [1, -1], precision=8)
    assert f.pow(-2) == f.inverse().pow(2)


def test_scale_and_dilate():
    f = QSeries(ZZ, [1, 2, 3], precision=2)
    assert list(f.scale(5).coeffs) == [5, 10, 15]
    d = f.dilate(3, 8)
    assert d.precision == 8
    assert [d[n] for n in range(9)] == [1, 0, 0, 2, 0, 0, 3, 0, 0]


def test_reduce_mod_examples():
    sixth = QSeries(QQ, [Fraction(1, 6)], precision=0)
    assert reduce_mod(sixth, 5, 1)[0] == 1  # 1/6 = 1 mod 5
    third = QSeries(QQ, [Fraction(1, 3)], precision=0)
    with pytest.raises(ValueError, match="not 3-integral"):
        reduce_mod(third, 3, 2)
    with pytest.raises(ValueError):
        reduce_mod(reduce_mod(sixth, 5, 1), 5, 1)  # already reduced


def test_first_mismatch():
    a = QSeries(ZZ, [1, 2, 3, 4])
    b = QSeries(ZZ, [1, 2, 9, 4])
    assert first_mismatch(a, b) == 2
    assert first_mismatch(a, a) is None
    # compares only across the shared trusted range
    c = QSeries(ZZ, [1, 2])
    assert first_mismatch(a, c) is None


def test_distributivity_random():
    rng = random.Random(23)
    ring = residue_ring(7, 2)
    for _ in range(15):
        f = QSeries(ring, [rng.randrange(49) for _ in range(10)])
        g = QSeries(ring, [rng.randrange(49) for _ in range(10)])
        h = QSeries(ring, [rng.randrange(49) for _ in range(10)])
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f


def test_structural_helpers_and_products_stay_canonical():
    # truncate, dilate, sums, differences, negation, scaling,
    # products and inverses skip Ring.normalize (or reduce in bulk); their
    # coefficients must still equal (value and type) the normalized ones
    rng = random.Random(29)
    for ring in (ZZ, QQ, residue_ring(5, 2), residue_ring(2, 70)):
        f = QSeries(ring, [rng.randrange(-99, 99) for _ in range(12)])
        g = QSeries(ring, [rng.randrange(-99, 99) for _ in range(12)])
        unit = QSeries.one(ring, 12) + QSeries(ring, [0, *f.coeffs])
        derived = (f + g, f - g, -f, f.scale(-3), unit.inverse())
        for series in (f * g, f.truncate(5), f.dilate(3, 30)) + derived:
            renormalized = QSeries(ring, series.coeffs, series.precision)
            assert series == renormalized
            assert [type(c) for c in series.coeffs] == [type(c) for c in renormalized.coeffs]


def test_residue_dtype_is_int64_while_a_product_of_two_residues_fits():
    assert residue_dtype(691) == residue_dtype(3**5) == residue_dtype(3037000500) == np.int64
    assert residue_dtype(3037000501) is residue_dtype(3**30) is residue_dtype(2**40) is object


@pytest.mark.parametrize("modulus", [2, 7, 3**5, 691, 3037000500, 3**30, 2**40])
def test_powers_mod_matches_pow(modulus):
    rng = random.Random(modulus)
    values = [rng.randrange(10**6) for _ in range(50)] + [0, 1, modulus - 1]
    base = np.array(values, dtype=residue_dtype(modulus))
    for e in (0, 1, 2, 13, 690):
        assert powers_mod(base, e, modulus).tolist() == [pow(v, e, modulus) for v in values]
    # one modulus per element, as a class table reads them
    moduli = np.array([rng.choice((9, 27, 81)) for _ in values])
    got = powers_mod(np.array(values), 5, moduli).tolist()
    assert got == [pow(v, 5, q) for v, q in zip(values, moduli.tolist())]


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
