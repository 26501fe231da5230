"""Eisenstein series over QQ, ZZ or Z/ell^t: classical and level-raising, plus the E_2 stand-in.

Each constructor takes its coefficient ring the way `etaquot.expand` does,
with the rationals as the default.  Divisor sums are filled in by one sieve
over divisor pairs rather than by factoring, so the oracle module's
trial-division sums stay independent; in Z/ell^t the sieve adds d^nu mod
ell^t, every power taken at once in a numpy array.  The only non-integral
numbers are the constant -B_k/2k of G_k, the constant (N - 1)/24 of the
weight-2 level-N series and the normalizer -2k/B_k of E_k.  Each is mapped into the ring once, and one that
is not ell-integral has no image mod ell^t: that is an error.  A caller that
applies theta, which kills a(0), passes constant=False and never needs it.
The verification engine builds every Eisenstein side and pad this way,
directly in the residue ring Z/ell^t where it compares them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

import numpy as np

from .qseries import QQ, QSeries, Ring, powers_mod, reduce_coefficient, reduce_mod, residue_dtype


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k with B_1 = -1/2, by the defining recurrence."""
    if k < 0:
        raise ValueError("Bernoulli numbers need k >= 0")
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(-1, 2)
    if k % 2 == 1:
        return Fraction(0)
    # sum_{j=0}^{k} C(k+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(k):
        acc += comb(k + 1, j) * bernoulli(j)
    return -acc / (k + 1)


def _divisor_power_sums(precision: int, nu: int, ring: Ring) -> np.ndarray:
    """Array of sigma_nu(n) for n <= precision (entry 0 is 0), sieved over the
    divisor pairs d e = n with d <= e: one slice add per d <= sqrt(precision).
    In a residue ring the powers are d^nu mod ell^t (dtype `residue_dtype`),
    so an entry is only congruent to sigma_nu(n), below d(n) ell^t, which
    stays inside int64; callers reduce once, when they wrap it.  Over ZZ and
    QQ the entries are Python integers."""
    modulus = ring.modulus if ring.kind == "mod" else None
    n = np.arange(precision + 1, dtype=residue_dtype(modulus) if modulus else object)
    power = powers_mod(n, nu, modulus) if modulus else n**nu
    table = np.zeros_like(power)
    for d in range(1, isqrt(precision) + 1):
        table[d * d] += power[d]
        # n = d e for each e > d adds both divisors
        table[d * (d + 1) :: d] += power[d] + power[d + 1 : precision // d + 1]
    return table


def _series(ring: Ring, coeffs: np.ndarray, precision: int) -> QSeries:
    """Wrap a table of ring arithmetic results, reduced in bulk."""
    if ring.kind == "mod":
        return QSeries._canonical(ring, coeffs % ring.modulus, precision)
    return QSeries._reduced(ring, coeffs.tolist(), precision)


def _coefficient(value: Fraction, n: int, ring: Ring):
    """The rational coefficient a(n) = value as an element of `ring`."""
    return reduce_coefficient(value, ring, n) if ring.kind == "mod" else ring.normalize(value)


def eisenstein_G(k: int, precision: int, ring: Ring = QQ, constant: bool = True) -> QSeries:
    """G_k = -B_k/2k + sum sigma_{k-1}(n) q^n for even k >= 4; constant=False
    leaves a(0) = 0."""
    if k < 4 or k % 2:
        raise ValueError("G_k needs even weight k >= 4; for weight 2 use eisenstein_E2_level")
    coeffs = _divisor_power_sums(precision, k - 1, ring)
    if constant:
        coeffs[0] = _coefficient(-bernoulli(k) / (2 * k), 0, ring)
    return _series(ring, coeffs, precision)


def eisenstein_E(k: int, precision: int, ring: Ring = QQ) -> QSeries:
    """Normalized E_k = G_k / (-B_k / 2k), so the constant term is 1."""
    series = eisenstein_G(k, precision, ring, constant=False)
    scale = _coefficient(Fraction(-2 * k) / bernoulli(k), 1, ring)
    return series.scale(scale) + QSeries.one(ring, precision)


def eisenstein_E2(precision: int) -> QSeries:
    """Quasi-modular E_2 = 1 - 24 sum sigma_1(n) q^n."""
    coeffs = [Fraction(-24) * s for s in _divisor_power_sums(precision, 1, QQ).tolist()]
    coeffs[0] = Fraction(1)
    return QSeries(QQ, coeffs, precision)


def eisenstein_E2_level(
    n_level: int, precision: int, ring: Ring = QQ, constant: bool = True
) -> QSeries:
    """The weight-2 level-N form (N E_2(Nz) - E_2(z)) / 24 for N >= 2;
    constant=False leaves a(0) = 0."""
    if n_level < 2:
        raise ValueError("the level-raised weight-2 series needs N >= 2")
    sig = _divisor_power_sums(precision, 1, ring)
    coeffs = sig.copy()
    coeffs[n_level::n_level] -= n_level * sig[1 : precision // n_level + 1]
    if constant:
        coeffs[0] = _coefficient(Fraction(n_level - 1, 24), 0, ring)
    return _series(ring, coeffs, precision)


def e2_replacement(ell: int, t: int, precision: int) -> QSeries:
    """A genuinely modular stand-in for E_2 modulo ell^t.

    Returns -(ell-1) sum_{i<t} ell^i E_j(ell^i z) with j = 2 + phi(ell^t),
    which lives in weight j on Gamma_0(ell^(t-1)) and is congruent to E_2
    mod ell^t.  Available for ell = 3 with t >= 2 and ell = 2 with t >= 4.
    """
    if not ((ell == 3 and t >= 2) or (ell == 2 and t >= 4)):
        raise ValueError("replacement series exists for ell=3, t>=2 and ell=2, t>=4")
    j = 2 + ell ** (t - 1) * (ell - 1)
    ej = eisenstein_E(j, precision)
    acc = QSeries.zero(QQ, precision)
    for i in range(t):
        acc = acc + ej.dilate(ell**i, precision).scale(ell**i)
    series = acc.scale(-(ell - 1))
    # construction-time sanity: must agree with E_2 mod ell^t as far as we look
    if reduce_mod(series, ell, t) != reduce_mod(eisenstein_E2(precision), ell, t):
        raise AssertionError(f"replacement series drifted from E_2 mod {ell}^{t}")
    return series
