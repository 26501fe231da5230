"""Eisenstein series in Z/ell^t: classical G_k and the level-raising weight-2 series.

Each constructor takes the residue ring it builds in.  Divisor sums are
filled in by one sieve over divisor pairs rather than by factoring, so the
oracle module's trial-division sums stay independent; the sieve adds d^nu
mod ell^t, every power taken at once in a numpy array.  The only
non-integral numbers are the constants -B_k/2k of G_k and (N - 1)/24 of
the weight-2 level-N series.  Each is mapped into the ring once, and one
that is not ell-integral has no image mod ell^t: that is an error.  A
caller that applies theta, which kills a(0), passes constant=False and
never needs it.  The verification engine builds every Eisenstein side this
way, directly in the residue ring Z/ell^t where it compares them; a pad
E_w = 1 mod ell^t is never built (`congruence._side_space`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

import numpy as np

from .qseries import QSeries, Ring, powers_mod, reduce_coefficient


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
    """Array of sigma_nu(n) mod ell^t for n <= precision (entry 0 is 0),
    sieved over the divisor pairs d e = n with d <= e: one slice add per
    d <= sqrt(precision).  The powers are d^nu mod ell^t (dtype
    `ring.dtype`), so an entry is only congruent to sigma_nu(n), below
    d(n) ell^t, which stays inside int64; callers reduce once, when they
    wrap it."""
    n = np.arange(precision + 1, dtype=ring.dtype)
    power = powers_mod(n, nu, ring.modulus)
    table = np.zeros_like(power)
    for d in range(1, isqrt(precision) + 1):
        table[d * d] += power[d]
        # n = d e for each e > d adds both divisors
        table[d * (d + 1) :: d] += power[d] + power[d + 1 : precision // d + 1]
    return table


def eisenstein_G(k: int, precision: int, ring: Ring, constant: bool = True) -> QSeries:
    """G_k = -B_k/2k + sum sigma_{k-1}(n) q^n for even k >= 4; constant=False
    leaves a(0) = 0."""
    if k < 4 or k % 2:
        raise ValueError("G_k needs even weight k >= 4; for weight 2 use eisenstein_E2_level")
    coeffs = _divisor_power_sums(precision, k - 1, ring)
    if constant:
        coeffs[0] = reduce_coefficient(-bernoulli(k) / (2 * k), ring)
    return QSeries._canonical(ring, coeffs % ring.modulus, precision)


def eisenstein_E2_level(n_level: int, precision: int, ring: Ring, constant: bool = True) -> QSeries:
    """The weight-2 level-N form (N E_2(Nz) - E_2(z)) / 24 for N >= 2;
    constant=False leaves a(0) = 0."""
    if n_level < 2:
        raise ValueError("the level-raised weight-2 series needs N >= 2")
    sig = _divisor_power_sums(precision, 1, ring)
    coeffs = sig.copy()
    coeffs[n_level::n_level] -= n_level * sig[1 : precision // n_level + 1]
    if constant:
        coeffs[0] = reduce_coefficient(Fraction(n_level - 1, 24), ring)
    return QSeries._canonical(ring, coeffs % ring.modulus, precision)
