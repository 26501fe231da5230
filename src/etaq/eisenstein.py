"""Eisenstein series in Z/ell^t: the classical G_k for every even k >= 2.

`eisenstein_G` takes the residue ring it builds in.  Divisor sums are
filled in by one sieve over divisor pairs rather than by factoring, so the
oracle module's trial-division sums stay independent; the sieve adds d^nu
mod ell^t, every power taken at once in a numpy array.  The only
non-integral number is the constant -B_k/2k.  It is mapped into the ring
once, and one that is not ell-integral has no image mod ell^t: that is an
error.  Theta, and a twist by a character with chi(0) = 0, kill a(0), so
a caller that applies one passes constant=False and never needs it.  G_2 =
-E_2/24 is not modular, but such a twist of it is, and the engine builds
it only twisted so (`congruence._side_space`): G_2 twisted by psi 1_N is
the weight-2 kernel of a level-N two-exponent claim.  The engine builds
every Eisenstein side here, in the ring Z/ell^t where it compares; a pad
E_w = 1 mod ell^t is never built.
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
    """G_k = -B_k/2k + sum sigma_{k-1}(n) q^n for even k >= 2; constant=False
    leaves a(0) = 0."""
    if k < 2 or k % 2:
        raise ValueError("G_k needs even weight k >= 2")
    coeffs = _divisor_power_sums(precision, k - 1, ring)
    if constant:
        coeffs[0] = reduce_coefficient(-bernoulli(k) / (2 * k), ring)
    return QSeries._canonical(ring, coeffs % ring.modulus, precision)

