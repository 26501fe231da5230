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
from math import isqrt

import numpy as np

from .qseries import QSeries, Ring, powers_mod, reduce_coefficient


# The largest weight whose constant term -B_k/2k `eisenstein_G` computes:
# B_2000 takes about 0.5 s (2-core Xeon), and the passes grow as k^2.
CONSTANT_WEIGHT_LIMIT = 2000


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k with B_1 = -1/2.  An even k = 2n > 0 reads the
    tangent number T_n (tan x = sum T_j x^(2j-1)/(2j-1)!), built by n(n-1)/2
    exact integer passes (Brent and Harvey, 2013, TangentNumbers):
    B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1))."""
    if k < 0:
        raise ValueError("Bernoulli numbers need k >= 0")
    if k < 2:
        return Fraction(1) if k == 0 else Fraction(-1, 2)
    if k % 2:
        return Fraction(0)
    n = k // 2
    tangent = [0, 1] + [0] * (n - 1)  # T_1 .. T_n at indices 1 .. n
    for j in range(2, n + 1):
        tangent[j] = (j - 1) * tangent[j - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            tangent[j] = (j - i) * tangent[j - 1] + (j - i + 2) * tangent[j]
    return Fraction((-1) ** (n - 1) * k * tangent[n], 4**n * (4**n - 1))


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
    leaves a(0) = 0.  A constant past CONSTANT_WEIGHT_LIMIT is refused."""
    if k < 2 or k % 2:
        raise ValueError("G_k needs even weight k >= 2")
    if constant and k > CONSTANT_WEIGHT_LIMIT:
        raise ValueError(f"the constant term of G_{k} is beyond the limit k <= {CONSTANT_WEIGHT_LIMIT}")
    coeffs = _divisor_power_sums(precision, k - 1, ring)
    if constant:
        coeffs[0] = reduce_coefficient(-bernoulli(k) / (2 * k), ring)
    return QSeries._canonical(ring, coeffs % ring.modulus, precision)

