"""Eisenstein series over QQ: classical and level-raising, plus the E_2 stand-in.

All series come back as QSeries over the rationals at the requested
precision; divisor sums are filled in by sieving over divisors rather than
factoring, so the oracle module's trial-division sums stay independent.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .qseries import QQ, QSeries, reduce_mod


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


def _divisor_power_sums(precision: int, nu: int) -> list:
    """Table of sigma_nu(n) for n <= precision, filled by sieving."""
    table = [0] * (precision + 1)
    for d in range(1, precision + 1):
        dp = d**nu
        for n in range(d, precision + 1, d):
            table[n] += dp
    return table


def eisenstein_G(k: int, precision: int) -> QSeries:
    """G_k = -B_k/2k + sum sigma_{k-1}(n) q^n for even k >= 4."""
    if k < 4 or k % 2:
        raise ValueError("G_k needs even weight k >= 4; for weight 2 use eisenstein_E2_level")
    coeffs = _divisor_power_sums(precision, k - 1)
    coeffs[0] = -bernoulli(k) / (2 * k)
    return QSeries(QQ, coeffs, precision)


def eisenstein_E(k: int, precision: int) -> QSeries:
    """Normalized E_k = G_k / (-B_k / 2k), so the constant term is 1."""
    g = eisenstein_G(k, precision)
    return g.scale(Fraction(-2 * k, 1) / bernoulli(k))


def eisenstein_E2(precision: int) -> QSeries:
    """Quasi-modular E_2 = 1 - 24 sum sigma_1(n) q^n."""
    coeffs = [Fraction(-24) * s for s in _divisor_power_sums(precision, 1)]
    coeffs[0] = Fraction(1)
    return QSeries(QQ, coeffs, precision)


def eisenstein_E2_level(n_level: int, precision: int) -> QSeries:
    """The weight-2 level-N form (N E_2(Nz) - E_2(z)) / 24 for N >= 2."""
    if n_level < 2:
        raise ValueError("the level-raised weight-2 series needs N >= 2")
    sig = _divisor_power_sums(precision, 1)
    coeffs: list = [Fraction(n_level - 1, 24)]
    for m in range(1, precision + 1):
        val = sig[m]
        if m % n_level == 0:
            val -= n_level * sig[m // n_level]
        coeffs.append(Fraction(val))
    return QSeries(QQ, coeffs, precision)


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
