"""Coefficient operators on q-expansions and their weight/level bookkeeping.

The series-level maps (theta, U_m, twisting, Hecke) act coefficient by
coefficient.  Alongside them, `FormMeta` tracks the space a form lives in:
`twist_meta` follows a twist, `theta_mod_rule` says where a theta image
lives modulo ell^t (distinguishing the regimes where the filtration step is
exactly understood from the conservative fallback), and `common_space`
joins two sides into the space where they are compared.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd, lcm
from typing import Optional, Tuple

import numpy as np

from .characters import Character
from .qseries import QSeries, powers_mod, residue_dtype


@dataclass(frozen=True)
class FormMeta:
    """Weight, level, nebentypus, and cuspidality tag for a tracked form."""

    weight: int
    level: int
    nebentypus: Character
    cuspidal: bool = True


def theta(series: QSeries, times: int = 1) -> QSeries:
    """Apply the q d/dq operator `times` times: a(n) -> n^times a(n)."""
    if times < 0:
        raise ValueError("theta cannot be un-applied")
    if times == 0:
        return series
    if series.ring.kind == "mod":
        return _twist_theta(series, None, times)
    coeffs = [n**times * c for n, c in enumerate(series.coeffs)]
    return QSeries._reduced(series.ring, coeffs, series.precision)


def theta_mod_rule(ell: int, t: int, applications: int, meta: FormMeta) -> Tuple[FormMeta, str]:
    """Where theta^applications of a form in M_k(N) lands mod ell^t (a cusp
    form), and how rigorously that is known: "exact" or "conservative".

    Three regimes:
      * t = 1: classical filtration, weight steps by ell + 1, level unchanged;
        conservative when ell divides the level, where the theta-image
        spaces are not fully understood.
      * ell = 3, t >= 2 or ell = 2, t >= 4: weight steps by 2 + phi(ell^t)
        and the level picks up one factor ell^(t-1).
      * otherwise: conservative - weight steps by 2 + 2 ell^(t-1)(ell - 1)
        and the level picks up one factor ell^t.
    """
    if applications < 1:
        raise ValueError("need at least one application")
    k, n_level = meta.weight, meta.level
    if t == 1:
        regime = "conservative" if n_level % ell == 0 else "exact"
        step, level = ell + 1, n_level
    elif (ell == 3 and t >= 2) or (ell == 2 and t >= 4):
        step, level, regime = 2 + ell ** (t - 1) * (ell - 1), n_level * ell ** (t - 1), "exact"
    else:
        step, level, regime = 2 + 2 * ell ** (t - 1) * (ell - 1), n_level * ell**t, "conservative"
    return replace(meta, weight=k + applications * step, level=level, cuspidal=True), regime


def u_operator(series: QSeries, m: int) -> QSeries:
    """U_m picks every m-th coefficient: sum a(mn) q^n, precision P // m."""
    if m < 1:
        raise ValueError("U_m needs m >= 1")
    p = series.precision // m
    return QSeries._canonical(series.ring, series.coeffs[: m * p + 1 : m], p)


def twist(series: QSeries, chi: Character) -> QSeries:
    """Coefficient twist a(n) -> chi(n) a(n)."""
    if series.ring.kind == "mod":
        return _twist_theta(series, chi, 0)
    coeffs = [v * c for v, c in zip(chi.values(series.precision + 1), series.coeffs)]
    return QSeries._reduced(series.ring, coeffs, series.precision)


def twist_theta_factors(chi: Optional[Character], times: int, modulus: int, count: int) -> np.ndarray:
    """The factors chi(n) n^times mod `modulus` for n < count (no twist when
    chi is None), as an array of dtype `residue_dtype(modulus)`: theta^times
    of a twist multiplies coefficient n by the n-th.  The factor depends on
    n mod lcm(modulus of chi, modulus) only (on n mod the modulus of chi
    when times = 0), so one period is powered and repeated."""
    chi_period = chi.modulus if chi is not None else 1
    size = min(lcm(chi_period, modulus) if times else chi_period, count)
    factors = powers_mod(np.arange(size, dtype=residue_dtype(modulus)), times, modulus)
    if chi is not None:
        factors = np.array(chi.values(size)) * factors % modulus
    return factors if size == count else np.tile(factors, -(-count // size))[:count]


def _twist_theta(series: QSeries, chi: Optional[Character], times: int) -> QSeries:
    """theta^times of the twist by chi of a series over Z/ell^t."""
    m = series.ring.modulus
    factors = twist_theta_factors(chi, times, m, series.precision + 1)
    return QSeries._canonical(series.ring, series.residues() * factors % m, series.precision)


def twist_meta(meta: FormMeta, chi: Character) -> FormMeta:
    """Metadata after twisting: the level grows to the safe lcm(N, modulus(chi)^2),
    the nebentypus picks up chi^2."""
    return replace(
        meta,
        level=lcm(meta.level, chi.modulus**2),
        nebentypus=meta.nebentypus * chi * chi,
    )


def common_space(a: FormMeta, b: FormMeta) -> FormMeta:
    """Where two tracked forms are compared: the larger weight, the lcm of the
    levels, cuspidal only if both are.  The agreement bound reads no character."""
    both = a.cuspidal and b.cuspidal
    return replace(a, weight=max(a.weight, b.weight), level=lcm(a.level, b.level), cuspidal=both)


def hecke_tn(series: QSeries, n: int, meta: FormMeta) -> QSeries:
    """General Hecke operator T_n via b(m) = sum_{d | (m,n)} chi(d) d^(k-1) a(mn/d^2)."""
    if n < 1:
        raise ValueError("T_n needs n >= 1")
    out_p = series.precision // n
    chi, k = meta.nebentypus, meta.weight
    coeffs = []
    for m in range(out_p + 1):
        total = 0
        g = gcd(m, n)
        for d in range(1, g + 1):
            if g % d == 0:
                cd = chi(d)
                if cd:
                    total += cd * d ** (k - 1) * series.coeffs[m * n // (d * d)]
        coeffs.append(total)
    return QSeries._reduced(series.ring, coeffs, out_p)
