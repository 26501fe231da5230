"""Sturm-style coefficient bounds: how far two expansions must agree.

If two forms of weight k on Gamma_0(N) (cusp forms, or general holomorphic
forms) agree modulo ell^t on every coefficient up to the bound, they agree
identically mod ell^t.  The bound for cusp forms is
floor(k b / 12 - (b - 1)/N) with b the index of Gamma_0(N); without
cuspidality the -(b-1)/N saving is dropped.  The boundary index itself is
part of the check.  Both are integer formulas, over the factorization
`characters.factor` gives, so a level past its 10^12 limit is refused.
"""

from __future__ import annotations

from math import prod

from .characters import factor


def group_index(level: int) -> int:
    """Index of Gamma_0(N) in the full modular group: prod_{p^e || N} p^(e-1) (p + 1)."""
    if level < 1:
        raise ValueError("level must be positive")
    return prod(p ** (e - 1) * (p + 1) for p, e in factor(level, "level", "N").items())


def agreement_bound(weight: int, level: int, cuspidal: bool) -> int:
    """Largest coefficient index that must be compared (inclusive):
    floor((k b N - 12 (b - 1) [cuspidal]) / 12 N)."""
    if weight < 1:
        raise ValueError("weight must be positive")
    b = group_index(level)
    return (weight * b * level - 12 * (b - 1) * cuspidal) // (12 * level)
