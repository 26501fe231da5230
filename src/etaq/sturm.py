"""Sturm-style coefficient bounds: how far two expansions must agree.

If two forms of weight k on Gamma_0(N) (cusp forms, or general holomorphic
forms) agree modulo ell^t on every coefficient up to the bound, they agree
identically mod ell^t.  The bound for cusp forms is
floor(k b / 12 - (b - 1)/N) with b the index of Gamma_0(N); without
cuspidality the -(b-1)/N saving is dropped.  The boundary index itself is
part of the check.
"""

from __future__ import annotations

from fractions import Fraction


def _prime_divisors(n: int) -> list:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def group_index(level: int) -> int:
    """Index of Gamma_0(N) in the full modular group: N prod_{p|N} (1 + 1/p)."""
    if level < 1:
        raise ValueError("level must be positive")
    b = Fraction(level)
    for p in _prime_divisors(level):
        b *= Fraction(p + 1, p)
    assert b.denominator == 1
    return int(b)


def agreement_bound(weight: int, level: int, cuspidal: bool) -> int:
    """Largest coefficient index that must be compared (inclusive)."""
    if weight < 1:
        raise ValueError("weight must be positive")
    b = group_index(level)
    x = Fraction(weight * b, 12)
    if cuspidal:
        x -= Fraction(b - 1, level)
    return x.numerator // x.denominator

