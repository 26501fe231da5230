"""Slow, independent reference computations used to pin down expected values.

Everything here is deliberately naive (trial division, point counts by brute
enumeration, term-by-term product expansion, Eisenstein coefficients one
sigma at a time) and shares no code with the main expansion, operator or
Eisenstein paths beyond the Bernoulli numbers, which their own tests pin, so
the two routes can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

from .eisenstein import bernoulli
from .qseries import QSeries, Ring, ZZ, residue_ring


def sigma(n: int, nu: int) -> int:
    """Divisor power sum sigma_nu(n) by trial division."""
    if n < 1:
        raise ValueError("sigma is defined for n >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**nu
            e = n // d
            if e != d:
                total += e**nu
        d += 1
    return total


def eisenstein_E2(precision: int, ring: Ring) -> QSeries:
    """Quasi-modular E_2 = 1 - 24 sum sigma_1(n) q^n in the residue ring `ring`."""
    return QSeries(ring, [1] + [-24 * sigma(n, 1) for n in range(1, precision + 1)], precision)


def e2_replacement(ell: int, t: int, precision: int) -> QSeries:
    """A genuinely modular stand-in for E_2 modulo ell^t, in Z/ell^t.

    -(ell - 1) sum_{i<t} ell^i E_j(ell^i z) with j = 2 + phi(ell^t) lives in
    weight j on Gamma_0(ell^(t-1)) and is congruent to E_2 mod ell^t, for
    ell = 3 with t >= 2 and ell = 2 with t >= 4.  E_j(z) = 1 + s sum
    sigma_(j-1)(n) q^n with s = -2j/B_j, which is ell-integral: ell - 1
    divides j, so ell exactly divides the denominator of B_j.
    """
    if not ((ell == 3 and t >= 2) or (ell == 2 and t >= 4)):
        raise ValueError("replacement series exists for ell=3, t>=2 and ell=2, t>=4")
    ring, j = residue_ring(ell, t), 2 + ell ** (t - 1) * (ell - 1)
    s = Fraction(-2 * j) / bernoulli(j)
    s = s.numerator * pow(s.denominator, -1, ring.modulus)

    def e_j(n: int) -> int:
        return s * sigma(n, j - 1) if n else 1

    coeffs = [
        -(ell - 1) * sum(ell**i * e_j(n // ell**i) for i in range(t) if n % ell**i == 0)
        for n in range(precision + 1)
    ]
    return QSeries(ring, coeffs, precision)


@dataclass(frozen=True)
class EllipticCurve:
    """Integral Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def count_points(self, p: int) -> int:
        """Number of points over F_p including the point at infinity."""
        if p == 2:
            count = 1
            for x in range(2):
                for y in range(2):
                    lhs = y * y + self.a1 * x * y + self.a3 * y
                    rhs = x**3 + self.a2 * x * x + self.a4 * x + self.a6
                    if (lhs - rhs) % 2 == 0:
                        count += 1
            return count
        # odd p: complete the square in y; each x contributes 1 + legendre(disc)
        count = 1
        for x in range(p):
            b = self.a1 * x + self.a3
            c = x**3 + self.a2 * x * x + self.a4 * x + self.a6
            disc = (b * b + 4 * c) % p
            count += 1 + _legendre(disc, p)
        return count

    def ap(self, p: int) -> int:
        """Trace of Frobenius a_p = p + 1 - #E(F_p)."""
        return p + 1 - self.count_points(p)


def _legendre(a: int, p: int) -> int:
    """Legendre symbol for odd prime p via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


# The weight-2 newform of level 11 matches the curve below (conductor 11).
CONDUCTOR_11_CURVE = EllipticCurve(0, -1, 1, 0, 0)


def colored_partition_series(precision: int) -> QSeries:
    """Expansion of prod (1-q^n)^2 (1-q^11n)^2 by repeated sparse multiplication."""
    coeffs: List[int] = [1] + [0] * precision
    for period in (1, 11):
        for _ in range(2):
            n = 1
            while period * n <= precision:
                step = period * n
                for i in range(precision, step - 1, -1):
                    coeffs[i] -= coeffs[i - step]
                n += 1
    return QSeries(ZZ, coeffs, precision)


def euler_factor(delta: int, precision: int, ring: Ring) -> QSeries:
    """prod_n (1 - q^(delta n)) as a dense series by Euler's pentagonal number
    theorem: (-1)^k at q^(delta k(3k -+ 1)/2) for k >= 1, and 1 at q^0."""
    coeffs = [1] + [0] * precision
    k = 1
    while delta * k * (3 * k - 1) // 2 <= precision:
        for e in (delta * k * (3 * k - 1) // 2, delta * k * (3 * k + 1) // 2):
            if e <= precision:
                coeffs[e] = (-1) ** k
        k += 1
    return QSeries(ring, coeffs, precision)


def brute_eta_expand(exponents: Dict[int, int], precision: int) -> QSeries:
    """Expand q^(s/24) prod_delta prod_n (1 - q^(delta n))^r_delta the slow way.

    Multiplies the factors (1 - q^(delta n)) in term by term, once per unit of
    positive exponent; negative exponents are handled by `long_division` at
    the end.  Wants 24 | s for an integral leading power.
    """
    s = sum(d * r for d, r in exponents.items())
    if s % 24 != 0:
        raise ValueError("exponent sum not divisible by 24")
    lead = s // 24
    if lead < 0 or lead > precision:
        raise ValueError("leading exponent outside the requested window")
    work = precision - lead

    num = [1] + [0] * work
    den = [1] + [0] * work
    for delta, r in sorted(exponents.items()):
        target = num if r > 0 else den
        for _ in range(abs(r)):
            n = 1
            while delta * n <= work:
                step = delta * n
                for i in range(work, step - 1, -1):
                    target[i] -= target[i - step]
                n += 1
    return QSeries(ZZ, [0] * lead + long_division(num, den), precision)


def long_division(num: List[int], den: List[int]) -> List[int]:
    """num / den to len(num) terms by schoolbook long division; den[0] = 1."""
    quot = list(num)
    for i, c in enumerate(quot):
        if c:
            for j in range(i + 1, len(quot)):
                quot[j] -= c * den[j - i]
    return quot


def primes_up_to(bound: int) -> List[int]:
    """Sieve of Eratosthenes."""
    if bound < 2:
        return []
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= bound:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
        p += 1
    return [n for n in range(2, bound + 1) if flags[n]]


def slow_convolve(a: List[int], b: List[int], limit: int) -> List[int]:
    """Truncated product sum_(i+j=n) a(i) b(j), n <= limit, by the schoolbook double loop."""
    out = [0] * (limit + 1)
    for i, x in enumerate(a[: limit + 1]):
        for j, y in enumerate(b[: limit + 1 - i]):
            out[i + j] += x * y
    return out
