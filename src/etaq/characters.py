"""Real Dirichlet characters: Kronecker symbols times trivial characters.

Every character we need factors as (the trivial character modulo M) times
(the Kronecker symbol of a discriminant d), so a character is stored
symbolically as that pair plus its effective modulus.  Evaluation is exact
integer arithmetic throughout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, lcm
from typing import List


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for all integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if a % 8 in (3, 5):
                result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# _squarefree_part factors by trial division up to sqrt|d|, which stays
# within 10^6 steps for |d| up to this bound; a larger d is refused.
_DISC_LIMIT = 10**12


def _squarefree_part(d: int) -> tuple[int, int]:
    """Write d = e * c^2 with e squarefree (sign kept on e); returns (e, c)."""
    if d == 0:
        raise ValueError("discriminant 0 has no squarefree part")
    if abs(d) > _DISC_LIMIT:
        raise ValueError(f"discriminant {d} is beyond the limit |d| <= 10^12")
    sign = -1 if d < 0 else 1
    d = abs(d)
    e, c = 1, 1
    p = 2
    while p * p <= d:
        k = 0
        while d % p == 0:
            d //= p
            k += 1
        c *= p ** (k // 2)
        if k % 2:
            e *= p
        p += 1 if p == 2 else 2
    return sign * e * d, c


def _conductor_of_disc(e: int) -> int:
    """Modulus on which the Kronecker symbol of squarefree e is periodic."""
    if e == 1:
        return 1
    return abs(e) if e % 4 == 1 else 4 * abs(e)


@dataclass(frozen=True)
class Character:
    """Trivial character mod `trivial_part` times the Kronecker symbol of `disc`."""

    trivial_part: int
    disc: int

    def __post_init__(self) -> None:
        if self.trivial_part < 1:
            raise ValueError("trivial part must be a positive modulus")
        e, _ = _squarefree_part(self.disc)
        if e != self.disc:
            raise ValueError(f"discriminant {self.disc} is not squarefree; reduce it first")
        if self.trivial_part % 2 and self.disc % 4 == 3:
            # (d/2) = +-1 for odd d, so chi(2^v n) would depend on v: no period
            raise ValueError(f"{self!r} is not a Dirichlet character; use kron({4 * self.disc})")

    @property
    def modulus(self) -> int:
        return lcm(self.trivial_part, _conductor_of_disc(self.disc))

    def __call__(self, n: int) -> int:
        if gcd(n, self.trivial_part) > 1:
            return 0
        return kronecker(self.disc, n)

    def values(self, count: int) -> List[int]:
        """[chi(0), ..., chi(count - 1)], read from one period."""
        m = self.modulus
        period = [self(n) for n in range(m)]
        return (period * (count // m + 1))[:count]

    def __mul__(self, other: "Character") -> "Character":
        e, c = _squarefree_part(self.disc * other.disc)
        m = lcm(self.trivial_part, other.trivial_part)
        if c > 1:
            # the square part survives only as a trivial-character factor
            m = lcm(m, c)
        return Character(m, e)

    def describe(self) -> str:
        parts = []
        if self.disc == 1 or self.trivial_part > 1:
            parts.append(f"1_{self.trivial_part}")
        if self.disc != 1:
            parts.append(f"kron({self.disc})")
        return " * ".join(parts)

    def __repr__(self) -> str:
        return f"Character({self.describe()})"


TRIVIAL = Character(1, 1)

_TOKEN = re.compile(r"^(?:1_(\d+)|kron\((-?\d+)\))$")


def trivial_mod(m: int) -> Character:
    return Character(m, 1)


def kronecker_character(d: int) -> Character:
    """The Kronecker symbol of d as a character (square part folded in)."""
    e, c = _squarefree_part(d)
    return Character(c if c > 1 else 1, e)


def parse_character(text: str) -> Character:
    """Parse strings like "1_12", "kron(-3)", or "1_2 * kron(-3)"."""
    chi = TRIVIAL
    # trivial parts first: each kron(d) then joins them, so "1_2 * kron(3)"
    # (the symbol of 12) is a character and kron(3) alone is not
    for token in sorted((raw.strip() for raw in str(text).split("*")), key=lambda tok: "(" in tok):
        m = _TOKEN.match(token)
        if not m:
            raise ValueError(f"bad character token {token!r}")
        if m.group(1) is not None:
            chi = chi * trivial_mod(int(m.group(1)))
        else:
            e, c = _squarefree_part(int(m.group(2)))
            chi = chi * Character(lcm(chi.trivial_part, c), e)
    return chi
