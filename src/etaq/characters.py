"""Real Dirichlet characters: Kronecker symbols times trivial characters.

Every character we need factors as (the trivial character modulo M) times
(the Kronecker symbol of a discriminant d), so a character is stored
symbolically as that pair plus its effective modulus.  Evaluation is exact
integer arithmetic throughout.  `factor`, trial division refused past
|n| = 10^12, is the engine's one factorizer: of discriminants, and of levels
for `sturm`.  `check_modulus` beside it bounds a residue ring's or a claim's
modulus ell^t.  A product of characters factors nothing (see `__mul__`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, lcm, log10
from typing import Dict, List


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


_FACTOR_LIMIT = 10**12  # trial division to sqrt|n| stays within 10^6 steps


def _shown(n: int) -> str:
    """n, or its digit count past 100 digits: str() refuses an int past 4300."""
    k = int(log10(abs(n) or 1))
    p = 10**k  # one power of 10 settles the float's rounding either way
    k += (abs(n) >= 10 * p) - (abs(n) < p)
    return str(n) if k < 100 else f"of {k + 1} digits"


def factor(n: int, what: str = "integer", symbol: str = "n") -> Dict[int, int]:
    """{p: e} with |n| = prod p^e, by trial division.  Refuses (ValueError) 0
    and |n| > 10^12, naming n as `what` and the limit on |`symbol`|."""
    if n == 0:
        raise ValueError(f"{what} 0 has no prime factorization")
    if abs(n) > _FACTOR_LIMIT:
        raise ValueError(f"{what} {_shown(n)} is beyond the limit |{symbol}| <= 10^12")
    n, p, out = abs(n), 2, {}
    while p * p <= n:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1  # what is left after every p <= sqrt(n) is prime
    return out


def check_modulus(ell: int, t: int) -> None:
    """Refuse a modulus ell^t past 2^512 (ell >= 2) without forming a power
    past 2^1024.  Up to 2^512 the exact path past the int64 guard sets the
    cost; past it a residue is as long as ell^t and the cost grows with it."""
    if t * (ell.bit_length() - 1) > 512 or ell**t > 2**512:
        raise ValueError(f"modulus {ell}^{t} is beyond the limit ell^t <= 2^512")


def _squarefree_part(d: int) -> tuple[int, int]:
    """Write d = e * c^2 with e squarefree (sign kept on e); returns (e, c)."""
    e = c = 1
    for p, k in factor(d, "discriminant", "d").items():
        e *= p ** (k % 2)
        c *= p ** (k // 2)
    return (-e if d < 0 else e), c


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
        # squarefree d1 d2 = g^2 (d1/g)(d2/g), g = gcd(d1, d2), with no factoring:
        # the square part survives only as a trivial-character factor
        g = gcd(self.disc, other.disc)
        m = lcm(self.trivial_part, other.trivial_part, g)
        return Character(m, self.disc // g * (other.disc // g))

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
    return Character(c, e)


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
