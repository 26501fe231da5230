"""Eta quotients: exact expansion and the built-in catalog of newforms.

A quotient prod_delta eta(delta z)^(r_delta) expands to
q^(s/24) prod_delta prod_n (1 - q^(delta n))^(r_delta) with s = sum delta r.
By Euler's pentagonal number theorem prod (1 - q^n) has only about
2 sqrt(2P/3) nonzero terms up to q^P, so multiplying by one factor
prod_n (1 - q^(delta n)) is a handful of shifted adds.  The positive and the
negative exponents are each expanded that way, one pass per unit of |r|,
in numpy slices (int64 when the residues cannot overflow, exact Python
ints otherwise); only the combined denominator goes through the Newton
inverse and one dense (Kronecker-substitution) product.  When every delta
shares a factor g the whole Euler part is a series in q^g, so we expand the
reduced quotient at precision P/g and dilate - a large win for the
high-level forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from .characters import Character, parse_character, trivial_mod
from .qseries import QSeries, Ring, ZZ

# A sparse pass adds at most terms + 1 residues below the modulus per slot, so
# it runs in int64 while (terms + 1) * (modulus - 1) stays below this limit.
_INT64_LIMIT = 2**63 - 1


@dataclass(frozen=True)
class EtaQuotient:
    """Formal product of eta(delta z)^(r_delta) factors, delta >= 1, r != 0."""

    factors: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for delta, r in self.factors:
            if delta < 1:
                raise ValueError(f"eta argument multiplier {delta} must be >= 1")
            if r == 0:
                raise ValueError(f"eta(delta={delta}) carries exponent 0; drop it")
            if delta in seen:
                raise ValueError(f"duplicate eta factor for delta={delta}")
            seen.add(delta)

    @classmethod
    def from_dict(cls, exponents: Dict[int, int]) -> "EtaQuotient":
        return cls(tuple(sorted(exponents.items())))

    @classmethod
    def parse(cls, text: str) -> "EtaQuotient":
        """Parse the CLI form "1:2,11:2" (delta:exponent pairs)."""
        exps: Dict[int, int] = {}
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                delta_s, r_s = chunk.split(":")
                delta, r = int(delta_s), int(r_s)
            except ValueError:
                raise ValueError(f"bad eta factor {chunk!r}; expected delta:exponent") from None
            exps[delta] = exps.get(delta, 0) + r
        if not exps:
            raise ValueError("empty eta quotient")
        return cls.from_dict({d: r for d, r in exps.items() if r != 0})

    @property
    def exponent_sum(self) -> int:
        """s = sum delta * r_delta, which fixes the leading power q^(s/24)."""
        return sum(d * r for d, r in self.factors)

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(r for _, r in self.factors), 2)

    def name(self) -> str:
        """Canonical display name, e.g. "eta1^2 eta11^2" or with "/" for inverses."""
        num = [(d, r) for d, r in self.factors if r > 0]
        den = [(d, -r) for d, r in self.factors if r < 0]

        def fmt(parts: Iterable[Tuple[int, int]]) -> str:
            return " ".join(f"eta{d}" + (f"^{r}" if r != 1 else "") for d, r in parts)

        if den:
            return f"{fmt(num)} / {fmt(den)}"
        return fmt(num)

    def __str__(self) -> str:
        return self.name()


def _pentagonal_terms(delta: int, precision: int) -> Iterator[Tuple[int, int]]:
    """(exponent, sign) of each nonconstant term of prod_n (1 - q^(delta n)) up to q^precision.

    Euler: prod (1 - q^n) = 1 + sum_k (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)).
    """
    k = 1
    while True:
        placed = False
        sign = -1 if k % 2 else 1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            e = delta * g
            if e <= precision:
                yield e, sign
                placed = True
        if not placed:
            return
        k += 1


def euler_factor(delta: int, precision: int, ring: Ring) -> QSeries:
    """prod_n (1 - q^(delta n)) as a dense series: the reference for the sparse passes."""
    coeffs = [0] * (precision + 1)
    coeffs[0] = 1
    for e, sign in _pentagonal_terms(delta, precision):
        coeffs[e] = sign
    return QSeries(ring, coeffs, precision)


def _sparse_euler_product(
    powers: List[Tuple[int, int]], precision: int, modulus: int | None
) -> list:
    """Coefficients of prod_(delta, r) prod_n (1 - q^(delta n))^r, every r >= 1.

    One pass per unit of r adds signed copies of the running product,
    shifted by each pentagonal exponent; residues are reduced after every
    pass.  int64 is used when a pass cannot overflow, i.e. when
    (terms + 1) * (modulus - 1) fits; ZZ and large moduli use Python ints.
    """
    terms = {delta: list(_pentagonal_terms(delta, precision)) for delta, _ in powers}
    widest = max((len(t) for t in terms.values()), default=0)
    small = modulus is not None and (widest + 1) * (modulus - 1) < _INT64_LIMIT
    acc = np.zeros(precision + 1, dtype=np.int64 if small else object)
    acc[0] = 1
    for delta, r in powers:
        for _ in range(r):
            nxt = acc.copy()
            for e, sign in terms[delta]:
                if sign > 0:
                    nxt[e:] += acc[: precision + 1 - e]
                else:
                    nxt[e:] -= acc[: precision + 1 - e]
            if modulus is not None:
                nxt %= modulus
            acc = nxt
    return acc.tolist()


def expand_euler_part(exponents: Dict[int, int], precision: int, ring: Ring) -> QSeries:
    """prod_delta prod_n (1 - q^(delta n))^(r_delta), without the q^(s/24) prefactor."""
    if not exponents:
        return QSeries.one(ring, precision)
    g = gcd(*exponents.keys()) if len(exponents) > 1 else next(iter(exponents))
    if g > 1:
        sub = expand_euler_part({d // g: r for d, r in exponents.items()}, precision // g, ring)
        return sub.dilate(g, precision)
    if ring.kind == "QQ":
        # the expansion is integral: work over ZZ and convert once
        return QSeries(ring, expand_euler_part(exponents, precision, ZZ).coeffs, precision)
    modulus = ring.modulus if ring.kind == "mod" else None
    factors = sorted(exponents.items())

    def part(sign: int) -> QSeries:
        powers = [(d, sign * r) for d, r in factors if sign * r > 0]
        return QSeries._canonical(ring, _sparse_euler_product(powers, precision, modulus), precision)

    num = part(1)
    if all(r > 0 for _, r in factors):
        return num
    return num * part(-1).inverse()


def expand(quotient: EtaQuotient, precision: int, ring: Ring = ZZ) -> QSeries:
    """Expansion of the quotient as a q-series with trusted range 0..precision."""
    s = quotient.exponent_sum
    if s % 24 != 0:
        raise ValueError("exponent sum not divisible by 24")
    lead = s // 24
    if lead < 0:
        raise ValueError(f"leading power q^({lead}) is negative; not a holomorphic expansion")
    if precision < lead:
        raise ValueError(f"precision {precision} cannot see the leading term q^{lead}")
    euler = expand_euler_part(dict(quotient.factors), precision - lead, ring)
    return euler.shift(lead) if lead else euler


@dataclass(frozen=True)
class CatalogEntry:
    """A newform from the built-in table: quotient plus its modular metadata."""

    form_id: str
    quotient: EtaQuotient
    weight: int
    level: int
    nebentypus: Character
    cuspidal: bool = True

    def expand(self, precision: int, ring: Ring = ZZ) -> QSeries:
        return expand(self.quotient, precision, ring)


def _entry(form_id: str, exponents: Dict[int, int], weight: int, level: int, chi: str) -> CatalogEntry:
    q = EtaQuotient.from_dict(exponents)
    if q.weight != weight:
        raise AssertionError(f"catalog weight mismatch for {form_id}")
    for d, _ in q.factors:
        if level % d != 0:
            raise AssertionError(f"catalog entry {form_id}: delta={d} does not divide N={level}")
    # a nebentypus lives modulo the level: fold 1_N in so chi(d) = 0 for
    # every d sharing a factor with N (the Hecke relations depend on this)
    nebentypus = parse_character(chi) * trivial_mod(level)
    if nebentypus.modulus != level and level % nebentypus.modulus != 0:
        raise AssertionError(f"catalog entry {form_id}: character does not fit level {level}")
    return CatalogEntry(form_id, q, weight, level, nebentypus)


_CATALOG: Tuple[CatalogEntry, ...] = (
    _entry("delta", {1: 24}, 12, 1, "1_1"),
    _entry("eta1^8 eta2^8", {1: 8, 2: 8}, 8, 2, "1_2"),
    _entry("eta1^6 eta3^6", {1: 6, 3: 6}, 6, 3, "1_3"),
    _entry("eta2^12", {2: 12}, 6, 4, "1_2"),
    _entry("eta1^4 eta2^2 eta4^4", {1: 4, 2: 2, 4: 4}, 5, 4, "kron(-4)"),
    _entry("eta1^4 eta5^4", {1: 4, 5: 4}, 4, 5, "1_5"),
    _entry("eta1^2 eta2^2 eta3^2 eta6^2", {1: 2, 2: 2, 3: 2, 6: 2}, 4, 6, "1_6"),
    _entry("eta3^8", {3: 8}, 4, 9, "1_3"),
    _entry("eta1^3 eta7^3", {1: 3, 7: 3}, 3, 7, "kron(-7)"),
    _entry("eta1^2 eta11^2", {1: 2, 11: 2}, 2, 11, "1_11"),
    _entry("eta2^3 eta6^3", {2: 3, 6: 3}, 3, 12, "kron(-3)"),
    _entry("eta1 eta2 eta7 eta14", {1: 1, 2: 1, 7: 1, 14: 1}, 2, 14, "1_14"),
    _entry("eta1 eta3 eta5 eta15", {1: 1, 3: 1, 5: 1, 15: 1}, 2, 15, "1_15"),
    _entry("eta4^6", {4: 6}, 3, 16, "kron(-4)"),
    _entry("eta2^2 eta10^2", {2: 2, 10: 2}, 2, 20, "1_20"),
    _entry("eta3^2 eta9^2", {3: 2, 9: 2}, 2, 27, "1_27"),
    _entry("eta6^4", {6: 4}, 2, 36, "1_6"),
    # quadratic twists realized as eta quotients (even levels 16..144)
    _entry("eta4^36 / eta2^12 eta8^12", {4: 36, 2: -12, 8: -12}, 6, 16, "1_2"),
    _entry("eta8^38 / eta4^14 eta16^14", {8: 38, 4: -14, 16: -14}, 5, 64, "kron(-4)"),
    _entry(
        "eta4^9 eta12^9 / eta2^3 eta6^3 eta8^3 eta24^3",
        {4: 9, 12: 9, 2: -3, 6: -3, 8: -3, 24: -3},
        3,
        48,
        "kron(-3)",
    ),
    _entry("eta8^18 / eta4^6 eta16^6", {8: 18, 4: -6, 16: -6}, 3, 64, "kron(-4)"),
    _entry("eta12^12 / eta6^4 eta24^4", {12: 12, 6: -4, 24: -4}, 2, 144, "1_12"),
)


def catalog() -> Tuple[CatalogEntry, ...]:
    """All built-in forms, in increasing level order as tabulated."""
    return _CATALOG


def lookup(form_id: str) -> CatalogEntry:
    """Find a catalog entry by its id ("delta", "eta3^8", ...)."""
    wanted = " ".join(form_id.split())
    for entry in _CATALOG:
        if entry.form_id == wanted:
            return entry
    raise KeyError(f"no catalog entry named {form_id!r}")
