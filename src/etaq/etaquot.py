"""Eta quotients: exact expansion and the built-in catalog of newforms.

A quotient prod_delta eta(delta z)^(r_delta) expands to
q^(s/24) prod_delta prod_n (1 - q^(delta n))^(r_delta) with s = sum delta r.
The Euler part is written as a product of blocks: closed-form sparse series
in q^delta, each the Euler part of an eta product (Koehler, Eta Products and
Theta Series Identities, 2011); eta(d) stands for eta(delta z):

  E(delta)      = prod (1 - q^(delta n))            Euler, terms +-1
  C(delta)      = E(delta)^3                         Jacobi, (-1)^k (2k+1)
  theta3(delta) = eta(2d)^5 / (eta(d)^2 eta(4d)^2)   sum_(n in Z) q^(delta n^2)
  theta4(delta) = eta(d)^2 / eta(2d)                 sum_(n in Z) (-1)^n q^(delta n^2)
  psi(delta)    = eta(2d)^2 / eta(d)                 sum_(n >= 0) q^(delta n(n+1)/2)

Each has O(sqrt(P)) terms up to q^P, so multiplying the running product by
one block is a handful of shifted, scaled adds on numpy slices mod m, in
int32 or int64 with m small enough that no pass overflows; an exact
product (over ZZ, or a modulus too large for int64 such as 2^70) joins a
few such runs by CRT, as FLINT multiplies over ZZ.  The theta blocks absorb
every denominator of the catalog, so no catalog form needs a division; a
denominator no block covers is inverted once with the Newton inverse.  When
every delta shares a factor g the whole Euler part is a series in q^g, so
the blocks are planned for the quotient reduced by g and each coefficient n
is placed at q^(lead + g n) - a large win for the high-level forms.  One
routine does all of this for a list of rings, each at its own precision
(`expand_all`; `expand` is its one-ring case): residue rings share one
product modulo the lcm of a group of their moduli, as large as the int64
guard allows, run to the furthest precision in the group, and each reduces
it mod its own modulus up to its own precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .characters import Character, parse_character, trivial_mod
from .qseries import QSeries, Ring, ZZ

# A sparse pass moves a slot by at most (1 + sum |c|) (modulus - 1) over the
# block's terms c q^e, so it runs in int64 while that stays below this limit.
_INT64_LIMIT = 2**63 - 1
_INT32_LIMIT = 2**31 - 1
# the nonconstant terms (e, c) of each block (name, delta): `_block_terms`
_Terms = Dict[Tuple[str, int], List[Tuple[int, int]]]


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


# The eta product whose Euler part each block is, named as in the module
# docstring, as (multiple of delta, exponent) pairs.
_BLOCKS = {
    "E": ((1, 1),),
    "C": ((1, 3),),
    "theta3": ((1, -2), (2, 5), (4, -2)),
    "theta4": ((1, 2), (2, -1)),
    "psi": ((1, -1), (2, 2)),
}


def _block_terms(name: str, delta: int, precision: int) -> List[Tuple[int, int]]:
    """(exponent, coefficient) of each nonconstant term of a block in q^delta up
    to q^precision, in increasing exponent, read off its closed form: the
    pentagonal numbers k(3k -+ 1)/2 with sign (-1)^k (E), the triangular
    numbers n(n+1)/2 (C, psi) or the squares n^2 (theta3, theta4), each index
    range cut by an integer square root where the exponent passes top."""
    top = precision // delta
    if name == "E":
        k_max = (isqrt(24 * top + 1) + 1) // 6  # the last k with k(3k - 1)/2 <= top
        terms = [
            (delta * (k * (3 * k + s) // 2), -1 if k % 2 else 1)
            for k in range(1, k_max + 1)
            for s in (-1, 1)
        ]
        return terms if not terms or terms[-1][0] <= precision else terms[:-1]
    if name in ("C", "psi"):
        n_max = (isqrt(8 * top + 1) - 1) // 2  # the last n with n(n + 1)/2 <= top
        if name == "psi":
            return [(delta * (n * (n + 1) // 2), 1) for n in range(1, n_max + 1)]
        return [
            (delta * (n * (n + 1) // 2), -2 * n - 1 if n % 2 else 2 * n + 1)
            for n in range(1, n_max + 1)
        ]
    sign = -1 if name == "theta4" else 1
    return [(delta * n * n, 2 * sign if n % 2 else 2) for n in range(1, isqrt(top) + 1)]


def euler_factor(delta: int, precision: int, ring: Ring) -> QSeries:
    """prod_n (1 - q^(delta n)) as a dense series: the reference for the sparse passes."""
    coeffs = [0] * (precision + 1)
    coeffs[0] = 1
    for e, sign in _block_terms("E", delta, precision):
        coeffs[e] = sign
    return QSeries(ring, coeffs, precision)


def _plan_blocks(exponents: Dict[int, int]) -> Tuple[List[Tuple[str, int]], Dict[int, int]]:
    """Write prod_delta eta(delta z)^(r_delta) as blocks (name, delta) times a leftover.

    Negative exponents are covered in ascending delta, by theta4(delta/2)
    from a surplus at delta/2, then theta3(delta) while 4 delta is also
    negative, then psi(delta).  A block draws only on a positive surplus, so
    it never makes an exponent negative.  Every positive remainder r becomes
    r // 3 cubes and r % 3 pentagonal factors.  What no block covers is
    returned as a denominator {delta: r}.
    """
    rest = dict(exponents)
    blocks: List[Tuple[str, int]] = []

    def use(name: str, delta: int) -> None:
        for m, r in _BLOCKS[name]:
            rest[m * delta] = rest.get(m * delta, 0) - r
        blocks.append((name, delta))

    for delta in sorted(d for d, r in exponents.items() if r < 0):
        while rest[delta] < 0 and delta % 2 == 0 and rest.get(delta // 2, 0) >= 2:
            use("theta4", delta // 2)
        while rest[delta] <= -2 and rest.get(2 * delta, 0) >= 5 and rest.get(4 * delta, 0) < 0:
            use("theta3", delta)
        while rest[delta] < 0 and rest.get(2 * delta, 0) >= 2:
            use("psi", delta)
    for delta, r in sorted(rest.items()):
        if r > 0:
            blocks += [("C", delta)] * (r // 3) + [("E", delta)] * (r % 3)
    return blocks, {d: -r for d, r in sorted(rest.items()) if r < 0}


def _sparse_product(
    blocks: List[Tuple[str, int]], terms: _Terms, precision: int, modulus: int
) -> np.ndarray:
    """Coefficients mod `modulus` of the product of the blocks (name, delta) up to q^precision.

    One pass per block adds c times the running product shifted by e for each
    of the block's terms c q^e with e <= precision (`terms[block]`, in
    increasing e, may reach further); residues are reduced after
    every pass.  A pass moves each slot by at most (1 + sum |c|) (modulus - 1),
    which the caller keeps below the int64 limit (numpy int64 wraps silently);
    the passes run in int32, half the memory traffic, while the largest such
    weight of these blocks keeps that below the int32 limit.
    """
    weight = max((1 + sum(abs(c) for _, c in terms[key]) for key in set(blocks)), default=1)
    acc = np.zeros(precision + 1, dtype=np.int32 if weight * (modulus - 1) < _INT32_LIMIT else np.int64)
    acc[0] = 1
    for key in blocks:
        nxt = acc.copy()
        for e, c in terms[key]:
            if e > precision:
                break
            src = acc[: precision + 1 - e]
            if c == 1:
                nxt[e:] += src
            elif c == -1:
                nxt[e:] -= src
            else:
                nxt[e:] += c * src
        nxt %= modulus
        acc = nxt
    return acc


def _crt_moduli(weight: int, bound: int) -> List[int]:
    """Pairwise coprime moduli m inside the int64 guard, weight (m - 1) < 2^63,
    whose product exceeds 2 bound: taken greedily downward from the largest."""
    moduli: List[int] = []
    product = 1
    m = (_INT64_LIMIT - 1) // weight + 1
    while product <= 2 * bound:
        if all(gcd(m, taken) == 1 for taken in moduli):
            moduli.append(m)
            product *= m
        m -= 1
    return moduli


def _exact_product(
    blocks: List[Tuple[str, int]], terms: _Terms, precision: int, moduli: List[int]
) -> List[int]:
    """Coefficients over ZZ of the product of the blocks up to q^precision,
    from its int64 runs modulo the `moduli`, joined by CRT (Garner) and lifted
    to the symmetric range: exact when the moduli come from `_crt_moduli` for
    a bound on the coefficients' absolute values."""
    values = _sparse_product(blocks, terms, precision, moduli[0]).tolist()
    joined = moduli[0]
    for m in moduli[1:]:
        inverse = pow(joined, -1, m)
        residues = _sparse_product(blocks, terms, precision, m).tolist()
        values = [x + joined * ((r - x) * inverse % m) for x, r in zip(values, residues)]
        joined *= m
    half = joined // 2
    return [x - joined if x > half else x for x in values]


def _ring_groups(rings: List[Ring], weight: int, alone: bool) -> List[list]:
    """Split the rings, in order, into runs that share one sparse product,
    each as [indices into rings, modulus of the product (None: over ZZ)].

    A residue ring joins the run before it while weight (M - 1) stays below
    the int64 limit for the lcm M of the run's moduli (numpy int64 wraps
    silently).  ZZ and a modulus too large for that limit take the exact
    product, and run alone, as every ring does when `alone`.
    """
    groups: List[list] = []
    for i, ring in enumerate(rings):
        m = ring.modulus if ring.kind == "mod" and weight * (ring.modulus - 1) < _INT64_LIMIT else None
        if m and groups and groups[-1][1] and not alone:
            joined = lcm(groups[-1][1], m)
            if weight * (joined - 1) < _INT64_LIMIT:
                groups[-1][0].append(i)
                groups[-1][1] = joined
                continue
        groups.append([[i], m])
    return groups


def _expand_rings(
    exponents: Dict[int, int], lead: int, precisions: List[int], rings: List[Ring]
) -> List[QSeries]:
    """q^lead prod_delta prod_n (1 - q^(delta n))^(r_delta) in each ring, up to
    q^P for that ring's precision P, written into an array of dtype
    `ring.dtype` that the series keeps (`QSeries.residues`).

    The Euler part is a series in q^g for the gcd g of the deltas, so the
    blocks are planned once for the quotient reduced by g, and coefficient n
    of their product is placed at q^(lead + g n); a ring at precision P reads
    n <= (P - lead) // g.  Residue rings share one product per int64 group
    (`_ring_groups`), run as far as the group's furthest ring reads, and
    reduce it mod their own modulus; the other rings reduce the exact
    product, if at all.  Each ring's coefficients are built only to its own
    precision.  A denominator no block covers needs the Newton inverse in
    each ring, so then every ring runs alone.
    """
    g = gcd(*exponents) or 1
    blocks, leftover = _plan_blocks({d // g: r for d, r in exponents.items()})
    den_blocks = [("E", d) for d, r in leftover.items() for _ in range(r)]
    subs = [(precision - lead) // g for precision in precisions]
    terms = {key: _block_terms(*key, max(subs, default=0)) for key in set(blocks + den_blocks)}
    # a block's l^1 norm 1 + sum |c| weights its passes' int64 guard, and the
    # norms' product bounds every coefficient of a product of blocks
    norm = {key: 1 + sum(abs(c) for _, c in t) for key, t in terms.items()}
    weight = max(norm.values(), default=1)

    def product(
        blocks: List[Tuple[str, int]], modulus: Optional[int], sub: int
    ) -> np.ndarray | List[int]:
        """The blocks' product up to q^sub: residues mod `modulus` in an
        integer array, or a list of integers (None)."""
        if modulus is None:
            moduli = _crt_moduli(weight, prod(norm[key] for key in blocks))
            return _exact_product(blocks, terms, sub, moduli)
        return _sparse_product(blocks, terms, sub, modulus)

    def reduce(acc: np.ndarray | List[int], modulus: Optional[int], m: Optional[int]):
        """`product(blocks, modulus, ...)` as residues mod m (None: integers)."""
        if modulus is None:
            return acc if m is None else [c % m for c in acc]
        return acc if m == modulus else acc % m

    def residues(ring: Ring, acc: np.ndarray | List[int], modulus: Optional[int], sub: int):
        """The product to q^sub, run by `product(blocks, modulus, ...)`, as
        coefficients in the ring (an array or a list)."""
        m = ring.modulus if ring.kind == "mod" else None
        values = reduce(acc[: sub + 1], modulus, m)
        if leftover:
            den_values = reduce(product(den_blocks, modulus, sub), modulus, m)
            num, den = (QSeries._canonical(ring, v, sub) for v in (values, den_values))
            values = (num * den.inverse()).residues()
        return values

    # each series is written straight from its group's product, and only one
    # group's product is alive at a time: a batch keeps no list per ring
    out: List[QSeries] = [None] * len(rings)
    for group, modulus in _ring_groups(rings, weight, bool(leftover)):
        acc = product(blocks, modulus, max(subs[i] for i in group))
        for i in group:
            ring = rings[i]
            coeffs = np.zeros(precisions[i] + 1, dtype=ring.dtype)
            coeffs[lead::g] = residues(ring, acc, modulus, subs[i])
            out[i] = QSeries._canonical(ring, coeffs, precisions[i])
        del acc, coeffs
    return out


def expand_euler_part(exponents: Dict[int, int], precision: int, ring: Ring) -> QSeries:
    """prod_delta prod_n (1 - q^(delta n))^(r_delta), without the q^(s/24) prefactor."""
    return _expand_rings(exponents, 0, [precision], [ring])[0]


def _leading_power(quotient: EtaQuotient, precisions: List[int]) -> int:
    s = quotient.exponent_sum
    if s % 24 != 0:
        raise ValueError("exponent sum not divisible by 24")
    lead = s // 24
    if lead < 0:
        raise ValueError(f"leading power q^({lead}) is negative; not a holomorphic expansion")
    if min(precisions, default=lead) < lead:
        raise ValueError(f"precision {min(precisions)} cannot see the leading term q^{lead}")
    return lead


def expand_all(
    quotient: EtaQuotient, precision: int | Sequence[int], rings: List[Ring]
) -> List[QSeries]:
    """expand(quotient, P, ring) for each of the rings, in order, where
    `precision` is one P for every ring or a sequence of one P per ring."""
    precisions = [precision] * len(rings) if isinstance(precision, int) else list(precision)
    if len(precisions) != len(rings):
        raise ValueError(f"{len(precisions)} precisions for {len(rings)} rings")
    lead = _leading_power(quotient, precisions)
    return _expand_rings(dict(quotient.factors), lead, precisions, rings)


def expand(quotient: EtaQuotient, precision: int, ring: Ring = ZZ) -> QSeries:
    """Expansion of the quotient as a q-series with trusted range 0..precision."""
    return expand_all(quotient, precision, [ring])[0]


@dataclass(frozen=True)
class CatalogEntry:
    """A newform from the built-in table: quotient plus its modular metadata."""

    form_id: str
    quotient: EtaQuotient
    weight: int
    level: int
    nebentypus: Character

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
    wanted = " ".join(str(form_id).split())
    for entry in _CATALOG:
        if entry.form_id == wanted:
            return entry
    raise KeyError(f"no catalog entry named {form_id!r}")
