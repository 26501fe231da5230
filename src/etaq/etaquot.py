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
int32 or int64 with m small enough that no pass overflows.  The first
block is placed as it is, and a pass reads each coefficient as its
symmetric residue mod m: it drops the terms m divides and adds or
subtracts where the residue is +-1, so mod 2 and 3 every pass is
add-only and mod 2 a theta block costs nothing.  An exact
product (over ZZ, or a modulus too large for int64 such as 2^70) joins a
few such runs by CRT, as FLINT multiplies over ZZ, in an object array of
Python ints; every run, residues or integers, is one numpy array.  The
theta blocks absorb every denominator of the catalog; a denominator no
block covers is split into blocks as a numerator is, and the run is
divided by each with Euler's recurrence (`_divide`), on its residues or
over ZZ on the joined integers.
The blocks run in descending delta, each at the stride s = gcd(deltas so far):
the product so far is a series in q^s, kept on P/s + 1 slots, so a block
in q^delta costs about its terms times P/delta while s = delta.  When every
delta shares a factor g the whole Euler part is a series in q^g, and
coefficient n of the product is placed at q^(lead + g n) - a large win for
the high-level forms.

Modulo ell^t the exponents are first rewritten (Ono, The Web of
Modularity, ch. 1): E(delta)^(ell^t a) = E(ell delta)^(ell^(t-1) a) mod ell^t,
applied until every |r_delta| < ell^t (`_frobenius`), so that
mod 23 Delta is E(1) E(23), E(23) placed and one add-only pass, and
mod 2 it is E(8) E(16).  The congruence holds because (1 - x)^ell = 1 - x^ell mod ell
(the binomials C(ell, i), 0 < i < ell, are divisible by ell); if
A = B mod ell^j then A^ell = B^ell mod ell^(j+1), since
A^ell - B^ell = (A - B) sum A^i B^(ell-1-i) and the sum = ell A^(ell-1) = 0
mod ell; so (1 - x)^(ell^t) = (1 - x^ell)^(ell^(t-1)) mod ell^t for every
x = q^(delta n), and inverting a series with constant term 1 keeps the
congruence, which covers negative a.

One routine does all of this for a list of rings, each at its own
precision (`expand_all`; `expand` is its one-ring case).  Residue rings
share one product modulo the lcm of their moduli, as large as the int64
guard allows, run to the furthest precision of the run, and each reduces
it mod its own modulus up to its own precision.  One rule groups them
(`_ring_groups`): each ring joins the first run that keeps its dtype with
the ring's modulus; a ring whose exponents stay as given and that reads
at least as far as the run also joins while the run stays inside the
guard; a ring with rewritten exponents never makes a run read further,
so it rides at no cost.  A ring that no run takes runs alone, rewritten
unless that leaves a denominator, in which case it expands the exponents
as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm, prod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .characters import Character, parse_character, trivial_mod
from .qseries import QSeries, Ring, ZZ

# A sparse pass moves a slot by at most (1 + sum |c|) (modulus - 1) over the
# block's terms c q^e, so `_Plan.width` runs it in int32 or int64 while that
# stays below these limits.
_INT64_LIMIT = 2**63 - 1
_INT32_LIMIT = 2**31 - 1
# The most coefficients any outside input may ask for: a precision, an
# agreement bound or a prime bound past it is refused before any work starts.
PRECISION_LIMIT = 10**6
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


def _block_norm(name: str, delta: int, reach: int) -> int:
    """A block's l^1 norm 1 + sum |c| over its terms to q^reach, in closed
    form with top = reach // delta: E counts the pentagonal numbers
    k(3k -+ 1)/2 <= top, which are those with 6k -+ 1 <= isqrt(24 top + 1);
    C sums 2n + 1 and psi counts 1 over the n(n + 1)/2 <= top; theta3 and
    theta4 have |c| = 2 at each square n^2 <= top."""
    top = reach // delta
    if name == "E":
        r = isqrt(24 * top + 1)
        return 1 + (r + 1) // 6 + (r - 1) // 6
    if name in ("C", "psi"):
        n = (isqrt(8 * top + 1) - 1) // 2
        return (n + 1) ** 2 if name == "C" else 1 + n
    return 1 + 2 * isqrt(top)


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


def _residue_terms(terms: List[Tuple[int, int]], precision: int, modulus: Optional[int]) -> List[Tuple[int, int]]:
    """(e, r) for the terms c q^e, e <= precision, with r the symmetric
    residue of c mod `modulus` (so |r| <= |c|) and r != 0; over ZZ (None)
    r is c itself."""
    out = []
    for e, c in terms:
        if e > precision:
            break
        r = c % modulus if modulus else c
        if r:
            out.append((e, r - modulus if modulus and 2 * r > modulus else r))
    return out


def _sparse_product(
    blocks: List[Tuple[str, int]], terms: _Terms, precision: int, modulus: int, stride: int, dtype: type
) -> np.ndarray:
    """Coefficients mod `modulus` of the product of the blocks (name, delta) up
    to q^precision, as a series in q^stride (`stride` divides every delta):
    slot n holds the coefficient of q^(stride n), in an array of `dtype`.

    The blocks run in descending delta.  The product so far is a series in
    q^s for the gcd s of the deltas run so far, kept on precision // s + 1
    slots and spread onto the finer grid only when a block needs it, so a
    block pass costs its terms times P / s.  The first block is placed as it
    is, its product with 1.  Each later one is a pass that adds r times the
    running product shifted by e / s for each of its terms c q^e with
    e <= precision (`terms[block]`, in increasing e, may reach further), r
    the symmetric residue of c (`_residue_terms`): r = 0 is dropped and
    r = +-1 is a plain add, so mod 3 every third Jacobi term vanishes and
    the rest are +-1 adds; other r multiply into one scratch buffer.
    Residues are reduced after every pass.  A pass moves each slot by at
    most (1 + sum |c|) (modulus - 1), as |r| <= |c|, which the caller keeps
    inside `dtype` (numpy wraps silently); `_Plan.width` picks it.
    """
    reduced = {key: _residue_terms(terms[key], precision, modulus) for key in set(blocks)}
    order = sorted(blocks, key=lambda key: -key[1])
    step = order[0][1] if order else stride
    acc = np.zeros(precision // step + 1, dtype=dtype)
    acc[0] = 1
    for e, r in reduced[order[0]] if order else ():
        acc[e // step] += r
    acc %= modulus
    scratch = np.empty(precision // stride + 1, dtype=dtype)  # r * src for |r| > 1
    for key in order[1:]:
        if key[1] % step:
            acc, step = _spread(acc, step, gcd(step, key[1]), precision), gcd(step, key[1])
        if not reduced[key]:
            continue
        nxt, size = acc.copy(), len(acc)
        for e, r in reduced[key]:
            shift = e // step
            src = acc[: size - shift]
            if r == 1:
                nxt[shift:] += src
            elif r == -1:
                nxt[shift:] -= src
            else:
                np.multiply(src, r, out=scratch[: size - shift])
                nxt[shift:] += scratch[: size - shift]
        nxt %= modulus
        acc = nxt
    return _spread(acc, step, stride, precision)


def _spread(acc: np.ndarray, step: int, stride: int, precision: int) -> np.ndarray:
    """A series in q^step, read to q^precision, on the grid of q^stride (stride | step)."""
    if step == stride:
        return acc
    out = np.zeros(precision // stride + 1, dtype=acc.dtype)
    out[:: step // stride] = acc
    return out


def _divide(acc: np.ndarray, terms: List[Tuple[int, int]], stride: int, modulus: Optional[int]) -> np.ndarray:
    """A run in q^stride, residues mod `modulus` or integers (None, an object
    array), divided in place by one block 1 + sum c q^e.

    Euler's recurrence a(n) = b(n) - sum c a(n - e / stride), n going up:
    the block has constant term 1, so a is the one series with block a = b,
    and the recurrence only subtracts integer multiples, so it holds over ZZ
    and mod any m.  Mod m it takes the symmetric residues r of the c, so a
    slot moves by at most (1 + sum |r|)(m - 1) <= (1 + sum |c|)(m - 1), the
    block's norm, which `_Plan.width` counts when it picks the run's dtype:
    the division keeps that dtype.
    """
    size = len(acc)
    terms = _residue_terms(terms, (size - 1) * stride, modulus)
    back = [e // stride for e, _ in terms]
    coeffs = np.array([c for _, c in terms], dtype=acc.dtype)
    # from slot back[k - 1] to the next term's, the first k terms reach back,
    # to the offsets `at` in the window of the `start` slots below n
    for k, (start, end) in enumerate(zip(back, back[1:] + [size]), 1):
        c, at = coeffs[:k], start - np.array(back[:k], dtype=np.intp)
        for n in range(start, end):
            value = acc[n] - c @ acc[n - start : n].take(at)
            acc[n] = value % modulus if modulus else value
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
    blocks: List[Tuple[str, int]], terms: _Terms, precision: int, moduli: List[int], stride: int
) -> np.ndarray:
    """Coefficients over ZZ of the product of the blocks up to q^precision, in
    q^stride, as an object array of Python ints: its int64 runs modulo the
    `moduli` (exact when `_crt_moduli` sized them for a bound on |c|), joined
    by CRT (Garner) and lifted to the symmetric range in place, freeing each
    int replaced.  The join is on objects, as joined * digit passes int64; one
    run is lifted in int64: x + shift < 3 m / 2, m <= 2^62 unless it is 1."""
    values, joined = _sparse_product(blocks, terms, precision, moduli[0], stride, np.int64), moduli[0]
    for m in moduli[1:]:
        digits = _sparse_product(blocks, terms, precision, m, stride, np.int64).astype(object)
        values = values.astype(object, copy=False)
        for step, x in ((np.subtract, values), (np.multiply, pow(joined, -1, m)), (np.remainder, m),
                        (np.multiply, joined), (np.add, values)):
            step(digits, x, out=digits)
        values, joined = digits, joined * m
    shift = (joined - 1) // 2  # x > joined // 2 exactly when x + shift >= joined
    for step, x in ((np.add, shift), (np.remainder, joined), (np.subtract, shift)):
        step(values, x, out=values)
    return values.astype(object, copy=False)


def _frobenius(exponents: Dict[int, int], ell: int, t: int) -> Optional[Dict[int, int]]:
    """The exponents with E(delta)^(ell^t a) rewritten as E(ell delta)^(ell^(t-1) a),
    smallest delta first, until every |r_delta| < ell^t; None when no
    |r_delta| reaches ell^t.  Each step lowers sum |r|, so the rewriting ends."""
    m = ell**t
    if all(abs(r) < m for r in exponents.values()):
        return None
    rest = dict(exponents)
    while True:
        delta = min((d for d, r in rest.items() if abs(r) >= m), default=None)
        if delta is None:
            return {d: r for d, r in sorted(rest.items()) if r}
        a = rest[delta] // m if rest[delta] > 0 else -(-rest[delta] // m)
        rest[delta] -= a * m
        rest[ell * delta] = rest.get(ell * delta, 0) + a * ell ** (t - 1)


class _Plan:
    """One set of exponents as blocks, read to q^reach: the blocks of
    `_plan_blocks`, a leftover denominator split the same way, C(delta) per
    three of r_delta and E(delta) for the rest (`den_blocks`), each block's
    terms, and the stride g, the gcd of the deltas, in which the whole Euler
    part is a series.  The terms are built on first use, so a plan that no
    run reads (a ring that rides on a shared run) builds none."""

    def __init__(self, exponents: Dict[int, int], reach: int) -> None:
        self.stride = gcd(*exponents) or 1
        self.blocks, leftover = _plan_blocks(exponents)
        self.den_blocks = _plan_blocks(leftover)[0]
        self.reach = reach

    @cached_property
    def terms(self) -> _Terms:
        return {key: _block_terms(*key, self.reach) for key in set(self.blocks + self.den_blocks)}

    def norms(self, reach: int) -> Dict[Tuple[str, int], int]:
        """Each block's l^1 norm to q^reach (`_block_norm`): it weights the
        block's passes and divisions in the int64 guard, and the norms'
        product bounds every coefficient of a product of blocks."""
        return {key: _block_norm(*key, reach) for key in set(self.blocks + self.den_blocks)}

    def width(self, modulus: int, reach: int) -> int:
        """What a run mod `modulus` to q^reach needs: 0 int32, 1 int64, 2 the
        exact product.  The one place a run's dtype is decided: the norms of
        all its blocks, denominators included, bound every pass and division."""
        spread = max(self.norms(reach).values(), default=1) * (modulus - 1)
        return (spread >= _INT32_LIMIT) + (spread >= _INT64_LIMIT)

    def product(self, modulus: Optional[int], reach: int) -> np.ndarray:
        """The Euler part to q^reach in q^stride, once per run: the blocks'
        product divided by each denominator block (`_divide`), residues mod
        `modulus` in an int32 or int64 array (`width`), or integers (None) in
        an object array.  A plan with no blocks is the constant 1."""
        if modulus is None:
            norm = self.norms(reach)
            moduli = _crt_moduli(max(norm.values(), default=1), prod(norm[key] for key in self.blocks))
            acc = _exact_product(self.blocks, self.terms, reach, moduli, self.stride)
        else:
            dtype = (np.int32, np.int64)[self.width(modulus, reach)]
            acc = _sparse_product(self.blocks, self.terms, reach, modulus, self.stride, dtype)
        for key in self.den_blocks:
            acc = _divide(acc, self.terms[key], self.stride, modulus)
        return acc


def _ring_groups(rings: List[Ring], reaches: List[int], plans: List[_Plan], shared: _Plan) -> List[list]:
    """Split the rings into runs that share one sparse product, each as
    [indices into rings, modulus of the product (None: over ZZ), plan].

    One pass takes the rings on the shared plan in order, then the rings
    with a plan of their own (`_frobenius`).  Each ring joins the first
    residue run on the shared plan that takes it.  A run takes a ring when
    the lcm M of its moduli and the ring's keeps the run's dtype at its
    reach (`_Plan.width`, which weighs M - 1 by the blocks, denominators
    included: numpy int64 wraps silently).  A ring on the shared plan that
    reads at least as far as the run also joins while the run stays inside
    the int64 guard; a ring with a plan of its own never makes a run read
    further.  A ring that no run takes starts a run on its own plan: ZZ and
    a modulus too large for the guard take the exact product.
    """
    groups: List[list] = []
    for i in sorted(range(len(rings)), key=lambda i: plans[i] is not shared):
        own, reach = plans[i] is not shared, reaches[i]
        m = rings[i].modulus if rings[i].kind == "mod" else None
        for group in groups:
            run, modulus, plan = group
            far = max(reaches[j] for j in run)
            if not (m and modulus and plan is shared) or own and reach > far:
                continue
            width = shared.width(lcm(modulus, m), max(far, reach))
            if width == shared.width(modulus, far) or not own and reach >= far and width < 2:
                run.append(i)
                group[1] = lcm(modulus, m)
                break
        else:
            groups.append([[i], m if m and plans[i].width(m, reach) < 2 else None, plans[i]])
    return groups


def _expand_rings(
    exponents: Dict[int, int], lead: int, precisions: List[int], rings: List[Ring]
) -> List[QSeries]:
    """q^lead prod_delta prod_n (1 - q^(delta n))^(r_delta) in each ring, up to
    q^P for that ring's precision P, written into an array of dtype
    `ring.dtype` that the series keeps (`QSeries.residues`).

    A ring reads the Euler part to q^(P - lead).  A residue ring ell^t in
    which some |r_delta| reaches ell^t expands the exponents `_frobenius`
    rewrites, unless their plan has denominator blocks or the ring rides
    on a shared run; every other ring expands the exponents as given.  Runs
    are grouped by `_ring_groups`, each runs as far as its furthest ring
    reads, and each ring reduces the run mod its own modulus and places
    slot n at q^(lead + g n) for its plan's stride g, building its
    coefficients only to its own precision.
    """
    reaches = [precision - lead for precision in precisions]
    shared = _Plan(exponents, max(reaches, default=0))
    plans = [shared] * len(rings)
    for i, ring in enumerate(rings):
        rewritten = _frobenius(exponents, ring.ell, ring.t) if ring.kind == "mod" else None
        if rewritten is not None:
            plan = _Plan(rewritten, reaches[i])
            # a rewrite that leaves a denominator is not taken: a division is a
            # Python step per coefficient, so eta12^12 / eta6^4 eta24^4 mod 3 at
            # 34558 terms took 56 ms on its rewrite, 0.4 ms as given (2-core Xeon)
            if not plan.den_blocks:
                plans[i] = plan
    # each series is written straight from its group's product, and only one
    # group's product is alive at a time: a batch keeps no list per ring
    out: List[QSeries] = [None] * len(rings)
    for group, modulus, plan in _ring_groups(rings, reaches, plans, shared):
        acc = plan.product(modulus, max(reaches[i] for i in group))
        for i in group:
            ring = rings[i]
            values = acc[: reaches[i] // plan.stride + 1]
            if ring.kind == "mod" and ring.modulus != modulus:  # a run mod a multiple or over ZZ (None)
                values = values % ring.modulus
            coeffs = np.zeros(precisions[i] + 1, dtype=ring.dtype)
            coeffs[lead :: plan.stride] = values
            out[i] = QSeries._canonical(ring, coeffs, precisions[i])
        del acc, values, coeffs
    return out


def check_precision(value: int, what: str) -> None:
    """Refuse (ValueError) a bound from outside input past PRECISION_LIMIT."""
    if value > PRECISION_LIMIT:
        raise ValueError(f"{what} {value} exceeds the limit of {PRECISION_LIMIT} coefficients")


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
    check_precision(max(precisions, default=0), "precision")
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
