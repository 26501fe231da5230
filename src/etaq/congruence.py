"""The verification engine: decide each claimed congruence and say how.

Every series verifier checks its claim and describes two sides (`Side`: a
base, an optional twist, a theta count, an optional E_w^e pad).  Each side's
weight, level, cusp flag and theta regime are derived from the `operators`
bookkeeping (`_comparison`); both sides are read to the agreement bound of
the space that holds them and compared, a proof ("sturm-proved") unless a
theta step was conservative.  Every side is computed in Z/ell^t from its
base on (the form's cached expansion, or G_k from `eisenstein` in that
ring, G_2 only twisted by a character with chi(0) = 0), as a numpy array
of residues, int64 while a product of two fits and Python ints beyond
(`residue_dtype`): twist and theta are one `theta` call, a multiply by a
table of chi(n) n^j, and the first mismatch is found by one array
comparison.
The lower-weight side is padded by a form congruent to 1 mod ell^t, which
raises its weight and changes no coefficient: a pad is bookkeeping in
`_side_space` and is never built.  `_side_space` admits only a pad E_w with
even w >= 4 and phi(ell^t) | w, and `_comparison` checks that the weights
differ by a multiple of phi(ell^t) only for ell >= 5: mod 2 and 3 nothing
yet ties a weight gap to a pad (ROADMAP item 1; the FOUND line on
`_compare` in CHANGES.md).  Prime-power and unit-factor claims are scanned
over many primes instead ("numerical-evidence").  Their congruences and
the exceptional-prime scan's two-exponent candidates are one shape, a
table of residue classes c with a(p) = u_c (p^m + p^m') mod ell^(t_c),
which `_first_failure` checks at every prime at once; the scan's
square-class pass picks the non-squares by Euler's criterion, `powers_mod`
to the power (ell - 1)/2, as its prescan does.

`verify_claims` plans a run before it runs a claim.  Every claim, series or
scan, is derived once with no series built (`_derive`: its two sides and
their comparison, or its class table), and that derivation is handed to its
verifier; the plan reads from it which (form, ell^t, precision) the claim
will read (`_reads`: the form sides at their bound, or the scanned form at
the prime bound).  It then runs the claims form by form: each catalog form
is expanded once, over all of its rings, before its first claim, so the
claims themselves only hit the cache, and leaves the cache after its last,
so one form's expansions are alive at a time.  A report's `seconds`
therefore leaves out the expansions and derivations.  Reports are plain
data and serialize to JSON with stable field order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from math import isqrt
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import etaquot
from .characters import Character, _shown, _squarefree_part, kronecker_character, parse_character, trivial_mod
from .claims import CongruenceClaim
from .eisenstein import eisenstein_G
from .operators import FormMeta, common_space, theta, theta_mod_rule, twist_meta, u_operator
from .qseries import QSeries, Ring, ZZ, powers_mod, residue_dtype, residue_ring
from .sturm import agreement_bound

DEFAULT_PRIME_BOUND = 10_000
_PRESCAN_PRECISION = 300  # cheap exact pre-filter before a full prime scan


@dataclass(frozen=True)
class VerificationReport:
    claim: CongruenceClaim
    verdict: str  # "proved" | "evidence" | "failed"
    rigor: str  # "sturm-proved" | "numerical-evidence"
    bound: int
    weight: Optional[int] = None
    level: Optional[int] = None
    first_failure: Optional[int] = None
    primes_checked: Optional[int] = None
    seconds: float = 0.0
    detail: str = ""

    def __post_init__(self) -> None:
        if self.verdict not in ("proved", "evidence", "failed"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.rigor not in ("sturm-proved", "numerical-evidence"):
            raise ValueError(f"bad rigor {self.rigor!r}")
        if self.verdict == "proved" and self.rigor != "sturm-proved":
            raise ValueError("a claim is proved only under a sturm-proved comparison")

    @property
    def status(self) -> str:
        """Outcome against the claim's expectation (controls exit codes)."""
        if self.claim.expect == "fail":
            return "refuted-as-expected" if self.verdict == "failed" else "unexpected-pass"
        return "ok" if self.verdict in ("proved", "evidence") else "fail"

    def to_json(self) -> Dict:
        out: Dict = {
            "claim": self.claim.claim_id,
            "kind": self.claim.kind,
            "form": self.claim.form,
            "ell": self.claim.ell,
            "t": self.claim.t,
            "verdict": self.verdict,
            "rigor": self.rigor,
            "status": self.status,
            "bound": self.bound,
        }
        if self.weight is not None:
            out["weight"] = self.weight
        if self.level is not None:
            out["level"] = self.level
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure
        if self.primes_checked is not None:
            out["primes_checked"] = self.primes_checked
        out["seconds"] = self.seconds
        if self.detail:
            out["detail"] = self.detail
        return out


# -- cached expansions ------------------------------------------------------

_expansion_cache: Dict[Tuple[str, Ring], QSeries] = {}


def _expand_misses(entry: etaquot.CatalogEntry, reads: Iterable[Tuple[Ring, int]]) -> None:
    """Cache each (ring, precision) read of a catalog form that the cache does
    not hold that far: one `expand_all` call expands every such ring, at the
    largest precision read there, and stores it under its (form, ring) key."""
    missing: Dict[Tuple[str, Ring], Tuple[Ring, int]] = {}
    for ring, precision in reads:
        key = (entry.form_id, ring)
        if key in missing:
            missing[key] = (ring, max(precision, missing[key][1]))
        elif key not in _expansion_cache or _expansion_cache[key].precision < precision:
            missing[key] = (ring, precision)
    if missing:
        rings, precisions = zip(*missing.values())
        fresh = etaquot.expand_all(entry.quotient, list(precisions), list(rings))
        _expansion_cache.update(zip(missing, fresh))


def cached_expansion(entry: etaquot.CatalogEntry, precision: int, ring: Ring) -> QSeries:
    """Expansion of a catalog form in one ring, memoized per (form, ring) at
    the largest precision seen (`_expand_misses`), as a view of its cached
    array (`QSeries.residues`)."""
    _expand_misses(entry, [(ring, precision)])
    return _expansion_cache[entry.form_id, ring].truncate(precision)


def clear_expansion_cache() -> None:
    _expansion_cache.clear()


def _timed(started: float) -> float:
    return round(time.perf_counter() - started, 3)


# -- series comparisons: build two sides, derive their space, compare --------


@dataclass(frozen=True)
class Side:
    """One side of a series comparison, built in this order: a base (a
    catalog form or G_k), an optional twist, then theta applied `theta`
    times.  An optional pad E_w^e = 1 mod ell^t raises the side's weight by
    w e and leaves its coefficients as they are."""

    base: str  # "form" | "G"
    arg: Union[str, int]  # form id | weight k of G_k
    twist: Optional[Character] = None
    theta: int = 0
    pad: Optional[Tuple[int, int]] = None  # (w, e) for E_w^e


def _side_space(side: Side, ell: int, t: int) -> Tuple[FormMeta, str]:
    """The space of a side mod ell^t and the regime of its theta step ("exact"
    without one).  A theta image is cuspidal, a G base is not, and a pad
    E_w^e adds w e to the weight.  A pad must be E_w = 1 mod ell^t term by
    term, so only even w >= 4 with phi(ell^t) | w is admitted: then
    (ell - 1) | w, so ell exactly divides the denominator of B_w (von
    Staudt-Clausen), and E_w - 1 = -(2w/B_w) sum sigma_(w-1)(n) q^n has
    v_ell(2w/B_w) = v_ell(2w) + 1 >= t, since ell^(t-1) | w.

    G_2 = -E_2/24 is admitted only twisted by a character chi with
    chi(0) = 0, and then lies in the space `twist_meta` derives,
    M_2(Gamma_0(M^2), chi^2) for chi of modulus M: E_2* = E_2 - 3/(pi y)
    is invariant of weight 2 on SL_2(Z).  f x chi is a combination of the
    translates f(z + a/M) whose weights sum to chi(0) = 0, and y is
    translation-invariant, so the 3/(pi y) term cancels and E_2 x chi is
    the twist of the weight-2 invariant E_2*."""
    if side.base == "form":
        entry = etaquot.lookup(side.arg)
        meta = FormMeta(entry.weight, entry.level, entry.nebentypus)  # a newform: cuspidal
    else:
        if side.arg == 2 and (side.twist is None or side.twist(0) != 0):
            raise ValueError("G_2 is not modular: a G_2 side needs a twist by a character with chi(0) = 0")
        meta = FormMeta(side.arg, 1, trivial_mod(1), cuspidal=False)
    if side.twist is not None:
        meta = twist_meta(meta, side.twist)
    regime = "exact"
    if side.theta:
        meta, regime = theta_mod_rule(ell, t, side.theta, meta)
    if side.pad is not None:
        w, e = side.pad
        if w < 4 or w % 2 or w % (ell ** (t - 1) * (ell - 1)):
            raise ValueError(f"pad E_{w} is not 1 mod {ell}^{t}: need even w >= 4, phi({ell}^{t}) | w")
        meta = replace(meta, weight=meta.weight + w * e)
    return meta, regime


def _side_coeffs(side: Side, ell: int, t: int, precision: int) -> np.ndarray:
    """A side's coefficients a(0), ..., a(precision) mod ell^t as an array of
    dtype `residue_dtype(ell^t)`: its base in the residue ring, then twist
    and theta as one `theta` call; a pad changes no coefficient.  An
    Eisenstein base reduces its constant only when the side reads a(0):
    theta, or a twist with chi(0) = 0, kills a constant that need not be
    ell-integral."""
    ring = residue_ring(ell, t)
    if side.base == "form":
        series = cached_expansion(etaquot.lookup(side.arg), precision, ring)
    else:
        constant = not side.theta and (side.twist is None or side.twist(0) != 0)
        series = eisenstein_G(side.arg, precision, ring, constant)
    return theta(series, side.theta, side.twist).residues()


def _comparison(claim: CongruenceClaim, lhs: Side, rhs: Side) -> Tuple[int, int, int, bool]:
    """(bound, weight, level, conservative) of comparing two sides mod ell^t:
    the agreement bound of their common space, always the derived one, and
    whether a theta step of either side is conservative.  A weight or level
    the claim declares must contain the derived space, and the comparison
    then runs there."""
    ell, t = claim.ell, claim.t
    lhs_meta, lhs_regime = _side_space(lhs, ell, t)
    rhs_meta, rhs_regime = _side_space(rhs, ell, t)
    if ell >= 5 and (lhs_meta.weight - rhs_meta.weight) % (ell ** (t - 1) * (ell - 1)):
        raise ValueError(
            f"{claim.claim_id}: side weights {lhs_meta.weight} and {rhs_meta.weight} do not "
            f"differ by a multiple of phi({ell}^{t}), so no pad brings them together"
        )
    space = common_space(lhs_meta, rhs_meta)
    weight = space.weight if claim.weight is None else claim.weight
    level = space.level if claim.level is None else claim.level
    if weight < space.weight or level % space.level:
        raise ValueError(
            f"{claim.claim_id}: declared weight {_shown(weight)}, level {_shown(level)} does not "
            f"contain the derived weight {_shown(space.weight)}, level {_shown(space.level)}"
        )
    bound = agreement_bound(weight, level, space.cuspidal)
    etaquot.check_precision(bound, f"{claim.claim_id}: agreement bound")
    return bound, weight, level, "conservative" in (lhs_regime, rhs_regime)


def _compare(claim: CongruenceClaim, derived: Tuple) -> VerificationReport:
    """Compare a series claim's two sides mod ell^t up to the bound its
    derivation (lhs, rhs, detail, `_comparison`) holds; agreement is
    evidence, not proof, when a theta step of either side is conservative."""
    started = time.perf_counter()
    lhs, rhs, detail, (bound, weight, level, conservative) = derived
    lhs_coeffs, rhs_coeffs = (_side_coeffs(side, claim.ell, claim.t, bound) for side in (lhs, rhs))
    differ = np.flatnonzero(lhs_coeffs != rhs_coeffs)
    mismatch = int(differ[0]) if len(differ) else None
    rigor = "numerical-evidence" if conservative else "sturm-proved"
    verdict = "failed" if mismatch is not None else "evidence" if conservative else "proved"
    return VerificationReport(
        claim=claim,
        verdict=verdict,
        rigor=rigor,
        bound=bound,
        weight=weight,
        level=level,
        first_failure=mismatch,
        seconds=_timed(started),
        detail=detail,
    )


# -- two-exponent congruences: a(p) = psi(p) (p^m + p^m') mod ell -----------


def _two_exponent_sides(claim: CongruenceClaim) -> Tuple[Side, Side, str]:
    entry = etaquot.lookup(claim.form)
    k, n_level, ell = entry.weight, entry.level, claim.ell
    m, mp = claim.m, claim.m_prime
    if ell > 2 and (m + mp - (k - 1)) % (ell - 1) != 0:
        raise ValueError(f"{claim.claim_id}: exponents violate m + m' = k - 1 mod ell - 1")
    psi = parse_character(claim.psi)
    one_n = trivial_mod(n_level)
    w = mp - m + 1

    # Kernel weight w is forced by the two-exponent shape a(p) = psi(p)(p^m + p^m'):
    # theta^(m+1) contributes p^(m+1) and sigma_(w-1) the factor 1 + p^(w-1).  At level
    # N >= 2 the weight-2 kernel is G_2 twisted by psi 1_N (modular: `_side_space`).  Its
    # detail names the level-N series, since G_2 = -E_2/24 masked by psi 1_N has its
    # coefficients: in sigma_1(n) - N sigma_1(n/N) the second term vanishes off (n, N) = 1.
    # Level 1 uses G_(ell+1) (sigma_ell = sigma_1 mod ell).  For w = ell - 1 the constant
    # of G_(ell-1) is not ell-integral, but theta kills it, so the side never builds it.
    if w == 2 and n_level >= 2:
        k_w, kernel_name = 2, f"weight-2 level-{n_level} series"
    elif w == 2:
        k_w, kernel_name = ell + 1, f"G_{ell + 1}"
    elif 3 <= w <= ell - 1:
        k_w, kernel_name = w, f"G_{w}"
    else:
        raise ValueError(f"{claim.claim_id}: no Eisenstein kernel for width {w}")
    lhs = Side("form", claim.form, one_n, theta=1)
    rhs = Side("G", k_w, psi * one_n, theta=m + 1)
    return lhs, rhs, f"kernel {kernel_name}, theta^{m + 1}"


def verify_two_exponent(claim: CongruenceClaim, prime_bound: int, derived: Tuple) -> VerificationReport:
    """Check theta(f x 1_N) against theta^(m+1) of a weight-(m'-m+1) Eisenstein
    series twisted by psi, modulo ell, across an enclosing space."""
    return _compare(claim, derived)


# -- square-class congruences: theta^((ell+1)/2) f = theta f mod ell --------


def _square_class_sides(claim: CongruenceClaim) -> Tuple[Side, Side, str]:
    one_n = trivial_mod(etaquot.lookup(claim.form).level)
    if claim.ell % 2 == 0:
        raise ValueError(f"{claim.claim_id}: the square-class congruence needs odd ell")
    lhs = Side("form", claim.form, one_n, theta=(claim.ell + 1) // 2)
    return lhs, Side("form", claim.form, one_n, theta=1), ""


def verify_square_class(claim: CongruenceClaim, prime_bound: int, derived: Tuple) -> VerificationReport:
    return _compare(claim, derived)


# -- prime-power congruences on progressions of primes ----------------------


_sieve: Tuple[int, Optional[np.ndarray]] = (-1, None)  # (bound, the primes up to it)


def _primes_to(bound: int) -> np.ndarray:
    """The primes <= bound as a read-only int64 array, cut with
    `np.searchsorted` from one numpy sieve of Eratosthenes per process.
    The sieve is rerun only for a bound above every earlier one, and
    callers share views of its array."""
    global _sieve
    sieved_to, primes = _sieve
    if bound > sieved_to:
        flags = np.ones(bound + 1, dtype=bool)  # 0 and 1 stay set: [2:] drops them
        for p in range(2, isqrt(bound) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        primes = np.flatnonzero(flags)[2:].astype(np.int64)
        primes.flags.writeable = False
        _sieve = (bound, primes)
    return primes[: np.searchsorted(primes, bound, side="right")]


def _check_prime_bound(prime_bound: int) -> None:
    if prime_bound < 50:
        raise ValueError("prime bound below 50 would make the scan vacuous")
    etaquot.check_precision(prime_bound, "prime bound")


def _good_primes(primes: np.ndarray, level: int, ell: int) -> np.ndarray:
    return primes[(level % primes != 0) & (primes != ell)]


def _first_failure(
    coeffs: np.ndarray,
    primes: np.ndarray,
    m: int,
    mp: int,
    period: int,
    classes: Dict[int, Tuple[int, int]],
) -> Tuple[Optional[int], int]:
    """Check a(p) = u_c (p^m + p^m') mod q_c at each prime p whose class
    c = p mod period is in `classes` (c -> (u_c, q_c), q_c a power of ell);
    no other prime is judged.  Every prime at once: `coeffs` is an array
    indexed by p, each judged prime reads u_c and q_c from the sorted class
    table, and p^m mod q_c is powered for all of them together, in int64
    while the largest q_c allows (`residue_dtype`).  Returns the first prime
    where the congruence fails (None if none) and how many primes it judged,
    that one included."""
    # every prime lies below 2^62, so a class from there on holds none, and a
    # larger period leaves each prime its own class
    keys = sorted(k for k in classes if k < 2**62)
    if not keys:
        return None, 0
    dtype = residue_dtype(max(q for _, q in classes.values()))
    c, table = primes % min(period, 2**62), np.array(keys)
    slot = np.minimum(np.searchsorted(table, c), len(keys) - 1)
    judged = table[slot] == c
    p, slot = primes[judged], slot[judged]
    q = np.array([classes[k][1] for k in keys], dtype=dtype)[slot]
    u = np.array([classes[k][0] % classes[k][1] for k in keys], dtype=dtype)[slot]
    expected = u * ((powers_mod(p, m, q) + powers_mod(p, mp, q)) % q) % q
    failed = np.flatnonzero((coeffs[p] - expected) % q)
    if len(failed):
        return int(p[failed[0]]), int(failed[0]) + 1
    return None, len(p)


def _prime_scan(
    claim: CongruenceClaim,
    prime_bound: int,
    table: Tuple[int, int, int, Dict[int, Tuple[int, int]]],
    detail: str,
) -> VerificationReport:
    """Scan a(p) mod ell^t over the good primes p <= prime_bound against the
    table (m, m', period, classes) of `_first_failure`, stopping at the first
    prime where it fails."""
    _check_prime_bound(prime_bound)
    started = time.perf_counter()
    entry = etaquot.lookup(claim.form)
    f_res = cached_expansion(entry, prime_bound, residue_ring(claim.ell, claim.t)).residues()
    primes = _good_primes(_primes_to(prime_bound), entry.level, claim.ell)
    witness, checked = _first_failure(f_res, primes, *table)
    if checked == 0:
        raise ValueError(f"{claim.claim_id}: no admissible primes below {prime_bound}")
    return VerificationReport(
        claim=claim,
        verdict="failed" if witness is not None else "evidence",
        rigor="numerical-evidence",
        bound=prime_bound,
        first_failure=witness,
        primes_checked=checked,
        seconds=_timed(started),
        detail=detail,
    )


def _prime_power_table(claim: CongruenceClaim) -> Tuple[Tuple, str]:
    ell, t, m, mp = claim.ell, claim.t, claim.m, claim.m_prime
    phi = ell ** (t - 1) * (ell - 1)
    if t > 1 and (m + mp - (etaquot.lookup(claim.form).weight - 1)) % phi:
        raise ValueError(f"{claim.claim_id}: exponents violate m + m' = k - 1 mod phi(ell^t)")
    rule = (1, ell**t)
    if claim.residues is None:
        table = (m, mp, 1, {0: rule})
    else:
        table = (m, mp, claim.residue_modulus, dict.fromkeys(claim.residues, rule))
    detail = f"classes {list(claim.residues) if claim.residues else 'all'}"
    if claim.residue_modulus is not None:
        detail += f" mod {claim.residue_modulus}"
    return table, detail


def verify_prime_power(claim: CongruenceClaim, prime_bound: int, derived: Tuple) -> VerificationReport:
    """Scan a(p) = p^m + p^m' mod ell^t over primes in the claimed classes."""
    return _prime_scan(claim, prime_bound, *derived)


def _unit_factor_table(claim: CongruenceClaim) -> Tuple[Tuple, str]:
    if claim.t != max(tc for _, _, tc in claim.units):
        raise ValueError(f"{claim.claim_id}: t must equal the largest class exponent")
    classes = {c: (u, claim.ell**tc) for c, u, tc in claim.units}
    table = (0, claim.m_prime, claim.residue_modulus, classes)
    detail = f"units {dict((c, u) for c, u, _ in claim.units)} mod {claim.residue_modulus}"
    return table, detail


def verify_unit_factor(claim: CongruenceClaim, prime_bound: int, derived: Tuple) -> VerificationReport:
    """Scan a(p) = u (1 + p^m') mod ell^(t_c) with a unit u per residue class."""
    return _prime_scan(claim, prime_bound, *derived)


# -- twist-power congruences: f x 1_ell = f x kron(ell*) mod ell^a ----------


def _twist_power_sides(claim: CongruenceClaim) -> Tuple[Side, Side, str]:
    ell, a = claim.ell, claim.t
    if ell % 2 == 0:
        raise ValueError(f"{claim.claim_id}: twist comparison needs odd ell")
    disc = ell if ell % 4 == 1 else -ell
    lhs = Side("form", claim.form, trivial_mod(ell))
    rhs = Side("form", claim.form, kronecker_character(disc))
    return lhs, rhs, f"1_{ell} twist vs kron({disc}) twist mod {ell}^{a}"


def verify_twist_power(claim: CongruenceClaim, prime_bound: int, derived: Tuple) -> VerificationReport:
    return _compare(claim, derived)


# -- raw two-pipeline identities --------------------------------------------


_RECIPE_KEYS = {"form", "G", "twist", "theta", "pad"}


def _recipe_side(recipe: Dict) -> Side:
    """A claim-file recipe as a Side: one base, "form" or "G", then optional
    "twist", "theta" and "pad" [w, e]."""
    if not isinstance(recipe, dict) or not _RECIPE_KEYS.issuperset(recipe):
        raise ValueError(f"a recipe is an object with keys from {sorted(_RECIPE_KEYS)}: {recipe}")
    if ("form" in recipe) == ("G" in recipe):
        raise ValueError(f"recipe needs exactly one base, 'form' or 'G': {recipe}")
    pad = recipe.get("pad")
    if pad is not None and not (isinstance(pad, list) and len(pad) == 2):
        raise ValueError(f"recipe pad must be a pair [w, e]: {recipe}")
    numbers = [recipe.get("G", 0), recipe.get("theta", 0), *(pad or [])]
    if not all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in numbers):
        raise ValueError(f"recipe G, theta and pad entries must be integers >= 0: {recipe}")
    base = "form" if "form" in recipe else "G"
    twist_by = parse_character(recipe["twist"]) if "twist" in recipe else None
    return Side(base, recipe[base], twist_by, recipe.get("theta", 0), pad and tuple(pad))


def _raw_identity_sides(claim: CongruenceClaim) -> Tuple[Side, Side, str]:
    return _recipe_side(claim.lhs), _recipe_side(claim.rhs), ""


def verify_raw_identity(claim: CongruenceClaim, prime_bound: int, derived: Tuple) -> VerificationReport:
    return _compare(claim, derived)


# -- dispatch ---------------------------------------------------------------

# What each kind's verifier reads, derived with no series built: the two
# sides it compares, or the class table it scans, with its detail text.
_SIDES = {
    "two-exponent": _two_exponent_sides,
    "square-class": _square_class_sides,
    "twist-power": _twist_power_sides,
    "raw-identity": _raw_identity_sides,
}
_TABLES = {"prime-power": _prime_power_table, "unit-factor": _unit_factor_table}


def _derive(claim: CongruenceClaim, prime_bound: int) -> Tuple:
    """A claim's derivation, the one its verifier is handed: (lhs, rhs,
    detail, `_comparison`) of a series claim, or (table, detail) of a
    scanned one, whose prime bound is checked here."""
    if claim.kind in _TABLES:
        derived = _TABLES[claim.kind](claim)
        _check_prime_bound(prime_bound)
        return derived
    lhs, rhs, detail = _SIDES[claim.kind](claim)
    return lhs, rhs, detail, _comparison(claim, lhs, rhs)


def _verify(claim: CongruenceClaim, prime_bound: int, derived: Tuple) -> VerificationReport:
    """Run the claim's `verify_<kind>` on its derivation.  The verifier is
    looked up on the module when called, so a caller that replaces the
    attribute (a tracer, a test) sees every dispatched claim."""
    return globals()["verify_" + claim.kind.replace("-", "_")](claim, prime_bound, derived)


def verify_claim(claim: CongruenceClaim, *, prime_bound: int = DEFAULT_PRIME_BOUND) -> VerificationReport:
    return _verify(claim, prime_bound, _derive(claim, prime_bound))


def _reads(
    claim: CongruenceClaim, prime_bound: int, derived: Tuple
) -> List[Tuple[etaquot.CatalogEntry, Ring, int]]:
    """(form, ring, precision) of each expansion the claim's verifier reads,
    read from its derivation: the form sides of its comparison at the bound
    `_comparison` derived, or the scanned form at the prime bound, all mod
    ell^t."""
    ring = residue_ring(claim.ell, claim.t)
    if claim.kind in _TABLES:
        return [(etaquot.lookup(claim.form), ring, prime_bound)]
    lhs, rhs, _, (bound, *_) = derived
    return [(etaquot.lookup(side.arg), ring, bound) for side in (lhs, rhs) if side.base == "form"]


def verify_claims(claims, *, prime_bound: int = DEFAULT_PRIME_BOUND) -> List[VerificationReport]:
    """Verify claims form by form, reports sorted by claim id.  The run is
    planned first: each claim is derived once (`_derive`), for its reads
    (`_reads`) and for its verifier.  A claim joins the batch of the first
    form it reads, or one batch for claims that read none (both sides are G,
    or its derivation raises, as it then does in its turn).  Batches run in
    the order their form is first read, claims in file order within one.  A
    form is expanded by one `_expand_misses` call over every ring any claim
    reads it in (in (ell, t) order, so its int64 groups do not depend on
    claim order) before its first claim, and leaves the cache after the
    last batch that reads it.  A claim that raises ValueError or KeyError
    skips every later claim in file order, and the run then raises the
    error of the first one in file order."""
    reads: Dict[str, Tuple[etaquot.CatalogEntry, List[Tuple[Ring, int]]]] = {}
    batches: Dict[Optional[str], List] = {}  # first form read -> [(index, claim, forms read, derivation)]
    for i, claim in enumerate(claims):
        try:
            derived = _derive(claim, prime_bound)
            claim_reads = _reads(claim, prime_bound, derived)
        except (ValueError, KeyError) as error:
            derived, claim_reads = error, []
        for entry, ring, precision in claim_reads:
            reads.setdefault(entry.form_id, (entry, []))[1].append((ring, precision))
        forms = [entry.form_id for entry, _, _ in claim_reads]
        batches.setdefault(forms[0] if forms else None, []).append((i, claim, forms, derived))
    last = {form: b for b, batch in enumerate(batches.values()) for *_, forms, _ in batch for form in forms}
    reports, fault = [], None  # fault: (index, error) of the earliest claim that raised
    for b, batch in enumerate(batches.values()):
        for i, claim, forms, derived in batch:
            if fault and fault[0] < i:
                break  # the rest of the batch comes later in file order too
            for entry, form_reads in [reads.pop(form) for form in forms if form in reads]:
                _expand_misses(entry, sorted(form_reads, key=lambda read: (read[0].ell, read[0].t)))
            try:
                if isinstance(derived, Exception):
                    raise derived
                reports.append(_verify(claim, prime_bound, derived))
            except (ValueError, KeyError) as error:
                fault = (i, error)
        for key in [key for key in _expansion_cache if last.get(key[0]) == b]:
            del _expansion_cache[key]
    if fault:
        raise fault[1]
    return sorted(reports, key=lambda r: r.claim.claim_id)


# -- square-class branch classification -------------------------------------


def classify_square_class_prime(form_id: str, ell: int) -> str:
    """Which branch an exceptional square-class prime falls in.

    Returns "small-ell" when ell < k.  Otherwise inspects f | U_ell mod ell
    through the agreement bound of (k, N): identically zero forces
    ell = 2k - 3, nonzero forces ell = 2k - 1; any disagreement with the
    actual value of ell is an error because the dichotomy would be violated.
    """
    entry = etaquot.lookup(form_id)
    k, n_level = entry.weight, entry.level
    if ell < k:
        return "small-ell"
    bound = max(agreement_bound(k, n_level, cuspidal=True), 1)
    f_res = cached_expansion(entry, ell * bound, residue_ring(ell))
    image = u_operator(f_res, ell)
    vanished = image.is_zero()
    if vanished and ell != 2 * k - 3:
        raise ValueError(f"U_{ell} image vanished but {ell} != 2k-3 = {2 * k - 3}")
    if not vanished and ell != 2 * k - 1:
        raise ValueError(f"U_{ell} image nonzero but {ell} != 2k-1 = {2 * k - 1}")
    return "two-k-minus-3" if vanished else "two-k-minus-1"


# -- exceptional-prime scans ------------------------------------------------


@dataclass(frozen=True)
class ScanFinding:
    ell: int
    kind: str  # "two-exponent" | "square-class"
    masked: bool = False
    m: Optional[int] = None
    m_prime: Optional[int] = None
    psi: Optional[str] = None
    primes_checked: int = 0

    def to_json(self) -> Dict:
        out: Dict = {"ell": self.ell, "kind": self.kind, "masked": self.masked}
        if self.m is not None:
            out["m"] = self.m
            out["m_prime"] = self.m_prime
            out["psi"] = self.psi
        out["primes_checked"] = self.primes_checked
        return out


def _candidate_psi(n_level: int) -> List[Character]:
    """Real characters whose modulus stays within the level: 1_N, then
    kron(D) 1_N for each fundamental discriminant D != 1 with |D| dividing
    4N, in increasing |D| with -D before D.  D = e c^2, e squarefree, is
    fundamental when c = 1, e = 1 mod 4 or c = 2, e = 2, 3 mod 4."""
    base = trivial_mod(n_level)
    out = [base]
    for size in range(3, 4 * n_level + 1):
        if (4 * n_level) % size:
            continue
        for d in (-size, size):
            e, c = _squarefree_part(d)
            if c != (1 if e % 4 == 1 else 2):
                continue
            out.append(Character(c, e) * base)  # kron(d) 1_N: modulus lcm(N, |d|) divides 4N
    return out


_PRESCAN_ROWS = 4096  # ell per prescan pass: its grid stays a few MB at any ell_max
_FILTER_CELLS = 2**16  # (psi, m, p) cells of an exact-filter pass after its first prime


def _odd_prescan(ells: np.ndarray, primes: np.ndarray, a: np.ndarray, k: Optional[int]) -> List[int]:
    """The odd ell among `ells` that no p in `primes` refutes, in array passes
    over a grid of ell (rows, _PRESCAN_ROWS at a time) by p, with a(p) = a[p].
    Square-class (k None): p refutes ell when it is a non-square mod ell and
    ell does not divide a(p).  Two-exponent (weight k): p refutes ell when
    a(p)^2 - 4 p^(k-1) is a non-square mod ell.  A column p = ell refutes
    nothing, since p = 0 mod ell."""
    a_p = a[primes].astype(np.int64)  # |a(p)| <= 2 p^((k-1)/2) (Deligne)
    odd = ells[ells > 2]
    kept: List[int] = []
    for start in range(0, len(odd), _PRESCAN_ROWS):
        ell = odd[start : start + _PRESCAN_ROWS, None]
        a = a_p % ell
        if k is None:
            refuted = (powers_mod(primes, (ell - 1) // 2, ell) == ell - 1) & (a != 0)
        else:
            discriminant = a * a - 4 * powers_mod(primes, k - 1, ell)
            refuted = powers_mod(discriminant, (ell - 1) // 2, ell) == ell - 1
        kept += ell[~refuted.any(axis=1), 0].tolist()
    return kept


def _two_exponent_survivors(
    ell: int, k: int, primes: np.ndarray, psi_p: np.ndarray, a_p: np.ndarray
) -> List[Tuple[int, int, int]]:
    """The two-exponent congruences mod ell that hold at every prime of
    `primes` but ell, as (row of psi, m, m') in that order.

    A candidate is a(p) = psi(p)(p^m + p^m') with m + m' = k - 1 mod ell - 1.
    Exponents only matter mod ell - 1 (Fermat), so each unordered pair
    {m, k - 1 - m} is tried once, at its smaller member; mod 2 every real
    character looks trivial, so only 1_N, row 0, is tried.  `psi_p` holds
    psi(p) by candidate (rows) and prime (columns), `a_p` the int64 a(p).
    Array passes over the grid of (psi, m) power p^m and p^m' mod ell for
    the m still alive and drop each (psi, m) a prime refutes.  The first
    prime meets every pair alone, and the few that survive meet as many
    primes per pass as _FILTER_CELLS allows: memory stays O(#psi ell)."""
    span = max(ell - 1, 1)
    m = np.arange(span)
    m = m[(k - 1 - m) % span >= m]
    psi_p = psi_p[: len(psi_p) if ell > 2 else 1]
    alive = np.ones((len(psi_p), len(m)), dtype=bool)
    cols, width = np.flatnonzero(primes != ell), 1
    while len(cols) and len(m):
        step, cols = np.split(cols, [width])
        p, mp = primes[step], ((k - 1 - m) % span)[:, None]
        both = powers_mod(p, m[:, None], ell) + powers_mod(p, mp, ell)  # (m, p)
        alive &= ((psi_p[:, None, step] * both - a_p[step]) % ell == 0).all(axis=2)
        kept = alive.any(axis=0)
        m, alive = m[kept], alive[:, kept]
        width = max(1, _FILTER_CELLS // max(alive.size, 1))
    rows, cols = np.nonzero(alive)
    m = m[cols]
    gap = (k - 1 - 2 * m) % span  # m' - m mod ell - 1, taken in [1, ell - 1]
    return list(zip(rows.tolist(), m.tolist(), (m + np.where(gap, gap, span)).tolist()))


def scan_exceptional(
    form_id: str,
    kind: str,
    ell_max: int = 100,
    prime_bound: int = DEFAULT_PRIME_BOUND,
) -> List[ScanFinding]:
    """Search small primes ell for congruences the tables could have listed.

    kind "two-exponent": find (ell, m < m', psi) with
    a(p) = psi(p)(p^m + p^m') mod ell at every good prime p <= prime_bound.
    kind "square-class": find ell with a(p) = 0 mod ell whenever p is a
    non-square mod ell; findings that are forced by a two-exponent congruence
    rather than a genuine square-class property are flagged masked.

    Three phases.  First every ell <= ell_max is prescanned over the good
    primes p <= _PRESCAN_PRECISION of the exact expansion (`_odd_prescan`).
    Square-class: an odd ell survives when ell divides a(p) at every
    non-square p mod ell (Euler's criterion); ell = 2 has no non-squares.
    Two-exponent: at an odd p not dividing N, p != ell, every candidate psi
    has conductor dividing 4N, so psi(p) = +-1; with m + m' = k - 1 mod ell - 1,
    x = p^m and y = p^m' are the roots of X^2 - psi(p) a(p) X + p^(k-1)
    mod ell, so a(p)^2 - 4 p^(k-1) = (x - y)^2 is a square mod ell.  An odd
    ell where it is not, at some such p, holds no candidate; the rest, and
    ell = 2, go through the exact `_two_exponent_survivors`, array passes
    over a(p) and a table of psi(p), both read once per scan.  Then one
    `_expand_misses` call caches the series mod every surviving ell: the
    ones not cached at prime_bound are expanded together, one product per
    int64 group of moduli, under their (form, ell) keys.  Last, each
    survivor reads its series through `cached_expansion` and is checked at
    all good primes p <= prime_bound at once: square-class at the
    non-squares mod ell, picked by Euler's criterion again, and each
    two-exponent candidate as a `_first_failure` table.  A finding fails at
    no prime and judges at least one; its primes_checked counts the primes
    it judged.  The primes are cuts of `_primes_to(max(prime_bound, ell_max))`,
    which sieves at most once.
    """
    if kind not in ("two-exponent", "square-class"):
        raise ValueError(f"unknown scan kind {kind!r}")
    _check_prime_bound(prime_bound)
    if ell_max < 2:
        raise ValueError(f"ell_max {ell_max} leaves no prime ell to scan")
    etaquot.check_precision(ell_max, "ell_max")
    entry = etaquot.lookup(form_id)
    k, n_level = entry.weight, entry.level
    small = cached_expansion(entry, min(_PRESCAN_PRECISION, prime_bound), ZZ)
    _primes_to(max(prime_bound, ell_max))  # the one sieve; each cut below reads it
    prescan, ells, a = _primes_to(small.precision), _primes_to(ell_max), small.residues()
    prescan = prescan[n_level % prescan != 0]

    survivors: Dict[int, Sequence[Tuple]] = {}  # ell -> its two-exponent (psi, table)s
    if kind == "two-exponent":
        psis = _candidate_psi(n_level)
        psi_p = np.array([np.take(psi.values(psi.modulus), prescan % psi.modulus) for psi in psis])
        a_p = a[prescan].astype(np.int64)
        for ell in [2] + _odd_prescan(ells, prescan[prescan % 2 == 1], a, k):
            for i, m, mp in _two_exponent_survivors(ell, k, prescan, psi_p, a_p):
                psi = psis[i]  # its table: psi's period for modulus, u_c = psi(c) on every class
                classes = {c: (v, ell) for c, v in enumerate(psi.values(psi.modulus))}
                survivors.setdefault(ell, []).append((psi, (m, mp, psi.modulus, classes)))
    else:
        survivors = dict.fromkeys(_odd_prescan(ells, prescan, a, None), ())

    _expand_misses(entry, [(residue_ring(ell), prime_bound) for ell in survivors])
    scan_primes = _primes_to(prime_bound)
    findings: List[ScanFinding] = []
    for ell, candidates in survivors.items():
        f_res = cached_expansion(entry, prime_bound, residue_ring(ell)).residues()
        good = _good_primes(scan_primes, n_level, ell)
        if kind == "square-class":
            judged = good[powers_mod(good, (ell - 1) // 2, ell) == ell - 1]
            if len(judged) and not f_res[judged].any():
                masked = not (n_level % ell == 0 or ell in (2 * k - 3, 2 * k - 1))
                findings.append(ScanFinding(ell, kind, masked, primes_checked=len(judged)))
        for psi, table in candidates:
            witness, checked = _first_failure(f_res, good, *table)
            if witness is None and checked:
                findings.append(ScanFinding(ell, kind, False, *table[:2], psi.describe(), checked))
    return findings
