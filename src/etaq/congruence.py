"""The verification engine: decide each claimed congruence and say how.

Every check compares two explicitly constructed q-expansions coefficient by
coefficient, either through the agreement bound of an enclosing space of
modular forms (rigor "sturm-proved") or over a long prime scan (rigor
"numerical-evidence").  A congruence between sides of different weights is
compared at the larger weight; that is legitimate here because in each
shipped case the lower-weight side can be padded by a form congruent to 1
(E_{ell-1} for ell >= 5, E_4 mod 3, and normalized weight-2 level-d series
mod 2) without changing its expansion modulo the modulus under test.

Reports are plain data and serialize to JSON with stable field order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import lcm
from typing import Callable, Dict, List, Optional, Tuple

from . import etaquot
from .characters import Character, kronecker, kronecker_character, parse_character, trivial_mod
from .claims import CongruenceClaim
from .eisenstein import eisenstein_E, eisenstein_E2_level, eisenstein_G
from .operators import theta, twist, twist_level, u_operator
from .oracles import primes_up_to
from .qseries import QSeries, Ring, ZZ, first_mismatch, reduce_mod, residue_ring
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

_expansion_cache: Dict[Tuple[str, str], QSeries] = {}


def _ring_key(ring: Ring) -> str:
    return f"mod:{ring.ell}^{ring.t}" if ring.kind == "mod" else ring.kind


def cached_expansion(entry: etaquot.CatalogEntry, precision: int, ring: Ring) -> QSeries:
    """Expansion of a catalog form, memoized at the largest precision seen."""
    key = (entry.form_id, _ring_key(ring))
    hit = _expansion_cache.get(key)
    if hit is not None and hit.precision >= precision:
        return hit.truncate(precision)
    series = _expansion_cache[key] = entry.expand(precision, ring)
    return series


def clear_expansion_cache() -> None:
    _expansion_cache.clear()


def _timed(started: float) -> float:
    return round(time.perf_counter() - started, 3)


def _rigor_for_table_row(ell: int, level: int) -> str:
    # when ell divides the level the theta-image spaces are not fully
    # understood, so agreement up to the bound stays labeled as evidence
    return "numerical-evidence" if level % ell == 0 else "sturm-proved"


def _sturm_report(
    claim: CongruenceClaim,
    started: float,
    lhs: QSeries,
    rhs: QSeries,
    rigor: str,
    bound: int,
    weight: int,
    level: int,
    detail: str = "",
) -> VerificationReport:
    """Compare two sides up to the bound; agreement proves the claim only
    under a sturm-proved comparison, and is evidence otherwise."""
    mismatch = first_mismatch(lhs, rhs)
    if mismatch is not None:
        verdict = "failed"
    else:
        verdict = "proved" if rigor == "sturm-proved" else "evidence"
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


def verify_two_exponent(claim: CongruenceClaim, margin: int = 0) -> VerificationReport:
    """Check theta(f x 1_N) against theta^(m+1) of a weight-(m'-m+1) Eisenstein
    series twisted by psi, modulo ell, across an enclosing space."""
    started = time.perf_counter()
    entry = etaquot.lookup(claim.form)
    k, n_level, ell = entry.weight, entry.level, claim.ell
    m, mp = claim.m, claim.m_prime
    if ell > 2 and (m + mp - (k - 1)) % (ell - 1) != 0:
        raise ValueError(f"{claim.claim_id}: exponents violate m + m' = k - 1 mod ell - 1")
    psi = parse_character(claim.psi)
    one_n = trivial_mod(n_level)
    w = mp - m + 1

    # Kernel weight w is forced by the two-exponent shape a(p) = psi(p)(p^m + p^m'):
    # theta^(m+1) contributes p^(m+1) and sigma_(w-1) the factor 1 + p^(w-1).  Weight 2
    # has no G-series, so use the level-N weight-2 series, or G_(ell+1) at level 1
    # (sigma_ell = sigma_1 mod ell).  For w = ell - 1 the constant of G_(ell-1) is not
    # ell-integral, but theta runs before reduction and kills it.
    if w == 2 and n_level >= 2:
        base_kind, base_weight, base_level = "level", 2, n_level
    elif w == 2:
        base_kind, base_weight, base_level = "G", ell + 1, 1
    elif 3 <= w <= ell - 1:
        base_kind, base_weight, base_level = "G", w, 1
    else:
        raise ValueError(f"{claim.claim_id}: no Eisenstein kernel for width {w}")

    lhs_weight = k + ell + 1
    rhs_weight = base_weight + (m + 1) * (ell + 1)
    weight = max(lhs_weight, rhs_weight)
    level = lcm(twist_level(n_level, one_n), twist_level(base_level, psi * one_n))
    bound = agreement_bound(weight, level, cuspidal=True) + margin

    f_res = cached_expansion(entry, bound, residue_ring(ell))
    lhs = theta(twist(f_res, one_n), 1)

    if base_kind == "level":
        kernel = eisenstein_E2_level(base_level, bound)
        kernel_name = f"weight-2 level-{base_level} series"
    else:
        kernel = eisenstein_G(base_weight, bound)
        kernel_name = f"G_{base_weight}"
    rhs = reduce_mod(theta(twist(kernel, psi * one_n), m + 1), ell, 1)
    rigor = _rigor_for_table_row(ell, n_level)
    return _sturm_report(
        claim, started, lhs, rhs, rigor, bound, weight, level,
        detail=f"kernel {kernel_name}, theta^{m + 1}",
    )


# -- square-class congruences: theta^((ell+1)/2) f = theta f mod ell --------


def verify_square_class(claim: CongruenceClaim, margin: int = 0) -> VerificationReport:
    started = time.perf_counter()
    entry = etaquot.lookup(claim.form)
    k, n_level, ell = entry.weight, entry.level, claim.ell
    if ell % 2 == 0:
        raise ValueError(f"{claim.claim_id}: the square-class congruence needs odd ell")
    j = (ell + 1) // 2
    weight = k + j * (ell + 1)
    level = twist_level(n_level, trivial_mod(n_level))
    bound = agreement_bound(weight, level, cuspidal=True) + margin

    f_res = cached_expansion(entry, bound, residue_ring(ell))
    g = twist(f_res, trivial_mod(n_level))
    rigor = _rigor_for_table_row(ell, n_level)
    return _sturm_report(claim, started, theta(g, j), theta(g, 1), rigor, bound, weight, level)


# -- prime-power congruences on progressions of primes ----------------------


def _prime_scan(
    claim: CongruenceClaim,
    prime_bound: int,
    build_check: Callable[[etaquot.CatalogEntry], Callable[[int, int], Optional[bool]]],
    detail: str,
) -> VerificationReport:
    """Scan a(p) mod ell^t over the good primes p <= prime_bound.

    `build_check(entry)` validates the claim against its catalog form and
    returns the per-prime check(p, a(p)): None when p lies outside the
    claimed classes, else whether the congruence holds at p.  The scan
    stops at the first prime where it fails.
    """
    started = time.perf_counter()
    if prime_bound < 50:
        raise ValueError("prime bound below 50 would make the scan vacuous")
    entry = etaquot.lookup(claim.form)
    check = build_check(entry)
    f_res = cached_expansion(entry, prime_bound, residue_ring(claim.ell, claim.t))

    checked = 0
    witness = None
    for p in primes_up_to(prime_bound):
        if entry.level % p == 0 or p == claim.ell:
            continue
        holds = check(p, f_res[p])
        if holds is None:
            continue
        checked += 1
        if not holds:
            witness = p
            break
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


def verify_prime_power(
    claim: CongruenceClaim, prime_bound: int = DEFAULT_PRIME_BOUND
) -> VerificationReport:
    """Scan a(p) = p^m + p^m' mod ell^t over primes in the claimed classes."""
    ell, t, m, mp = claim.ell, claim.t, claim.m, claim.m_prime
    modulus = ell**t

    def build_check(entry: etaquot.CatalogEntry):
        phi = ell ** (t - 1) * (ell - 1)
        if (m + mp - (entry.weight - 1)) % phi != 0 and t > 1:
            raise ValueError(f"{claim.claim_id}: exponents violate m + m' = k - 1 mod phi(ell^t)")

        def check(p: int, a_p: int) -> Optional[bool]:
            if claim.residues is not None and p % claim.residue_modulus not in claim.residues:
                return None
            return a_p == (pow(p, m, modulus) + pow(p, mp, modulus)) % modulus

        return check

    classes = list(claim.residues) if claim.residues else "all"
    detail = f"classes {classes} mod {claim.residue_modulus}"
    return _prime_scan(claim, prime_bound, build_check, detail)


def verify_unit_factor(
    claim: CongruenceClaim, prime_bound: int = DEFAULT_PRIME_BOUND
) -> VerificationReport:
    """Scan a(p) = u (1 + p^m') mod ell^(t_c) with a unit u per residue class."""
    by_class = {c: (u, tc) for c, u, tc in claim.units}

    def build_check(entry: etaquot.CatalogEntry):
        if claim.t != max(tc for _, _, tc in claim.units):
            raise ValueError(f"{claim.claim_id}: t must equal the largest class exponent")

        def check(p: int, a_p: int) -> Optional[bool]:
            got = by_class.get(p % claim.residue_modulus)
            if got is None:
                return None
            u, tc = got
            mod_c = claim.ell**tc
            return (a_p - u * (1 + pow(p, claim.m_prime, mod_c))) % mod_c == 0

        return check

    detail = f"units {dict((c, u) for c, u, _ in claim.units)} mod {claim.residue_modulus}"
    return _prime_scan(claim, prime_bound, build_check, detail)


# -- twist-power congruences: f x 1_ell = f x kron(ell*) mod ell^a ----------


def verify_twist_power(claim: CongruenceClaim, margin: int = 0) -> VerificationReport:
    started = time.perf_counter()
    entry = etaquot.lookup(claim.form)
    k, n_level, ell, a = entry.weight, entry.level, claim.ell, claim.t
    if ell % 2 == 0:
        raise ValueError(f"{claim.claim_id}: twist comparison needs odd ell")
    disc = ell if ell % 4 == 1 else -ell
    chi = kronecker_character(disc)
    one_ell = trivial_mod(ell)
    level = lcm(twist_level(n_level, one_ell), twist_level(n_level, chi))
    bound = agreement_bound(k, level, cuspidal=True) + margin

    f_res = cached_expansion(entry, bound, residue_ring(ell, a))
    return _sturm_report(
        claim, started, twist(f_res, one_ell), twist(f_res, chi), "sturm-proved", bound, k, level,
        detail=f"1_{ell} twist vs kron({disc}) twist mod {ell}^{a}",
    )


# -- raw two-pipeline identities --------------------------------------------


def _build_recipe_side(recipe: Dict, ell: int, t: int, precision: int) -> QSeries:
    if "form" in recipe:
        series: QSeries = cached_expansion(
            etaquot.lookup(recipe["form"]), precision, residue_ring(ell, t)
        )
        rational = False
    elif "G" in recipe:
        series = eisenstein_G(recipe["G"], precision)
        rational = True
    else:
        raise ValueError(f"recipe needs a 'form' or 'G' base: {recipe}")
    if "twist" in recipe:
        series = twist(series, parse_character(recipe["twist"]))
    if "theta" in recipe:
        series = theta(series, recipe["theta"])
    if rational:
        series = reduce_mod(series, ell, t)
    if "pad" in recipe:
        e_weight, e_power = recipe["pad"]
        pad = reduce_mod(eisenstein_E(e_weight, precision), ell, t).pow(e_power)
        series = series * pad
    return series


def verify_raw_identity(claim: CongruenceClaim, margin: int = 0) -> VerificationReport:
    started = time.perf_counter()
    bound = agreement_bound(claim.weight, claim.level, cuspidal=True) + margin
    lhs = _build_recipe_side(claim.lhs, claim.ell, claim.t, bound)
    rhs = _build_recipe_side(claim.rhs, claim.ell, claim.t, bound)
    return _sturm_report(claim, started, lhs, rhs, "sturm-proved", bound, claim.weight, claim.level)


# -- dispatch ---------------------------------------------------------------

# Lambdas look the verify_* functions up when called, so a caller that
# replaces a module attribute (a tracer, a test) sees every dispatched claim.
_VERIFIERS = {
    "two-exponent": lambda c, margin, pb: verify_two_exponent(c, margin),
    "square-class": lambda c, margin, pb: verify_square_class(c, margin),
    "prime-power": lambda c, margin, pb: verify_prime_power(c, pb),
    "unit-factor": lambda c, margin, pb: verify_unit_factor(c, pb),
    "twist-power": lambda c, margin, pb: verify_twist_power(c, margin),
    "raw-identity": lambda c, margin, pb: verify_raw_identity(c, margin),
}


def _check_margin(margin: int) -> None:
    # a negative margin would compare below the Sturm bound yet still say proved
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")


def verify_claim(
    claim: CongruenceClaim,
    margin: int = 0,
    prime_bound: int = DEFAULT_PRIME_BOUND,
) -> VerificationReport:
    _check_margin(margin)
    try:
        runner = _VERIFIERS[claim.kind]
    except KeyError:
        raise ValueError(f"no verifier for claim kind {claim.kind!r}") from None
    return runner(claim, margin, prime_bound)


def verify_claims(
    claims,
    margin: int = 0,
    prime_bound: int = DEFAULT_PRIME_BOUND,
) -> List[VerificationReport]:
    """Verify claims one after another; reports sorted by claim id."""
    _check_margin(margin)
    reports = [verify_claim(c, margin, prime_bound) for c in claims]
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
    """Real characters whose modulus stays within the level: 1_N and
    quadratic symbols of conductor dividing 4N, folded with 1_N."""
    base = trivial_mod(n_level)
    out = [base]
    seen = {(base.trivial_part, base.disc)}
    for d in (-3, -4, 5, -7, -8, 8, -11, 13, -15, 12):
        chi = kronecker_character(d) * base
        if chi.modulus % n_level == 0 and (4 * n_level) % chi.modulus == 0:
            key = (chi.trivial_part, chi.disc)
            if key not in seen:
                seen.add(key)
                out.append(chi)
    return out


def _scan_candidate_holds(
    get_ap, primes: List[int], n_level: int, ell: int, m: int, mp: int, psi: Character
) -> Tuple[bool, int]:
    checked = 0
    for p in primes:
        if n_level % p == 0 or p == ell:
            continue
        checked += 1
        expected = psi(p) * (pow(p, m, ell) + pow(p, mp, ell))
        if (get_ap(p) - expected) % ell != 0:
            return False, checked
    return True, checked


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
    """
    if kind not in ("two-exponent", "square-class"):
        raise ValueError(f"unknown scan kind {kind!r}")
    if prime_bound < 50:
        raise ValueError("prime bound below 50 would make the scan vacuous")
    if ell_max < 2:
        raise ValueError(f"ell_max {ell_max} leaves no prime ell to scan")
    entry = etaquot.lookup(form_id)
    k, n_level = entry.weight, entry.level
    small = cached_expansion(entry, min(_PRESCAN_PRECISION, prime_bound), ZZ)
    small_primes = [p for p in primes_up_to(small.precision)]
    all_primes = primes_up_to(prime_bound)
    findings: List[ScanFinding] = []

    for ell in primes_up_to(ell_max):
        if kind == "square-class":
            if ell == 2:
                continue

            def relevant(ps):
                return [p for p in ps if n_level % p != 0 and p != ell and kronecker(p, ell) == -1]

            quick = relevant(small_primes)
            if quick and any(small[p] % ell != 0 for p in quick):
                continue
            full = relevant(all_primes)
            if not full:
                continue
            f_res = cached_expansion(entry, prime_bound, residue_ring(ell))
            if any(f_res[p] != 0 for p in full):
                continue
            qualified = n_level % ell == 0 or ell in (2 * k - 3, 2 * k - 1)
            findings.append(
                ScanFinding(ell=ell, kind=kind, masked=not qualified, primes_checked=len(full))
            )
            continue

        # two-exponent scan, cheap pass first.  Exponents only matter mod
        # ell - 1 (Fermat), so each unordered exponent pair is scanned once;
        # mod 2 every real character looks trivial, so only 1_N is tried.
        span = max(ell - 1, 1)
        survivors = []
        seen_pairs = set()
        candidates = _candidate_psi(n_level)
        if ell == 2:
            candidates = [trivial_mod(n_level)]
        for psi in candidates:
            for m in range(0, max(ell - 1, 1)):
                delta = (k - 1 - 2 * m) % span
                mp = m + (delta if delta else span)
                pair = (frozenset((m % span, mp % span)), psi.describe())
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                ok, _ = _scan_candidate_holds(
                    lambda p: small[p], small_primes, n_level, ell, m, mp, psi
                )
                if ok:
                    survivors.append((m, mp, psi))
        if not survivors:
            continue
        f_res = cached_expansion(entry, prime_bound, residue_ring(ell))
        for m, mp, psi in survivors:
            ok, checked = _scan_candidate_holds(
                lambda p: f_res[p], all_primes, n_level, ell, m, mp, psi
            )
            if ok:
                findings.append(
                    ScanFinding(
                        ell=ell,
                        kind=kind,
                        masked=False,
                        m=m,
                        m_prime=mp,
                        psi=psi.describe(),
                        primes_checked=checked,
                    )
                )
    return findings
