"""etaq: exact q-series arithmetic for eta-quotient newforms, plus a
verification engine for their coefficient congruences.

The pieces fit together like this: `qseries` is the truncated-series
substrate, `etaquot` expands eta quotients and carries the catalog of
newforms, `eisenstein` builds the Eisenstein side of each comparison,
`operators` applies theta (twists included), U and Hecke maps, `sturm`
says how many coefficients decide a congruence, and `congruence` runs the
claims from `claims` and writes reports.  `oracles` holds independent slow reference
computations used only to cross-check the rest.
"""

from .characters import Character, kronecker, kronecker_character, parse_character, trivial_mod
from .claims import CongruenceClaim, builtin_claims
from .congruence import (
    ScanFinding,
    VerificationReport,
    classify_square_class_prime,
    scan_exceptional,
    verify_claim,
    verify_claims,
)
from .eisenstein import eisenstein_G
from .etaquot import CatalogEntry, EtaQuotient, catalog, expand, lookup
from .operators import FormMeta, hecke_tn, theta, u_operator
from .qseries import QSeries, Ring, ZZ, residue_ring
from .sturm import agreement_bound, group_index

__version__ = "0.1.0"

__all__ = [
    "Character",
    "CongruenceClaim",
    "CatalogEntry",
    "EtaQuotient",
    "FormMeta",
    "QSeries",
    "Ring",
    "ScanFinding",
    "VerificationReport",
    "ZZ",
    "agreement_bound",
    "builtin_claims",
    "catalog",
    "classify_square_class_prime",
    "eisenstein_G",
    "expand",
    "group_index",
    "hecke_tn",
    "kronecker",
    "kronecker_character",
    "lookup",
    "parse_character",
    "residue_ring",
    "scan_exceptional",
    "theta",
    "trivial_mod",
    "u_operator",
    "verify_claim",
    "verify_claims",
]
