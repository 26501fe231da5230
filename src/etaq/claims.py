"""Declarative congruence claims: the built-in database and its file format.

A claim names a catalog form, a congruence kind, and the parameters the
verification engine needs; it carries no series data itself.  Claims marked
expect="fail" are deliberate near-misses that must be refuted - a run that
"verifies" one of those indicates a broken engine, not a discovery.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

KINDS = ("two-exponent", "square-class", "prime-power", "unit-factor", "twist-power", "raw-identity")

# The optional fields each kind reads; a claim may set no other.
_READS = {
    "two-exponent": {"m", "m_prime", "psi", "weight", "level"},
    "square-class": {"weight", "level"},
    "prime-power": {"m", "m_prime", "residues", "residue_modulus"},
    "unit-factor": {"m", "m_prime", "residue_modulus", "units"},
    "twist-power": {"weight", "level"},
    "raw-identity": {"weight", "level", "lhs", "rhs"},
}
_OPTIONAL = set().union(*_READS.values())


def _is_int(x) -> bool:
    """An int that is not a bool: JSON's 23.0 and true are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class CongruenceClaim:
    claim_id: str
    kind: str
    form: str
    ell: int
    t: int = 1
    m: Optional[int] = None
    m_prime: Optional[int] = None
    psi: Optional[str] = None
    residues: Optional[Tuple[int, ...]] = None
    residue_modulus: Optional[int] = None
    units: Optional[Tuple[Tuple[int, int, int], ...]] = None  # (class, unit, exponent)
    weight: Optional[int] = None
    level: Optional[int] = None
    lhs: Optional[Dict] = None
    rhs: Optional[Dict] = None
    expect: str = "pass"
    note: str = ""

    def __post_init__(self) -> None:
        if not all(isinstance(x, str) for x in (self.claim_id, self.form, self.note)):
            raise ValueError("claim_id, form and note must be strings")
        if self.kind not in KINDS:
            raise ValueError(f"unknown claim kind {self.kind!r}")
        if self.expect not in ("pass", "fail"):
            raise ValueError("expect must be 'pass' or 'fail'")
        scalars = (self.m, self.m_prime, self.residue_modulus)
        numbers = [self.ell, self.t, *(x for x in scalars if x is not None), *(self.residues or ())]
        numbers += [x for unit in self.units or () for x in unit]
        if not all(map(_is_int, numbers)):
            raise ValueError("ell, t, m, m_prime, residue_modulus, residues and units hold integers only")
        if self.ell < 2:
            raise ValueError("ell must be a prime >= 2")
        if self.t < 1:
            raise ValueError("modulus exponent must be >= 1")
        if self.kind in ("two-exponent", "prime-power"):
            if self.m is None or self.m_prime is None:
                raise ValueError(f"{self.kind} claim needs exponents m < m'")
            if not 0 <= self.m < self.m_prime:
                raise ValueError(f"need 0 <= m < m', got ({self.m}, {self.m_prime})")
        if self.kind in ("two-exponent", "square-class") and self.t != 1:
            raise ValueError(f"a {self.kind} claim is a congruence mod ell, so t must be 1")
        if self.kind == "two-exponent" and not self.psi:
            raise ValueError("two-exponent claim needs its character psi")
        if self.kind == "unit-factor" and not self.units:
            raise ValueError("unit-factor claim needs unit/class data")
        if self.kind == "unit-factor" and self.m_prime is None:
            raise ValueError("unit-factor claim needs its exponent m'")
        if self.kind == "unit-factor" and self.m not in (None, 0):
            raise ValueError("a unit-factor claim states a(p) = u (1 + p^m'), so m must be 0")
        if self.residues is not None or self.units:
            if self.residue_modulus is None or self.residue_modulus < 1:
                raise ValueError(f"{self.kind} claim with classes needs residue_modulus >= 1")
            if self.units and any(len(u) != 3 for u in self.units):
                raise ValueError("each unit-factor class is a triple [class, unit, exponent]")
            classes = self.residues if self.residues is not None else [u[0] for u in self.units]
            outside = [c for c in classes if not 0 <= c < self.residue_modulus]
            if outside:
                raise ValueError(
                    f"{self.kind} claim classes {outside} lie outside 0 .. {self.residue_modulus - 1}"
                )
        for declared in (self.weight, self.level):
            if declared is not None and (not _is_int(declared) or declared < 1):
                raise ValueError("a declared weight or level must be an integer >= 1")
        unread = sorted(n for n in _OPTIONAL - _READS[self.kind] if getattr(self, n) is not None)
        if "weight" in unread or "level" in unread:  # only the prime scans read neither
            raise ValueError(f"a {self.kind} claim is a prime scan: it has no weight or level")
        if unread:
            raise ValueError(f"a {self.kind} claim does not read {', '.join(unread)}")
        if self.kind == "raw-identity" and (self.lhs is None or self.rhs is None):
            raise ValueError("raw claim needs both side recipes")

    # -- serialization -----------------------------------------------------

    def to_json(self) -> Dict:
        """The fields in declaration order, without the ones left at their defaults."""
        out: Dict = {}
        for field in fields(self):
            name, value = field.name, getattr(self, field.name)
            if value is None:
                continue
            if name == "t" and value == 1:
                continue
            if name == "expect" and value == "pass":
                continue
            if name == "note" and not value:
                continue
            if name == "residues":
                value = list(value)
            if name == "units":
                value = [list(u) for u in value]
            out[name] = value
        return out

    @classmethod
    def from_json(cls, data: Dict) -> "CongruenceClaim":
        if not isinstance(data, dict):
            raise ValueError(f"a claim must be a JSON object, got {data!r}")
        unknown = set(data) - {field.name for field in fields(cls)}
        if unknown:
            raise ValueError(f"unknown claim fields: {sorted(unknown)}")
        kwargs = dict(data)
        # a missing field or a value of the wrong type surfaces as a TypeError;
        # report it as malformed input, naming the claim
        try:
            if "residues" in kwargs and kwargs["residues"] is not None:
                kwargs["residues"] = tuple(kwargs["residues"])
            if "units" in kwargs and kwargs["units"] is not None:
                kwargs["units"] = tuple(tuple(u) for u in kwargs["units"])
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"claim {data.get('claim_id', '?')!r}: {exc}") from None


def _two_exponent(form: str, ell: int, m: int, m_prime: int, psi: str) -> CongruenceClaim:
    return CongruenceClaim(
        claim_id=f"two-exponent:{form}:l{ell}",
        kind="two-exponent",
        form=form,
        ell=ell,
        m=m,
        m_prime=m_prime,
        psi=psi,
    )


def _square_class(form: str, ell: int, expect: str = "pass", note: str = "") -> CongruenceClaim:
    return CongruenceClaim(
        claim_id=f"square-class:{form}:l{ell}",
        kind="square-class",
        form=form,
        ell=ell,
        expect=expect,
        note=note,
    )


def _prime_power(
    form: str,
    ell: int,
    t: int,
    m: int,
    m_prime: int,
    residues: Optional[Tuple[int, ...]],
    residue_modulus: int,
    expect: str = "pass",
    note: str = "",
) -> CongruenceClaim:
    tag = f"prime-power:{form}:l{ell}^{t}"
    if expect == "fail":
        tag += ":sharpened"
    return CongruenceClaim(
        claim_id=tag,
        kind="prime-power",
        form=form,
        ell=ell,
        t=t,
        m=m,
        m_prime=m_prime,
        residues=residues,
        residue_modulus=residue_modulus,
        expect=expect,
        note=note,
    )


def _twist_power(form: str, a: int, expect: str = "pass", note: str = "") -> CongruenceClaim:
    return CongruenceClaim(
        claim_id=f"twist-power:{form}:l3^{a}",
        kind="twist-power",
        form=form,
        ell=3,
        t=a,
        expect=expect,
        note=note,
    )


def builtin_claims() -> Tuple[CongruenceClaim, ...]:
    """The complete shipped claim set, in a stable order."""
    claims = []

    # ---- two-exponent congruences a(p) = psi(p)(p^m + p^m') mod ell -------
    claims += [
        _two_exponent("delta", 3, 0, 1, "1_1"),
        _two_exponent("delta", 5, 1, 2, "1_1"),
        _two_exponent("delta", 7, 1, 4, "1_1"),
        _two_exponent("delta", 691, 0, 11, "1_1"),
        _two_exponent("eta1^8 eta2^8", 2, 0, 1, "1_2"),
        _two_exponent("eta1^8 eta2^8", 3, 0, 1, "1_2"),
        _two_exponent("eta1^8 eta2^8", 5, 1, 2, "1_2"),
        _two_exponent("eta1^8 eta2^8", 17, 0, 7, "1_2"),
        _two_exponent("eta1^6 eta3^6", 2, 0, 1, "1_3"),
        _two_exponent("eta1^6 eta3^6", 3, 0, 1, "kron(-3)"),
        _two_exponent("eta1^6 eta3^6", 13, 0, 5, "1_3"),
        _two_exponent("eta2^12", 2, 0, 1, "1_4"),
        _two_exponent("eta2^12", 3, 0, 1, "1_4"),
        _two_exponent("eta1^4 eta5^4", 2, 0, 1, "1_5"),
        _two_exponent("eta1^4 eta5^4", 5, 0, 3, "kron(5)"),
        _two_exponent("eta1^4 eta5^4", 13, 0, 3, "1_5"),
        _two_exponent("eta1^2 eta2^2 eta3^2 eta6^2", 2, 0, 1, "1_6"),
        _two_exponent("eta1^2 eta2^2 eta3^2 eta6^2", 3, 0, 1, "1_2 * kron(-3)"),
        _two_exponent("eta1^2 eta2^2 eta3^2 eta6^2", 5, 0, 3, "1_6"),
        _two_exponent("eta3^8", 2, 0, 1, "1_9"),
        _two_exponent("eta3^8", 3, 0, 1, "1_3 * kron(-3)"),
        _two_exponent("eta1^2 eta11^2", 5, 0, 1, "1_11"),
        _two_exponent("eta1 eta2 eta7 eta14", 2, 0, 1, "1_14"),
        _two_exponent("eta1 eta2 eta7 eta14", 3, 0, 1, "1_14"),
        _two_exponent("eta1 eta3 eta5 eta15", 2, 0, 1, "1_15"),
        _two_exponent("eta2^2 eta10^2", 2, 0, 1, "1_20"),
        _two_exponent("eta2^2 eta10^2", 3, 0, 1, "1_20"),
        _two_exponent("eta3^2 eta9^2", 3, 0, 1, "1_9 * kron(-3)"),
        _two_exponent("eta6^4", 2, 0, 1, "1_36"),
        _two_exponent("eta6^4", 3, 0, 1, "1_12 * kron(-3)"),
    ]

    # ---- square-class congruences theta^((ell+1)/2) f = theta f mod ell ---
    claims += [
        _square_class("delta", 23),
        _square_class("eta1^8 eta2^8", 3),
        _square_class("eta1^6 eta3^6", 3),
        _square_class("eta2^12", 3),
        _square_class("eta2^12", 11),
        _square_class("eta4^36 / eta2^12 eta8^12", 3),
        _square_class("eta4^36 / eta2^12 eta8^12", 11),
        _square_class("eta1^4 eta2^2 eta4^4", 7),
        _square_class("eta8^38 / eta4^14 eta16^14", 7),
        _square_class("eta1^3 eta7^3", 3),
        _square_class("eta3^8", 3),
        _square_class("eta3^8", 5),
        _square_class("eta3^8", 7),
        _square_class("eta2^3 eta6^3", 3),
        _square_class("eta4^9 eta12^9 / eta2^3 eta6^3 eta8^3 eta24^3", 3),
        _square_class("eta1 eta2 eta7 eta14", 3),
        _square_class("eta4^6", 3),
        _square_class("eta8^18 / eta4^6 eta16^6", 3),
        _square_class("eta2^2 eta10^2", 3),
        _square_class("eta6^4", 3),
        _square_class("eta12^12 / eta6^4 eta24^4", 3),
        _square_class(
            "delta",
            29,
            expect="fail",
            note="control: 29 is not exceptional, a small witness must refute it",
        ),
    ]

    # ---- prime-power congruences on arithmetic progressions of p ----------
    eta3_8_mod81 = tuple(sorted(set(range(1, 81, 3)) | {26, 53, 80}))
    claims += [
        _prime_power("eta1^8 eta2^8", 2, 6, 0, 7, None, 64),
        _prime_power("eta1^8 eta2^8", 3, 3, 12, 13, None, 27),
        _prime_power("eta1^6 eta3^6", 2, 4, 0, 5, (5, 7, 11, 19), 24),
        _prime_power("eta1^6 eta3^6", 2, 5, 0, 5, (13, 17, 23), 24),
        _prime_power("eta1^6 eta3^6", 2, 6, 0, 5, (1,), 24),
        _prime_power("eta2^12", 2, 8, 0, 5, (3,), 8),
        _prime_power("eta2^12", 2, 9, 0, 5, (7,), 8),
        _prime_power("eta2^12", 2, 10, 0, 5, (5,), 8),
        _prime_power("eta2^12", 2, 11, 0, 5, (1,), 8),
        _prime_power("eta2^12", 3, 2, 1, 4, (2, 5), 9),
        _prime_power("eta2^12", 3, 3, 1, 4, (8, 17, 26), 27),
        _prime_power("eta1^4 eta5^4", 5, 2, 1, 2, (1, 6, 7, 11, 16, 18, 21, 24), 25),
        _prime_power("eta3^8", 2, 2, 0, 1, (3,), 4),
        _prime_power("eta3^8", 3, 4, 0, 3, eta3_8_mod81, 81),
        _prime_power("eta1^2 eta2^2 eta3^2 eta6^2", 2, 2, 0, 1, None, 4),
        _prime_power("eta1^2 eta11^2", 5, 2, 0, 1, (1, 6, 11, 16, 21), 25),
        _prime_power("eta1 eta2 eta7 eta14", 3, 2, 0, 1, (1, 4, 7), 9),
        _prime_power("eta1 eta3 eta5 eta15", 2, 3, 0, 1, None, 8),
        _prime_power("eta3^2 eta9^2", 3, 3, 0, 1, (1, 10, 19, 26), 27),
        _prime_power(
            "eta1^8 eta2^8",
            2,
            7,
            0,
            7,
            None,
            64,
            note="one power sharper than the modulus-64 row; the scan shows 7 is the true exponent",
        ),
        _prime_power(
            "eta1^8 eta2^8",
            2,
            8,
            0,
            7,
            None,
            64,
            expect="fail",
            note="control: the exponent 7 is sharp, so one more power of 2 must be refuted",
        ),
    ]

    # ---- unit-corrected prime-power congruences a(p) = u (1 + p^5) --------
    claims += [
        CongruenceClaim(
            claim_id="unit-factor:eta2^12:l2",
            kind="unit-factor",
            form="eta2^12",
            ell=2,
            t=14,
            m=0,
            m_prime=5,
            residue_modulus=8,
            units=((1, 1, 11), (3, 1729, 12), (5, 1537, 12), (7, 193, 14)),
        ),
        CongruenceClaim(
            claim_id="unit-factor:eta1^6 eta3^6:l2",
            kind="unit-factor",
            form="eta1^6 eta3^6",
            ell=2,
            t=5,
            m=0,
            m_prime=5,
            residue_modulus=24,
            units=((11, 5, 5), (19, 5, 5), (5, 9, 5)),
        ),
    ]

    # ---- twist-power congruences f x 1_3 = f x kron(-3) mod 3^a -----------
    claims += [
        _twist_power("eta2^12", 1),
        _twist_power("eta2^12", 2),
        _twist_power("eta2^12", 3),
        _twist_power("eta2^12", 4, expect="fail", note="control: the exponent 3 is sharp"),
        _twist_power("eta3^8", 1),
        _twist_power("eta3^8", 2),
        _twist_power("eta3^8", 3),
        _twist_power("eta3^8", 4),
        _twist_power("eta3^8", 5),
        _twist_power("eta2^3 eta6^3", 1),
        _twist_power("eta2^3 eta6^3", 2),
        _twist_power("eta2^3 eta6^3", 3),
        _twist_power("eta2^3 eta6^3", 4),
        _twist_power("eta2^3 eta6^3", 5),
        _twist_power("eta3^2 eta9^2", 1),
        _twist_power("eta3^2 eta9^2", 2),
        _twist_power("eta3^2 eta9^2", 3),
        _twist_power("eta3^2 eta9^2", 4),
        _twist_power("eta3^2 eta9^2", 5),
        _twist_power("eta6^4", 1),
        _twist_power("eta6^4", 2),
        _twist_power("eta6^4", 3),
        _twist_power("eta6^4", 4),
        _twist_power("eta6^4", 5),
    ]

    # ---- a raw two-pipeline identity checked deep in a big space ----------
    claims.append(
        CongruenceClaim(
            claim_id="raw-identity:eta1^8 eta2^8:l3^3",
            kind="raw-identity",
            form="eta1^8 eta2^8",
            ell=3,
            t=3,
            weight=320,
            level=36,
            lhs={"form": "eta1^8 eta2^8", "twist": "1_2", "theta": 3, "pad": [18, 14]},
            rhs={"G": 20, "twist": "1_2", "theta": 15},
        )
    )

    return tuple(claims)
