"""Exact truncated q-series arithmetic over ZZ, QQ, and Z/ell^t.

A series stores trusted coefficients a(0..P) for an explicit precision P and
an explicit coefficient ring.  Values are immutable; every operation returns
a fresh series and never fabricates coefficients beyond what both operands
warrant (the min-precision rule).  Residue-ring coefficients are kept fully
reduced in [0, ell^t) so equality is a plain sequence comparison.

Every product, over every ring, is one exact Kronecker substitution
(Harvey, J. Symbolic Comput. 44, 2009): each operand is packed into a single
Python int with slots wide enough for every output coefficient, the two ints
are multiplied once by CPython's Karatsuba, and the low precision+1 slots are
unpacked.  Outside input is normalized coefficient by coefficient; results of
internal arithmetic are reduced in bulk (one `% m` over Z/ell^t, nothing over
ZZ) and wrapped without `Ring.normalize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import Sequence, Union

import numpy as np

Coeff = Union[int, Fraction]


def _is_prime(n: int) -> bool:
    """Trial-division primality check (moduli here are tiny)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Ring:
    """Coefficient ring marker: exact integers, exact rationals, or Z/ell^t."""

    kind: str  # "ZZ" | "QQ" | "mod"
    ell: int | None = None
    t: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("ZZ", "QQ", "mod"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "mod":
            if not self.ell or not self.t or self.t < 1:
                raise ValueError("residue ring needs a prime base and exponent t >= 1")
            if not _is_prime(self.ell):
                raise ValueError(f"residue ring base {self.ell} is not prime")

    @property
    def modulus(self) -> int:
        if self.kind != "mod":
            raise ValueError("modulus only makes sense for residue rings")
        return self.ell**self.t

    def normalize(self, x: Coeff) -> Coeff:
        if self.kind == "mod":
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError("fractions cannot enter a residue ring directly; use reduce_mod")
                x = x.numerator
            return int(x) % self.modulus
        if self.kind == "QQ":
            return x if isinstance(x, Fraction) else Fraction(x)
        # ZZ
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"non-integer coefficient {x} in integer ring")
            return x.numerator
        return int(x)

    def one(self) -> Coeff:
        return Fraction(1) if self.kind == "QQ" else 1

    def zero(self) -> Coeff:
        return Fraction(0) if self.kind == "QQ" else 0

    def describe(self) -> str:
        if self.kind == "mod":
            return f"Z/{self.ell}" if self.t == 1 else f"Z/{self.ell}^{self.t}"
        return self.kind


ZZ = Ring("ZZ")
QQ = Ring("QQ")


def residue_ring(ell: int, t: int = 1) -> Ring:
    return Ring("mod", ell, t)


def residue_dtype(modulus: int):
    """The numpy dtype that holds residues mod `modulus`: int64 while the
    product of two residues fits, (modulus - 1)^2 < 2^63, else object
    (Python ints, e.g. mod 2^40)."""
    return np.int64 if (modulus - 1) ** 2 < 2**63 else object


def powers_mod(base: np.ndarray, e: int, modulus) -> np.ndarray:
    """base^e mod modulus elementwise by square and multiply, for e >= 0 and
    a modulus that is one number or an array like base; every step is
    reduced, so residues of a `residue_dtype` array never overflow."""
    base = base % modulus
    result = np.ones_like(base) % modulus
    while e:
        if e & 1:
            result = result * base % modulus
        e >>= 1
        if e:
            base = base * base % modulus
    return result


def _pack(values: Sequence[int], width: int) -> int:
    """sum values[i] * 256^(width*i) for values in [0, 256^width)."""
    chunks = map(int.to_bytes, values, repeat(width), repeat("little"))
    return int.from_bytes(b"".join(chunks), "little")


def _signed_pack(values: Sequence[int], width: int) -> int:
    """sum values[i] * 256^(width*i) for signed values: positive part minus negative part."""
    packed = _pack([c if c > 0 else 0 for c in values], width)
    if min(values) < 0:
        packed -= _pack([-c if c < 0 else 0 for c in values], width)
    return packed


def _int_product(a: Sequence[int], b: Sequence[int], limit: int) -> list:
    """Exact truncated product c(n) = sum_(i+j=n) a(i) b(j), 0 <= n <= limit.

    a and b hold limit+1 Python ints each.  Kronecker substitution: every
    |c(n)| <= max|a| * max|b| * (limit+1) < 2^(w-1) for the slot width w
    chosen here, so one product of the packed operands carries each c(n)
    in its own slot.  Adding 2^(w-1) to each of the low limit+1 slots makes
    every slot a nonnegative w-bit string that reads back on its own.
    """
    top_a = max(max(a), -min(a))
    top_b = max(max(b), -min(b))
    if not top_a or not top_b:
        return [0] * (limit + 1)
    bits = top_a.bit_length() + top_b.bit_length() + (limit + 1).bit_length() + 1
    width = (bits + 7) // 8
    size = (limit + 1) * width
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * (limit + 1), "little")
    low = (_signed_pack(a, width) * _signed_pack(b, width) + offset) & ((1 << (8 * size)) - 1)
    slots = low.to_bytes(size, "little")
    half = 1 << (8 * width - 1)
    read = int.from_bytes
    return [read(slots[i : i + width], "little") - half for i in range(0, size, width)]


class QSeries:
    """Immutable truncated power series sum a(n) q^n, 0 <= n <= precision.

    A series made from a numpy array keeps it (`residues`) and reads it as
    the tuple `coeffs` only when asked, so a residue series stays an array
    from the expansion to the comparison that reads it.
    """

    __slots__ = ("ring", "precision", "_coeffs", "_array")

    def __init__(self, ring: Ring, coeffs: Sequence[Coeff], precision: int | None = None):
        if precision is None:
            precision = len(coeffs) - 1
        if precision < 0:
            raise ValueError("precision must be non-negative")
        padded = list(coeffs[: precision + 1])
        padded.extend([0] * (precision + 1 - len(padded)))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "_coeffs", tuple(ring.normalize(c) for c in padded))
        object.__setattr__(self, "_array", None)

    @classmethod
    def _canonical(cls, ring: Ring, coeffs: Sequence[Coeff], precision: int) -> "QSeries":
        """Wrap exactly precision+1 coefficients that are already canonical for `ring`.

        Skips the per-coefficient `Ring.normalize`, so callers must guarantee
        Python ints (ZZ), ints reduced into [0, modulus) (residue rings) or
        Fractions (QQ).  A numpy array is kept as it is, made read-only, and
        never written again by its caller.  Input from outside always goes
        through `__init__`.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "precision", precision)
        if isinstance(coeffs, np.ndarray):
            coeffs.flags.writeable = False
            object.__setattr__(self, "_coeffs", None)
            object.__setattr__(self, "_array", coeffs)
        else:
            object.__setattr__(self, "_coeffs", tuple(coeffs))
            object.__setattr__(self, "_array", None)
        return self

    @property
    def coeffs(self) -> tuple:
        """a(0), ..., a(precision) as a tuple of Python numbers."""
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", tuple(self._array.tolist()))
        return self._coeffs

    def residues(self) -> np.ndarray:
        """a(0), ..., a(precision) as a read-only numpy array: dtype
        `residue_dtype(ell^t)` over Z/ell^t, Python numbers (object) over ZZ
        and QQ."""
        if self._array is None:
            dtype = residue_dtype(self.ring.modulus) if self.ring.kind == "mod" else object
            array = np.array(self._coeffs, dtype=dtype)
            array.flags.writeable = False
            object.__setattr__(self, "_array", array)
        return self._array

    @classmethod
    def _reduced(cls, ring: Ring, coeffs: Sequence[Coeff], precision: int) -> "QSeries":
        """Wrap exactly precision+1 results of ring arithmetic on canonical coefficients.

        Reduces in bulk: one `% m` per coefficient over Z/ell^t and nothing
        over ZZ (callers pass Python ints); QQ keeps `Ring.normalize`.
        """
        if ring.kind == "mod":
            m = ring.modulus
            return cls._canonical(ring, [c % m for c in coeffs], precision)
        if ring.kind == "ZZ":
            return cls._canonical(ring, coeffs, precision)
        return cls(ring, coeffs, precision)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("QSeries values are immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(ring: Ring, value: Coeff, precision: int) -> "QSeries":
        return QSeries(ring, [value], precision)

    @staticmethod
    def one(ring: Ring, precision: int) -> "QSeries":
        return QSeries.constant(ring, 1, precision)

    @staticmethod
    def zero(ring: Ring, precision: int) -> "QSeries":
        return QSeries.constant(ring, 0, precision)

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QSeries)
            and self.ring == other.ring
            and self.precision == other.precision
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.precision, self.coeffs))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.precision > 5 else ""
        return f"QSeries({self.ring.describe()}, P={self.precision}, [{head}{tail}])"

    def __getitem__(self, n: int) -> Coeff:
        if not 0 <= n <= self.precision:
            raise IndexError(f"coefficient index {n} beyond precision {self.precision}")
        return self.coeffs[n]

    def _check_ring(self, other: "QSeries") -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring.describe()} vs {other.ring.describe()}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        self._check_ring(other)
        p = min(self.precision, other.precision)
        pairs = zip(self.coeffs[: p + 1], other.coeffs[: p + 1])
        return QSeries._reduced(self.ring, [x + y for x, y in pairs], p)

    def __sub__(self, other: "QSeries") -> "QSeries":
        self._check_ring(other)
        p = min(self.precision, other.precision)
        pairs = zip(self.coeffs[: p + 1], other.coeffs[: p + 1])
        return QSeries._reduced(self.ring, [x - y for x, y in pairs], p)

    def __neg__(self) -> "QSeries":
        return QSeries._reduced(self.ring, [-c for c in self.coeffs], self.precision)

    def scale(self, value: Coeff) -> "QSeries":
        """Multiply every coefficient by a scalar of the same ring."""
        value = self.ring.normalize(value)
        return QSeries._reduced(self.ring, [value * c for c in self.coeffs], self.precision)

    def __mul__(self, other: "QSeries") -> "QSeries":
        """Truncated Cauchy product at the smaller precision, by one exact integer product."""
        self._check_ring(other)
        ring = self.ring
        p = min(self.precision, other.precision)
        a = self.coeffs[: p + 1]
        b = other.coeffs[: p + 1]
        if ring.kind != "QQ":
            return QSeries._reduced(ring, _int_product(a, b, p), p)
        # clear denominators, multiply the integer numerators, divide back
        da = lcm(*(c.denominator for c in a))
        db = lcm(*(c.denominator for c in b))
        nums = _int_product(
            [c.numerator * (da // c.denominator) for c in a],
            [c.numerator * (db // c.denominator) for c in b],
            p,
        )
        den = da * db
        return QSeries._canonical(ring, [Fraction(c, den) for c in nums], p)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse by Newton iteration; needs a unit constant term."""
        c0 = self.coeffs[0]
        ring = self.ring
        if ring.kind == "QQ":
            if c0 == 0:
                raise ValueError("constant term 0 is not invertible")
            inv0 = Fraction(1) / c0
        elif ring.kind == "ZZ":
            if c0 not in (1, -1):
                raise ValueError(f"constant term {c0} is not a unit in ZZ")
            inv0 = c0
        else:
            try:
                inv0 = pow(int(c0), -1, ring.modulus)
            except ValueError:
                raise ValueError(
                    f"constant term {c0} is not a unit mod {ring.ell}^{ring.t}"
                ) from None
        result = QSeries.constant(ring, inv0, 0)
        cur = 0
        two = QSeries.constant(ring, 2, self.precision)
        while cur < self.precision:
            cur = min(2 * cur + 1, self.precision)
            a_cut = self.truncate(cur)
            pad = (ring.zero(),) * (cur - result.precision)
            x = QSeries._canonical(ring, result.coeffs + pad, cur)
            result = x * (two.truncate(cur) - a_cut * x)
        return result

    def pow(self, e: int) -> "QSeries":
        """Binary powering; negative exponents invert first."""
        if e == 0:
            return QSeries.one(self.ring, self.precision)
        base = self.inverse() if e < 0 else self
        e = abs(e)
        result = None
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    __pow__ = pow

    # -- structural helpers ------------------------------------------------

    def truncate(self, precision: int) -> "QSeries":
        """Restrict to a lower precision (never extends)."""
        if precision > self.precision:
            raise ValueError("cannot extend precision by truncation")
        if precision == self.precision:
            return self
        source = self._coeffs if self._array is None else self._array
        return QSeries._canonical(self.ring, source[: precision + 1], precision)

    def dilate(self, m: int, precision: int) -> "QSeries":
        """Substitute q -> q^m, i.e. place a(n) at q^(m n), up to the given precision."""
        if m < 1:
            raise ValueError("dilation factor must be >= 1")
        if precision > m * self.precision + m - 1:
            raise ValueError("dilation target precision exceeds known coefficients")
        out = [self.ring.zero()] * (precision + 1)
        out[::m] = self.coeffs[: precision // m + 1]
        return QSeries._canonical(self.ring, out, precision)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def reduce_mod(a: QSeries, ell: int, t: int = 1) -> QSeries:
    """Map a ZZ or QQ series into Z/ell^t, inverting denominators coprime to ell.

    A coefficient with denominator divisible by ell is an error: the series
    is not ell-integral and has no reduction.
    """
    if a.ring.kind == "mod":
        raise ValueError("series is already in a residue ring; reduce from ZZ or QQ")
    ring = residue_ring(ell, t)
    out = [reduce_coefficient(c, ring, n) for n, c in enumerate(a.coeffs)]
    return QSeries._canonical(ring, out, a.precision)


def reduce_coefficient(c: Coeff, ring: Ring, n: int = 0) -> int:
    """Coefficient a(n) = c, an integer or a fraction, in the residue ring
    `ring`; a denominator divisible by ell is an error."""
    num, den = (c.numerator, c.denominator) if isinstance(c, Fraction) else (c, 1)
    ell, t, m = ring.ell, ring.t, ring.modulus
    if den % ell == 0:
        raise ValueError(f"coefficient a({n}) = {c} is not {ell}-integral; cannot reduce mod {ell}^{t}")
    return num * pow(den, -1, m) % m


def first_mismatch(a: QSeries, b: QSeries) -> int | None:
    """First index (up to the common precision) where two series differ."""
    if a.ring != b.ring:
        raise ValueError("ring mismatch in comparison")
    p = min(a.precision, b.precision)
    a_coeffs, b_coeffs = a.coeffs, b.coeffs
    for n in range(p + 1):
        if a_coeffs[n] != b_coeffs[n]:
            return n
    return None
