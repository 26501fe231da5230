"""Exact truncated q-series arithmetic over ZZ and Z/ell^t.

A series stores trusted coefficients a(0..P) for an explicit precision P and
an explicit coefficient ring, as one read-only numpy array of dtype
`Ring.dtype`: Python ints (object) over ZZ, residues in [0, ell^t) over
Z/ell^t (int64 while a product of two fits, else object).  Values are
immutable, and residues are kept fully reduced, so equality compares the
arrays.  The engine reads a series only as that array (`residues`): sums,
differences and scalings are numpy on it, and a constant c is
`QSeries(ring, [c], P)`.

The one ring operation is the product, which keeps the smaller precision
and so never fabricates coefficients beyond what both operands warrant (the
min-precision rule).  Over both rings it is one exact Kronecker substitution
(Harvey, J. Symbolic Comput. 44, 2009): each operand is packed into a single
Python int with slots wide enough for every output coefficient, the two ints
are multiplied once by CPython's Karatsuba, and the low precision+1 slots are
unpacked.  Outside input (Python or numpy integers only) is normalized
coefficient by coefficient, and a ZZ series enters Z/ell^t the same way:
`QSeries(residue_ring(ell, t), s.coeffs)`.  Results of internal arithmetic
are arrays reduced in bulk (one `% m` over Z/ell^t, nothing over ZZ) and
wrapped without `Ring.normalize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Sequence

import numpy as np

from .characters import factor


@dataclass(frozen=True)
class Ring:
    """Coefficient ring marker: exact integers or Z/ell^t."""

    kind: str  # "ZZ" | "mod"
    ell: int | None = None
    t: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("ZZ", "mod"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "mod":
            if not self.ell or not self.t or self.t < 1:
                raise ValueError("residue ring needs a prime base and exponent t >= 1")
            if factor(self.ell, "residue ring base", "ell") != {self.ell: 1}:
                raise ValueError(f"residue ring base {self.ell} is not prime")

    @property
    def modulus(self) -> int:
        if self.kind != "mod":
            raise ValueError("modulus only makes sense for residue rings")
        return self.ell**self.t

    @property
    def dtype(self):
        """The numpy dtype of a series' coefficients: `residue_dtype(ell^t)`
        over Z/ell^t, object (Python ints) over ZZ."""
        return residue_dtype(self.modulus) if self.kind == "mod" else object

    def normalize(self, x: int) -> int:
        """A Python or numpy integer as a canonical coefficient: itself over
        ZZ, its residue in [0, ell^t) over Z/ell^t.  Anything else (a float,
        a Fraction) is an error, never truncated."""
        if not isinstance(x, (int, np.integer)):
            raise ValueError(f"coefficient {x!r} is not an integer")
        return int(x) % self.modulus if self.kind == "mod" else int(x)

    def describe(self) -> str:
        if self.kind == "mod":
            return f"Z/{self.ell}" if self.t == 1 else f"Z/{self.ell}^{self.t}"
        return self.kind


ZZ = Ring("ZZ")


def residue_ring(ell: int, t: int = 1) -> Ring:
    return Ring("mod", ell, t)


def residue_dtype(modulus: int):
    """The numpy dtype that holds residues mod `modulus`: int64 while the
    product of two residues fits, (modulus - 1)^2 < 2^63, else object
    (Python ints, e.g. mod 2^40)."""
    return np.int64 if (modulus - 1) ** 2 < 2**63 else object


def powers_mod(base, e, modulus) -> np.ndarray:
    """base^e mod modulus elementwise by square and multiply, for an
    exponent e >= 0 and a modulus that are each one number or an array
    broadcast against base (Euler's criterion is x^((ell - 1)/2) mod ell
    for a column of ell); every step is reduced, so residues of a
    `residue_dtype` array never overflow."""
    base = base % modulus
    result = np.ones_like(base) % modulus
    one = np.ndim(e) == 0
    e = int(e) if one else np.asarray(e)
    for bit in range((e if one else int(e.max(initial=0))).bit_length()):
        base = base * base % modulus if bit else base
        if not one:
            result = np.where(e >> bit & 1, result * base % modulus, result)
        elif e >> bit & 1:
            result = result * base % modulus
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

    The coefficients are one read-only numpy array of dtype `ring.dtype`
    (`residues`); `coeffs` reads it as a tuple of Python ints.
    """

    __slots__ = ("ring", "precision", "_array")

    def __init__(self, ring: Ring, coeffs: Sequence[int], precision: int | None = None):
        if precision is None:
            precision = len(coeffs) - 1
        if precision < 0:
            raise ValueError("precision must be non-negative")
        values = [ring.normalize(c) for c in coeffs[: precision + 1]]
        values.extend([0] * (precision + 1 - len(values)))
        self._wrap(ring, values, precision)

    def _wrap(self, ring: Ring, coeffs: Sequence[int], precision: int) -> None:
        array = np.asarray(coeffs, dtype=ring.dtype)
        array.flags.writeable = False
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "_array", array)

    @classmethod
    def _canonical(cls, ring: Ring, coeffs: Sequence[int], precision: int) -> "QSeries":
        """Wrap exactly precision+1 coefficients that are already canonical for `ring`.

        Skips the per-coefficient `Ring.normalize`, so callers must guarantee
        integers (ZZ) or integers reduced into [0, modulus) (residue rings).
        An array of dtype `ring.dtype` is kept as it is, made read-only, and
        never written again by its caller.  Input from outside always goes
        through `__init__`.
        """
        self = object.__new__(cls)
        self._wrap(ring, coeffs, precision)
        return self

    @property
    def coeffs(self) -> tuple:
        """a(0), ..., a(precision) as a tuple of Python ints."""
        return tuple(self._array.tolist())

    def residues(self) -> np.ndarray:
        """a(0), ..., a(precision) as a read-only numpy array of dtype `ring.dtype`."""
        return self._array

    @classmethod
    def _reduced(cls, ring: Ring, coeffs: np.ndarray, precision: int) -> "QSeries":
        """Wrap exactly precision+1 results of ring arithmetic on canonical
        coefficients, an array, reduced in bulk: one `% m` over Z/ell^t and
        nothing over ZZ."""
        if ring.kind == "mod":
            coeffs = coeffs % ring.modulus
        return cls._canonical(ring, coeffs, precision)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("QSeries values are immutable")

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QSeries)
            and self.ring == other.ring
            and self.precision == other.precision
            and np.array_equal(self._array, other._array)
        )

    def __hash__(self):
        return hash((self.ring, self.precision, self.coeffs))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._array[:6].tolist())
        tail = ", ..." if self.precision > 5 else ""
        return f"QSeries({self.ring.describe()}, P={self.precision}, [{head}{tail}])"

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.precision:
            raise IndexError(f"coefficient index {n} beyond precision {self.precision}")
        return int(self._array[n])

    def _check_ring(self, other: "QSeries") -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring.describe()} vs {other.ring.describe()}")

    # -- the one ring operation --------------------------------------------

    def __mul__(self, other: "QSeries") -> "QSeries":
        """Truncated Cauchy product at the smaller precision, by one exact integer product."""
        self._check_ring(other)
        p = min(self.precision, other.precision)
        product = _int_product(self._array[: p + 1].tolist(), other._array[: p + 1].tolist(), p)
        return QSeries._reduced(self.ring, np.array(product, dtype=object), p)

    # -- structural helpers ------------------------------------------------

    def truncate(self, precision: int) -> "QSeries":
        """Restrict to a lower precision (never extends)."""
        if precision > self.precision:
            raise ValueError("cannot extend precision by truncation")
        if precision == self.precision:
            return self
        return QSeries._canonical(self.ring, self._array[: precision + 1], precision)

    def is_zero(self) -> bool:
        return not self._array.any()


def reduce_coefficient(c: int | Fraction, ring: Ring) -> int:
    """A constant term a(0) = c, an integer or a fraction, in the residue
    ring `ring`; a denominator divisible by ell is an error."""
    num, den = c.numerator, c.denominator
    ell, t, m = ring.ell, ring.t, ring.modulus
    if den % ell == 0:
        raise ValueError(f"coefficient a(0) = {c} is not {ell}-integral; cannot reduce mod {ell}^{t}")
    return num * pow(den, -1, m) % m
