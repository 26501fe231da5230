"""Exact truncated q-series arithmetic over ZZ, QQ, and Z/ell^t.

A series stores trusted coefficients a(0..P) for an explicit precision P and
an explicit coefficient ring.  Values are immutable; every operation returns
a fresh series and never fabricates coefficients beyond what both operands
warrant (the min-precision rule).  Residue-ring coefficients are kept fully
reduced in [0, ell^t) so equality is a plain sequence comparison.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

Coeff = Union[int, Fraction]

# numpy int64 convolution is safe as long as the worst-case accumulated dot
# product (modulus-1)^2 * (P+1) stays below 2^63.
_INT64_LIMIT = 2**63 - 1


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


def _conv_exact(a: Sequence[Coeff], b: Sequence[Coeff], limit: int) -> list:
    """Truncated Cauchy product by direct convolution, exact arithmetic."""
    la, lb = len(a), len(b)
    out = []
    for n in range(limit + 1):
        lo = max(0, n - lb + 1)
        hi = min(n, la - 1)
        if lo > hi:
            out.append(0)
            continue
        stop = n - hi - 1
        seg = b[n - lo : (stop if stop >= 0 else None) : -1]
        out.append(sum(map(operator.mul, a[lo : hi + 1], seg)))
    return out


class QSeries:
    """Immutable truncated power series sum a(n) q^n, 0 <= n <= precision."""

    __slots__ = ("ring", "precision", "coeffs")

    def __init__(self, ring: Ring, coeffs: Sequence[Coeff], precision: int | None = None):
        if precision is None:
            precision = len(coeffs) - 1
        if precision < 0:
            raise ValueError("precision must be non-negative")
        padded = list(coeffs[: precision + 1])
        padded.extend([0] * (precision + 1 - len(padded)))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "coeffs", tuple(ring.normalize(c) for c in padded))

    @classmethod
    def _canonical(cls, ring: Ring, coeffs: Sequence[Coeff], precision: int) -> "QSeries":
        """Wrap exactly precision+1 coefficients that are already canonical for `ring`.

        Skips the per-coefficient `Ring.normalize`, so callers must guarantee
        Python ints (ZZ), ints reduced into [0, modulus) (residue rings) or
        Fractions (QQ).  Input from outside always goes through `__init__`.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        return self

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
        return QSeries(self.ring, [x + y for x, y in zip(self.coeffs[: p + 1], other.coeffs[: p + 1])], p)

    def __sub__(self, other: "QSeries") -> "QSeries":
        self._check_ring(other)
        p = min(self.precision, other.precision)
        return QSeries(self.ring, [x - y for x, y in zip(self.coeffs[: p + 1], other.coeffs[: p + 1])], p)

    def __neg__(self) -> "QSeries":
        return QSeries(self.ring, [-c for c in self.coeffs], self.precision)

    def scale(self, value: Coeff) -> "QSeries":
        """Multiply every coefficient by a scalar of the same ring."""
        value = self.ring.normalize(value)
        return QSeries(self.ring, [value * c for c in self.coeffs], self.precision)

    def __mul__(self, other: "QSeries") -> "QSeries":
        self._check_ring(other)
        p = min(self.precision, other.precision)
        a = self.coeffs[: p + 1]
        b = other.coeffs[: p + 1]
        if self.ring.kind == "mod":
            m = self.ring.modulus
            if (m - 1) * (m - 1) * (p + 1) < _INT64_LIMIT:
                arr = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
                return QSeries._canonical(self.ring, (arr[: p + 1] % m).tolist(), p)
            return QSeries._canonical(self.ring, [c % m for c in _conv_exact(a, b, p)], p)
        if self.ring.kind == "ZZ":
            return QSeries._canonical(self.ring, _conv_exact(a, b, p), p)
        return QSeries(self.ring, _conv_exact(a, b, p), p)

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
            x = QSeries(ring, result.coeffs, cur)
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
        return QSeries._canonical(self.ring, self.coeffs[: precision + 1], precision)

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k; the trusted range grows by k with no new unknowns."""
        if k < 0:
            raise ValueError("negative shifts would need Laurent series")
        if k == 0:
            return self
        coeffs = (self.ring.zero(),) * k + self.coeffs
        return QSeries._canonical(self.ring, coeffs, self.precision + k)

    def dilate(self, m: int, precision: int) -> "QSeries":
        """Substitute q -> q^m, i.e. place a(n) at q^(m n), up to the given precision."""
        if m < 1:
            raise ValueError("dilation factor must be >= 1")
        if precision > m * self.precision + m - 1:
            raise ValueError("dilation target precision exceeds known coefficients")
        out = [self.ring.zero()] * (precision + 1)
        out[::m] = self.coeffs[: precision // m + 1]
        return QSeries._canonical(self.ring, out, precision)

    def map_coeffs(self, fn) -> "QSeries":
        """Coefficient-wise map n, a(n) -> new coefficient, same ring."""
        return QSeries(self.ring, [fn(n, c) for n, c in enumerate(self.coeffs)], self.precision)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


# -- module-level operations (the public vocabulary) -----------------------


def add(a: QSeries, b: QSeries) -> QSeries:
    """Coefficient-wise sum at the smaller precision."""
    return a + b


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Truncated Cauchy convolution at the smaller precision."""
    return a * b


def invert(a: QSeries) -> QSeries:
    """Two-sided inverse up to precision; constant term must be a unit."""
    return a.inverse()


def power(a: QSeries, e: int) -> QSeries:
    return a.pow(e)


def reduce_mod(a: QSeries, ell: int, t: int = 1) -> QSeries:
    """Map a ZZ or QQ series into Z/ell^t, inverting denominators coprime to ell.

    A coefficient with denominator divisible by ell is an error: the series
    is not ell-integral and has no reduction.
    """
    if a.ring.kind == "mod":
        raise ValueError("series is already in a residue ring; reduce from ZZ or QQ")
    ring = residue_ring(ell, t)
    m = ring.modulus
    out = []
    for n, c in enumerate(a.coeffs):
        if isinstance(c, Fraction):
            num, den = c.numerator, c.denominator
        else:
            num, den = c, 1
        if den % ell == 0:
            raise ValueError(
                f"coefficient a({n}) = {c} is not {ell}-integral; cannot reduce mod {ell}^{t}"
            )
        out.append((num * pow(den, -1, m)) % m)
    return QSeries(ring, out, a.precision)


def ord_ell(a: QSeries) -> int | None:
    """Least index with a nonzero residue, or None when zero through precision."""
    if a.ring.kind != "mod":
        raise ValueError("ord is defined for residue-ring series")
    for n, c in enumerate(a.coeffs):
        if c != 0:
            return n
    return None


def first_mismatch(a: QSeries, b: QSeries) -> int | None:
    """First index (up to the common precision) where two series differ."""
    if a.ring != b.ring:
        raise ValueError("ring mismatch in comparison")
    p = min(a.precision, b.precision)
    for n in range(p + 1):
        if a.coeffs[n] != b.coeffs[n]:
            return n
    return None
