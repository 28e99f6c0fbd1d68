"""Shared 2x2 matrix and scalar kernels.

Scalars are plain ``complex`` values, validated finite at construction
boundaries.  Two conventions are fixed here once and relied on by every
classification downstream:

* roots and eigenvalues are ordered by descending modulus, with ties broken
  by ascending argument in [0, 2*pi);
* integer matrices are exact end to end, there is no floating fallback for
  unimodular logic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import InvalidInputError, NotUnimodularError, SingularMatrixError
from .tolerance import within

_TWO_PI = 2.0 * math.pi


def ensure_finite(z: complex, what: str = "value") -> complex:
    try:
        z = complex(z)
    except (TypeError, ValueError, OverflowError) as exc:  # not a number, or an int past float range
        raise InvalidInputError(f"{what} must be a finite number: {exc}") from None
    if not cmath.isfinite(z):
        raise InvalidInputError(f"{what} must be finite, got {z!r}")
    return z


def arg_unit_interval(z: complex) -> float:
    """Argument of z in [0, 2*pi)."""
    a = cmath.phase(z)
    return a + _TWO_PI if a < 0.0 else a


def order_by_modulus(z1: complex, z2: complex) -> tuple[complex, complex]:
    """Sort two scalars by descending modulus, ties by ascending argument."""
    m1, m2 = abs(z1), abs(z2)
    if within(m1 - m2):
        return (z1, z2) if arg_unit_interval(z1) <= arg_unit_interval(z2) else (z2, z1)
    return (z1, z2) if m1 > m2 else (z2, z1)


def quadratic_roots(d: complex, t: complex) -> tuple[complex, complex]:
    """Both roots of x**2 - t*x + d, in the library's canonical order.

    Cancellation safe: the dominant root comes from the stable branch of the
    quadratic formula (sqrt aligned with t), the other from the product d.
    """
    d = ensure_finite(d, "d")
    t = ensure_finite(t, "t")
    u = cmath.sqrt(t * t - 4.0 * d)
    if t.real * u.real + t.imag * u.imag < 0.0:
        u = -u
    big = 0.5 * (t + u)
    small = d / big if big != 0 else 0.5 * (t - u)
    return order_by_modulus(big, small)


@dataclass(frozen=True, init=False)
class Matrix2C:
    """2x2 complex matrix [[a, b], [c, d]] with finite entries."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __init__(self, a: complex, b: complex, c: complex, d: complex) -> None:
        # Every matrix, products included, is checked here: finite entries
        # can multiply to inf.  All four entries are converted and tested in
        # one pass; only an invalid matrix takes the per-entry loop, which
        # raises the error for the first bad entry in a, b, c, d order.
        try:
            a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c) and cmath.isfinite(d):
                object.__setattr__(self, "a", a)
                object.__setattr__(self, "b", b)
                object.__setattr__(self, "c", c)
                object.__setattr__(self, "d", d)
                return
        for name, value in zip("abcd", (a, b, c, d)):
            object.__setattr__(self, name, ensure_finite(value, name))

    @staticmethod
    def identity() -> "Matrix2C":
        return Matrix2C(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def diag(x: complex, y: complex) -> "Matrix2C":
        return Matrix2C(x, 0.0, 0.0, y)

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> complex:
        return self.a + self.d

    def __matmul__(self, other: "Matrix2C") -> "Matrix2C":
        return Matrix2C(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Matrix2C":
        det = self.det
        if within(det):
            raise SingularMatrixError(f"matrix is singular within tolerance, det={det!r}")
        return Matrix2C(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def max_norm(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    def close_to(self, other: "Matrix2C", tol: float) -> bool:
        return all(abs(x - y) <= tol for x, y in zip(self.entries(), other.entries()))


def eigen2(m: Matrix2C) -> tuple[complex, complex, bool]:
    """Eigenvalues of m (canonical order) and a diagonalizability flag.

    Distinct eigenvalues beyond eps are always diagonalizable.  For a double
    eigenvalue the rank test on (m - lambda*I) is ill conditioned, so the
    flag is the exact intent instead: the matrix is diagonalizable iff it is
    the scalar matrix, tested entrywise in max norm.
    """
    l1, l2 = quadratic_roots(m.det, m.trace)
    if not within(l1 - l2):
        return l1, l2, True
    return l1, l2, within(max(abs(m.a - l1), abs(m.b), abs(m.c), abs(m.d - l1)))


def _ensure_int(v: int, name: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise InvalidInputError(f"{name} must be an integer, got {v!r}")
    return v


@dataclass(frozen=True)
class IntMatrix2:
    """2x2 integer matrix [[a, b], [c, d]], exact arithmetic only."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            _ensure_int(getattr(self, name), name)

    @staticmethod
    def identity() -> "IntMatrix2":
        return IntMatrix2(1, 0, 0, 1)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def __matmul__(self, other: "IntMatrix2") -> "IntMatrix2":
        return IntMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "IntMatrix2":
        det = self.det()
        if det == 0:
            raise SingularMatrixError("integer matrix has determinant 0")
        if det not in (1, -1):
            # an exact integer inverse exists only for determinant +-1
            raise NotUnimodularError(f"integer inverse requires det +-1, got {det}")
        return IntMatrix2(self.d * det, -self.b * det, -self.c * det, self.a * det)

    def to_complex(self) -> Matrix2C:
        return Matrix2C(self.a, self.b, self.c, self.d)

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))
