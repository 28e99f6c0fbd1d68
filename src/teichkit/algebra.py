"""Shared 2x2 matrix and scalar kernels.

Scalars are plain ``complex`` values, validated finite at construction
boundaries.  Two conventions are fixed here once and relied on by every
classification downstream:

* roots and eigenvalues are ordered by descending modulus, with ties broken
  by ascending argument in [0, 2*pi);
* integer matrices are exact end to end, there is no floating fallback for
  unimodular logic.

Every value type of the package derives from :class:`Value`, defined here
because every kernel module imports this one.
"""

from __future__ import annotations

import cmath
import math

from .errors import InvalidInputError, NotUnimodularError, SingularMatrixError
from .tolerance import within

_TWO_PI = 2.0 * math.pi


class Value:
    """Immutable value object: a frozen record of the annotated fields.

    The fields are the class annotations, in declaration order, after those
    of the base classes.  Each
    subclass's ``__init__`` validates its arguments and stores every field
    once, in that order, with ``self.__dict__.update``; after that, setting
    or deleting any attribute raises ``AttributeError``.  Equality compares
    the fields of two instances of the same class (any other operand gives
    ``NotImplemented``), the hash is that of the field tuple, and the repr is
    ``Name(field=value!r, ...)``.  Instances keep a plain ``__dict__``, so
    ``copy``, ``deepcopy`` and ``pickle`` restore them without calling
    ``__init__`` or ``__setattr__``.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(dict.fromkeys((*cls._fields, *cls.__annotations__)))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def _of(cls, *values):
        """An instance of these field values, unchecked: the caller decided them."""
        self = object.__new__(cls)
        self.__dict__.update(zip(cls._fields, values))
        return self

    def _values(self) -> tuple:
        values = self.__dict__
        return tuple([values[name] for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"


# exact types whose complex() is a number; any other argument is checked first
_EXACT_NUMBERS = frozenset((int, float, complex))


def ensure_finite(z: complex, what: str = "value") -> complex:
    """z as a finite complex; anything else raises InvalidInputError.

    A number is an ``int``, ``float`` or ``complex``, or any other
    ``numbers.Complex`` except ``bool``: numeric strings are refused.
    """
    if type(z) is complex and cmath.isfinite(z):
        return z
    if type(z) not in _EXACT_NUMBERS:
        import numbers  # only arguments of other types pay for this import

        if isinstance(z, bool) or not isinstance(z, numbers.Complex):
            raise InvalidInputError(f"{what} must be a finite number: got {type(z).__name__}")
    try:
        z = complex(z)
    except (TypeError, ValueError, OverflowError) as exc:  # an int past float range, or the like
        raise InvalidInputError(f"{what} must be a finite number: {exc}") from None
    if not cmath.isfinite(z):
        raise InvalidInputError(f"{what} must be finite, got {z!r}")
    return z


def ensure_real(x: float, what: str = "value") -> float:
    """x as a finite float; anything else raises InvalidInputError.

    ensure_finite's rule for ``numbers.Real``: no ``bool``, no numeric string.
    """
    if type(x) is not float and type(x) is not int:
        import numbers  # only arguments of other types pay for this import

        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise InvalidInputError(f"{what} must be a finite real number: got {type(x).__name__}")
    try:
        x = float(x)
    except OverflowError as exc:  # an int past float range
        raise InvalidInputError(f"{what} must be a finite real number: {exc}") from None
    if not math.isfinite(x):
        raise InvalidInputError(f"{what} must be finite, got {x!r}")
    return x


def arg_unit_interval(z: complex) -> float:
    """Argument of z in [0, 2*pi)."""
    a = math.atan2(z.imag, z.real)  # cmath.phase raises OverflowError where atan2 underflows
    return a + _TWO_PI if a < 0.0 else a


def order_by_modulus(z1: complex, z2: complex) -> tuple[complex, complex]:
    """Sort two scalars by descending modulus, ties by ascending argument."""
    try:
        m1, m2 = abs(z1), abs(z2)
    except OverflowError:  # finite parts whose modulus abs() cannot hold: compare half of each modulus
        m1, m2 = math.hypot(0.5 * z1.real, 0.5 * z1.imag), math.hypot(0.5 * z2.real, 0.5 * z2.imag)
    if within(m1 - m2):
        return (z1, z2) if arg_unit_interval(z1) <= arg_unit_interval(z2) else (z2, z1)
    return (z1, z2) if m1 > m2 else (z2, z1)


def quadratic_roots(d: complex, t: complex) -> tuple[complex, complex]:
    """Both roots of x**2 - t*x + d, in the library's canonical order.

    Cancellation safe: the dominant root comes from the stable branch of the
    quadratic formula (sqrt aligned with t), the other from the product d.
    Scale safe: where t*t or 4*d overflows or underflows, both roots are
    found on a rescaled equation.  A root too large to represent raises
    InvalidInputError.
    """
    return order_by_modulus(*_roots(ensure_finite(d, "d"), ensure_finite(t, "t")))


def _roots(d: complex, t: complex) -> tuple[complex, complex]:
    """Both roots of x**2 - t*x + d for complex d and t, not ordered: quadratic_roots
    without its input conversion and canonical order, and with its error for a non-finite d or t."""
    u = cmath.sqrt(t * t - 4.0 * d)
    if t.real * u.real + t.imag * u.imag < 0.0:
        u = -u
    big = 0.5 * (t + u)
    # below 1e-150, t*t or 4*d may have underflowed; a finite big is below 1e155, past 1e300 it is inf or nan
    if 1e-150 < abs(big) < 1e300:
        return big, d / big
    return _scaled_roots(ensure_finite(d, "d"), ensure_finite(t, "t"))


def _scaled_roots(d: complex, t: complex) -> tuple[complex, complex]:
    """Both roots of x**2 - t*x + d, dominant first, for coefficients so large
    or so small that the plain discriminant overflows or underflows.

    x = s*y, where s is the largest of |Re t|, |Im t|, sqrt|Re d| and
    sqrt|Im d|, and y solves y**2 - (t/s)*y + d/s**2 = 0, whose coefficients
    are at most 2 in modulus.  The small root is (d/s) / y, as d / big can
    overflow inside the complex division where the quotient is finite.
    """
    s = max(abs(t.real), abs(t.imag), math.sqrt(abs(d.real)), math.sqrt(abs(d.imag)))
    if s == 0.0:
        return 0j, 0j
    ts = t / s
    u = cmath.sqrt(ts * ts - 4.0 * (d / s / s))
    if ts.real * u.real + ts.imag * u.imag < 0.0:
        u = -u
    y = 0.5 * (ts + u)
    big = s * y
    if math.isfinite(math.hypot(big.real, big.imag)):  # hypot gives inf where abs raises
        return big, (d / s) / y
    raise InvalidInputError(f"a root of x**2 - t*x + d is too large to represent, d={d!r}, t={t!r}")


class Matrix2C(Value):
    """2x2 complex matrix [[a, b], [c, d]] with finite entries."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __init__(self, a: complex, b: complex, c: complex, d: complex) -> None:
        # Every matrix, products and inverses included, is checked here:
        # finite entries can multiply to inf.  Four finite complex entries,
        # as every product has, pass the first test and are stored as they
        # are; any other matrix takes the per-entry path, which raises the
        # error for the first bad entry in a, b, c, d order.
        if not (
            type(a) is complex and type(b) is complex and type(c) is complex and type(d) is complex
            and cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c) and cmath.isfinite(d)
        ):
            a, b, c, d = ensure_finite(a, "a"), ensure_finite(b, "b"), ensure_finite(c, "c"), ensure_finite(d, "d")
        self.__dict__.update(a=a, b=b, c=c, d=d)

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
        """The inverse, the one eps-tested inverse of a complex matrix, by _checked_det's det;
        a group element's inverse divides by the det it carries (atlas.g_inverse)."""
        det = _checked_det(self, "matrix is singular within tolerance, det=")
        return Matrix2C(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)


def _checked_det(m: Matrix2C, singular: str) -> complex:
    """det m = ad - bc, the one singularity test of a complex matrix: SingularMatrixError, `singular`
    then the det's repr, when the det is zero within eps relative to |ad| + |bc|, and InvalidInputError
    when ad or bc has finite parts but a modulus past float range."""
    ad, bc = m.a * m.d, m.b * m.c
    det = ad - bc
    try:
        if within(det, abs(ad) + abs(bc)):
            raise SingularMatrixError(f"{singular}{det!r}")
    except OverflowError:  # finite parts whose modulus abs() cannot hold
        raise InvalidInputError(f"a term of the det is past float range: ad={ad!r}, bc={bc!r}") from None
    return det


def eigen2(m: Matrix2C) -> tuple[complex, complex, bool]:
    """Eigenvalues of m (canonical order) and a diagonalizability flag.

    Distinct eigenvalues beyond eps are always diagonalizable.  For a double
    eigenvalue the rank test on (m - lambda*I) is ill conditioned, so the
    flag is the exact intent instead: the matrix is diagonalizable iff it is
    the scalar matrix, tested entrywise.
    """
    l1, l2 = order_by_modulus(*_roots(m.a * m.d - m.b * m.c, m.a + m.d))
    if not within(l1 - l2):
        return l1, l2, True
    return l1, l2, within(m.a - l1) and within(m.b) and within(m.c) and within(m.d - l1)


def _ensure_int(v: int, what: str, positive: bool = False) -> int:
    """v itself if it is an int other than bool, and at least 1 if positive;
    anything else raises InvalidInputError."""
    if not isinstance(v, int) or isinstance(v, bool) or (positive and v < 1):
        raise InvalidInputError(f"{what} must be {'a positive' if positive else 'an'} integer, got {v!r}")
    return v


class IntMatrix2(Value):
    """2x2 integer matrix [[a, b], [c, d]], exact arithmetic only."""

    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        # Four exact ints, as every product has, are stored as they are; any
        # other entry is checked in a, b, c, d order, so the first bad one raises.
        if not (type(a) is int and type(b) is int and type(c) is int and type(d) is int):
            a, b, c, d = _ensure_int(a, "a"), _ensure_int(b, "b"), _ensure_int(c, "c"), _ensure_int(d, "d")
        self.__dict__.update(a=a, b=b, c=c, d=d)

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

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))
