"""Linear foliations of the 2-torus and their rotation groupoids.

A slope is either an exact rational (fractions.Fraction) or an exact
quadratic irrational.  Rational slopes give closed leaves and a circle leaf
space; irrational slopes give dense line leaves and a non-Hausdorff
quotient.  Morita equivalence of the rotation groupoids is decided exactly
through continued fractions: two quadratic slopes are equivalent under
integer Moebius maps of determinant +-1 precisely when their expansions
share a tail (Serret), which in turn happens precisely when the exact surd
iterations reach a common complete quotient.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .algebra import Value, _ensure_int, ensure_finite
from .errors import InvalidInputError, LimitExceededError, NotOnCircleError
from .surd import QuadraticIrrational, _equivalent, _first_reduced, _period
from .tolerance import within

Slope = Fraction | QuadraticIrrational

MAX_ORBIT_POINTS = 10**6  # largest max_points rotation_orbit accepts


def _require_slope(alpha: Slope, what: str) -> Slope:
    # hot paths test for QuadraticIrrational: isinstance with the ABC Fraction runs Python code
    if not isinstance(alpha, (QuadraticIrrational, Fraction)):
        raise InvalidInputError(
            f"{what} must be a Fraction or QuadraticIrrational, got {type(alpha).__name__}"
        )
    return alpha


class ClosedLeaf(Value):
    """Closed leaf winding `vertical` times around one factor and
    `horizontal` times around the other (slope vertical/horizontal in
    lowest terms)."""

    vertical: int
    horizontal: int

    def __init__(self, vertical: int, horizontal: int) -> None:
        vertical, horizontal = _ensure_int(vertical, "vertical"), _ensure_int(horizontal, "horizontal")
        if horizontal < 1 or math.gcd(vertical, horizontal) != 1:
            raise InvalidInputError(
                f"closed leaf needs coprime winding with horizontal >= 1, got ({vertical}, {horizontal})"
            )
        self.__dict__.update(vertical=vertical, horizontal=horizontal)


class DenseLine(Value):
    """Leaf diffeomorphic to the real line, dense in the torus."""


LeafDescriptor = ClosedLeaf | DenseLine


class Circle(Value):
    """Circle leaf space; deck_order is the denominator of the slope, the
    number of times each leaf meets a vertical transversal."""

    deck_order: int

    def __init__(self, deck_order: int) -> None:
        self.__dict__.update(deck_order=_ensure_int(deck_order, "deck_order", positive=True))


class NonHausdorffQuotient(Value):
    """Leaf space of a dense foliation: every nonempty open set is the
    whole quotient."""


LeafSpace = Circle | NonHausdorffQuotient


class ContinuedFraction(Value):
    """Continued fraction [a0; a1, a2, ...] split into a finite preperiod
    and a (possibly empty) repeating period.  Rationals have an empty
    period; quadratic irrationals never do."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __init__(self, preperiod: tuple[int, ...], period: tuple[int, ...]) -> None:
        preperiod, period = tuple(preperiod), tuple(period)
        quotients = preperiod + period
        if not quotients:
            raise InvalidInputError("continued fraction needs at least one partial quotient")
        for i, a in enumerate(quotients):
            if not isinstance(a, int) or isinstance(a, bool):
                raise InvalidInputError(f"partial quotients must be integers, got {a!r}")
            if i > 0 and a < 1:
                raise InvalidInputError(f"partial quotient #{i} must be >= 1, got {a}")
        for a in period:
            if a < 1:
                raise InvalidInputError(f"period quotients must be >= 1, got {a}")
        self.__dict__.update(preperiod=preperiod, period=period)

    def value(self, terms: int = 40) -> float:
        """Float value of the expansion truncated to at most `terms`
        partial quotients."""
        _ensure_int(terms, "terms", positive=True)
        quotients = list(self.preperiod)
        while self.period and len(quotients) < terms:
            quotients.extend(self.period)
        quotients = quotients[:terms]
        acc = float(quotients[-1])
        for a in reversed(quotients[:-1]):
            acc = a + 1.0 / acc
        return acc


def leaf_descriptor(alpha: Slope) -> LeafDescriptor:
    """Leaf type of the slope-alpha linear foliation."""
    _require_slope(alpha, "alpha")
    if isinstance(alpha, QuadraticIrrational):
        return DenseLine()
    return ClosedLeaf(alpha.numerator, alpha.denominator)


def leaf_space(alpha: Slope) -> LeafSpace:
    """Quotient of the torus by the foliation, up to homeomorphism."""
    _require_slope(alpha, "alpha")
    if isinstance(alpha, QuadraticIrrational):
        return NonHausdorffQuotient()
    return Circle(alpha.denominator)


def rotation_orbit(z0: complex, alpha: Slope, max_points: int) -> list[complex]:
    """Orbit of z0 on the unit circle under z -> exp(2*pi*i*alpha) * z.

    For a rational slope p/q in lowest terms the orbit is the full cyclic
    group orbit of q points (truncated at max_points); for a quadratic
    irrational the orbit never closes and exactly max_points iterates are
    returned.  The slope is reduced mod 1 exactly before it is converted to
    a float, so a large integer part costs no precision.  A max_points above
    MAX_ORBIT_POINTS raises LimitExceededError; a surd whose reduced terms
    are too large to convert to a float raises InvalidInputError.
    """
    _require_slope(alpha, "alpha")
    if _ensure_int(max_points, "max_points", positive=True) > MAX_ORBIT_POINTS:
        raise LimitExceededError(f"max_points must be at most {MAX_ORBIT_POINTS}, got {max_points}")
    z0 = ensure_finite(z0, "z0")
    if not within(math.hypot(z0.real, z0.imag) - 1.0):  # abs(z0), but inf where abs raises
        raise NotOnCircleError(f"orbit start {z0!r} is not on the unit circle")
    if isinstance(alpha, QuadraticIrrational):
        count, turn = max_points, QuadraticIrrational(alpha.p - math.floor(alpha) * alpha.q, alpha.q, alpha.d)
    else:
        count, turn = min(alpha.denominator, max_points), alpha % 1
    try:
        step = cmath.exp(2j * math.pi * float(turn))
    except OverflowError:  # a surd whose reduced terms are past float range
        raise InvalidInputError("alpha is too large to rotate by in floating point") from None
    points = [z0]
    z = z0
    for _ in range(count - 1):
        z = z * step
        points.append(z)
    return points


def cf_expand(alpha: Slope) -> ContinuedFraction:
    """Exact continued fraction of the slope.

    Rationals expand by the Euclidean algorithm (floor convention, so the
    last quotient is >= 2 whenever the expansion has more than one term).
    Quadratic irrationals expand by exact surd iteration; the period is the
    minimal cycle of complete quotients.  LimitExceededError is raised when
    no complete quotient repeats within the first 100000 partial quotients.
    """
    _require_slope(alpha, "alpha")
    if isinstance(alpha, QuadraticIrrational):  # quotients valid by construction
        reduced = _first_reduced(alpha)
        return ContinuedFraction._of(tuple(reduced[0]), tuple([a for _, _, a in _period(alpha.d, *reduced)]))
    return ContinuedFraction._of(_euclid_quotients(alpha), ())


def _euclid_quotients(value: Fraction) -> tuple[int, ...]:
    num, den = value.numerator, value.denominator
    quotients = []
    while True:
        a, r = divmod(num, den)
        quotients.append(a)
        if r == 0:
            return tuple(quotients)
        num, den = den, r


def morita_equivalent(alpha: Slope, beta: Slope) -> bool:
    """Whether the rotation groupoids of the two slopes are equivalent.

    Rational slopes all yield the trivial groupoid over a circle, hence are
    mutually equivalent and never equivalent to an irrational one.  Two
    quadratic irrationals are equivalent exactly when some integer Moebius
    map of determinant +-1 carries one to the other; by Serret's theorem
    that is a shared continued-fraction tail, detected here as a common
    exact complete quotient in the two cycles.  Unequal discriminants need no
    expansion, else alpha's cycle is walked until it meets beta's first reduced state.
    """
    _require_slope(alpha, "alpha")
    _require_slope(beta, "beta")
    surd = isinstance(alpha, QuadraticIrrational)  # both rational, or equivalent surds
    return surd is isinstance(beta, QuadraticIrrational) and (not surd or _equivalent(alpha, beta))
