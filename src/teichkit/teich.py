"""Point-set model of the deformation space of Hopf surfaces.

The space is an open base domain in (det, trace) coordinates, the image of
the contracting invertible matrices, together with one extra non-separated
copy of a curve for each resonance order p >= 1: order 1 doubles the
discriminant locus 4*det = trace**2 (the Jordan stratum), order p >= 2
doubles the locus traced by (lam**(p+1), lam + lam**p).  A curve point and
the base point with the same image are "twins": they are topologically
inseparable although distinct.

Neighborhood model.  Basic neighborhoods of a base point are preimages of
open max-norm balls in image coordinates; basic neighborhoods of a curve
point are the same balls minus the base points lying on that curve's own
image locus.  Consequently every neighborhood of a base point contains its
curve twin, while small neighborhoods of a curve point never contain its
base twin, the one-sided adherence that makes the space non-Hausdorff.
"""

from __future__ import annotations

import cmath

from .algebra import Value, _roots, ensure_finite, ensure_real, order_by_modulus, quadratic_roots
from .errors import InvalidPointError, SamePointError
from .hopf import Diagonal, HopfClass, Resonant, _contracting, resonance_order
from .tolerance import within


def in_base_domain(det: complex, trace: complex) -> bool:
    """Whether (det, trace) is realized by a contracting invertible matrix:
    both roots of x**2 - trace*x + det pass hopf._contracting, the test
    is_contracting makes (its guard band also forces det != 0).  Only the
    moduli matter, so the roots are algebra._roots' unordered pair, with the
    errors of quadratic_roots for a non-number or a non-finite value."""
    if type(det) is not complex or type(trace) is not complex:
        det, trace = ensure_finite(det, "d"), ensure_finite(trace, "t")
    return _contracting(*_roots(det, trace))


class BasePoint(Value):
    """A point of the base domain, in (det, trace) coordinates."""

    det: complex
    trace: complex

    def __init__(self, det: complex, trace: complex) -> None:
        det = ensure_finite(det, "det")
        trace = ensure_finite(trace, "trace")
        if not in_base_domain(det, trace):
            raise InvalidPointError(f"({det!r}, {trace!r}) is outside the base domain")
        self.__dict__.update(det=det, trace=trace)


class CurvePoint(Value):
    """A point of the doubled curve of resonance order >= 1.

    Order 1 is the Jordan stratum over the discriminant locus; order p >= 2
    lies over the image of lam -> (lam**(p+1), lam + lam**p).  An image past
    float range lies outside the base domain too.
    """

    order: int
    lam: complex

    def __init__(self, order: int, lam: complex) -> None:
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise InvalidPointError(f"order must be a positive integer, got {order!r}")
        lam = ensure_finite(lam, "lam")
        try:
            det, trace = _curve_image(order, lam)
        except OverflowError:  # a power past float range
            det = trace = complex("inf")
        if not (cmath.isfinite(det) and cmath.isfinite(trace) and in_base_domain(det, trace)):
            raise InvalidPointError(f"curve point of order {order} at {lam!r} images outside the base domain")
        self.__dict__.update(order=order, lam=lam)


TeichPoint = BasePoint | CurvePoint


def _curve_image(order: int, lam: complex) -> tuple[complex, complex]:
    return lam ** (order + 1), lam + lam**order


def image(x: TeichPoint) -> tuple[complex, complex]:
    """(det, trace) coordinates of the point, forgetting the stratum."""
    if isinstance(x, BasePoint):
        return x.det, x.trace
    return _curve_image(x.order, x.lam)


def point_of_class(c: HopfClass) -> TeichPoint:
    """The deformation-space point of a biholomorphism class."""
    if isinstance(c, Diagonal):
        return BasePoint(c.lambda1 * c.lambda2, c.lambda1 + c.lambda2)
    if isinstance(c, Resonant):
        return CurvePoint(c.p, c.lam)
    raise InvalidPointError(f"unsupported class {c!r}")


def class_of_point(x: TeichPoint) -> HopfClass:
    """Inverse of point_of_class."""
    if isinstance(x, BasePoint):
        l1, l2 = quadratic_roots(x.det, x.trace)
        return Diagonal(l1, l2)
    if isinstance(x, CurvePoint):
        return Resonant(x.lam, x.order)
    raise InvalidPointError(f"unsupported point {x!r}")


def twin(x: TeichPoint) -> TeichPoint | None:
    """The other point with the same image, or None.

    Every curve point has a base twin.  A base point has a twin exactly when
    its eigenvalue pair is degenerate (equal roots, order 1) or resonant
    (big**p = small, order p >= 2); the twin is then unique because distinct
    orders trace disjoint loci.
    """
    if isinstance(x, CurvePoint):
        det, trace = _curve_image(x.order, x.lam)
        return BasePoint(det, trace)
    r1, r2 = order_by_modulus(*_roots(x.det, x.trace))
    if within(r1 - r2):
        return CurvePoint(1, 0.5 * (r1 + r2))
    p = resonance_order(r1, r2)
    if p is not None and p >= 2:
        return CurvePoint(p, r1)
    return None


def points_equal(x: TeichPoint, y: TeichPoint) -> bool:
    if isinstance(x, BasePoint) and isinstance(y, BasePoint):
        return within(x.det - y.det) and within(x.trace - y.trace)
    if isinstance(x, CurvePoint) and isinstance(y, CurvePoint):
        return x.order == y.order and within(x.lam - y.lam)
    return False


def _image_distance(x: TeichPoint, y: TeichPoint) -> float:
    dx, tx = image(x)
    dy, ty = image(y)
    return max(abs(dx - dy), abs(tx - ty))


def separated(x: TeichPoint, y: TeichPoint) -> bool:
    """Whether two distinct points admit disjoint neighborhoods.

    False exactly when the images coincide within tolerance, i.e. for twin
    pairs; every other pair is separated by image-coordinate balls.
    """
    if points_equal(x, y):
        raise SamePointError("separation is asked for two distinct points")
    return not within(_image_distance(x, y))


def adheres(x: TeichPoint, y: TeichPoint) -> bool:
    """Whether y lies in every neighborhood of x (one-sided closeness).

    True for y = x, and for x a base point whose curve twin is y.  The
    reverse direction is false: curve-point neighborhoods omit the base
    points of their own locus.
    """
    if points_equal(x, y):
        return True
    if isinstance(x, BasePoint):
        t = twin(x)
        return t is not None and points_equal(t, y)
    return False


def neighborhood_contains(center: TeichPoint, radius: float, x: TeichPoint) -> bool:
    """Whether x lies in the basic neighborhood of the given center and
    radius (open max-norm ball in image coordinates, minus the center
    curve's own base locus when the center is a curve point)."""
    radius = ensure_real(radius, "radius")
    if not radius > 0.0:
        raise InvalidPointError(f"radius must be positive, got {radius!r}")
    if _image_distance(center, x) >= radius:
        return False
    if isinstance(center, CurvePoint) and isinstance(x, BasePoint):
        t = twin(x)
        if isinstance(t, CurvePoint) and t.order == center.order:
            return False
    return True
