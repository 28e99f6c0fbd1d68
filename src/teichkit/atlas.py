"""The atlas group of the Teichmueller stack of S3 x S1.

G is GL2(C) x C with the twisted product (A,t) * (B,s) = (AB, t + s det A);
the twist is a group law because det is multiplicative.  So each element
carries its det: outside input computes ad - bc once and is refused when
singular relative to |ad| + |bc|, while a product or an inverse takes its
det from its operands and is refused only when that det underflows to 0 or
it or the twist overflows (see GroupElement); an inverse's matrix is the
adjugate divided by that carried det.  M is the set of pairs (A,t) with A
contracting.  The stack atlas additionally needs an action of G on M and an
injection of M into G whose explicit formulas are not pinned down here; both
are therefore caller-supplied plugins, and groupoid_check validates a
supplied pair against the laws the construction needs instead of trusting
it, on samples drawn from a seeded random.Random as rng.uniform would draw
them, with one matrix built per drawn point or element.

Two named structures ship with the module: the trivial one (action fixes m,
injection is constant identity), which satisfies every law, and a broken
one (matrix conjugation action with a sheared injection) whose action is a
genuine right action but whose source/target maps are not invariant under
the integer twist (g, m) -> (i(m)^p * g, m).
"""

from __future__ import annotations

import cmath
import random
from collections.abc import Callable

from .algebra import _TWO_PI, Matrix2C, Value, _ensure_int, ensure_finite
from .errors import InvalidInputError, LimitExceededError, NotContractingError, SingularMatrixError, TeichkitError
from .hopf import is_contracting
from .tolerance import within

MAX_CHECK_SAMPLES = 100_000  # largest sample count groupoid_check accepts


class GroupElement(Value):
    """Element (a, t) of the twisted group GL2(C) x C.

    The element carries det a in a private ``_det`` entry outside the
    fields, so it takes no part in the repr, equality, hash or wire format.
    ``GroupElement(a, t)`` is the entry for outside input: it computes
    ``ad - bc`` and refuses the matrix as singular when that is zero relative
    to ``|ad| + |bc|``.  Products, inverses and the identity come from
    g_mul, g_inverse and g_identity, which derive the det from their
    operands' (det is multiplicative) and test no singularity: they refuse
    a result only when its det underflows to 0 or its det or twist
    overflows, a limit of representation (InvalidInputError).
    """

    a: Matrix2C
    t: complex

    def __init__(self, a: Matrix2C, t: complex) -> None:
        if not isinstance(a, Matrix2C):
            raise InvalidInputError(f"matrix part must be Matrix2C, got {type(a).__name__}")
        ad, bc = a.a * a.d, a.b * a.c
        det = ad - bc
        if within(det, abs(ad) + abs(bc)):
            raise SingularMatrixError(f"group element needs an invertible matrix, det = {det!r}")
        self.__dict__.update(a=a, t=ensure_finite(t, "t"), _det=det)

    @classmethod
    def _derived(cls, a: Matrix2C, t: complex, det: complex) -> "GroupElement":
        """An element whose det is known from its operands: a is a checked
        matrix, t and det are complex."""
        if not (cmath.isfinite(t) and cmath.isfinite(det)) or det == 0:
            raise InvalidInputError(f"group element cannot be represented in floats: t = {t!r}, det = {det!r}")
        x = cls.__new__(cls)
        x.__dict__.update(a=a, t=t, _det=det)
        return x


class AtlasPoint(Value):
    """Point (a, t) of the atlas base: a contracting, t arbitrary."""

    a: Matrix2C
    t: complex

    def __init__(self, a: Matrix2C, t: complex) -> None:
        if not isinstance(a, Matrix2C):
            raise InvalidInputError(f"matrix part must be Matrix2C, got {type(a).__name__}")
        if not is_contracting(a):
            raise NotContractingError(f"atlas point needs a contracting matrix, got {a!r}")
        self.__dict__.update(a=a, t=ensure_finite(t, "t"))


_IDENTITY = Matrix2C.identity()


def g_identity() -> GroupElement:
    return GroupElement._derived(_IDENTITY, 0j, 1 + 0j)


def g_mul(x: GroupElement, y: GroupElement) -> GroupElement:
    """(A,t) * (B,s) = (AB, t + s det A), with det AB = det A det B."""
    det = x._det
    return GroupElement._derived(x.a @ y.a, x.t + y.t * det, det * y._det)


def g_inverse(x: GroupElement) -> GroupElement:
    """(A,t)^-1 = (A^-1, -t / det A), the unique two-sided inverse.

    A^-1 is the adjugate of A divided by the carried det A, which for outside
    input is ad - bc bit for bit, and for a product is more accurate than a
    det recomputed from its entries.  Like g_mul it tests no singularity: it
    refuses only a result that floats cannot represent.
    """
    a, det = x.a, x._det
    return GroupElement._derived(Matrix2C(a.d / det, -a.b / det, -a.c / det, a.a / det), -x.t / det, 1 / det)


def g_power(x: GroupElement, p: int) -> GroupElement:
    """x**p by left-to-right binary exponentiation: O(log |p|) calls to g_mul.

    p == 0 gives the identity, and a negative p inverts x once.  The bits of
    |p| are read from the most significant down, squaring the accumulator
    and then multiplying by the base on the right for a 1 bit, so x**2 is
    x*x and x**3 is (x*x)*x, the same products as a left fold.
    """
    if _ensure_int(p, "power") == 0:
        return g_identity()
    base = x if p > 0 else g_inverse(x)
    acc = base
    for bit in bin(abs(p))[3:]:
        acc = g_mul(acc, acc)
        if bit == "1":
            acc = g_mul(acc, base)
    return acc


class AtlasStructure(Value):
    """Caller-supplied action and injection making (G x M)/Z a groupoid
    candidate; validated by groupoid_check, never assumed."""

    name: str
    action: Callable[[AtlasPoint, GroupElement], AtlasPoint]
    injection: Callable[[AtlasPoint], GroupElement]

    def __init__(self, name: str, action: Callable, injection: Callable) -> None:
        self.__dict__.update(name=name, action=action, injection=injection)


def trivial_structure() -> AtlasStructure:
    """Fixing action, constant-identity injection; satisfies all laws."""
    return AtlasStructure("trivial", lambda m, g: m, lambda m: g_identity())


_SHEAR = Matrix2C(1.0, 1.0, 0.0, 1.0)


def broken_structure() -> AtlasStructure:
    """Conjugation action with a sheared injection.

    The action m.g = (Ag^-1 Am Ag, tm) is a right action and preserves the
    contracting property, so the action laws hold; but i(m) = (shear * Am, 0)
    does not commute with Am, so target(i(m)^p * g, m) differs from
    target(g, m) for generic inputs and the integer-twist invariance fails.
    The action inverts Ag as g_inverse does, dividing its adjugate by the
    det g carries with no eps test, and computes g_inverse(g).a @ (m.a @ g.a)
    on plain complex values, the same float operations in the same order, in
    one matrix; an entry past float range is that matrix's InvalidInputError.
    """

    def act(m: AtlasPoint, g: GroupElement) -> AtlasPoint:
        x, y, det = g.a, m.a, g._det
        xa, xb, xc, xd = x.a, x.b, x.c, x.d
        ia, ib, ic, id_ = xd / det, -xb / det, -xc / det, xa / det
        ya, yb, yc, yd = y.a, y.b, y.c, y.d
        pa, pb = ya * xa + yb * xc, ya * xb + yb * xd
        pc, pd = yc * xa + yd * xc, yc * xb + yd * xd
        a = Matrix2C(ia * pa + ib * pc, ia * pb + ib * pd, ic * pa + id_ * pc, ic * pb + id_ * pd)
        return AtlasPoint(a, m.t)

    def inj(m: AtlasPoint) -> GroupElement:
        return GroupElement(_SHEAR @ m.a, 0j)

    return AtlasStructure("broken", act, inj)


_STRUCTURES: dict[str, Callable[[], AtlasStructure]] = {
    "trivial": trivial_structure,
    "broken": broken_structure,
}


def structure_by_name(name: str) -> AtlasStructure:
    try:
        return _STRUCTURES[name]()
    except KeyError:
        raise InvalidInputError(f"unknown atlas structure {name!r}") from None


def z_action(p: int, g: GroupElement, m: AtlasPoint, structure: AtlasStructure) -> tuple[GroupElement, AtlasPoint]:
    """Integer twist p . (g, m) = (i(m)^p * g, m)."""
    return g_mul(g_power(structure.injection(m), _ensure_int(p, "twist power")), g), m


def source(g: GroupElement, m: AtlasPoint) -> AtlasPoint:
    return m


def target(g: GroupElement, m: AtlasPoint, structure: AtlasStructure) -> AtlasPoint:
    return structure.action(m, g)


class LawResult(Value):
    name: str
    checked: int
    failures: int
    counterexample: dict | None

    def __init__(self, name: str, checked: int, failures: int, counterexample: dict | None) -> None:
        self.__dict__.update(name=name, checked=checked, failures=failures, counterexample=counterexample)

    @property
    def passed(self) -> bool:
        return self.failures == 0


class CheckReport(Value):
    structure: str
    samples: int
    seed: int
    laws: tuple[LawResult, ...]

    def __init__(self, structure: str, samples: int, seed: int, laws: tuple[LawResult, ...]) -> None:
        self.__dict__.update(structure=structure, samples=samples, seed=seed, laws=laws)

    @property
    def passed(self) -> bool:
        return all(law.passed for law in self.laws)


_LAW_NAMES = (
    "action-composition",
    "action-identity",
    "z-action-source-invariance",
    "z-action-target-invariance",
    "action-closure",
)


def _points_close(x: AtlasPoint, y: AtlasPoint) -> bool:
    """Whether the largest twist or entry difference is zero at scale 1; one
    past float range is not, nor is a NaN twist, which max reads first."""
    xa, ya = x.a, y.a
    try:
        return within(max(abs(x.t - y.t), abs(xa.a - ya.a), abs(xa.b - ya.b), abs(xa.c - ya.c), abs(xa.d - ya.d)))
    except OverflowError:  # finite parts whose modulus is past float range
        return False


def _or_raise(image):
    """An action's image, or the refusal kept in its place, raised."""
    if isinstance(image, TeichkitError):
        raise image
    return image


# The draws below take each coordinate as lo + span * rng.random(), which is
# what rng.uniform(lo, lo + span) computes, so they read the same stream and
# give the same values; each works on plain complex values and builds one
# matrix for the element or point it returns.


def _draw_group_element(rng: random.Random) -> GroupElement:
    """Entries in the box of radius 1.5, |det| >= 0.2; twist in radius 2.  The
    element carries that det, ad - bc, and no eps tests it for singularity."""
    r = rng.random
    while True:
        a = complex(-1.5 + 3.0 * r(), -1.5 + 3.0 * r())
        b = complex(-1.5 + 3.0 * r(), -1.5 + 3.0 * r())
        c = complex(-1.5 + 3.0 * r(), -1.5 + 3.0 * r())
        d = complex(-1.5 + 3.0 * r(), -1.5 + 3.0 * r())
        det = a * d - b * c
        if abs(det) >= 0.2:
            return GroupElement._derived(Matrix2C(a, b, c, d), complex(-2.0 + 4.0 * r(), -2.0 + 4.0 * r()), det)


def _draw_atlas_point(rng: random.Random) -> AtlasPoint:
    """basis @ (diag(lam1, lam2) @ basis.inverse()), eigenvalue moduli in
    [0.25, 0.8], basis entries in the unit box with |det| >= 0.4, inverted by
    that det as Matrix2C.inverse would; twist in radius 2.  The point is
    contracting by its eigenvalues, and no eps tests it.  The diagonal's zero
    entries are multiplied as 0j, as Matrix2C.diag's are, so signed zeros
    come out as the matrix product's."""
    r = rng.random
    lam1 = cmath.rect(0.25 + (0.8 - 0.25) * r(), _TWO_PI * r())
    lam2 = cmath.rect(0.25 + (0.8 - 0.25) * r(), _TWO_PI * r())
    while True:
        a = complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r())
        b = complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r())
        c = complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r())
        d = complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r())
        det = a * d - b * c
        if abs(det) >= 0.4:
            break
    ia, ib, ic, id_ = d / det, -b / det, -c / det, a / det
    ea, eb = lam1 * ia + 0j * ic, lam1 * ib + 0j * id_
    ec, ed = 0j * ia + lam2 * ic, 0j * ib + lam2 * id_
    m = Matrix2C(a * ea + b * ec, a * eb + b * ed, c * ea + d * ec, c * eb + d * ed)
    return AtlasPoint._of(m, complex(-2.0 + 4.0 * r(), -2.0 + 4.0 * r()))


def groupoid_check(structure: AtlasStructure, samples: int, seed: int = 0) -> CheckReport:
    """Randomized verification of the laws a structure must satisfy.

    Per sample (one point m, group elements g and h, twist power p in
    [-3, 3]) the following are checked: the right-action laws
    m.(g*h) = (m.g).h and m.identity = m; invariance of source and target
    under the integer twist (well-definedness of the quotient maps); and
    closure of the action in the contracting locus.  The sides of a law agree
    when their largest twist or entry difference is within the tolerance in
    force at scale 1, and the draws read no eps, so every eps gives a report.
    m.g is computed once per sample and read by composition, target
    invariance and closure.
    Source invariance holds by construction, since the twist returns m
    itself, so it fails only when the twist raises.  Law violations,
    including exceptions raised by the supplied functions, are counted and
    reported with the first counterexample; they are never raised.  A
    sample count above MAX_CHECK_SAMPLES raises LimitExceededError.
    """
    if _ensure_int(samples, "samples", positive=True) > MAX_CHECK_SAMPLES:
        raise LimitExceededError(f"samples must be at most {MAX_CHECK_SAMPLES}, got {samples}")
    _ensure_int(seed, "seed")

    rng = random.Random(seed)
    failures = {name: 0 for name in _LAW_NAMES}
    first: dict[str, dict | None] = {name: None for name in _LAW_NAMES}

    def record(law: str, detail: str, **inputs) -> None:
        failures[law] += 1
        if first[law] is None:
            first[law] = {"detail": detail, **inputs}

    for _ in range(samples):
        m = _draw_atlas_point(rng)
        g = _draw_group_element(rng)
        h = _draw_group_element(rng)
        p = rng.randint(-3, 3)

        # m.g, or its refusal, once per sample; a law that reads it raises the
        # refusal only after its own act, whose refusal comes first
        try:
            mg = structure.action(m, g)
        except TeichkitError as exc:
            mg = exc

        try:
            joint = structure.action(m, g_mul(g, h))
            if not _points_close(joint, structure.action(_or_raise(mg), h)):
                record("action-composition", "m.(g*h) != (m.g).h", m=m, g=g, h=h)
        except TeichkitError as exc:
            record("action-composition", f"action raised {exc.code}: {exc}", m=m, g=g, h=h)

        try:
            if not _points_close(structure.action(m, g_identity()), m):
                record("action-identity", "m.identity != m", m=m)
        except TeichkitError as exc:
            record("action-identity", f"action raised {exc.code}: {exc}", m=m)

        # The twist leaves m as it is and source(g, m) is m, so source
        # invariance fails only when the twist raises; then both laws record it.
        try:
            twisted_g, _ = z_action(p, g, m, structure)
        except TeichkitError as exc:
            for law in ("z-action-source-invariance", "z-action-target-invariance"):
                record(law, f"twist raised {exc.code}: {exc}", m=m, g=g, p=p)
        else:
            try:
                if not _points_close(structure.action(m, twisted_g), _or_raise(mg)):
                    record("z-action-target-invariance", "target changed under twist", m=m, g=g, p=p)
            except TeichkitError as exc:
                record("z-action-target-invariance", f"twist raised {exc.code}: {exc}", m=m, g=g, p=p)

        try:  # an AtlasPoint was tested at the eps in force when built; the drawn m was not
            if (_or_raise(mg) is m or not isinstance(mg, AtlasPoint)) and not is_contracting(mg.a):
                record("action-closure", "action image not contracting", m=m, g=g)
        except TeichkitError as exc:
            record("action-closure", f"action raised {exc.code}: {exc}", m=m, g=g)

    laws = tuple(LawResult(name, samples, failures[name], first[name]) for name in _LAW_NAMES)
    return CheckReport(structure.name, samples, seed, laws)
