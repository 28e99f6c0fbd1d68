"""Float kernels are total over finite input: an answer or a typed error.

Every public kernel that takes complex or real floats is called on parts
drawn log-uniform across the finite float range, 1e-320 to 1.7e308 in both
signs, with zero among them so that structured matrices (triangular,
nilpotent, scalar) come up too.  Each call returns or raises a
TeichkitError: no bare OverflowError, ZeroDivisionError or ValueError
escapes.  The roots that quadratic_roots and eigen2 return are finite and
satisfy Vieta's relations within a relative bound, evaluated exactly in
Fraction.

The tests after the property tests pin one input per kernel that once
raised a bare OverflowError, or returned a non-finite root or one that
fails Vieta's relations.
"""

from __future__ import annotations

import cmath
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teichkit import (
    AtlasPoint,
    BasePoint,
    CurvePoint,
    Diagonal,
    GroupElement,
    IntMatrix2,
    InvalidInputError,
    Matrix2C,
    NotOnCircleError,
    QuadraticIrrational,
    Resonant,
    ResonantForm,
    TeichkitError,
    TorusTranslation,
    adheres,
    arg_unit_interval,
    biholomorphic,
    broken_structure,
    class_of_point,
    classify,
    eigen2,
    g_inverse,
    g_mul,
    g_power,
    image,
    in_base_domain,
    is_contracting,
    lattice_reduce,
    moebius,
    neighborhood_contains,
    order_by_modulus,
    point_of_class,
    points_equal,
    quadratic_roots,
    reduce_fundamental_domain,
    resonance_order,
    rotation_orbit,
    separated,
    source,
    target,
    tori_equivalent,
    translation_compose,
    trivial_structure,
    twin,
    z_action,
)
from teichkit import cli
from teichkit.tolerance import within
from oracles import _gauss, _gmul

# log10 of the largest magnitude drawn, 1.7e308
_TOP = math.log10(1.7e308)

# one part: zero, or a magnitude log-uniform in [1e-320, 1.7e308] with either sign
MAGNITUDE = st.builds(lambda e, negative: -(10.0**e) if negative else 10.0**e, st.floats(-320.0, _TOP), st.booleans())
PART = st.one_of(st.just(0.0), MAGNITUDE, MAGNITUDE)
COMPLEX = st.builds(complex, PART, PART)
MATRIX = st.builds(Matrix2C, COMPLEX, COMPLEX, COMPLEX, COMPLEX)
SLOPES = (Fraction(1, 3), QuadraticIrrational(1, 2, 5))
# points on the unit circle and a contracting lambda, so that some draws get past the first check
UNIT = st.one_of(COMPLEX, st.floats(0.0, 2 * math.pi).map(lambda a: cmath.rect(1.0, a)))
LAMBDA = st.one_of(COMPLEX, st.floats(0.05, 0.95).map(complex))

# the relative bound of Vieta's relations, a few ulps; the absolute term
# covers a root, or eigen2's det, that lands among the subnormals
ULPS = Fraction(8, 2**53)
TINY = Fraction(8, 2**1074)


def modulus(z) -> Fraction:
    """An exact upper bound of |z| for a Gaussian rational z: |re| + |im|."""
    return abs(z[0]) + abs(z[1])


def assert_vieta(r1: complex, r2: complex, t, d, t_scale: Fraction, d_scale: Fraction) -> None:
    """r1 + r2 = t and r1 * r2 = d, exactly in Fraction, to ULPS relative to
    the given scales and the roots' own size."""
    assert cmath.isfinite(r1) and cmath.isfinite(r2), (r1, r2)
    x, y = _gauss(r1), _gauss(r2)
    total = (x[0] + y[0] - t[0], x[1] + y[1] - t[1])
    product = _gmul(x, y)
    product = (product[0] - d[0], product[1] - d[1])
    assert modulus(total) <= ULPS * (t_scale + modulus(x) + modulus(y)) + TINY, (r1, r2)
    assert modulus(product) <= ULPS * (d_scale + modulus(x) * modulus(y)) + TINY * (1 + modulus(x)), (r1, r2)


def returns_or_refuses(call, *args):
    """call(*args), or None where it raises a TeichkitError; any other exception fails."""
    try:
        return call(*args)
    except TeichkitError:
        return None


@given(COMPLEX, COMPLEX)
@settings(max_examples=400)
def test_quadratic_roots_satisfy_vieta(d, t):
    roots = returns_or_refuses(quadratic_roots, d, t)
    if roots is not None:
        exact_t, exact_d = _gauss(t), _gauss(d)
        assert_vieta(*roots, exact_t, exact_d, modulus(exact_t), modulus(exact_d))
        assert order_by_modulus(*roots) == roots


@given(MATRIX)
@settings(max_examples=400)
def test_eigen2_satisfies_vieta(m):
    got = returns_or_refuses(eigen2, m)
    if got is not None:
        a, b, c, d = (_gauss(z) for z in m.entries())
        ad, bc = _gmul(a, d), _gmul(b, c)
        trace = (a[0] + d[0], a[1] + d[1])
        det = (ad[0] - bc[0], ad[1] - bc[1])
        # the det is one rounding of ad - bc, so its bound is relative to |ad| + |bc|
        assert_vieta(got[0], got[1], trace, det, modulus(a) + modulus(d), modulus(ad) + modulus(bc))


@given(COMPLEX, COMPLEX)
def test_scalar_kernels(z1, z2):
    assert isinstance(within(z1), bool)
    assert order_by_modulus(z1, z2) in ((z1, z2), (z2, z1))
    # an argument just below 0 stays below 2*pi, as documented
    assert 0.0 <= arg_unit_interval(z1) < 2 * math.pi


@given(MATRIX, MATRIX, COMPLEX, st.integers(-3, 3))
def test_matrix_and_group_kernels(m, n, t, p):
    returns_or_refuses(Matrix2C.inverse, m)
    returns_or_refuses(Matrix2C.__matmul__, m, n)
    x, y = returns_or_refuses(GroupElement, m, t), returns_or_refuses(GroupElement, n, 0j)
    if x is not None:
        returns_or_refuses(g_inverse, x)
        returns_or_refuses(g_power, x, p)
        if y is not None:
            returns_or_refuses(g_mul, x, y)
    point = returns_or_refuses(AtlasPoint, n, t)
    if x is not None and point is not None:
        returns_or_refuses(source, x, point)
        for structure in (trivial_structure(), broken_structure()):
            returns_or_refuses(target, x, point, structure)
            returns_or_refuses(z_action, p, x, point, structure)


@given(MATRIX, MATRIX, LAMBDA, LAMBDA, COMPLEX, st.integers(1, 70))
def test_hopf_kernels(m, n, lam, small, c, p):
    for data in (m, n, returns_or_refuses(ResonantForm, lam, p, c)):
        if data is not None:
            returns_or_refuses(classify, data)
            returns_or_refuses(biholomorphic, data, n)
    assert returns_or_refuses(is_contracting, m) in (True, False, None)
    returns_or_refuses(resonance_order, lam, small)
    returns_or_refuses(Diagonal, lam, small)
    returns_or_refuses(Resonant, lam, p)


@given(COMPLEX, COMPLEX, LAMBDA, st.integers(1, 70), st.floats(0.0, 1.0))
def test_teich_kernels(det, trace, lam, order, radius):
    assert returns_or_refuses(in_base_domain, det, trace) in (True, False, None)
    resonant = returns_or_refuses(Resonant, lam, order)
    points = [returns_or_refuses(BasePoint, det, trace), returns_or_refuses(CurvePoint, order, lam),
              resonant and returns_or_refuses(point_of_class, resonant)]
    points = [x for x in points if x is not None]
    for x in points:
        returns_or_refuses(image, x)
        returns_or_refuses(class_of_point, x)
        returns_or_refuses(twin, x)
        for y in points:
            returns_or_refuses(points_equal, x, y)
            returns_or_refuses(separated, x, y)
            returns_or_refuses(adheres, x, y)
            returns_or_refuses(neighborhood_contains, x, radius, y)


@given(COMPLEX, COMPLEX, UNIT, st.sampled_from(SLOPES), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
def test_tori_and_foliation_kernels(tau, z, z0, alpha, x, y):
    tau = complex(tau.real, abs(tau.imag))
    returns_or_refuses(reduce_fundamental_domain, tau)
    returns_or_refuses(tori_equivalent, tau, 1j)
    returns_or_refuses(moebius, IntMatrix2(2, 1, 1, 1), tau)
    returns_or_refuses(lattice_reduce, z, tau)
    translation = returns_or_refuses(TorusTranslation, tau, x, y)
    if translation is not None:
        returns_or_refuses(translation_compose, translation, translation)
    returns_or_refuses(rotation_orbit, z0, alpha, 3)


# ------------------------------------------------ one input per former fault

HUGE = complex(1.3e308, 1.3e308)  # both parts finite, but abs() of it overflows


def test_within_reads_a_modulus_past_float_range_as_within_no_bound():
    assert within(HUGE, math.inf) is False
    assert within(HUGE - 0.5) is False


def test_quadratic_roots_of_a_huge_d_are_both_finite():
    r1, r2 = quadratic_roots(HUGE, 1)
    exact_d = _gauss(HUGE)
    assert_vieta(r1, r2, _gauss(1 + 0j), exact_d, Fraction(1), modulus(exact_d))
    # both true roots have modulus about 1.36e154
    assert abs(r1) == pytest.approx(1.36e154, rel=1e-2) and abs(r2) == pytest.approx(1.36e154, rel=1e-2)


def test_quadratic_roots_of_a_tiny_t_keep_their_size():
    # t*t underflows to 0, where the plain formula returned t/2 as a root
    assert quadratic_roots(0, 1e-170) == (1e-170 + 0j, 0j)
    assert eigen2(Matrix2C(1e-170, 0, 0, 0)) == (1e-170 + 0j, 0j, True)


def test_order_by_modulus_of_a_huge_value():
    assert order_by_modulus(1, HUGE) == (HUGE, 1)
    assert order_by_modulus(HUGE, 1) == (HUGE, 1)
    # two moduli past float range tie, so the argument decides, whatever the argument order
    assert order_by_modulus(HUGE, -HUGE) == order_by_modulus(-HUGE, HUGE) == (HUGE, -HUGE)


@pytest.mark.parametrize("make", [lambda m: m.inverse(), lambda m: GroupElement(m, 0j)], ids=["inverse", "group"])
def test_a_det_term_past_float_range_is_invalid_input(make):
    with pytest.raises(InvalidInputError, match="past float range"):
        make(Matrix2C(HUGE, 0, 0, 1))


def test_eigen2_of_a_nilpotent_matrix_with_a_huge_entry():
    # the double eigenvalue 0 sends eigen2 to its entrywise test, where abs(b) overflows
    assert eigen2(Matrix2C(0, HUGE, 0, 0)) == (0j, 0j, False)


def test_rotation_orbit_of_a_huge_start_is_not_on_the_circle():
    with pytest.raises(NotOnCircleError):
        rotation_orbit(HUGE, Fraction(1, 3), 3)


def test_classify_of_a_huge_c_is_resonant():
    # c != 0, so the class is Resonant(lam, p) whatever the size of c
    assert classify(ResonantForm(0.5, 2, HUGE)) == Resonant(0.5, 2)
    assert biholomorphic(ResonantForm(0.5, 2, HUGE), ResonantForm(0.5, 2, 1))


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["hopf", "classify", "--resonant", "0.5", "0", "2", "1.3e308", "1.3e308"],
         {"class": "resonant", "lambda": [0.5, 0], "p": 2, "det_trace": [[0.125, 0], [0.75, 0]]}),
        (["alg", "eigen", "--matrix", "[[[0,0],[1.3e308,1.3e308]],[[0,0],[0,0]]]"],
         {"eigenvalues": [[0, 0], [0, 0]], "diagonalizable": False}),
    ],
)
def test_cli_answers_what_once_raised_overflow(argv, payload):
    out, err = io.StringIO(), io.StringIO()
    assert cli.dispatch(argv, out, err) == 0
    assert json.loads(out.getvalue()) == payload and err.getvalue() == ""


def test_cli_prints_both_roots_of_a_huge_d():
    argv, out = ["alg", "quadratic-roots", "--d", "1.3e308", "1.3e308", "--t", "1", "0"], io.StringIO()
    assert cli.dispatch(argv, out, io.StringIO()) == 0
    roots = [complex(*pair) for pair in json.loads(out.getvalue())["roots"]]
    assert all(abs(r) == pytest.approx(1.36e154, rel=1e-2) for r in roots)
