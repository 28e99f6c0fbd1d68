"""Deformation-space points, twins, and the non-Hausdorff neighborhood model."""

import cmath
import io
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teichkit import (
    BasePoint,
    CurvePoint,
    Diagonal,
    InvalidInputError,
    InvalidPointError,
    Resonant,
    SamePointError,
    adheres,
    class_of_point,
    classify,
    image,
    in_base_domain,
    neighborhood_contains,
    point_of_class,
    points_equal,
    quadratic_roots,
    separated,
    tolerance,
    twin,
)
from teichkit.tolerance import inside_unit


def random_curve_point(rng, orders=(1, 2, 3, 4, 5, 6)):
    while True:
        order = rng.choice(orders)
        lam = cmath.rect(rng.uniform(0.15, 0.8), rng.uniform(0, 2 * math.pi))
        try:
            return CurvePoint(order, lam)
        except InvalidPointError:
            continue


class TestBaseDomain:
    def test_membership(self):
        assert in_base_domain(0.25, 1.0)       # double root 0.5
        assert not in_base_domain(1.0, 2.0)    # double root 1.0
        assert not in_base_domain(0.0, 0.5)    # zero root

    def test_eps_argument(self):
        assert in_base_domain(0.01, 0.2)
        with tolerance(0.11):
            assert not in_base_domain(0.01, 0.2)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200)
    def test_decides_on_quadratic_roots_moduli(self, seed):
        rng = random.Random(seed)
        scale = 10 ** rng.uniform(-3, 1)
        det = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale
        trace = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) * scale
        r1, r2 = quadratic_roots(det, trace)
        want = inside_unit(abs(r1)) and inside_unit(abs(r2))
        assert in_base_domain(det, trace) == want
        if det.imag == 0.0 and trace.imag == 0.0:
            assert in_base_domain(det.real, trace.real) == want

    @pytest.mark.parametrize(
        "det, trace",
        [
            ("0.25", 1.0),
            (0.25, True),
            (None, 1.0),
            (complex("nan"), 1.0),
            (0.25 + 0j, complex(math.inf, 0.0)),
            (0.25 + 0j, 1.5e308 + 1.5e308j),
        ],
    )
    def test_refuses_what_quadratic_roots_refuses(self, det, trace):
        with pytest.raises(InvalidInputError) as want:
            quadratic_roots(det, trace)
        with pytest.raises(InvalidInputError) as got:
            in_base_domain(det, trace)
        assert str(got.value) == str(want.value)

    def test_base_point_validation(self):
        with pytest.raises(InvalidPointError):
            BasePoint(1.0, 2.0)
        exc = pytest.raises(InvalidPointError, BasePoint, 0.0, 0.5)
        assert isinstance(exc.value, InvalidInputError)

    def test_curve_point_validation(self):
        with pytest.raises(InvalidPointError):
            CurvePoint(0, 0.5)
        with pytest.raises(InvalidPointError):
            CurvePoint(1, 1.0)  # image roots land on the unit circle
        with pytest.raises(InvalidPointError):
            CurvePoint(100, 0.5)  # lam**101 collapses below tolerance

    @pytest.mark.parametrize(
        "order, lam",
        [
            (100000, 2),  # lam**order past float range
            (2, 1e200),  # lam**3 past float range
            (10**400, 0.5),  # an exponent past float range
            (1, 1e308 + 1e308j),  # lam**2 not finite
        ],
    )
    def test_curve_point_whose_image_overflows(self, order, lam):
        with pytest.raises(InvalidPointError, match="images outside the base domain$"):
            CurvePoint(order, lam)

    @pytest.mark.parametrize("p", [3, 100000])
    def test_twin_of_a_curve_point_whose_image_overflows(self, p):
        from teichkit.cli import dispatch

        point = f'{{"stratum":"cp","p":{p},"params":[[2,0]]}}'
        out, err = io.StringIO(), io.StringIO()
        assert dispatch(["teich", "twin", "--point", point], out, err) == 1
        assert json.loads(err.getvalue()) == {
            "error": "invalid_point",
            "message": f"curve point of order {p} at (2+0j) images outside the base domain",
        }


class TestImageAndClasses:
    def test_images(self):
        assert image(BasePoint(0.15, 0.8)) == (0.15, 0.8)
        assert image(CurvePoint(1, 0.5)) == (0.25, 1.0)
        assert image(CurvePoint(2, 0.5)) == (0.125, 0.75)

    def test_point_of_class(self):
        assert point_of_class(Diagonal(0.5, 0.5)) == BasePoint(0.25, 1.0)
        assert point_of_class(Resonant(0.5, 1)) == CurvePoint(1, 0.5)
        assert point_of_class(Resonant(0.5, 2)) == CurvePoint(2, 0.5)

    def test_unsupported_class_or_point(self):
        with pytest.raises(InvalidPointError, match="^unsupported class "):
            point_of_class((0.5, 0.25))
        with pytest.raises(InvalidPointError, match="^unsupported point "):
            class_of_point((0.25, 1.0))

    def test_class_of_point(self):
        got = class_of_point(BasePoint(0.125, 0.75))
        assert isinstance(got, Diagonal)
        assert got.lambda1 == pytest.approx(0.5) and got.lambda2 == pytest.approx(0.25)
        assert class_of_point(CurvePoint(2, 0.4)) == Resonant(0.4, 2)

    def test_roundtrip_through_classify(self):
        from teichkit import Matrix2C

        for m in (Matrix2C.diag(0.5, 0.3), Matrix2C(0.5, 1.0, 0.0, 0.5)):
            c = classify(m)
            assert class_of_point(point_of_class(c)) == c

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=150)
    def test_curve_roundtrip(self, seed):
        x = random_curve_point(random.Random(seed))
        assert point_of_class(class_of_point(x)) == x


class TestTwin:
    def test_curve_to_base(self):
        assert twin(CurvePoint(1, 0.5)) == BasePoint(0.25, 1.0)
        assert twin(CurvePoint(2, 0.5)) == BasePoint(0.125, 0.75)

    def test_degenerate_base_to_jordan_stratum(self):
        got = twin(BasePoint(0.25, 1.0))
        assert isinstance(got, CurvePoint) and got.order == 1
        assert got.lam == pytest.approx(0.5)

    def test_resonant_base_to_higher_stratum(self):
        got = twin(BasePoint(0.125, 0.75))
        assert isinstance(got, CurvePoint) and got.order == 2
        assert got.lam == pytest.approx(0.5)

    def test_generic_base_has_no_twin(self):
        assert twin(BasePoint(0.15, 0.8)) is None

    def test_eps_controls_resonance_detection(self):
        lam = 0.5
        near = lam**2 + 1e-12
        base = BasePoint(lam * near, lam + near)
        assert isinstance(twin(base), CurvePoint)
        with tolerance(1e-14):
            assert twin(base) is None

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_involution_on_curve_points(self, seed):
        x = random_curve_point(random.Random(seed))
        back = twin(twin(x))
        assert back is not None and points_equal(back, x)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_twin_preserves_image(self, seed):
        x = random_curve_point(random.Random(seed))
        t = twin(x)
        dx, tx = image(x)
        dt, tt = image(t)
        assert dx == pytest.approx(dt, abs=1e-9) and tx == pytest.approx(tt, abs=1e-9)


class TestPointsEqual:
    def test_same_stratum(self):
        assert points_equal(BasePoint(0.15, 0.8), BasePoint(0.15, 0.8 + 1e-12))
        assert points_equal(CurvePoint(2, 0.5), CurvePoint(2, 0.5))

    def test_cross_stratum_never_equal(self):
        assert not points_equal(BasePoint(0.25, 1.0), CurvePoint(1, 0.5))

    def test_order_distinguishes(self):
        assert not points_equal(CurvePoint(2, 0.5), CurvePoint(3, 0.5))


class TestSeparation:
    def test_twin_pairs_not_separated(self):
        assert not separated(BasePoint(0.25, 1.0), CurvePoint(1, 0.5))
        assert not separated(CurvePoint(1, 0.5), BasePoint(0.25, 1.0))
        assert not separated(BasePoint(0.125, 0.75), CurvePoint(2, 0.5))

    def test_distinct_points_separated(self):
        assert separated(BasePoint(0.15, 0.8), BasePoint(0.2, 0.9))
        assert separated(CurvePoint(1, 0.5), CurvePoint(1, 0.4))
        assert separated(CurvePoint(1, 0.5), CurvePoint(2, 0.5))

    def test_equal_points_rejected(self):
        with pytest.raises(SamePointError):
            separated(BasePoint(0.15, 0.8), BasePoint(0.15, 0.8))
        with pytest.raises(SamePointError):
            separated(CurvePoint(2, 0.5), CurvePoint(2, 0.5))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_separation_is_symmetric(self, seed):
        rng = random.Random(seed)
        x = random_curve_point(rng)
        y = random_curve_point(rng)
        if points_equal(x, y):
            return
        assert separated(x, y) == separated(y, x)


class TestAdherence:
    def test_point_adheres_to_itself(self):
        assert adheres(BasePoint(0.15, 0.8), BasePoint(0.15, 0.8))
        assert adheres(CurvePoint(2, 0.5), CurvePoint(2, 0.5))

    def test_base_adheres_to_its_twin(self):
        assert adheres(BasePoint(0.25, 1.0), CurvePoint(1, 0.5))
        assert adheres(BasePoint(0.125, 0.75), CurvePoint(2, 0.5))

    def test_curve_never_adheres_to_base(self):
        assert not adheres(CurvePoint(1, 0.5), BasePoint(0.25, 1.0))
        assert not adheres(CurvePoint(2, 0.5), BasePoint(0.125, 0.75))

    def test_unrelated_points(self):
        assert not adheres(BasePoint(0.15, 0.8), CurvePoint(1, 0.5))
        assert not adheres(BasePoint(0.15, 0.8), BasePoint(0.2, 0.9))


class TestNeighborhoods:
    def test_radius_must_be_positive(self):
        with pytest.raises(InvalidPointError):
            neighborhood_contains(BasePoint(0.15, 0.8), 0.0, CurvePoint(1, 0.5))
        with pytest.raises(InvalidPointError):
            neighborhood_contains(BasePoint(0.15, 0.8), -1.0, CurvePoint(1, 0.5))

    def test_base_neighborhood_contains_twin_at_any_radius(self):
        base, curve = BasePoint(0.25, 1.0), CurvePoint(1, 0.5)
        for radius in (1e-3, 1e-6, 1e-12):
            assert neighborhood_contains(base, radius, curve)

    def test_curve_neighborhood_excludes_own_base_locus(self):
        base, curve = BasePoint(0.25, 1.0), CurvePoint(1, 0.5)
        for radius in (1e-2, 0.5, 10.0):
            assert not neighborhood_contains(curve, radius, base)

    def test_curve_neighborhood_keeps_other_base_points(self):
        center = CurvePoint(1, 0.5)
        x = BasePoint(0.15, 0.8)  # no twin, image distance 0.2
        assert neighborhood_contains(center, 0.5, x)
        assert not neighborhood_contains(center, 0.1, x)

    def test_exclusion_is_per_order(self):
        # the order-1 base locus is not excluded from an order-2 neighborhood
        center = CurvePoint(2, 0.5)
        x = BasePoint(0.0625, 0.5)  # twin is CurvePoint(1, 0.25)
        assert neighborhood_contains(center, 0.3, x)

    def test_ball_is_open(self):
        # Dyadic coordinates so the boundary distance is exact in binary.
        center = BasePoint(0.15, 0.5)
        x = BasePoint(0.15, 0.75)
        assert not neighborhood_contains(center, 0.25, x)
        assert neighborhood_contains(center, 0.25 + 1e-9, x)

    def test_matches_separation_asymmetry(self):
        base, curve = BasePoint(0.125, 0.75), CurvePoint(2, 0.5)
        assert not separated(base, curve)
        assert adheres(base, curve)
        assert not adheres(curve, base)
        assert neighborhood_contains(base, 1e-9, curve)
        assert not neighborhood_contains(curve, 1.0, base)
