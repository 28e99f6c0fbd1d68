"""Linear foliations of the torus: leaves, quotients, rotation orbits."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teichkit import (
    Circle,
    ClosedLeaf,
    ContinuedFraction,
    DenseLine,
    IntMatrix2,
    InvalidInputError,
    NonHausdorffQuotient,
    NotOnCircleError,
    QuadraticIrrational,
    cf_expand,
    leaf_descriptor,
    leaf_space,
    moebius_surd,
    morita_equivalent,
    rotation_orbit,
    tolerance,
)
from oracles import rotation_power, random_unimodular, surd_witness_search

SQRT2 = QuadraticIrrational(0, 1, 2)
SQRT3 = QuadraticIrrational(0, 1, 3)
GOLDEN = QuadraticIrrational(1, 2, 5)

# mixed sample with known equivalence classes:
#   all four rationals; {sqrt2, 1+sqrt2, (3+sqrt2)/7}; {golden}; {sqrt5};
#   {sqrt3, (1+sqrt3)/2}; {sqrt7}
TWELVE_SLOPES = [
    Fraction(1, 3),
    Fraction(2, 5),
    Fraction(0, 1),
    Fraction(7, 3),
    SQRT2,
    QuadraticIrrational(1, 1, 2),
    QuadraticIrrational(3, 7, 2),
    GOLDEN,
    QuadraticIrrational(0, 1, 5),
    SQRT3,
    QuadraticIrrational(1, 2, 3),
    QuadraticIrrational(0, 1, 7),
]


def rational_slopes():
    return st.fractions(min_value=-20, max_value=20, max_denominator=60)


class TestLeafDescriptor:
    def test_rational(self):
        assert leaf_descriptor(Fraction(2, 3)) == ClosedLeaf(2, 3)
        assert leaf_descriptor(Fraction(4, 6)) == ClosedLeaf(2, 3)
        assert leaf_descriptor(Fraction(-1, 2)) == ClosedLeaf(-1, 2)
        assert leaf_descriptor(Fraction(5)) == ClosedLeaf(5, 1)

    def test_irrational(self):
        assert leaf_descriptor(SQRT2) == DenseLine()

    def test_invalid_winding_rejected(self):
        with pytest.raises(InvalidInputError):
            ClosedLeaf(2, 4)
        with pytest.raises(InvalidInputError):
            ClosedLeaf(1, 0)

    def test_windings_must_be_integers(self):
        with pytest.raises(InvalidInputError, match=r"^vertical must be an integer, got 1\.5$"):
            ClosedLeaf(1.5, 2)
        with pytest.raises(InvalidInputError, match=r"^vertical must be an integer, got True$"):
            ClosedLeaf(True, 1)
        with pytest.raises(InvalidInputError, match=r"^horizontal must be an integer, got 2\.0$"):
            ClosedLeaf(1, 2.0)
        with pytest.raises(InvalidInputError, match=r"^closed leaf needs coprime winding"):
            ClosedLeaf(2, 4)

    def test_rejects_plain_floats(self):
        with pytest.raises(InvalidInputError):
            leaf_descriptor(0.5)


class TestLeafSpace:
    def test_rational_circle(self):
        assert leaf_space(Fraction(2, 3)) == Circle(3)
        assert leaf_space(Fraction(5, 1)) == Circle(1)

    def test_irrational_quotient(self):
        assert leaf_space(GOLDEN) == NonHausdorffQuotient()

    def test_deck_order_positive(self):
        with pytest.raises(InvalidInputError):
            Circle(0)

    @given(rational_slopes())
    @settings(max_examples=100)
    def test_deck_order_is_denominator(self, alpha):
        assert leaf_space(alpha) == Circle(alpha.denominator)


class TestRotationOrbit:
    def test_trivial_slope(self):
        assert rotation_orbit(1.0, Fraction(0, 1), 10) == [1.0 + 0j]

    def test_third_roots(self):
        points = rotation_orbit(1.0, Fraction(2, 3), 10)
        assert len(points) == 3
        step = points[1] / points[0]
        assert step**3 == pytest.approx(1.0)
        assert points[0] == 1.0

    def test_orbit_closes(self):
        points = rotation_orbit(1j, Fraction(3, 7), 100)
        assert len(points) == 7
        again = points[-1] * (points[1] / points[0])
        assert again == pytest.approx(points[0], abs=1e-12)

    def test_max_points_truncates(self):
        assert len(rotation_orbit(1.0, Fraction(2, 3), 2)) == 2
        assert len(rotation_orbit(1.0, SQRT2, 100)) == 100

    def test_irrational_orbit_never_repeats(self):
        points = rotation_orbit(1.0, SQRT2, 100)
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                assert abs(points[i] - points[j]) > 1e-3

    def test_points_stay_on_circle(self):
        for z in rotation_orbit(1j, GOLDEN, 50):
            assert abs(z) == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form(self):
        points = rotation_orbit(1.0, SQRT2, 60)
        value = float(SQRT2)
        for k, z in enumerate(points):
            assert z == pytest.approx(rotation_power(1.0, value, k), abs=1e-9)

    def test_off_circle_start_rejected(self):
        with pytest.raises(NotOnCircleError):
            rotation_orbit(1.1, Fraction(1, 2), 10)
        with pytest.raises(NotOnCircleError):
            rotation_orbit(0.0, SQRT2, 10)

    def test_bad_max_points_rejected(self):
        with pytest.raises(InvalidInputError):
            rotation_orbit(1.0, Fraction(1, 2), 0)

    def test_eps_loosens_circle_test(self):
        with pytest.raises(NotOnCircleError):
            rotation_orbit(1.001, Fraction(1, 2), 4)
        with tolerance(0.01):
            assert len(rotation_orbit(1.001, Fraction(1, 2), 4)) == 2

    @given(rational_slopes(), st.integers(min_value=1, max_value=200))
    @settings(max_examples=150, deadline=None)
    def test_rational_orbit_size(self, alpha, max_points):
        points = rotation_orbit(1.0, alpha, max_points)
        assert len(points) == min(alpha.denominator, max_points)


class TestContinuedFractions:
    def test_rational(self):
        assert cf_expand(Fraction(7, 3)) == ContinuedFraction((2, 3), ())
        assert cf_expand(Fraction(1, 2)) == ContinuedFraction((0, 2), ())
        assert cf_expand(Fraction(5)) == ContinuedFraction((5,), ())

    def test_negative_rational_uses_floor(self):
        assert cf_expand(Fraction(-7, 3)) == ContinuedFraction((-3, 1, 2), ())

    def test_surds(self):
        assert cf_expand(SQRT2) == ContinuedFraction((1,), (2,))
        assert cf_expand(GOLDEN) == ContinuedFraction((), (1,))
        assert cf_expand(SQRT3) == ContinuedFraction((1,), (1, 2))
        assert cf_expand(QuadraticIrrational(3, 7, 2)) == ContinuedFraction((0, 1, 1, 1), (2,))

    def test_last_rational_quotient_at_least_two(self):
        for num in range(-30, 31):
            for den in range(1, 12):
                pre, per = cf_expand(Fraction(num, den)).preperiod, ()
                if len(pre) > 1:
                    assert pre[-1] >= 2

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ContinuedFraction((), ())
        with pytest.raises(InvalidInputError):
            ContinuedFraction((1, 0), ())
        with pytest.raises(InvalidInputError):
            ContinuedFraction((1,), (0,))
        # with no preperiod, the first period quotient is checked as a period one
        with pytest.raises(InvalidInputError, match="^period quotients must be >= 1, got 0$"):
            ContinuedFraction((), (0,))
        with pytest.raises(InvalidInputError):
            ContinuedFraction((1.5,), ())

    def test_value_rational_exact(self):
        assert cf_expand(Fraction(7, 3)).value() == pytest.approx(7 / 3, abs=1e-15)
        assert cf_expand(Fraction(-7, 3)).value() == pytest.approx(-7 / 3, abs=1e-15)

    def test_value_periodic_converges(self):
        assert cf_expand(SQRT2).value() == pytest.approx(math.sqrt(2), abs=1e-12)
        assert cf_expand(GOLDEN).value() == pytest.approx(float(GOLDEN), abs=1e-12)

    def test_value_terms_control(self):
        cf = cf_expand(GOLDEN)
        assert cf.value(terms=1) == 1.0
        assert abs(cf.value(terms=5) - float(GOLDEN)) > abs(cf.value(terms=25) - float(GOLDEN))
        with pytest.raises(InvalidInputError):
            cf.value(terms=0)

    @given(rational_slopes())
    @settings(max_examples=150)
    def test_rational_roundtrip(self, alpha):
        cf = cf_expand(alpha)
        assert cf.period == ()
        assert cf.value(terms=len(cf.preperiod)) == pytest.approx(float(alpha), abs=1e-12)


class TestMorita:
    def test_rationals_all_equivalent(self):
        assert morita_equivalent(Fraction(1, 3), Fraction(2, 5))
        assert morita_equivalent(Fraction(0, 1), Fraction(7, 3))

    def test_mixed_kinds_never_equivalent(self):
        assert not morita_equivalent(Fraction(1, 3), SQRT2)
        assert not morita_equivalent(GOLDEN, Fraction(2, 5))

    def test_translated_surd(self):
        assert morita_equivalent(SQRT2, QuadraticIrrational(1, 1, 2))

    def test_reciprocal_surd(self):
        s = IntMatrix2(0, -1, 1, 0)
        assert morita_equivalent(SQRT2, moebius_surd(s, SQRT2))

    def test_inequivalent_surds(self):
        assert not morita_equivalent(SQRT2, GOLDEN)
        assert not morita_equivalent(SQRT3, QuadraticIrrational(0, 1, 5))

    def test_same_discriminant_is_not_enough(self):
        # golden and sqrt5 share d = 5 but have different tails
        assert not morita_equivalent(GOLDEN, QuadraticIrrational(0, 1, 5))

    def test_nontrivial_same_class(self):
        assert morita_equivalent(SQRT2, QuadraticIrrational(3, 7, 2))
        assert morita_equivalent(SQRT3, QuadraticIrrational(1, 2, 3))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_integer_moebius_images_are_equivalent(self, seed):
        rng = random.Random(seed)
        x = rng.choice([SQRT2, SQRT3, GOLDEN, QuadraticIrrational(0, 1, 7)])
        m = random_unimodular(rng, length=rng.randint(1, 6))
        if rng.random() < 0.5:
            m = m @ IntMatrix2(1, 0, 0, -1)  # determinant -1 is allowed too
        assert morita_equivalent(x, moebius_surd(m, x))

    def test_equivalence_laws_on_slope_sample(self):
        for x in TWELVE_SLOPES:
            assert morita_equivalent(x, x)
        for x in TWELVE_SLOPES:
            for y in TWELVE_SLOPES:
                assert morita_equivalent(x, y) == morita_equivalent(y, x)
        for x in TWELVE_SLOPES:
            for y in TWELVE_SLOPES:
                for z in TWELVE_SLOPES:
                    if morita_equivalent(x, y) and morita_equivalent(y, z):
                        assert morita_equivalent(x, z)

    def test_expected_partition_of_slope_sample(self):
        quads = TWELVE_SLOPES[4:]
        classes = []
        for x in quads:
            for cls in classes:
                if morita_equivalent(x, cls[0]):
                    cls.append(x)
                    break
            else:
                classes.append([x])
        sizes = sorted(len(c) for c in classes)
        assert sizes == [1, 1, 1, 2, 3]

    def test_agrees_with_witness_search(self):
        pairs = [
            (SQRT2, QuadraticIrrational(1, 1, 2), True),
            (SQRT2, QuadraticIrrational(3, 7, 2), True),
            (SQRT3, QuadraticIrrational(1, 2, 3), True),
            (SQRT2, GOLDEN, False),
            (GOLDEN, QuadraticIrrational(0, 1, 5), False),
        ]
        for x, y, want in pairs:
            assert morita_equivalent(x, y) is want
            witness = surd_witness_search(x, y, box=8)
            if want:
                assert witness is not None
                assert moebius_surd(witness, x) == y
            else:
                assert witness is None
