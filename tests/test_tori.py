"""Moduli of complex tori: reduction, equivalence, fiber translations."""

import io
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teichkit import (
    IntMatrix2,
    InvalidInputError,
    LimitExceededError,
    MismatchedFiberError,
    NotUnimodularError,
    S,
    T,
    TorusTranslation,
    lattice_reduce,
    moebius,
    reduce_fundamental_domain,
    tolerance,
    tori_equivalent,
    translation_compose,
    tori,
)
from oracles import fundamental_domain_point, letter_reduction, random_unimodular, tori_witness_search

EPS = 1e-9

upper_taus = st.builds(
    complex,
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.02, max_value=10.0, allow_nan=False),
)


def in_fundamental_domain(tau, eps=EPS):
    if not (-0.5 - 10 * eps <= tau.real < 0.5):
        return False
    if abs(tau) < 1.0 - 10 * eps:
        return False
    # boundary points must sit on the canonical side of the arc
    return abs(abs(tau) - 1.0) > eps or tau.real <= eps


class TestMoebius:
    def test_identity(self):
        assert moebius(IntMatrix2.identity(), 0.3 + 1.7j) == 0.3 + 1.7j

    def test_translation(self):
        assert moebius(T, 2j) == 1 + 2j

    def test_inversion_fixed_point(self):
        assert moebius(S, 1j) == pytest.approx(1j)

    def test_rejects_det_not_one(self):
        with pytest.raises(NotUnimodularError):
            moebius(IntMatrix2(2, 0, 0, 1), 1j)
        with pytest.raises(NotUnimodularError):
            moebius(IntMatrix2(0, 1, 1, 0), 1j)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(InvalidInputError):
            moebius(T, 1 - 1j)

    @pytest.mark.parametrize("m", [IntMatrix2(1, 10**400, 0, 1), IntMatrix2(1, 0, 10**400, 1)])
    def test_rejects_an_entry_past_float_range(self, m):
        from teichkit.cli import dispatch

        with pytest.raises(InvalidInputError, match="^m has an entry past float range$"):
            moebius(m, 0.1 + 1j)
        out, err = io.StringIO(), io.StringIO()
        argv = ["tori", "moebius", "--m", json.dumps([list(row) for row in m.rows()]), "--tau", "0.1", "1"]
        assert dispatch(argv, out, err) == 1 and out.getvalue() == ""
        assert json.loads(err.getvalue()) == {"error": "invalid_input", "message": "m has an entry past float range"}

    def test_rejects_an_image_past_float_range(self):
        from teichkit.cli import dispatch

        m = IntMatrix2(10**308, 10**308 - 1, 1, 1)  # det 1, entries in float range, a * tau is not
        message = "the image of tau under m is past float range"
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            moebius(m, 10j)
        out, err = io.StringIO(), io.StringIO()
        argv = ["tori", "moebius", "--matrix", json.dumps([list(row) for row in m.rows()]), "--tau", "0", "10"]
        assert dispatch(argv, out, err) == 1 and out.getvalue() == ""
        assert json.loads(err.getvalue()) == {"error": "invalid_input", "message": message}

    @given(upper_taus, st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=150)
    def test_group_action(self, tau, seed):
        rng = random.Random(seed)
        m1, m2 = random_unimodular(rng, 5), random_unimodular(rng, 5)
        lhs = moebius(m1 @ m2, tau)
        rhs = moebius(m1, moebius(m2, tau))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    @given(upper_taus)
    @settings(max_examples=100)
    def test_preserves_upper_half_plane(self, tau):
        assert moebius(S, tau).imag > 0


class TestReduce:
    def test_interior_fixed(self):
        tau, witness = reduce_fundamental_domain(1j)
        assert tau == 1j
        assert witness.rows() == ((1, 0), (0, 1))

    def test_translation_only(self):
        tau, witness = reduce_fundamental_domain(5 + 1j)
        assert tau == pytest.approx(1j)
        assert witness.rows() == ((1, -5), (0, 1))

    def test_inversion_chain(self):
        tau, witness = reduce_fundamental_domain(0.1 + 0.1j)
        assert tau == pytest.approx(5j)
        assert witness.rows() == ((5, -1), (1, 0))

    def test_right_edge_glued_to_left(self):
        tau, witness = reduce_fundamental_domain(0.5 + 2j)
        assert tau == pytest.approx(-0.5 + 2j)
        assert witness.rows() == ((1, -1), (0, 1))

    def test_arc_glued_to_nonpositive_side(self):
        theta = 0.4 * math.pi  # unit-circle point with positive real part
        tau, _ = reduce_fundamental_domain(complex(math.cos(theta), math.sin(theta)))
        assert abs(abs(tau) - 1.0) <= 10 * EPS
        assert tau.real <= EPS

    def test_rejects_lower_half_plane(self):
        with pytest.raises(InvalidInputError):
            reduce_fundamental_domain(1 - 2j)

    @given(upper_taus)
    @settings(max_examples=300, deadline=None)
    def test_lands_in_domain_with_exact_witness(self, tau):
        reduced, witness = reduce_fundamental_domain(tau)
        assert witness.det() == 1
        assert moebius(witness, tau) == pytest.approx(reduced, rel=1e-6, abs=1e-9)
        assert in_fundamental_domain(reduced)

    @given(upper_taus)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, tau):
        reduced, _ = reduce_fundamental_domain(tau)
        again, witness = reduce_fundamental_domain(reduced)
        assert again == pytest.approx(reduced, rel=1e-9, abs=1e-12)
        if abs(reduced) > 1 + 1e-6 and -0.5 + 1e-6 < reduced.real < 0.5 - 1e-6:
            assert witness.rows() == ((1, 0), (0, 1))

    def test_against_exhaustive_oracle(self):
        rng = random.Random(20260815)
        for _ in range(60):
            tau = complex(rng.uniform(-3, 3), rng.uniform(0.05, 4.0))
            reduced, _ = reduce_fundamental_domain(tau)
            want = fundamental_domain_point(tau, box=30)
            assert reduced == pytest.approx(want, rel=1e-7, abs=1e-7)


def witness_cases() -> list[complex]:
    """Seeded taus of every scale, plus the boundary and extreme points."""
    rng = random.Random(20261019)
    cases = [complex(rng.uniform(-5, 5), 10 ** rng.uniform(-300, 3)) for _ in range(300)]
    cases += [moebius(random_unimodular(rng, 8), complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 3.0))) for _ in range(100)]
    cases += [complex(edge, rng.uniform(0.8, 4.0)) for edge in (-0.5, 0.5) for _ in range(20)]
    arc = [math.pi / 3, math.pi / 2, 2 * math.pi / 3] + [rng.uniform(math.pi / 3, 2 * math.pi / 3) for _ in range(30)]
    cases += [complex(math.cos(theta), math.sin(theta)) for theta in arc]
    cases += [complex(sign * 1e300 + shift, im) for sign in (1, -1) for shift in (0.0, 1e284) for im in (1e-300, 0.5, 1.0, 1e5)]
    cases += [complex(re, 1e-300) for re in (0.0, 0.1, -0.3, 0.5, 1 / 3, rng.uniform(-1, 1))]
    return cases


class TestReductionWitness:
    @pytest.mark.parametrize("eps", [EPS, 1e-3])
    def test_matches_letter_by_letter_reduction(self, eps):
        with tolerance(eps):
            for tau in witness_cases():
                got = reduce_fundamental_domain(tau)
                assert got == letter_reduction(tau, eps), tau
                assert got[1].det() == 1

    def test_step_cap_raises_limit_exceeded(self, monkeypatch):
        monkeypatch.setattr(tori, "_MAX_REDUCE_STEPS", 1)
        with pytest.raises(LimitExceededError, match="within 1 steps"):
            reduce_fundamental_domain(0.1 + 0.1j)

    def test_builds_one_int_matrix(self, monkeypatch):
        calls = []
        init = IntMatrix2.__init__

        def counting_init(self, *entries):
            calls.append(entries)
            init(self, *entries)

        monkeypatch.setattr(IntMatrix2, "__init__", counting_init)
        for tau in witness_cases():
            calls.clear()
            reduce_fundamental_domain(tau)
            assert len(calls) == 1, tau


class TestEquivalence:
    def test_translated(self):
        witness = tori_equivalent(2j, 1 + 2j)
        assert witness is not None and witness.rows() == ((1, 1), (0, 1))

    def test_distinct_moduli(self):
        assert tori_equivalent(2j, 1j) is None

    def test_inversion_fixed_point(self):
        witness = tori_equivalent(1j, moebius(S, 1j))
        assert witness is not None
        assert moebius(witness, 1j) == pytest.approx(1j)

    def test_tolerates_reduction_noise(self):
        tau = 0.37 + 1.2j
        image = moebius(random_unimodular(random.Random(7), 6), tau)
        assert tori_equivalent(tau, image + 1e-12j) is not None

    @given(upper_taus, st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=150, deadline=None)
    def test_orbit_pairs_get_witness(self, tau, seed):
        m = random_unimodular(random.Random(seed), 6)
        image = moebius(m, tau)
        witness = tori_equivalent(tau, image)
        assert witness is not None
        assert witness.det() == 1
        assert moebius(witness, tau) == pytest.approx(image, rel=1e-6, abs=1e-8)

    @given(upper_taus, st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80, deadline=None)
    def test_symmetric(self, tau, seed):
        image = moebius(random_unimodular(random.Random(seed), 4), tau)
        assert (tori_equivalent(tau, image) is None) == (tori_equivalent(image, tau) is None)

    def test_against_witness_search_oracle(self):
        rng = random.Random(99)
        for _ in range(15):
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.6, 2.0))
            m = random_unimodular(rng, 4)
            image = moebius(m, tau)
            got = tori_equivalent(tau, image)
            want = tori_witness_search(tau, image, box=25)
            assert got is not None and want is not None
            assert moebius(got, tau) == pytest.approx(moebius(want, tau), abs=1e-5)

        for tau1, tau2 in [(2j, 1j), (0.2 + 1.1j, 0.2 + 1.3j)]:
            assert tori_equivalent(tau1, tau2) is None
            assert tori_witness_search(tau1, tau2, box=12) is None


class TestLatticeReduce:
    def test_lattice_vector_collapses(self):
        assert lattice_reduce(1 + 1j, 1j) == (0.0, 0.0)

    def test_plain_coordinates(self):
        x, y = lattice_reduce(0.3 + 0.4j, 1j)
        assert (x, y) == pytest.approx((0.3, 0.4))

    def test_negative_wraps(self):
        x, y = lattice_reduce(-0.25, 1j)
        assert (x, y) == pytest.approx((0.75, 0.0))

    def test_skew_fiber(self):
        tau = 0.5 + 2j
        x, y = lattice_reduce(0.25 + 0.5 * tau, tau)
        assert (x, y) == pytest.approx((0.25, 0.5))

    @given(
        st.floats(min_value=-4, max_value=4, allow_nan=False),
        st.floats(min_value=-4, max_value=4, allow_nan=False),
        upper_taus,
    )
    @settings(max_examples=200)
    def test_difference_is_lattice_point(self, re, im, tau):
        z = complex(re, im)
        x, y = lattice_reduce(z, tau)
        assert 0 <= x < 1 and 0 <= y < 1
        w = z - (x + y * tau)
        n = round(w.imag / tau.imag)
        m = round(w.real - n * tau.real)
        assert w == pytest.approx(m + n * tau, abs=1e-6)


class TestTranslations:
    def test_from_z_roundtrip(self):
        t = TorusTranslation.from_z(1j, 0.3 + 0.4j)
        assert (t.x, t.y) == pytest.approx((0.3, 0.4))
        assert t.z == pytest.approx(0.3 + 0.4j)

    def test_coordinates_normalized(self):
        t = TorusTranslation(1j, 1.25, -0.5)
        assert (t.x, t.y) == (0.25, 0.5)

    def test_zero_is_identity(self):
        t = TorusTranslation(1j, 0.3, 0.4)
        composed = translation_compose(t, TorusTranslation(1j, 0.0, 0.0))
        assert (composed.x, composed.y) == (t.x, t.y)

    def test_compose_exact_wrap(self):
        a = TorusTranslation(1j, 0.25, 0.5)
        b = TorusTranslation(1j, 0.75, 0.5)
        c = translation_compose(a, b)
        assert (c.x, c.y) == (0.0, 0.0)

    def test_inverse_cancels(self):
        t = TorusTranslation(2j, 0.7, 0.6)
        c = translation_compose(t, t.inverse())
        assert (c.x, c.y) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_inverse_of_zero(self):
        z = TorusTranslation(1j, 0.0, 0.0).inverse()
        assert (z.x, z.y) == (0.0, 0.0)

    def test_mismatched_fibers_rejected(self):
        with pytest.raises(MismatchedFiberError):
            translation_compose(TorusTranslation(1j, 0.1, 0.2), TorusTranslation(2j, 0.1, 0.2))

    @given(
        st.floats(min_value=0, max_value=0.999, allow_nan=False),
        st.floats(min_value=0, max_value=0.999, allow_nan=False),
        st.floats(min_value=0, max_value=0.999, allow_nan=False),
        st.floats(min_value=0, max_value=0.999, allow_nan=False),
    )
    @settings(max_examples=150)
    def test_commutative(self, x1, y1, x2, y2):
        a = TorusTranslation(1j, x1, y1)
        b = TorusTranslation(1j, x2, y2)
        ab = translation_compose(a, b)
        ba = translation_compose(b, a)
        assert (ab.x, ab.y) == (ba.x, ba.y)
