"""Scalar kernels and 2x2 matrix types."""

import cmath
import enum
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teichkit
from teichkit import (
    IntMatrix2,
    InvalidInputError,
    Matrix2C,
    NotUnimodularError,
    SingularMatrixError,
    arg_unit_interval,
    eigen2,
    order_by_modulus,
    quadratic_roots,
    tolerance,
)
from teichkit.algebra import ensure_finite, ensure_real
from teichkit.tolerance import within
from oracles import random_conjugator, random_unimodular

coords = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)
scalars = st.builds(complex, coords, coords)


def approx_c(z, tol=1e-9):
    return pytest.approx(z, abs=tol)


class TestArgAndOrdering:
    def test_argument_range(self):
        assert arg_unit_interval(1) == 0.0
        assert arg_unit_interval(1j) == approx_c(math.pi / 2)
        assert arg_unit_interval(-1j) == approx_c(3 * math.pi / 2)
        assert 0.0 <= arg_unit_interval(2 + 5e-324j) < 2 * math.pi  # atan2 underflows

    def test_descending_modulus(self):
        assert order_by_modulus(0.25, 0.5) == (0.5, 0.25)
        assert order_by_modulus(0.5, 0.25) == (0.5, 0.25)

    def test_tie_broken_by_argument(self):
        # equal moduli: ascending argument in [0, 2*pi)
        assert order_by_modulus(-1.0 + 0j, 1.0 + 0j) == (1.0 + 0j, -1.0 + 0j)
        assert order_by_modulus(-1j, 1j) == (1j, -1j)

    def test_near_tie_uses_argument(self):
        a, b = cmath.rect(0.5, 2.0), cmath.rect(0.5 + 1e-12, 1.0)
        assert order_by_modulus(a, b) == (b, a)


class TestQuadraticRoots:
    def test_perfect_square(self):
        r1, r2 = quadratic_roots(0.25, 1.0)
        assert r1 == approx_c(0.5) and r2 == approx_c(0.5)

    def test_zero_product(self):
        assert quadratic_roots(0.0, 1.0) == (1.0, 0.0)

    def test_distinct_real(self):
        r1, r2 = quadratic_roots(0.125, 0.75)
        assert r1 == approx_c(0.5) and r2 == approx_c(0.25)

    def test_small_root_no_cancellation(self):
        # naive formula loses the small root to cancellation here
        r1, r2 = quadratic_roots(1e-14, 1.0)
        assert abs(r2 - 1e-14) < 1e-17

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            quadratic_roots(complex(float("nan"), 0.0), 1.0)
        with pytest.raises(InvalidInputError):
            quadratic_roots(0.25, complex(float("inf"), 0.0))

    @given(d=scalars, t=scalars)
    @settings(max_examples=200)
    def test_vieta(self, d, t):
        r1, r2 = quadratic_roots(d, t)
        assert r1 + r2 == approx_c(t, tol=1e-8)
        assert r1 * r2 == approx_c(d, tol=1e-8)

    @given(d=scalars, t=scalars)
    @settings(max_examples=200)
    def test_canonical_order(self, d, t):
        r1, r2 = quadratic_roots(d, t)
        if abs(abs(r1) - abs(r2)) > 1e-9:
            assert abs(r1) > abs(r2)
        else:
            assert arg_unit_interval(r1) <= arg_unit_interval(r2)


class TestMatrix2C:
    def test_constructors(self):
        assert Matrix2C.identity().entries() == (1.0, 0.0, 0.0, 1.0)
        assert Matrix2C.diag(2.0, 3.0).entries() == (2.0, 0.0, 0.0, 3.0)

    def test_det_trace(self):
        m = Matrix2C(1.0, 2.0, 3.0, 4.0)
        assert m.det == 1.0 * 4.0 - 2.0 * 3.0
        assert m.trace == 5.0

    def test_matmul(self):
        a = Matrix2C(1.0, 2.0, 3.0, 4.0)
        b = Matrix2C(0.0, 1.0, 1.0, 0.0)
        assert (a @ b).entries() == (2.0, 1.0, 4.0, 3.0)

    def test_inverse(self):
        m = Matrix2C.diag(2.0, 1.0)
        assert m.inverse().entries() == (0.5, 0.0, 0.0, 1.0)

    def test_inverse_singular(self):
        with pytest.raises(SingularMatrixError):
            Matrix2C(1.0, 2.0, 2.0, 4.0).inverse()

    def test_inverse_eps_widens_rejection(self):
        # det about 1e-3, small relative to |ad| + |bc| of about 2
        m = Matrix2C(1.0, 1.0, 1.0, 1.0 + 1e-3)
        assert m.inverse() is not None
        with pytest.raises(SingularMatrixError), tolerance(1e-2):
            m.inverse()

    def test_inverse_singularity_is_relative(self):
        # det 2**-30 exactly, below the absolute eps, but not small relative to |ad| + |bc|
        assert Matrix2C.diag(2**-15, 2**-15).inverse() == Matrix2C.diag(2**15, 2**15)
        # an exact det of 0 stays singular at any eps
        with pytest.raises(SingularMatrixError, match=r"det=0j$"), tolerance(1e-300):
            Matrix2C(1.0, 2.0, 2.0, 4.0).inverse()

    def test_rejects_non_finite_entry(self):
        with pytest.raises(InvalidInputError):
            Matrix2C(float("inf"), 0.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "entries",
        [
            (float("inf"), "x", 0, 0),
            ("x", float("inf"), 0, 0),
            (0, float("nan"), "y", None),
            (0, 0, 0, complex(1, float("inf"))),
            (10**400, 0, 0, 0),
            (0, 10**400, float("inf"), 0),
            (None, 0, 0, 0),
            (1, 2, 3, [4]),
        ],
    )
    def test_first_bad_entry_is_reported(self, entries):
        # reference: each entry checked in a, b, c, d order
        def per_entry():
            for name, value in zip("abcd", entries):
                ensure_finite(value, name)

        with pytest.raises(Exception) as want:
            per_entry()
        with pytest.raises(type(want.value)) as got:
            Matrix2C(*entries)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "entries",
        [
            (float("inf"), "x", 0, 0),
            ("x", float("inf"), 0, 0),
            (0, float("nan"), "y", None),
            (0, 0, 0, complex(1, float("inf"))),
            (10**400, 0, 0, 0),
            (0, 10**400, float("inf"), 0),
            (None, 0, 0, 0),
            (1, 2, 3, [4]),
        ],
    )
    def test_bad_entry_is_invalid_input(self, entries):
        with pytest.raises(InvalidInputError):
            Matrix2C(*entries)

    @pytest.mark.parametrize("value", [None, "x", [4], 10**400])
    def test_ensure_finite_rejects_non_numbers_typed(self, value):
        with pytest.raises(InvalidInputError, match="^v must be a finite number: "):
            ensure_finite(value, "v")

    def test_overflowing_product_is_rejected(self):
        big = Matrix2C(1e200, 0.0, 0.0, 1.0)
        with pytest.raises(InvalidInputError, match="a must be finite"):
            big @ big

    @pytest.mark.parametrize(
        "left, name",
        [(Matrix2C(1e308, 1e308, 0, 1), "a"), (Matrix2C(1, 0, 1e308, 1e308), "c")],
    )
    def test_overflowing_product_names_first_bad_entry(self, left, name):
        with pytest.raises(InvalidInputError, match=f"^{name} must be finite, got \\(inf\\+0j\\)$"):
            left @ Matrix2C(10, 0, 0, 1)

    def test_products_and_inverses_construct_through_init(self, monkeypatch):
        # one constructor: a path that skipped __init__ would also skip its checks
        calls = []
        init = Matrix2C.__init__

        def counting_init(self, *entries):
            calls.append(entries)
            init(self, *entries)

        m = Matrix2C(1.0, 2.0, 3.0, 4.0)
        monkeypatch.setattr(Matrix2C, "__init__", counting_init)
        product, inverse = m @ m, m.inverse()
        assert len(calls) == 2
        assert product.entries() == (7, 10, 15, 22) and inverse.entries() == (-2, 1, 1.5, -0.5)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60)
    def test_inverse_roundtrip(self, seed):
        import random

        m = random_conjugator(random.Random(seed))
        for product in (m @ m.inverse(), m.inverse() @ m):
            with tolerance(1e-10):
                assert within(max(abs(u - v) for u, v in zip(product.entries(), Matrix2C.identity().entries())))


class TestEnsureReal:
    @pytest.mark.parametrize("value", [None, "0.5", True, 1j, 0j, [4], 10**400, float("nan"), float("-inf")])
    def test_refuses_what_is_not_a_finite_real(self, value):
        with pytest.raises(InvalidInputError, match="^v must be "):
            ensure_real(value, "v")

    def test_accepts_reals_as_floats(self):
        from fractions import Fraction

        for value, want in ((3, 3.0), (-0.5, -0.5), (Fraction(1, 4), 0.25)):
            got = ensure_real(value, "v")
            assert type(got) is float and got == want

    @pytest.mark.parametrize(
        "call",
        [
            lambda: teichkit.TorusTranslation(1j, "0.25", "0"),
            lambda: teichkit.TorusTranslation(1j, 0.25, True),
            lambda: teichkit.neighborhood_contains(teichkit.BasePoint(0.15, 0.8), "0.5", teichkit.CurvePoint(1, 0.5)),
        ],
        ids=["translation-str", "translation-bool", "radius-str"],
    )
    def test_real_parameters_refuse_numeric_strings(self, call):
        with pytest.raises(InvalidInputError, match="must be a finite real number: got (str|bool)$"):
            call()


class TestEigen2:
    def test_diagonal(self):
        assert eigen2(Matrix2C.diag(0.5, 0.25)) == ((0.5 + 0j), (0.25 + 0j), True)

    def test_jordan_block(self):
        l1, l2, diagonalizable = eigen2(Matrix2C(0.5, 1.0, 0.0, 0.5))
        assert l1 == 0.5 and l2 == 0.5
        assert not diagonalizable

    def test_scalar(self):
        assert eigen2(Matrix2C.diag(0.5, 0.5))[2] is True

    def test_near_scalar_within_eps(self):
        # off-diagonal below tolerance: still treated as the scalar matrix
        m = Matrix2C(0.5, 1e-12, 0.0, 0.5)
        assert eigen2(m)[2] is True
        with tolerance(1e-15):
            assert eigen2(m)[2] is False

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100)
    def test_similarity_invariance(self, seed):
        import random

        rng = random.Random(seed)
        lam1 = cmath.rect(rng.uniform(0.2, 0.9), rng.uniform(0, 2 * math.pi))
        lam2 = cmath.rect(rng.uniform(0.2, 0.9), rng.uniform(0, 2 * math.pi))
        if abs(lam1 - lam2) < 1e-3:
            return
        basis = random_conjugator(rng)
        m = basis @ (Matrix2C.diag(lam1, lam2) @ basis.inverse())
        got1, got2, diagonalizable = eigen2(m)
        want1, want2 = order_by_modulus(lam1, lam2)
        assert diagonalizable
        assert got1 == approx_c(want1, tol=1e-7)
        assert got2 == approx_c(want2, tol=1e-7)


class TestIntMatrix2:
    def test_exact_ops(self):
        s = IntMatrix2(0, -1, 1, 0)
        assert s.det() == 1 and s.trace() == 0
        assert (s @ s).rows() == ((-1, 0), (0, -1))
        assert s.inverse().rows() == ((0, 1), (-1, 0))

    def test_inverse_det_minus_one(self):
        swap = IntMatrix2(0, 1, 1, 0)
        assert swap.det() == -1
        assert (swap @ swap.inverse()).rows() == ((1, 0), (0, 1))

    def test_inverse_rejects_singular(self):
        with pytest.raises(SingularMatrixError):
            IntMatrix2(1, 2, 2, 4).inverse()

    def test_inverse_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularError):
            IntMatrix2(2, 0, 0, 1).inverse()

    def test_rejects_non_integer_entries(self):
        with pytest.raises(InvalidInputError):
            IntMatrix2(1.0, 0, 0, 1)
        with pytest.raises(InvalidInputError):
            IntMatrix2(True, 0, 0, 1)

    @pytest.mark.parametrize("later", [None, 2.5])
    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
    @pytest.mark.parametrize("index", range(4))
    def test_names_the_first_bad_entry(self, bad, index, later):
        entries = [1, 0, 0, 1]
        entries[index] = bad
        if later is not None:
            entries[index + 1:] = [later] * (3 - index)
        message = f"^{'abcd'[index]} must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(InvalidInputError, match=message):
            IntMatrix2(*entries)

    def test_int_subclass_is_stored_as_given(self):
        class Sign(enum.IntEnum):
            MINUS = -1
            PLUS = 1

        m = IntMatrix2(Sign.PLUS, 0, 0, Sign.MINUS)
        assert m.a is Sign.PLUS and m.d is Sign.MINUS
        assert m.det() == -1 and m.rows() == ((1, 0), (0, -1))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100)
    def test_unimodular_words_stay_unimodular(self, seed):
        import random

        m = random_unimodular(random.Random(seed))
        assert m.det() == 1
        assert (m @ m.inverse()).rows() == ((1, 0), (0, 1))


class TestOnlyNumbers:
    @pytest.mark.parametrize("value", ["1+2j", "4", b"4", True, False, object()])
    def test_ensure_finite_refuses_what_is_not_a_number(self, value):
        with pytest.raises(InvalidInputError, match="^v must be a finite number: "):
            ensure_finite(value, "v")

    def test_numeric_string_entry_is_refused(self):
        with pytest.raises(InvalidInputError, match="^d must be a finite number: "):
            Matrix2C(1, 2, 3, "4")
        with pytest.raises(InvalidInputError, match="^a must be a finite number: "):
            Matrix2C(True, 0, 0, 1)

    @pytest.mark.parametrize(
        "entries, name",
        [(("1", float("inf"), 0, 0), "a"), ((1, "2", float("inf"), 0), "b"), ((1, 2, float("nan"), "4"), "c")],
    )
    def test_first_bad_entry_among_strings(self, entries, name):
        with pytest.raises(InvalidInputError, match=f"^{name} must be "):
            Matrix2C(*entries)

    def test_other_complex_numbers_are_accepted(self):
        from fractions import Fraction

        class Real(float):
            pass

        assert ensure_finite(Fraction(1, 4)) == 0.25 + 0j
        assert ensure_finite(Real(0.5)) == 0.5 + 0j
        assert Matrix2C(Fraction(1, 2), Real(2.0), 3, 4j) == Matrix2C(0.5, 2, 3, 4j)


def assert_vieta(d, t, r1, r2):
    # relative backward error of both of Vieta's relations, a few ulps
    assert abs(r1 + r2 - t) <= 4e-16 * (abs(r1) + abs(r2)), (r1, r2)
    assert abs(r1 * r2 - d) <= 4e-16 * abs(r1) * abs(r2), (r1, r2)


class TestQuadraticRootsAtExtremeScales:
    def test_huge_trace_with_tiny_root(self):
        assert eigen2(Matrix2C(1e300, 0, 0, 1e-300)) == ((1e300 + 0j), (1e-300 + 0j), True)

    @pytest.mark.parametrize(
        "d, t",
        [
            (1.0, 1e300),
            (1e300, 1e200),
            (1e308, 0.0),
            (-1e308, 1e154),
            (1e308, 3e154j),
            (2.0, 1e200 + 1e200j),
            (1.7e308, 1.7e308),
            (1e308 + 1e308j, 1e-300),
            (-1.5e308, -1.5e308j),
            (1e-300, 1e-150),
            (1e-300, 2e-150),
            (1e-200, 1e-100j),
            (1e-30, 1e-160),
            (3e-250, 1e-100 - 2e-100j),
            # tied moduli; the argument of the first root underflows in atan2
            (-6.274500688187011e304 - 1.2287973445484811e-76j, 436.5826489614924 - 1.218763825625477e-264j),
        ],
    )
    def test_vieta_relations_hold(self, d, t):
        r1, r2 = quadratic_roots(d, t)
        assert cmath.isfinite(r1) and cmath.isfinite(r2)
        assert_vieta(complex(d), complex(t), r1, r2)

    @pytest.mark.parametrize("d, t", [(0.0, 1.5e308 + 1.5e308j), (1.7e308, 1e308 + 1.7e308j)])
    def test_root_past_float_range_is_invalid_input(self, d, t):
        with pytest.raises(InvalidInputError, match="too large to represent"):
            quadratic_roots(d, t)

    def test_moderate_inputs_keep_their_roots(self):
        assert quadratic_roots(0.125, 0.75) == ((0.5 + 0j), (0.25 + 0j))
        assert quadratic_roots(0, 0) == (0j, 0j)
