"""Classification of contracting germs up to biholomorphism."""

import cmath
import io
import json
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teichkit import (
    DEFAULT_EPS,
    RESONANCE_MAX_ORDER,
    Diagonal,
    InvalidInputError,
    Matrix2C,
    NotContractingError,
    Resonant,
    ResonantForm,
    biholomorphic,
    class_equal,
    classify,
    eigen2,
    in_base_domain,
    is_contracting,
    resonance_order,
    tolerance,
)
from teichkit import algebra, hopf
from teichkit.tolerance import inside_unit
from oracles import brute_resonance_order, random_conjugator, random_contracting, random_dyadic_jordan

JORDAN = Matrix2C(0.5, 1.0, 0.0, 0.5)


class TestIsContracting:
    def test_basic(self):
        assert is_contracting(Matrix2C.diag(0.5, 0.25))
        assert not is_contracting(Matrix2C.diag(1.0, 0.5))
        assert not is_contracting(Matrix2C(0.0, 0.0, 0.0, 0.5))

    def test_guard_band(self):
        assert not is_contracting(Matrix2C.diag(1 - 1e-12, 0.5))
        assert not is_contracting(Matrix2C.diag(1e-12, 0.5))
        assert is_contracting(Matrix2C.diag(0.95, 0.5))
        with tolerance(0.1):
            assert not is_contracting(Matrix2C.diag(0.95, 0.5))

    def test_complex_spectrum(self):
        rot = Matrix2C(0.0, -0.5, 0.5, 0.0)  # eigenvalues +-0.5i
        assert is_contracting(rot)

    @given(st.integers(min_value=0, max_value=10**6), st.floats(0.05, 1.2), st.floats(0.05, 1.2))
    @settings(max_examples=150)
    def test_decides_on_eigen2_moduli(self, seed, r1, r2):
        rng = random.Random(seed)
        lam1, lam2 = cmath.rect(r1, rng.uniform(0, 2 * math.pi)), cmath.rect(r2, rng.uniform(0, 2 * math.pi))
        basis = random_conjugator(rng)
        m = basis @ (Matrix2C.diag(lam1, lam2) @ basis.inverse())
        l1, l2, _ = eigen2(m)
        assert is_contracting(m) == (inside_unit(abs(l1)) and inside_unit(abs(l2)))
        assert is_contracting(m) == in_base_domain(m.det, m.trace)

    @pytest.mark.parametrize("entries", [(1e200, 0, 0, 1e200), (1e308, 0, 0, 1e308)])
    def test_overflowing_det_raises_as_eigen2(self, entries):
        m = Matrix2C(*entries)
        with pytest.raises(InvalidInputError) as want:
            eigen2(m)
        with pytest.raises(InvalidInputError) as got:
            is_contracting(m)
        assert str(got.value) == str(want.value) == "d must be finite, got (inf+0j)"


class TestResonanceOrder:
    def test_examples(self):
        assert resonance_order(0.5, 0.25) == 2
        assert resonance_order(0.5, 0.5) == 1
        assert resonance_order(0.5, 0.3) is None

    def test_complex_argument_must_match(self):
        assert resonance_order(0.5j, -0.25) == 2
        assert resonance_order(0.5j, 0.25) is None

    def test_modulus_match_alone_is_rejected(self):
        assert resonance_order(0.5, 0.5j) is None

    def test_cap(self):
        assert resonance_order(0.9, 0.9**64) == 64
        assert resonance_order(0.9, 0.9**65) is None
        assert RESONANCE_MAX_ORDER == 64

    def test_eps_widens_match(self):
        assert resonance_order(0.5, 0.2500001) is None
        with tolerance(1e-3):
            assert resonance_order(0.5, 0.2500001) == 2

    def test_domain_errors(self):
        with pytest.raises(InvalidInputError):
            resonance_order(1.5, 0.5)
        with pytest.raises(InvalidInputError):
            resonance_order(0.5, 0.7)
        with pytest.raises(InvalidInputError):
            resonance_order(0.5, 0.0)

    def test_modulus_past_float_range_names_the_argument(self):
        # both parts are finite, but abs() of the value overflows
        huge = complex(1.3e308, 1.3e308)
        with pytest.raises(InvalidInputError, match="^lambda_small modulus is past float range$"):
            resonance_order(0.5, huge)
        with pytest.raises(InvalidInputError, match="^lambda_big modulus is past float range$"):
            resonance_order(huge, 0.5)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=300)
    def test_agrees_with_brute_force(self, seed):
        # both moduli kept in (0.05, 0.95), where consecutive powers are
        # separated far beyond eps and the answer is unambiguous
        rng = random.Random(seed)
        big = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * math.pi))
        if rng.random() < 0.5:
            p = rng.randint(1, 8)
            while p > 1 and abs(big) ** p < 0.05:
                p -= 1
            small = big**p
        else:
            small = cmath.rect(rng.uniform(0.05, abs(big)), rng.uniform(0, 2 * math.pi))
        assert resonance_order(big, small) == brute_resonance_order(big, small, 1e-9)


class TestClassify:
    def test_jordan_block(self):
        assert classify(JORDAN) == Resonant(0.5, 1)

    def test_diagonalizable(self):
        got = classify(Matrix2C.diag(0.5, 0.3))
        assert isinstance(got, Diagonal)
        assert got.lambda1 == pytest.approx(0.5) and got.lambda2 == pytest.approx(0.3)

    def test_order_canonicalized(self):
        got = classify(Matrix2C.diag(0.3, 0.5))
        assert got.lambda1 == pytest.approx(0.5) and got.lambda2 == pytest.approx(0.3)

    def test_resonant_form(self):
        assert classify(ResonantForm(0.5, 2, 1.0)) == Resonant(0.5, 2)

    def test_resonant_form_zero_coefficient_is_diagonal(self):
        assert classify(ResonantForm(0.5, 2, 0.0)) == Diagonal(0.5, 0.25)
        assert classify(ResonantForm(0.5, 2, 1e-12)) == Diagonal(0.5, 0.25)

    @pytest.mark.parametrize("p", [10**300, 10**400])
    def test_zero_coefficient_order_past_float_range(self, p):
        # lam**p underflows to 0 for any such p, past float range or not
        from teichkit.cli import dispatch

        message = "eigenvalue moduli must lie strictly inside (0, 1)"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            classify(ResonantForm(0.5, p, 0))
        out, err = io.StringIO(), io.StringIO()
        argv = ["hopf", "biholo", "--a", f'{{"lambda":[0.5,0],"p":{p},"c":[0,0]}}', "--b", "[[[0.5,0],[0,0]],[[0,0],[0.25,0]]]"]
        assert dispatch(argv, out, err) == 1 and out.getvalue() == ""
        assert json.loads(err.getvalue()) == {"error": "invalid_input", "message": message}

    def test_coefficient_independence(self):
        want = classify(ResonantForm(0.4, 3, 1.0))
        for c in (2.0, -3.7 + 1j, 1e-3):
            assert class_equal(classify(ResonantForm(0.4, 3, c)), want)

    def test_rejects_non_contracting(self):
        with pytest.raises(NotContractingError):
            classify(Matrix2C.diag(1.5, 0.5))
        with pytest.raises(NotContractingError):
            classify(ResonantForm(1.5, 2, 1.0))

    def test_rejects_other_types(self):
        with pytest.raises(InvalidInputError):
            classify("diag(0.5, 0.25)")

    def test_matrix_roots_are_solved_once(self, monkeypatch):
        calls = []
        roots = algebra._roots

        def counting_roots(d, t):
            calls.append((d, t))
            return roots(d, t)

        monkeypatch.setattr(algebra, "_roots", counting_roots)
        monkeypatch.setattr(hopf, "_roots", counting_roots)
        rng = random.Random(5)
        for m in (JORDAN, Matrix2C.diag(0.3, 0.5), random_contracting(rng), random_dyadic_jordan(rng)):
            calls.clear()
            classify(m)
            assert len(calls) == 1
        calls.clear()
        with pytest.raises(NotContractingError, match=r"^matrix eigenvalue moduli must lie in \(0, 1\)$"):
            classify(Matrix2C.diag(1.5, 0.5))
        assert len(calls) == 1

    @given(st.integers(min_value=0, max_value=10**6), st.floats(0.0, 1.2), st.floats(0.0, 1.2))
    @settings(max_examples=150, deadline=None)
    def test_refuses_exactly_what_is_not_contracting(self, seed, r1, r2):
        rng = random.Random(seed)
        lam1, lam2 = cmath.rect(r1, rng.uniform(0, 2 * math.pi)), cmath.rect(r2, rng.uniform(0, 2 * math.pi))
        basis = random_conjugator(rng)
        m = basis @ (Matrix2C.diag(lam1, lam2) @ basis.inverse())
        if is_contracting(m):
            l1, l2, diagonalizable = eigen2(m)
            assert classify(m) == (Diagonal(l1, l2) if diagonalizable else Resonant(l1, 1))
        else:
            with pytest.raises(NotContractingError):
                classify(m)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=150, deadline=None)
    def test_similarity_invariance(self, seed):
        rng = random.Random(seed)
        m = random_contracting(rng, separation=1e-3)
        basis = random_conjugator(rng)
        conjugated = basis @ (m @ basis.inverse())
        got, want = classify(m), classify(conjugated)
        with tolerance(1e-7):
            assert class_equal(got, want)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100)
    def test_jordan_similarity_invariance(self, seed):
        rng = random.Random(seed)
        m = random_dyadic_jordan(rng)
        got = classify(m)
        assert isinstance(got, Resonant) and got.p == 1


class TestHopfClassTypes:
    def test_diagonal_requires_descending_moduli(self):
        with pytest.raises(InvalidInputError):
            Diagonal(0.3, 0.5)

    def test_diagonal_requires_annulus(self):
        with pytest.raises(InvalidInputError):
            Diagonal(1.0, 0.5)
        with pytest.raises(InvalidInputError):
            Diagonal(0.5, 0.0)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 1.5j])
    def test_resonant_requires_a_modulus_inside_the_unit_band(self, lam):
        with pytest.raises(InvalidInputError, match=r"^lam modulus must lie strictly inside \(0, 1\)$"):
            Resonant(lam, 2)

    def test_resonant_requires_positive_order(self):
        with pytest.raises(InvalidInputError):
            Resonant(0.5, 0)
        with pytest.raises(InvalidInputError):
            ResonantForm(0.5, 0, 1.0)


class TestDetTrace:
    def test_values(self):
        diag = Matrix2C.diag(0.5, 0.25)
        assert (diag.det, diag.trace) == (0.125, 0.75)
        assert (JORDAN.det, JORDAN.trace) == (0.25, 1.0)

    def test_scalar_and_jordan_collide(self):
        scalar = Matrix2C.diag(0.5, 0.5)
        assert (scalar.det, scalar.trace) == (JORDAN.det, JORDAN.trace)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100)
    def test_similarity_invariant(self, seed):
        rng = random.Random(seed)
        m = random_contracting(rng)
        basis = random_conjugator(rng)
        conj = basis @ (m @ basis.inverse())
        d1, t1 = m.det, m.trace
        d2, t2 = conj.det, conj.trace
        assert d1 == pytest.approx(d2, abs=1e-8)
        assert t1 == pytest.approx(t2, abs=1e-8)


class TestBiholomorphic:
    def test_scalar_vs_jordan(self):
        assert not biholomorphic(Matrix2C.diag(0.5, 0.5), JORDAN)

    def test_conjugate_diagonalizable(self):
        upper = Matrix2C(0.5, 7.0, 0.0, 0.25)
        assert biholomorphic(Matrix2C.diag(0.5, 0.25), upper)

    def test_resonant_forms_any_coefficient(self):
        assert biholomorphic(ResonantForm(0.5, 2, 1.0), ResonantForm(0.5, 2, 5.0))

    def test_mixed_kinds_differ(self):
        assert not biholomorphic(Matrix2C.diag(0.5, 0.25), ResonantForm(0.5, 2, 1.0))

    def test_form_with_zero_coefficient_matches_matrix(self):
        assert biholomorphic(ResonantForm(0.5, 2, 0.0), Matrix2C.diag(0.5, 0.25))

    def test_eps_loosens_comparison(self):
        a, b = Matrix2C.diag(0.5, 0.25), Matrix2C.diag(0.5 + 1e-8, 0.25)
        assert not biholomorphic(a, b)
        with tolerance(1e-6):
            assert biholomorphic(a, b)

    @given(
        st.floats(0.05, 0.95), st.floats(0.1, 2 * math.pi - 0.1),
        st.floats(0.0, 0.45), st.floats(0.0, 2 * math.pi), st.floats(0.0, 0.45), st.floats(0.0, 2 * math.pi),
    )
    @example(0.5, math.pi / 2, 5e-4, 1.5 * math.pi, 0.0, 0.0)  # diag(0.5, 0.5j) against 0.5 - 5e-13j
    @settings(max_examples=150, deadline=None)
    def test_unordered_pairs_within_half_eps_across_the_argument_cut(self, r, phi, s1, theta1, s2, theta2):
        # l1 sits on the cut at argument 0 and ties l2 in modulus: a shift of
        # l1 to below the real axis moves it to the far end of the tie order
        l1, l2 = complex(r), cmath.rect(r, phi)
        near1, near2 = l1 + cmath.rect(s1 * DEFAULT_EPS, theta1), l2 + cmath.rect(s2 * DEFAULT_EPS, theta2)
        assert biholomorphic(Matrix2C.diag(l1, l2), Matrix2C.diag(near1, near2))


class TestClassEqual:
    def test_cross_kind(self):
        assert not class_equal(Diagonal(0.5, 0.25), Resonant(0.5, 2))

    @given(st.floats(0.05, 0.95), st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi))
    @example(0.5, math.pi / 2, 0.0)  # Diagonal(0.5j, 0.5) and Diagonal(0.5, 0.5j): one surface
    @settings(max_examples=150)
    def test_diagonal_is_an_unordered_pair_at_a_modulus_tie(self, r, phi1, phi2):
        a, b = cmath.rect(r, phi1), cmath.rect(r, phi2)
        assert class_equal(Diagonal(a, b), Diagonal(b, a))

    def test_resonant_order_matters(self):
        assert not class_equal(Resonant(0.5, 2), Resonant(0.5, 3))
