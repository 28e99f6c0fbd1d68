"""The checker's draws and the broken action against step-by-step references.

The library draws and conjugates on plain complex values and builds one
matrix at the end; oracles.stepwise_* take the same steps with rng.uniform
and one Matrix2C operation per step.  Both must agree bit for bit, in the
values, the random stream, every refusal and every report, save that an
overflow in the action names the one fused matrix where the reference names
its first intermediate one: there only the class and code must agree.  The
checker acts once per (m, g) and sample; oracles.reference_groupoid_check
acts once per law, and both must give the same reports.
"""

import hashlib
import itertools
import random

import pytest

from teichkit import (
    AtlasPoint,
    AtlasStructure,
    CheckReport,
    GroupElement,
    InvalidInputError,
    Matrix2C,
    NotContractingError,
    broken_structure,
    groupoid_check,
    trivial_structure,
)
from teichkit import atlas, tolerance
from oracles import reference_groupoid_check, stepwise_atlas_point, stepwise_broken_action, stepwise_group_element

EPS_VALUES = (1e-9, 1e-3, 0.3, 1.0)


def outcome(call, *args):
    """repr of call(*args), or the type and message of what it raised;
    repr tells -0.0 from 0.0, so equal outcomes are equal bit for bit."""
    try:
        return repr(call(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def count_matrices(monkeypatch) -> list:
    """Record each Matrix2C construction from here on."""
    built, init = [], Matrix2C.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Matrix2C, "__init__", counted)
    return built


class CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def random(self):
        self.calls += 1
        return super().random()


class Scripted(random.Random):
    """A stream that returns the given numbers in turn."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)

    def random(self):
        return next(self.values)


class TestDrawsMatchReference:
    @pytest.mark.parametrize("eps", EPS_VALUES)
    @pytest.mark.parametrize(
        "draw, reference",
        [(atlas._draw_group_element, stepwise_group_element), (atlas._draw_atlas_point, stepwise_atlas_point)],
    )
    def test_same_values_and_stream(self, draw, reference, eps):
        for seed in range(300):
            fused, stepwise = random.Random(seed), random.Random(seed)
            with tolerance(eps):
                assert outcome(draw, fused) == outcome(reference, stepwise), seed
            assert fused.getstate() == stepwise.getstate(), seed

    def test_signed_zeros_of_exact_entries(self):
        # real eigenvalues and a dyadic basis give entries with exact zero
        # parts, whose signs the diagonal's 0j terms decide
        for basis in itertools.product((0.25, 0.5, 0.75), repeat=8):
            a, b, c, d = (complex(-1.0 + 2.0 * x, -1.0 + 2.0 * y) for x, y in zip(basis[::2], basis[1::2]))
            if abs(a * d - b * c) < 0.4:  # a rejected basis would draw past the stream
                continue
            stream = (0.5, 0.0, 0.5, 0.0, *basis, 0.5, 0.5)
            fused = outcome(atlas._draw_atlas_point, Scripted(stream))
            assert fused == outcome(stepwise_atlas_point, Scripted(stream)), basis


class TestBrokenActionMatchesReference:
    act = staticmethod(broken_structure().action)

    def test_entry_for_entry(self):
        rng = random.Random(14)
        for _ in range(500):
            m, g = stepwise_atlas_point(rng), stepwise_group_element(rng)
            assert repr(self.act(m, g)) == repr(AtlasPoint(g.a.inverse() @ (m.a @ g.a), m.t))

    @pytest.mark.parametrize(
        "g, same_text",
        [
            # det 1e-10 is inverted by the det g carries, as g_inverse inverts
            # it, so neither refuses: both give the same point
            pytest.param(GroupElement(Matrix2C.diag(1e-5, 1e-5), 0j), True, id="g0"),
            # the inverse's last entry overflows
            pytest.param(GroupElement(Matrix2C(1e308, 0.0, 0.0, 1e-309), 0j), False, id="g1"),
            # m.a @ g.a overflows in its second entry
            pytest.param(GroupElement(Matrix2C(1.0, 0.0, 0.0, 1e308), 0j), False, id="g2"),
            # only the last product overflows
            pytest.param(GroupElement(Matrix2C.diag(1e-200, 1e200), 0j), True, id="g3"),
        ],
    )
    def test_same_refusal(self, g, same_text):
        m = AtlasPoint(Matrix2C(0.5, 4.0, 0.0, 0.25), 1j)
        expected = outcome(stepwise_broken_action, m, g)
        if same_text:
            assert outcome(self.act, m, g) == expected
            return
        # the reference refuses its first matrix with an entry past float
        # range, the action the one matrix it builds: the same class and code
        assert expected.startswith("InvalidInputError")
        with pytest.raises(InvalidInputError) as refusal:
            self.act(m, g)
        assert refusal.value.code == "invalid_input"


class TestReportsMatchReference:
    @pytest.mark.parametrize("eps", EPS_VALUES)
    @pytest.mark.parametrize("name", ["trivial", "broken"])
    def test_same_report_or_refusal(self, monkeypatch, name, eps):
        structure = {"trivial": trivial_structure, "broken": broken_structure}[name]()
        with tolerance(eps):
            fused = [outcome(groupoid_check, structure, 12, seed) for seed in range(40)]
        if name == "broken":
            structure = AtlasStructure("broken", stepwise_broken_action, structure.injection)
        monkeypatch.setattr(atlas, "_draw_group_element", stepwise_group_element)
        monkeypatch.setattr(atlas, "_draw_atlas_point", stepwise_atlas_point)
        with tolerance(eps):
            assert fused == [outcome(groupoid_check, structure, 12, seed) for seed in range(40)]

    @pytest.mark.parametrize("eps", EPS_VALUES)
    @pytest.mark.parametrize("name", ["trivial", "broken"])
    def test_same_report_or_refusal_as_one_act_per_law(self, name, eps):
        structure = {"trivial": trivial_structure, "broken": broken_structure}[name]()
        with tolerance(eps):
            for seed in range(40):
                expected = outcome(reference_groupoid_check, structure, 12, seed)
                assert outcome(groupoid_check, structure, 12, seed) == expected, seed

    @pytest.mark.parametrize("bound", [float("inf"), 1.5])
    def test_each_law_records_the_refusal_of_its_own_act_first(self, bound):
        # the refusal names the element acted with, so a law that raised m.g's
        # refusal before making its own act would record another detail
        def act(m, g):
            if abs(g.t) < bound:
                raise NotContractingError(f"acted with t = {g.t!r}")
            return m

        structure = AtlasStructure("refusing", act, lambda m: GroupElement(Matrix2C.identity(), 1j))
        for seed in range(10):
            assert groupoid_check(structure, 12, seed) == reference_groupoid_check(structure, 12, seed), seed


class TestWideEps:
    # sha256 of the reprs of the reports for seeds 0-39 with 12 samples, one
    # per line; at 0.1 the trivial structure's equal those at the default eps.
    # The broken action inverts by the det g carries, so none of its laws
    # records "matrix is singular within tolerance"
    REPORTS = {
        (0.1, "trivial"): "2d9675923ce2aa1b1901bed030375ba263a357362ac8bea872568970bfa173a6",
        (0.1, "broken"): "52f8885cf637a185554719bb223dc8793dc3c41f0fecf2e30ee164d4af9ee6df",
        (0.3, "trivial"): "95fab3f12979b36caa89f167ec72e3c40168f6105aa6e67411358fab33aea6d9",
        (0.3, "broken"): "4869855e714c0fd5bf4d35c7d6b16f29e894f3004a20af874c3b19df5e310978",
        (1.0, "trivial"): "4fd7830c54d9c4d7f0cd83ba4066cf305b6d6ff8e14c8d533680d43c8a11f9da",
        (1.0, "broken"): "966064026fa033f457d6156a63fcdd728a354a038153945c685c53d12e67b754",
    }

    @pytest.mark.parametrize("eps, name", list(REPORTS))
    def test_every_seed_gives_the_pinned_report(self, eps, name):
        # no eps refuses a draw, so a wide one fails laws instead of the check
        structure = {"trivial": trivial_structure, "broken": broken_structure}[name]()
        with tolerance(eps):
            reports = [groupoid_check(structure, 12, seed) for seed in range(40)]
        assert all(type(report) is CheckReport for report in reports)
        assert hashlib.sha256("\n".join(map(repr, reports)).encode()).hexdigest() == self.REPORTS[eps, name]

    def test_drawn_element_carries_the_det_it_tested(self):
        rng = random.Random(8)
        for _ in range(100):
            g = atlas._draw_group_element(rng)
            assert g._det == GroupElement(g.a, g.t)._det


class TestOneMatrixPerValue:
    def test_broken_action(self, monkeypatch):
        rng = random.Random(3)
        pairs = [(atlas._draw_atlas_point(rng), atlas._draw_group_element(rng)) for _ in range(50)]
        act = broken_structure().action
        built = count_matrices(monkeypatch)
        for m, g in pairs:
            act(m, g)
        assert len(built) == len(pairs)

    def test_atlas_point(self, monkeypatch):
        rng = random.Random(5)
        built = count_matrices(monkeypatch)
        for _ in range(50):
            atlas._draw_atlas_point(rng)
        assert len(built) == 50

    def test_group_element_also_after_rejected_draws(self, monkeypatch):
        built = count_matrices(monkeypatch)
        rejected = 0
        for seed in range(50):
            rng = CountingRandom(seed)
            atlas._draw_group_element(rng)
            # each attempt takes 8 numbers and the accepted one 2 more
            rejected += (rng.calls - 10) // 8
        assert rejected > 0
        assert len(built) == 50
