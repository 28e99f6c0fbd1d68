"""Cold start: what importing the package and running one verb loads, and the
public API that the lazy package namespace must keep."""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import teichkit

SRC = str(Path(teichkit.__file__).resolve().parent.parent)

# the public names, by defining module; __all__ lists them sorted
PUBLIC = {
    "algebra": ("IntMatrix2", "Matrix2C", "arg_unit_interval", "eigen2", "order_by_modulus", "quadratic_roots"),
    "atlas": (
        "AtlasPoint", "AtlasStructure", "CheckReport", "GroupElement", "LawResult", "broken_structure",
        "g_identity", "g_inverse", "g_mul", "g_power", "groupoid_check", "source", "structure_by_name",
        "target", "trivial_structure", "z_action",
    ),
    "errors": (
        "InvalidInputError", "InvalidPointError", "LimitExceededError", "MismatchedFiberError",
        "NotContractingError", "NotOnCircleError", "NotUnimodularError", "SamePointError",
        "SingularMatrixError", "TeichkitError",
    ),
    "fixtures": ("run_fixtures",),
    "foliation": (
        "Circle", "ClosedLeaf", "ContinuedFraction", "DenseLine", "LeafDescriptor", "LeafSpace",
        "NonHausdorffQuotient", "Slope", "cf_expand", "leaf_descriptor", "leaf_space", "morita_equivalent",
        "rotation_orbit",
    ),
    "hopf": (
        "RESONANCE_MAX_ORDER", "ContractionInput", "Diagonal", "HopfClass", "Resonant", "ResonantForm",
        "biholomorphic", "class_equal", "classify", "is_contracting", "resonance_order",
    ),
    "jsonio": ("SchemaError", "canonical_dumps"),
    "surd": ("QuadraticIrrational", "continued_fraction_expansion", "moebius_surd", "periodic_state_keys"),
    "teich": (
        "BasePoint", "CurvePoint", "TeichPoint", "adheres", "class_of_point", "image", "in_base_domain",
        "neighborhood_contains", "point_of_class", "points_equal", "separated", "twin",
    ),
    "tolerance": ("DEFAULT_EPS", "tolerance"),
    "tori": (
        "S", "T", "TorusTranslation", "lattice_reduce", "moebius", "reduce_fundamental_domain", "tori_equivalent",
        "translation_compose", "translation_matrix", "zero_translation",
    ),
}
SUBMODULES = ("algebra", "atlas", "errors", "fixtures", "foliation", "hopf", "jsonio", "surd", "teich", "tori")


def fresh(code: str, *args: str, flags: tuple[str, ...] = ()) -> str:
    """stdout of `code` run in a new interpreter, started with `flags`, that imports this checkout's teichkit."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", f"import sys; sys.path.insert(0, {SRC!r}); {code}", *args],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "print(*sorted(m for m in sys.modules if m == 'teichkit' or m.startswith('teichkit.')))"
BASE = {"teichkit", "teichkit.errors", "teichkit.tolerance"}
CLI = BASE | {"teichkit.cli", "teichkit.jsonio"}


class TestModuleSet:
    def test_import_loads_errors_and_tolerance_only(self):
        assert set(fresh(f"import teichkit; {LOADED}").split()) == BASE

    @pytest.mark.parametrize(
        "argv, kernels",
        [
            (["alg", "idet", "--matrix", "[[1,2],[3,4]]"], {"algebra"}),
            (["tori", "reduce", "--tau", "0.1", "0.1"], {"algebra", "tori"}),
            (["hopf", "contracting", "--matrix", "[[[0.5,0],[0,0]],[[0,0],[0.25,0]]]"], {"algebra", "hopf"}),
            (["teich", "twin", "--point", '{"stratum":"c","params":[[0.5,0]]}'], {"algebra", "hopf", "teich"}),
            (["fol", "leafspace", "--alpha", "2/5"], {"algebra", "surd", "foliation"}),
            (["atlas", "ginv", "--x", '{"a":[[[2,0],[0,0]],[[0,0],[1,0]]],"t":[0,0]}'], {"algebra", "hopf", "atlas"}),
            (["--help"], set()),
        ],
    )
    def test_verb_loads_only_its_group(self, argv, kernels):
        code = f"import io; from teichkit.cli import dispatch; dispatch(sys.argv[1:], io.StringIO(), io.StringIO()); {LOADED}"
        assert set(fresh(code, *argv).split()) == CLI | {f"teichkit.{name}" for name in kernels}

    def test_writing_a_complex_loads_no_kernel(self):
        code = f"from teichkit.jsonio import canonical_dumps; print(canonical_dumps([1j])); {LOADED}"
        written, *loaded = fresh(code).split()
        assert written == "[[0,1]]" and set(loaded) == BASE | {"teichkit.jsonio"}

    def test_fixture_runner_loads_no_kernel(self, tmp_path):
        code = f"import io; from teichkit.cli import dispatch; print(dispatch(sys.argv[1:], io.StringIO(), io.StringIO())); {LOADED}"
        status, *loaded = fresh(code, "fixtures", "run", "--dir", str(tmp_path)).split()
        assert status == "0" and set(loaded) == CLI | {"teichkit.fixtures"}


CONCURRENT = """
import io, json, threading
from teichkit.cli import dispatch

ARGVS = json.loads(sys.argv[1])
start = threading.Barrier(8)
results = []

def run():
    for argv in ARGVS:  # every thread dispatches each group's first verb at once
        start.wait(30)
        out, err = io.StringIO(), io.StringIO()
        results.append((argv[0], dispatch(argv, out, err), out.getvalue(), err.getvalue()))

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=run) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
print(json.dumps([sum(thread.is_alive() for thread in threads), sorted(set(results))]), file=sys.__stdout__)
"""
FIRST_VERBS = [
    ["alg", "idet", "--matrix", "[[1,2],[3,4]]"],
    ["tori", "reduce", "--tau", "0.1", "0.1"],
    ["hopf", "contracting", "--matrix", "[[[0.5,0],[0,0]],[[0,0],[0.25,0]]]"],
    ["teich", "twin", "--point", '{"stratum":"c","params":[[0.5,0]]}'],
    ["fol", "leafspace", "--alpha", "2/5"],
    ["atlas", "ginv", "--x", '{"a":[[[2,0],[0,0]],[[0,0],[1,0]]],"t":[0,0]}'],
]


def test_concurrent_first_dispatches_of_a_group():
    # every thread must see the group's verbs, whichever thread dispatches first
    alive, outcomes = json.loads(fresh(CONCURRENT, json.dumps(FIRST_VERBS)))
    assert alive == 0
    assert [(group, code, err) for group, code, _, err in outcomes] == sorted((a[0], 0, "") for a in FIRST_VERBS)


class TestPublicApi:
    def test_all_is_every_public_name_sorted(self):
        names = [name for names in PUBLIC.values() for name in names]
        assert len(names) == 87
        assert teichkit.__all__ == sorted(names)

    def test_each_name_is_its_modules_object(self):
        for module, names in PUBLIC.items():
            home = sys.modules[f"teichkit.{module}"] if module == "tolerance" else getattr(teichkit, module)
            for name in names:
                assert getattr(teichkit, name) is getattr(home, name), name

    def test_star_import_and_dir_list_every_name(self):
        namespace = {}
        exec("from teichkit import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(teichkit.__all__)
        assert set(teichkit.__all__) <= set(dir(teichkit))

    def test_star_import_in_a_fresh_interpreter(self):
        code = "from teichkit import *; import teichkit; print(all(n in globals() for n in teichkit.__all__))"
        assert fresh(code).split() == ["True"]

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="^module 'teichkit' has no attribute 'nope'$"):
            teichkit.nope  # noqa: B018
        assert not hasattr(teichkit, "cf_expandd")

    def test_submodule_attributes_after_plain_import(self):
        code = f"import teichkit; print(*(getattr(teichkit, m) is sys.modules['teichkit.' + m] for m in {SUBMODULES!r}))"
        assert fresh(code).split() == ["True"] * len(SUBMODULES)

    @pytest.mark.parametrize(
        "first",
        ["import teichkit.tolerance", "import teichkit.hopf", "import teichkit.cli", "from teichkit import jsonio", "import teichkit"],
    )
    def test_tolerance_is_the_context_manager(self, first):
        # pins, without fixing, the package attribute shadowing the submodule
        code = f"{first}; import teichkit, types; print(isinstance(teichkit.tolerance, types.FunctionType))"
        assert fresh(code).split() == ["True"]
        assert isinstance(teichkit.tolerance, types.FunctionType)


FIXTURES = str(Path(SRC).parent / "fixtures")
MODULES = "print(*sys.modules)"
DISPATCH = f"import io; from teichkit.cli import dispatch; dispatch(sys.argv[1:], io.StringIO(), io.StringIO()); {MODULES}"


@pytest.mark.parametrize(
    "argv", [*FIRST_VERBS, ["fixtures", "run", "--dir", FIXTURES], ["--help"]], ids=lambda argv: " ".join(argv[:2])
)
def test_value_types_import_neither_dataclasses_nor_inspect(argv):
    # the fixture corpus runs a verb of every group, so it loads every kernel module
    added = set(fresh(DISPATCH, *argv).split()) - set(fresh(MODULES).split())
    assert added & {"dataclasses", "inspect"} == set()
    assert "teichkit.cli" in added


DISPATCHES = [*FIRST_VERBS, ["fixtures", "run", "--dir", FIXTURES], ["--help"], ["alg", "idet"]]


@pytest.mark.parametrize("argv", DISPATCHES, ids=lambda argv: " ".join(argv[:2]))
def test_no_dispatch_imports_argparse(argv):
    # the parser reads the verb table itself; help and usage errors too
    assert "argparse" not in set(fresh(DISPATCH, *argv).split())


@pytest.mark.parametrize("argv", DISPATCHES, ids=lambda argv: " ".join(argv[:2]))
def test_no_dispatch_imports_typing(argv):
    # -S: without site, whose .pth hooks of installed packages may import typing first
    assert "typing" not in set(fresh(DISPATCH, *argv, flags=("-S",)).split())


@pytest.mark.parametrize("argv", [argv for argv in FIRST_VERBS if argv[0] != "fol"], ids=lambda argv: argv[0])
def test_number_check_fallback_is_not_imported(argv):
    # ensure_finite imports numbers only for arguments of a type other than int, float, complex
    assert "numbers" not in set(fresh(DISPATCH, *argv).split()) - set(fresh(MODULES).split())
