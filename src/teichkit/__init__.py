"""Computable models of Hopf surface classification, torus moduli, linear
torus foliations, and the atlas group of the Teichmueller stack of S3 x S1.

Only ``errors`` and ``tolerance`` are imported with the package.  Every other
public name, and every submodule attribute such as ``teichkit.hopf``, is
resolved on first use by the module ``__getattr__`` (PEP 562), which imports
the defining module and keeps the name.  This is the package's one lazy
loader: ``cli`` and ``jsonio`` read every kernel value as ``teichkit.name``
too, so a command imports only the modules whose names it reads.
"""

import sys as _sys
import types as _types

from .errors import (
    InvalidInputError,
    InvalidPointError,
    LimitExceededError,
    MismatchedFiberError,
    NotContractingError,
    NotOnCircleError,
    NotUnimodularError,
    SamePointError,
    SingularMatrixError,
    TeichkitError,
)
from . import tolerance
from .tolerance import DEFAULT_EPS

__version__ = "0.1.0"

# the public names of every other module, imported on first use
_LAZY = {
    "algebra": ("IntMatrix2", "Matrix2C", "arg_unit_interval", "eigen2", "order_by_modulus", "quadratic_roots"),
    "atlas": (
        "AtlasPoint", "AtlasStructure", "CheckReport", "GroupElement", "LawResult", "broken_structure",
        "g_identity", "g_inverse", "g_mul", "g_power", "groupoid_check", "source", "structure_by_name",
        "target", "trivial_structure", "z_action",
    ),
    "foliation": (
        "Circle", "ClosedLeaf", "ContinuedFraction", "DenseLine", "LeafDescriptor", "LeafSpace",
        "NonHausdorffQuotient", "Slope", "cf_expand", "leaf_descriptor", "leaf_space", "morita_equivalent",
        "rotation_orbit",
    ),
    "hopf": (
        "RESONANCE_MAX_ORDER", "ContractionInput", "Diagonal", "HopfClass", "Resonant", "ResonantForm",
        "biholomorphic", "class_equal", "classify", "is_contracting", "resonance_order",
    ),
    "surd": ("QuadraticIrrational", "moebius_surd"),
    "teich": (
        "BasePoint", "CurvePoint", "TeichPoint", "adheres", "class_of_point", "image", "in_base_domain",
        "neighborhood_contains", "point_of_class", "points_equal", "separated", "twin",
    ),
    "fixtures": ("run_fixtures",),
    "jsonio": ("SchemaError", "canonical_dumps"),
    "tori": (
        "S", "T", "TorusTranslation", "lattice_reduce", "moebius", "reduce_fundamental_domain", "tori_equivalent",
        "translation_compose",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

# every public name: those bound above, except the submodules other than the callable tolerance, and the lazy ones
__all__ = sorted(
    [n for n, v in globals().items() if n[0] != "_" and (callable(v) or not isinstance(v, _types.ModuleType))]
    + list(_HOME)
)


def _load(module: str) -> _types.ModuleType:
    """The submodule ``module``, imported on the import statement's path.

    ``importlib.import_module`` and ``from . import`` would load it unseen by
    ``-X importtime``; the dotted ``__import__`` is what ``import a.b`` runs.
    """
    name = f"{__name__}.{module}"
    __import__(name)
    return _sys.modules[name]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        if name not in _LAZY:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        return _load(name)  # importing a submodule binds it here as well
    value = getattr(_load(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
