"""Computable models of Hopf surface classification, torus moduli, linear
torus foliations, and the atlas group of the Teichmueller stack of S3 x S1.
"""

import types as _types

from .algebra import (
    IntMatrix2,
    Matrix2C,
    arg_unit_interval,
    eigen2,
    order_by_modulus,
    quadratic_roots,
)
from .atlas import (
    AtlasPoint,
    AtlasStructure,
    CheckReport,
    GroupElement,
    LawResult,
    broken_structure,
    g_identity,
    g_inverse,
    g_mul,
    g_power,
    groupoid_check,
    source,
    structure_by_name,
    target,
    trivial_structure,
    z_action,
)
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
from .foliation import (
    Circle,
    ClosedLeaf,
    ContinuedFraction,
    DenseLine,
    LeafDescriptor,
    LeafSpace,
    NonHausdorffQuotient,
    Slope,
    cf_expand,
    leaf_descriptor,
    leaf_space,
    morita_equivalent,
    rotation_orbit,
)
from .hopf import (
    RESONANCE_MAX_ORDER,
    ContractionInput,
    Diagonal,
    HopfClass,
    Resonant,
    ResonantForm,
    biholomorphic,
    class_equal,
    classify,
    det_trace,
    is_contracting,
    resonance_order,
)
from .surd import (
    QuadraticIrrational,
    continued_fraction_expansion,
    moebius_surd,
    periodic_state_keys,
)
from .teich import (
    BasePoint,
    CurvePoint,
    TeichPoint,
    adheres,
    class_of_point,
    image,
    in_base_domain,
    neighborhood_contains,
    point_of_class,
    points_equal,
    separated,
    twin,
)
from .fixtures import run_fixtures
from .jsonio import SchemaError, canonical_dumps
from .tolerance import DEFAULT_EPS, default_eps, tolerance
from .tori import (
    S,
    T,
    TorusTranslation,
    lattice_reduce,
    moebius,
    reduce_fundamental_domain,
    tori_equivalent,
    translation_compose,
    translation_matrix,
    zero_translation,
)

__version__ = "0.1.0"

# every public name bound above, except the submodules the imports bind
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
