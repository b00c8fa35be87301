"""Exact-arithmetic Frobenius nilpotence bounds for pointed affine
semigroup rings.

The package computes, for a semigroup given by integer generators, the
constants m_Q and N_Q controlling the Hartshorne-Speiser-Lyubeznik number
of the top local cohomology in characteristic p, and verifies the bound
ceil(log_p m_Q) empirically by simulating the Frobenius action on
monomial classes.
"""

from .cohomology import (
    HslReport,
    OrbitReport,
    ZeroClassResult,
    empirical_hsl,
    frobenius_orbit,
    hsl_exact_dim1,
    theoretical_bound,
    zero_class,
)
from .cones import (
    Cone,
    RegionTag,
    SimplicialSubcone,
    classify,
    is_pointed,
    parallelepiped_points,
    support_forms,
    triangulate,
)
from .errors import (
    BudgetExhaustedError,
    DimensionMismatchError,
    EmptyInputError,
    NotPointedError,
)
from .intlinalg import (
    IntMatrix,
    IntVector,
    SmithDecomposition,
    hermite_normal_form,
    is_prime,
    largest_prime_factor,
    primitive,
    smith_normal_form,
    solve_in_hermite_basis,
    solve_in_row_lattice,
)
from .semigroups import (
    AffineSemigroup,
    FacetData,
    GammaCertificate,
    SaturationData,
    all_facet_data,
    build,
    express,
    facet_data,
    find_gamma,
    member,
    n_q,
    sat_member,
    saturation_residues,
    verify_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSemigroup",
    "BudgetExhaustedError",
    "Cone",
    "DimensionMismatchError",
    "EmptyInputError",
    "FacetData",
    "GammaCertificate",
    "HslReport",
    "IntMatrix",
    "IntVector",
    "NotPointedError",
    "OrbitReport",
    "RegionTag",
    "SaturationData",
    "SimplicialSubcone",
    "SmithDecomposition",
    "ZeroClassResult",
    "all_facet_data",
    "build",
    "classify",
    "empirical_hsl",
    "express",
    "facet_data",
    "find_gamma",
    "frobenius_orbit",
    "hermite_normal_form",
    "hsl_exact_dim1",
    "is_pointed",
    "is_prime",
    "largest_prime_factor",
    "member",
    "n_q",
    "parallelepiped_points",
    "primitive",
    "sat_member",
    "saturation_residues",
    "smith_normal_form",
    "solve_in_hermite_basis",
    "solve_in_row_lattice",
    "support_forms",
    "theoretical_bound",
    "triangulate",
    "verify_gamma",
    "zero_class",
]
