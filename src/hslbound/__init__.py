"""Exact-arithmetic Frobenius nilpotence bounds for pointed affine
semigroup rings.

The package computes, for a semigroup given by integer generators, the
constants m_Q and N_Q controlling the Hartshorne-Speiser-Lyubeznik number
of the top local cohomology in characteristic p, and verifies the bound
ceil(log_p m_Q) empirically by simulating the Frobenius action on
monomial classes.

The sweep module, `cohomology`, loads on first use of one of its names,
so `analyze` and `bound` never import it.
"""

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
    hermite_normal_form,
    is_prime,
    largest_prime_factor,
    primitive,
    smith_normal_form,
    solve_in_hermite_basis,
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
    saturation_residues,
    theoretical_bound,
    verify_gamma,
)


def __getattr__(name):
    # a public name not bound here is the sweep module's; it is read from
    # there on every access, so a patch of cohomology.zero_class is what
    # hslbound.zero_class returns too
    if name in __all__:
        from . import cohomology

        return getattr(cohomology, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "saturation_residues",
    "smith_normal_form",
    "solve_in_hermite_basis",
    "support_forms",
    "theoretical_bound",
    "triangulate",
    "verify_gamma",
    "zero_class",
]
