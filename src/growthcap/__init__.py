"""Exact arithmetic for growth capacities on the modular upper half-plane.

The library computes the packing quality f(omega) = d(omega)^2 / Im(omega)
of the lattice Z + Z*omega exactly (d is the shortest nonzero vector), its
piecewise profile along vertical geodesics, the Hermite subsequence of the
classical convergents that indexes the pieces, Lagrange numbers and the
Markoff spectrum, and the averaged capacity — the chain of facts that makes
the golden ratio the best divergence for packing buds on a cylinder.
"""

from .average import (
    AverageReport,
    ClosedForm,
    average_capacity_estimate,
    closed_form_g,
    piece_average,
)
from .exactnum import (
    PHI,
    PSI,
    ContinuedFraction,
    Convergent,
    Surd,
    SurdParseError,
    cf_expand,
    complete_quotient,
    convergents,
    lagrange_number_estimate,
    lambda_n,
    parse_omega,
    parse_surd,
    periodic_value,
    surd_compare,
)
from .halfplane import (
    ModularMatrix,
    TangentCircle,
    UpperHalfPoint,
    growth_capacity,
    growth_capacity_direct,
    mobius_apply,
    reduce_to_fundamental,
    shortest_vector_sq,
    tangent_circle,
)
from .markoff import (
    SpectrumEntry,
    fibonacci,
    lagrange_spectrum,
    markoff_numbers,
    pell,
    spectrum_constants,
)
from .profile import (
    CapacityProfile,
    HermiteConvergent,
    ProfilePiece,
    build_profile,
    hermite_convergents,
    hermite_oracle_geodesic,
    humbert_is_hermite,
    local_minima,
    sup_of_minima,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PHI",
    "PSI",
    "Surd",
    "SurdParseError",
    "ContinuedFraction",
    "Convergent",
    "surd_compare",
    "cf_expand",
    "convergents",
    "complete_quotient",
    "lambda_n",
    "periodic_value",
    "lagrange_number_estimate",
    "parse_surd",
    "parse_omega",
    "ModularMatrix",
    "UpperHalfPoint",
    "TangentCircle",
    "mobius_apply",
    "reduce_to_fundamental",
    "shortest_vector_sq",
    "growth_capacity",
    "growth_capacity_direct",
    "tangent_circle",
    "HermiteConvergent",
    "ProfilePiece",
    "CapacityProfile",
    "humbert_is_hermite",
    "hermite_convergents",
    "hermite_oracle_geodesic",
    "build_profile",
    "local_minima",
    "sup_of_minima",
    "AverageReport",
    "ClosedForm",
    "piece_average",
    "average_capacity_estimate",
    "closed_form_g",
    "SpectrumEntry",
    "markoff_numbers",
    "lagrange_spectrum",
    "spectrum_constants",
    "fibonacci",
    "pell",
]
