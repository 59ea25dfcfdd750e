"""Exact heat-trace coefficients of round spheres.

Coefficients a_{n,d} of the small-time expansion
sum_k mu_{k,d} exp(-t k(k+d-1)) ~ sum_n a_{n,d} t^(n - d/2)
computed in exact rational-times-sqrt(pi) arithmetic by several
independent routes, with verification sweeps for the combinatorial
identities those routes rest on and a floating-point cross-check of the
expansion against the spectral sum itself.
"""

from .exactnum import (
    ExactValue,
    Rational,
    bernoulli,
    gamma_half,
)
from .invariants import (
    HeatInvariantResult,
    heat_invariant,
    heat_invariant_closed,
    heat_invariant_even,
    heat_invariant_general,
    heat_invariant_odd,
    heat_invariant_row,
    k_table_even,
    k_table_odd,
)
from .spectrum import (
    eigenvalue,
    multiplicity,
    sphere_volume,
    weyl_leading_term,
)
from .verification import VerificationReport, Witness

__version__ = "0.1.0"

__all__ = [
    "ExactValue",
    "HeatInvariantResult",
    "Rational",
    "VerificationReport",
    "Witness",
    "bernoulli",
    "eigenvalue",
    "gamma_half",
    "heat_invariant",
    "heat_invariant_closed",
    "heat_invariant_even",
    "heat_invariant_general",
    "heat_invariant_odd",
    "heat_invariant_row",
    "k_table_even",
    "k_table_odd",
    "multiplicity",
    "sphere_volume",
    "weyl_leading_term",
]
