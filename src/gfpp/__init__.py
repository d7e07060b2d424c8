"""Exhaustive finite-field checks for two permutation-polynomial families
and the girth of the associated bipartite monomial graphs.

The package works over GF(p^e) for odd primes p with a deterministic
modulus and element order, so every reported value is reproducible.
"""

__version__ = "0.1.0"

from .digits import (DigitVector, digit_vector, digits_binary, lucas_binom,
                     mod_inverse, shift_class, star_reduce, support)
from .errors import (CapExceededError, EvenPrimeError, GfppError,
                     NotCoprimeError, NotPrimeError, ParamDomainError)
from .field import DEFAULT_FIELD_CAP, Field, poly_str, smallest_irreducible
from .permpoly import (ConjectureVerdict, SweepRecord, a_values, b_values,
                       conjecture_verdict, eval_a, eval_b, first_collision,
                       p_powers, sweep, sweep_record)
from .graphs import (DEFAULT_GIRTH_CAP, GirthScan, MonomialGraph, girth,
                     girth_at_least, girth_scan, neighbors)
from .criterion import (criterion_sum, inverse_criterion_sum,
                        inverse_pp_criterion, pp_criterion,
                        support_identity_lhs, support_identity_rhs,
                        upper_half_sum, xy_params)

__all__ = [
    "__version__",
    "CapExceededError", "EvenPrimeError", "GfppError", "NotCoprimeError",
    "NotPrimeError", "ParamDomainError",
    "DEFAULT_FIELD_CAP", "Field", "poly_str", "smallest_irreducible",
    "DigitVector", "digit_vector", "digits_binary", "lucas_binom",
    "mod_inverse", "shift_class", "star_reduce", "support",
    "ConjectureVerdict", "SweepRecord", "a_values", "b_values",
    "conjecture_verdict", "eval_a", "eval_b", "first_collision", "p_powers",
    "sweep", "sweep_record",
    "DEFAULT_GIRTH_CAP", "GirthScan", "MonomialGraph", "girth",
    "girth_at_least", "girth_scan", "neighbors",
    "criterion_sum", "inverse_criterion_sum", "inverse_pp_criterion",
    "pp_criterion", "support_identity_lhs", "support_identity_rhs",
    "upper_half_sum", "xy_params",
]
