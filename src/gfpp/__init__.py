"""Exhaustive finite-field checks for two permutation-polynomial families
and the girth of the associated bipartite monomial graphs.

The package works over GF(p^e) for odd primes p with a deterministic
modulus and element order, so every reported value is reproducible.
Importing it loads only the field; import the other modules by name.
"""

__version__ = "0.1.0"

from .field import Field

__all__ = ["__version__", "Field"]
