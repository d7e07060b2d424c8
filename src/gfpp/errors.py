"""Exception types shared across the package."""


class GfppError(Exception):
    """Base class for all package-specific errors."""


class NotPrimeError(GfppError):
    """A value required to be prime (or a prime power) is not."""


class EvenPrimeError(GfppError):
    """Characteristic 2 was requested; only odd characteristic is supported."""


class CapExceededError(GfppError):
    """A size guard (field cap, girth cap) was exceeded."""


class NotCoprimeError(GfppError):
    """A modular inverse was requested for non-coprime arguments."""


class ParamDomainError(GfppError):
    """A parameter bundle violates the domain of an identity verifier."""

