"""Exception and warning types shared across the package."""

__all__ = [
    "TopoqubitError",
    "DomainError",
    "PoleError",
    "ParameterError",
    "ConvergenceError",
    "SpecError",
    "HorizonWarning",
]


class TopoqubitError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TopoqubitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or within 1e-12 of) a pole of the gamma function."""


class ParameterError(DomainError):
    """A series parameter makes the expansion undefined (e.g. Kummer b at a pole)."""


class ConvergenceError(TopoqubitError, ArithmeticError):
    """A series failed to reach the requested tolerance within the term budget."""


class SpecError(TopoqubitError, ValueError):
    """A sweep specification is malformed; message names the offending field."""


class HorizonWarning(UserWarning):
    """Dynamics were still reviving at the end of the integration window."""
