"""Exception types shared across the package.

The CLI maps ArgumentError/ConfigError to exit code 2 and NumericError
to exit code 3; everything else is a plain bug.
"""

from __future__ import annotations


class ArgumentError(ValueError):
    """A caller-supplied argument violates a documented precondition."""


class DomainError(ArgumentError):
    """A parameter value lies outside the family's parameter set."""


class SingularityError(ArgumentError):
    """A zero density was hit where positivity is assumed."""


class NeighborhoodError(ArgumentError):
    """A perturbation leaves the declared smoothness neighborhood."""


class ConfigError(ArgumentError):
    """A study configuration file cannot be resolved."""


class NumericError(RuntimeError):
    """Quadrature or another numeric routine failed to converge.

    row is the index of the failing replicate when the error comes from
    one row of a stacked coupled draw, and None otherwise.
    """

    row: int | None = None

