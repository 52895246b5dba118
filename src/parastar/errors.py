"""Exception types shared across the package.

Every numerical failure mode is an explicit exception; no operation
returns NaN or infinity silently.
"""


class ParastarError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ParastarError):
    """Input outside an operation's stated domain (non-finite, out of range)."""


class ParamRange(ParastarError):
    """A class or map parameter violates its admissible range."""


class SingularPoint(ParastarError):
    """Evaluation requested within tolerance of a logarithmic singularity."""


class UnknownTarget(ParastarError):
    """Target-map name outside the closed enumeration."""


class NonzeroConstantTerm(ParastarError):
    """Series operation requiring a vanishing constant term got one that is not."""


class CenterOutsideRange(ParastarError):
    """Inscribed-disc center is not finite or not to the left of the region vertex."""


class NoSignChange(ParastarError):
    """Root bracketing failed: no sign change on the given interval."""


class MaxIterExceeded(ParastarError):
    """Iterative solver hit its iteration cap before reaching tolerance."""


class QuadratureFailure(ParastarError):
    """Adaptive quadrature could not certify the requested error."""


class SingularOnCircle(ParastarError):
    """A circle sample hit a singular or non-finite map value."""


class DerivativeVanishes(ParastarError):
    """f(z)/z or f' has a zero in the certified disc, or one too near its edge to count."""


class ArgUndefined(ParastarError):
    """Argument of zero requested (sector test at its own vertex)."""
