"""Exception types shared across the package."""


class SincoordError(Exception):
    """Base class for all library errors."""


class ParameterOutOfRange(SincoordError, ValueError):
    """A system parameter or index violates its stated validity range."""


class ComplexFrequencies(SincoordError, ArithmeticError):
    """The frequency discriminant is negative: parameters are outside the
    regime where the coordinate oscillates with two real frequencies."""


class DegenerateFrequencies(SincoordError, ArithmeticError):
    """The two frequencies coincide at some energy level."""


class VanishingFrequency(SincoordError, ZeroDivisionError):
    """A frequency that a closed form divides by is zero."""


class QuadratureNotConverged(SincoordError, RuntimeError):
    """Two quadrature refinements disagree beyond the accepted tolerance."""


class EvaluationDomain(SincoordError, ValueError):
    """A coordinate value lies outside the system's configuration domain."""


class NonOscillatory(SincoordError, ArithmeticError):
    """The classical restoring coefficient is not positive at this energy."""


class DomainEscape(SincoordError, RuntimeError):
    """A numerically integrated trajectory left the open domain."""


class EnergyDrift(SincoordError, RuntimeError):
    """The flow integrator lost energy conservation beyond its guard."""


class SingularDerivative(SincoordError, ZeroDivisionError):
    """The coordinate map has vanishing derivative at an evaluation point."""


class ZeroRecurrenceCoefficient(SincoordError, ZeroDivisionError):
    """A lowering coefficient C_k vanishes, so the coefficient recursion
    cannot be continued."""


class SeriesNotConverged(SincoordError, RuntimeError):
    """A truncated series still has a tail above the requested threshold."""


class NonFiniteResidual(SincoordError, ArithmeticError):
    """A check's worst residual is NaN or infinite, so it has no verdict."""


class ConfigError(SincoordError, ValueError):
    """Malformed command line or configuration file input."""
