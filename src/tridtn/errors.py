"""Exception hierarchy shared across the package."""


class TriDtnError(Exception):
    """Base class for all package-specific failures."""


class DomainError(TriDtnError, ValueError):
    """A spectral or spatial argument lies outside the admissible domain
    (zero spectral parameter, evaluation point outside the triangle, ...)."""


class ParameterError(TriDtnError, ValueError):
    """Inconsistent or unsupported problem parameters."""


class RootFindError(TriDtnError, ArithmeticError):
    """Newton/continuation failed to certify a spectral root."""


class SolvabilityError(TriDtnError, ArithmeticError):
    """A boundary-condition set violates the admissibility conditions or a
    compatibility constraint (e.g. pure-Neumann data with nonzero mean at
    lambda = 0)."""


class AccuracyError(TriDtnError, ArithmeticError):
    """A quadrature or truncation error estimate exceeds the requested
    tolerance (e.g. interior evaluation too close to the boundary)."""


class NonFiniteError(TriDtnError, ArithmeticError):
    """A computed output value is NaN or infinite."""


class ConfigError(TriDtnError, ValueError):
    """Malformed configuration document or CLI request."""


class ExpressionError(ConfigError):
    """Syntax or semantics error in a boundary-data expression.

    Carries the byte offset of the offending token in ``offset``.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
