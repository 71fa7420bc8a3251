"""Exception types shared across the simulator."""


class QEraserError(Exception):
    """Base class for all domain errors raised by this package."""


class ZeroNormError(QEraserError, ValueError):
    """All amplitudes are zero; the state cannot be normalized."""


class DimensionMismatchError(QEraserError, ValueError):
    """Operands live in different or malformed spaces."""


class NoMarkerError(QEraserError, ValueError):
    """Operation requires a marker degree of freedom but the state has none."""


class ZeroProbabilityError(QEraserError, ValueError):
    """Conditioning on an outcome of (numerically) zero probability."""


class NonFiniteError(QEraserError, ValueError):
    """Amplitudes and matrix entries must be finite."""


class NotNormalizedError(QEraserError, ValueError):
    """A state or vector that must have unit norm does not."""


class InvariantError(QEraserError, AssertionError):
    """A computed probability or purity breaks the range or sum it must obey."""


class IndexOutOfRangeError(QEraserError, IndexError):
    """System, detector, or bin index outside the declared dimension."""


class NonFinitePhaseError(QEraserError, ValueError):
    """Phase arguments must be finite reals."""


class OddChannelCountError(QEraserError, ValueError):
    """The alternating-phase preset needs an even channel count."""


class LengthMismatchError(QEraserError, ValueError):
    """Phase vectors of unequal or wrong length."""


class InvalidConfigError(QEraserError, ValueError):
    """Phase configuration fails the splitter unitarity requirement."""


class InvalidGeometryError(QEraserError, ValueError):
    """Screen geometry violates its constraints."""


class DegeneratePatternError(QEraserError, ValueError):
    """Pattern carries no usable contrast information."""


class InvalidCountError(QEraserError, ValueError):
    """Event counts must be positive integers."""


class ValidationError(QEraserError, ValueError):
    """Scenario configuration rejected before execution."""
