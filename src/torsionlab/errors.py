"""Exception types shared across the package."""

from __future__ import annotations


class TorsionLabError(Exception):
    """Base class for all torsionlab errors."""


class ExprParseError(TorsionLabError):
    """Syntax error while parsing an expression string."""

    def __init__(self, message: str, text: str, pos: int):
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos}: {text!r}")


class UnknownVariableError(ExprParseError):
    """Identifier does not name a chart variable (or allowed parameter)."""


class SingularityError(TorsionLabError):
    """Evaluation hit a divisor whose magnitude is below the singularity guard."""


class EvalDomainError(TorsionLabError):
    """Evaluation left the real domain (e.g. square root of a negative)."""


class ConstantRangeError(TorsionLabError):
    """An exact constant has no double value: its magnitude overflows."""


class DomainExhaustedError(TorsionLabError):
    """Rejection sampling failed too many times in a row."""


class ChartMismatchError(TorsionLabError):
    """Operands live on different charts."""


class DimensionMismatchError(TorsionLabError):
    """Array shapes are inconsistent with the chart dimension."""


class ChainConditionError(TorsionLabError):
    """A supplied Jordan chain does not satisfy the chain relation at the point."""


class ComplexEigenvalueError(TorsionLabError):
    """Operator has eigenvalues with non-negligible imaginary part."""


class RankAmbiguousError(TorsionLabError):
    """Singular values straddle the rank threshold; numerical rank undecidable."""


class SpectralError(TorsionLabError):
    """Spectral decomposition failed a structural invariant."""


class NonCommutingError(TorsionLabError):
    """Operators expected to commute do not, beyond tolerance."""


class DependentSpanningSetError(TorsionLabError):
    """Supplied spanning fields are linearly dependent at a sample point."""


class NotClosedError(TorsionLabError):
    """One-form is not closed, so no potential exists."""


class NonPolynomialError(TorsionLabError):
    """Expression is not polynomial where a polynomial is required."""


class SingularJacobianError(TorsionLabError):
    """Coordinate-change Jacobian is not invertible at the point."""


class ManifestError(TorsionLabError):
    """Manifest file is malformed or inconsistent."""


class PreconditionError(TorsionLabError):
    """A documented operation precondition does not hold."""
