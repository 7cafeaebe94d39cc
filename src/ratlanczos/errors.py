"""Exception types shared across the package."""


class RatLanczosError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RatLanczosError, ValueError):
    """Raised when array shapes are incompatible with an operation."""


class SymmetryError(RatLanczosError, ValueError):
    """Raised when a matrix required to be symmetric is not."""


class ShiftError(RatLanczosError, ValueError):
    """Raised for invalid pole values (zero, NaN) or exhausted pole lists."""


class OperatorMismatchError(RatLanczosError, ValueError):
    """Raised when a factorization cache built for one operator is passed
    with another."""


class IndefiniteShiftError(RatLanczosError):
    """Raised when a shifted matrix I - A/xi is not positive definite.

    Carries the offending pole in ``shift``.
    """

    def __init__(self, msg, shift=None):
        super().__init__(msg)
        self.shift = shift


class RankDeficiencyError(RatLanczosError):
    """Raised by the thin QR when the input is numerically rank deficient.

    ``rank`` holds the detected numerical rank.
    """

    def __init__(self, msg, rank=None):
        super().__init__(msg)
        self.rank = rank


class DeflationNeededError(RatLanczosError):
    """Raised when a block iteration produces a rank-deficient normalization
    factor.  Deflation is not implemented; ``result`` holds the partial
    decomposition up to the last completed step."""

    def __init__(self, msg, result=None):
        super().__init__(msg)
        self.result = result


class AlphaBreakdownError(RatLanczosError):
    """Raised when the projection coefficient of a step is undefined
    (denominator inner product or block system numerically singular)."""


class SingularKError(RatLanczosError):
    """Raised when the running triangular factor becomes numerically
    singular (invariant-subspace edge case)."""


class DomainError(RatLanczosError, ValueError):
    """Raised when a scalar function is undefined at an eigenvalue of its
    matrix argument."""


class StabilityError(RatLanczosError):
    """Raised when a matrix required to be stable has an eigenvalue with
    nonnegative (real) part."""


class ConvergenceError(RatLanczosError):
    """Raised when an iterative kernel fails to converge within its cap."""
