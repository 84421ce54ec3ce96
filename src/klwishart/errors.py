"""Exception hierarchy shared by all modules."""


class KLWishartError(Exception):
    """Base class for all library errors."""


class NotSquare(KLWishartError):
    """Input matrix is not square."""


class NotPositiveDefinite(KLWishartError):
    """Cholesky factorization failed or produced a negligible pivot."""


class DimensionMismatch(KLWishartError):
    """Operands have incompatible dimensions."""


class InvalidShape(KLWishartError):
    """Wishart shape violates nu > d - 1."""


class ShapeTooSmall(KLWishartError):
    """Moment requires nu > d + 1."""


class NoInteriorMode(KLWishartError):
    """Wishart mode requires nu > d + 1; the boundary mode is singular."""


class InsufficientData(KLWishartError):
    """Not enough data (or rank-deficient scatter) for a non-informative fit."""


class EmptyData(KLWishartError):
    """Data set contains no observations."""


class RaggedData(KLWishartError):
    """Observations have inconsistent lengths."""
