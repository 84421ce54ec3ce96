"""Exception hierarchy shared by all modules: one class per condition a
caller, or the CLI's exit code, can tell apart."""


class KLWishartError(Exception):
    """Base class for all library errors; raised itself for a NaN or
    infinite input value and for a pseudocount that is not positive."""


class NotPositiveDefinite(KLWishartError):
    """Cholesky factorization failed or produced a negligible pivot."""


class DimensionMismatch(KLWishartError):
    """An operand has the wrong shape: a matrix that is not square and
    non-empty, operands of different dimensions, or observations whose rows
    differ in length."""


class InvalidShape(KLWishartError):
    """Wishart shape out of range: nu must be finite with nu > d - 1 for the
    distribution, and nu > d + 1 for an interior mode and a finite E[P^-1]."""


class InsufficientData(KLWishartError):
    """Too few observations: none at all, or fewer than a non-informative fit
    needs (or a rank-deficient scatter)."""
