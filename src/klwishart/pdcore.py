"""Positive-definite matrix primitives.

Everything downstream (densities, posteriors, samplers) is built on
`PDMatrix`: a symmetrized matrix with its lower Cholesky factor cached at
construction.  Positive definiteness is defined operationally: the
factorization must succeed with every pivot above a relative threshold.

This is the only module that factors or solves, and it does each once per
matrix: `make_pd` factors A = L L', and `PDMatrix.inverse_factor` solves
L X = I for L^{-1} on first use and keeps it.  Everything else is a
product of the two: `whiten` (L^{-1} B), `solve` (L^{-T} L^{-1} B),
`inverse`, `quad_form` and `PDMatrix.logdet`.

Every mean the library keeps, and every mean `mu` a density is evaluated
at, enters through `finite_vector`, which checks its length and finiteness
and keeps a read-only copy, so a caller's array is never frozen or shared.

It also holds the library's one overflow policy, `raise_fp_errors`:
arithmetic that overflows, divides by zero or turns invalid raises
FloatingPointError.  `make_pd`, `trace_product`, `quad_form` and the public
functions of `gaussian`, `wishart`, `klpriors` and `inference` that compute
on caller values carry it as a decorator.  np.linalg ignores it, so its
one result per matrix, L^{-1}, is checked for non-finite values once, when
it is cached.  `whiten`'s product obeys the caller's policy and is checked
too.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, KLWishartError, NotPositiveDefinite

# Relative pivot threshold: L[i,i]^2 must exceed PIVOT_RTOL * max diagonal.
PIVOT_RTOL = 1e-12

# numpy's errstate is re-entrant as a decorator: each call of a decorated
# function sets the policy and restores the caller's on return.
raise_fp_errors = np.errstate(over="raise", invalid="raise", divide="raise")


class PDMatrix:
    """Immutable symmetric positive-definite matrix with cached Cholesky factor.

    Construct via :func:`make_pd`; the constructor assumes `entries` is
    already symmetric.  `logdet` and `inverse_factor` are computed from the
    factor on first access and kept: densities read them many times per
    matrix, and an immutable matrix's derived quantities never go stale.
    """

    __slots__ = ("dim", "entries", "factor", "_logdet", "_inverse_factor")

    def __init__(self, entries: np.ndarray, factor: np.ndarray):
        self.dim = entries.shape[0]
        self.entries = entries
        self.factor = factor
        self._logdet = None
        self._inverse_factor = None
        entries.setflags(write=False)
        factor.setflags(write=False)

    @property
    def logdet(self) -> float:
        """log|A| = 2 sum_i log L[i, i]."""
        if self._logdet is None:
            self._logdet = 2.0 * float(np.log(np.diag(self.factor)).sum())
        return self._logdet

    @property
    def inverse_factor(self) -> np.ndarray:
        """L^{-1}, read-only: one forward solve L X = I on first access.  A
        non-finite result raises FloatingPointError and is not kept."""
        if self._inverse_factor is None:
            inv = _solved(np.linalg.solve(self.factor, np.eye(self.dim)))
            inv.setflags(write=False)
            self._inverse_factor = inv
        return self._inverse_factor

    def __repr__(self) -> str:
        return f"PDMatrix(dim={self.dim}, entries={self.entries.tolist()})"


@raise_fp_errors
def make_pd(raw) -> PDMatrix:
    """Symmetrize and factor a non-empty square matrix; reject non-PD input.

    Raises DimensionMismatch for non-square or empty input and
    NotPositiveDefinite when the Cholesky factorization fails (NaN entries
    included), the factor is not finite (infinite entries) or any pivot
    falls below PIVOT_RTOL * max(diag).  Entries whose symmetrization
    overflows, or adds inf to -inf, raise FloatingPointError.
    """
    a = np.array(raw, dtype=float)
    if a.ndim != 2 or not 0 < a.shape[0] == a.shape[1]:
        raise DimensionMismatch(f"expected a non-empty square matrix, got shape {a.shape}")
    a += a.T
    a *= 0.5
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    # A factor's entries are +inf or at most sqrt(max |a|): the sum cannot
    # overflow.  The guards test Python floats: at small d a numpy reduction
    # costs more than the arithmetic it does.
    if not math.isfinite(factor.sum()):
        raise NotPositiveDefinite("non-finite entries in Cholesky factor")
    low = min(factor.diagonal().tolist())
    pivot = low * low
    if pivot <= PIVOT_RTOL * max(a.diagonal().tolist()):
        raise NotPositiveDefinite(
            f"smallest Cholesky pivot {pivot:.3e} below relative "
            f"threshold {PIVOT_RTOL:g}"
        )
    return PDMatrix(a, factor)


def finite_vector(value, dim: int, name: str) -> np.ndarray:
    """value as a new read-only float vector of shape (dim,) with finite
    entries: DimensionMismatch for another shape, KLWishartError for a NaN
    or infinity."""
    v = np.array(value, dtype=float)
    if v.shape != (dim,):
        raise DimensionMismatch(f"{name} has shape {v.shape}, expected ({dim},)")
    if not all(map(math.isfinite, v.tolist())):
        raise KLWishartError(f"{name} must be finite")
    v.setflags(write=False)
    return v


def _solved(x: np.ndarray) -> np.ndarray:
    # np.linalg runs its solvers with overflow ignored, out of reach of
    # raise_fp_errors; for finite operands a non-finite result is overflow.
    if not np.isfinite(x).all():
        raise FloatingPointError("non-finite value encountered in solve")
    return x


def whiten(a: PDMatrix, b) -> np.ndarray:
    """L^{-1} B for A = L L': the cached inverse factor applied to B, so
    ||L^{-1} v||^2 = v' A^{-1} v without forming A^{-1}.  The product obeys
    the caller's floating-point policy, and a non-finite one raises
    FloatingPointError under any policy."""
    return _solved(a.inverse_factor @ np.asarray(b, dtype=float))


@raise_fp_errors
def solve(a: PDMatrix, b) -> np.ndarray:
    """A^{-1} B = L^{-T} (L^{-1} B): the whitened B times the cached L^{-1}'."""
    return a.inverse_factor.T @ whiten(a, b)


def inverse(a: PDMatrix) -> PDMatrix:
    """A^{-1} as a fresh PDMatrix."""
    return make_pd(solve(a, np.eye(a.dim)))


@raise_fp_errors
def trace_product(a: PDMatrix, b: PDMatrix) -> np.float64:
    """tr(A B) without forming the product matrix.  Like `quad_form` it
    returns a numpy scalar, so a caller's arithmetic on it obeys
    raise_fp_errors."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"trace_product: {a.dim} vs {b.dim}")
    return np.sum(a.entries * b.entries)


@raise_fp_errors
def quad_form(v, a: PDMatrix) -> np.float64:
    """v' A v; nonnegative, zero only at v = 0."""
    v = np.asarray(v, dtype=float)
    if v.shape != (a.dim,):
        raise DimensionMismatch(f"quad_form: vector {v.shape} vs dim {a.dim}")
    w = a.factor.T @ v
    return w @ w
