"""Positive-definite matrix primitives.

Everything downstream (densities, posteriors, samplers) is built on
`PDMatrix`: a symmetrized matrix with its lower Cholesky factor cached at
construction.  Positive definiteness is defined operationally: the
factorization must succeed with every pivot above a relative threshold.

This is the only module that factors or solves: other modules work from
the cached factor, through `whiten` (L^{-1} B), `solve`, `quad_form` and
`PDMatrix.logdet`, and never form an inverse to evaluate a density.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NotSquare

# Relative pivot threshold: L[i,i]^2 must exceed PIVOT_RTOL * max diagonal.
PIVOT_RTOL = 1e-12


class PDMatrix:
    """Immutable symmetric positive-definite matrix with cached Cholesky factor.

    Construct via :func:`make_pd`; the constructor assumes `entries` is
    already symmetric.
    """

    __slots__ = ("dim", "entries", "factor")

    def __init__(self, entries: np.ndarray, factor: np.ndarray):
        self.dim = entries.shape[0]
        self.entries = entries
        self.factor = factor
        entries.setflags(write=False)
        factor.setflags(write=False)

    @property
    def logdet(self) -> float:
        return 2.0 * float(np.log(np.diag(self.factor)).sum())

    def __repr__(self) -> str:
        return f"PDMatrix(dim={self.dim}, entries={self.entries.tolist()})"


def make_pd(raw) -> PDMatrix:
    """Symmetrize and factor a square matrix; reject non-PD input.

    Raises NotSquare for non-square input and NotPositiveDefinite when the
    Cholesky factorization fails or any pivot falls below
    PIVOT_RTOL * max(diag).
    """
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    a = 0.5 * (a + a.T)
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    if not np.all(np.isfinite(factor)):
        raise NotPositiveDefinite("non-finite entries in Cholesky factor")
    pivots = np.diag(factor) ** 2
    if np.min(pivots) <= PIVOT_RTOL * np.max(np.diag(a)):
        raise NotPositiveDefinite(
            f"smallest Cholesky pivot {np.min(pivots):.3e} below relative "
            f"threshold {PIVOT_RTOL:g}"
        )
    return PDMatrix(a, factor)


def whiten(a: PDMatrix, b) -> np.ndarray:
    """L^{-1} B for A = L L': one forward solve against the cached factor,
    so ||L^{-1} v||^2 = v' A^{-1} v without forming A^{-1}."""
    return np.linalg.solve(a.factor, np.asarray(b, dtype=float))


def solve(a: PDMatrix, b) -> np.ndarray:
    """Solve A X = B: whiten (L Y = B), then back-solve L' X = Y."""
    return np.linalg.solve(a.factor.T, whiten(a, b))


def inverse(a: PDMatrix) -> PDMatrix:
    """A^{-1} as a fresh PDMatrix."""
    return make_pd(solve(a, np.eye(a.dim)))


def trace_product(a: PDMatrix, b: PDMatrix) -> float:
    """tr(A B) without forming the product matrix."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"trace_product: {a.dim} vs {b.dim}")
    return float(np.sum(a.entries * b.entries))


def quad_form(v, a: PDMatrix) -> float:
    """v' A v; nonnegative, zero only at v = 0."""
    v = np.asarray(v, dtype=float)
    if v.shape != (a.dim,):
        raise DimensionMismatch(f"quad_form: vector {v.shape} vs dim {a.dim}")
    w = a.factor.T @ v
    return float(w @ w)
