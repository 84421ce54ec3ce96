"""Positive-definite matrix primitives.

Everything downstream (densities, posteriors, samplers) is built on
`PDMatrix`: a symmetrized matrix with its lower Cholesky factor cached at
construction.  Positive definiteness is defined operationally: the
factorization must succeed with every pivot above a relative threshold.

This is the only module that factors or solves, and it does each once per
matrix: `make_pd` factors A = L L', and `PDMatrix.inverse_factor` solves
L X = I for L^{-1} on first use and keeps it.  Everything else is a
product of the two: `whiten` (L^{-1} B), `solve` (L^{-T} L^{-1} B),
`inverse` (`make_pd` of L^{-T} L^{-1}), `quad_form` and `PDMatrix.logdet`.

A `PDStack` holds T matrices of one dimension, (T, d, d), factored by one
`make_pd_stack` call: one Cholesky call for the whole stack, guarded by the
same rules as `make_pd` and rejected with `make_pd`'s message for its first
failing member.  It shares `PDMatrix`'s body: its `factor` and
`inverse_factor` keep the leading axis and its `logdet` is a (T,) array.
Stacks have their own functions, `trace_product_stack` and
`quad_form_stack`, which return (T,) arrays; `whiten` is a matmul and
takes either.  `make_pd`, `solve`, `inverse`, `trace_product` and
`quad_form` take one matrix, so a single matrix runs no stack code: each
raises DimensionMismatch for a stack, from the shape check it makes
anyway or from `_one_matrix`.

Every mean the library keeps, and every mean `mu` a density is evaluated
at, enters through `finite_vector`, which checks its shape and finiteness
and keeps a read-only copy, so a caller's array is never frozen or shared:
(d,) for one mean, (T, d) for the means that go with a stack.

It also holds the library's one overflow policy, `raise_fp_errors`:
arithmetic that overflows, divides by zero or turns invalid raises
FloatingPointError.  `make_pd`, `trace_product`, `quad_form`, their stack
versions and the public functions of `gaussian`, `wishart`, `klpriors` and
`inference` that compute on caller values carry it as a decorator.
np.linalg ignores it, so its one result per matrix, L^{-1}, is checked for
non-finite values once, when it is cached.  `whiten`'s product obeys the
caller's policy and is checked too.  Each check on an array is one count
of its finite entries (`_all_finite`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, KLWishartError, NotPositiveDefinite

# Relative pivot threshold: L[i,i]^2 must exceed PIVOT_RTOL * max diagonal.
PIVOT_RTOL = 1e-12

# On numpy >= 2 errstate is re-entrant as a decorator: each call of a
# decorated function, nested or not, sets the policy and restores the
# caller's on return.
raise_fp_errors = np.errstate(over="raise", invalid="raise", divide="raise")


class _Factored:
    """A symmetric matrix, or a stack of them, with its lower Cholesky factor
    cached at construction: the body `PDMatrix` and `PDStack` share.

    The constructor assumes `entries` is already symmetric.  The derived
    quantities are computed from the factor on first access and kept:
    densities read them many times per matrix, and an immutable matrix's
    derived quantities never go stale.
    """

    __slots__ = ("dim", "entries", "factor", "_logdet", "_inverse_factor")

    def __init__(self, entries: np.ndarray, factor: np.ndarray):
        self.dim = entries.shape[-1]
        self.entries = entries
        self.factor = factor
        self._logdet = None
        self._inverse_factor = None
        entries.setflags(write=False)
        factor.setflags(write=False)

    def _log_det(self):
        """log|A| = 2 sum_i log L[i, i], over the last two axes."""
        return 2.0 * np.log(np.diagonal(self.factor, axis1=-2, axis2=-1)).sum(axis=-1)

    @property
    def inverse_factor(self) -> np.ndarray:
        """L^{-1}, read-only: one forward solve L X = I on first access (for
        a stack, one solve of every member against the one identity).  A
        non-finite result raises FloatingPointError and is not kept."""
        if self._inverse_factor is None:
            inv = _solved(np.linalg.solve(self.factor, np.eye(self.dim)))
            inv.setflags(write=False)
            self._inverse_factor = inv
        return self._inverse_factor


class PDMatrix(_Factored):
    """Immutable symmetric positive-definite matrix with cached Cholesky
    factor.  Construct via :func:`make_pd`."""

    __slots__ = ()

    @property
    def logdet(self) -> float:
        """log|A| = 2 sum_i log L[i, i]."""
        if self._logdet is None:
            self._logdet = float(self._log_det())
        return self._logdet

    def __repr__(self) -> str:
        return f"PDMatrix(dim={self.dim}, entries={self.entries.tolist()})"


class PDStack(_Factored):
    """Immutable stack of T symmetric positive-definite d x d matrices with
    their cached Cholesky factors: `entries`, `factor` and `inverse_factor`
    are (T, d, d).  Construct via :func:`make_pd_stack`."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def logdet(self) -> np.ndarray:
        """log|A_k| for each member k, a read-only (T,) array."""
        if self._logdet is None:
            logdet = self._log_det()
            logdet.setflags(write=False)
            self._logdet = logdet
        return self._logdet


@raise_fp_errors
def make_pd(raw) -> PDMatrix:
    """Symmetrize and factor a non-empty square matrix; reject non-PD input.

    Raises DimensionMismatch for non-square or empty input and
    NotPositiveDefinite when the Cholesky factorization fails (NaN entries
    included), the factor is not finite (infinite entries) or any pivot
    falls below PIVOT_RTOL * max(diag).  Entries whose symmetrization
    overflows, or adds inf to -inf, raise FloatingPointError.
    """
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2 or not 0 < a.shape[0] == a.shape[1]:
        raise DimensionMismatch(f"expected a non-empty square matrix, got shape {a.shape}")
    # A new array, so the caller's is never changed; `a += a.T` would add
    # overlapping operands, which numpy buffers through a copy.
    a = a + a.T
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


@raise_fp_errors
def make_pd_stack(raw) -> PDStack:
    """`make_pd` of each member of a non-empty (T, d, d) stack, with one
    Cholesky call for all of them.

    DimensionMismatch for another shape.  Each member is symmetrised as
    `make_pd` symmetrises it, bit for bit, and `make_pd`'s guards decide
    for the whole stack at once; a rejected stack raises the
    NotPositiveDefinite that `make_pd` raises for its first failing member,
    with that member's index appended.
    """
    a = np.asarray(raw, dtype=float)
    if a.ndim != 3 or not (len(a) and 0 < a.shape[1] == a.shape[2]):
        raise DimensionMismatch(
            f"expected a non-empty (T, d, d) stack of square matrices, got shape {a.shape}"
        )
    a = a + a.swapaxes(1, 2)
    a *= 0.5
    try:
        factor = np.linalg.cholesky(a)
        if not _all_finite(factor):
            raise NotPositiveDefinite
        low = np.diagonal(factor, axis1=1, axis2=2).min(axis=1)
        if (low * low <= PIVOT_RTOL * np.diagonal(a, axis1=1, axis2=2).max(axis=1)).any():
            raise NotPositiveDefinite
    except (np.linalg.LinAlgError, NotPositiveDefinite):
        # One copy of each message: make_pd's, for the first member it rejects.
        for i, member in enumerate(a):
            try:
                make_pd(member)
            except NotPositiveDefinite as exc:
                raise NotPositiveDefinite(f"{exc} (stack index {i})") from exc
        raise
    return PDStack(a, factor)


def finite_vector(value, shape: tuple, name: str) -> np.ndarray:
    """value as a new read-only float array of shape (d,), or (T, d) for the
    means of a stack, with finite entries: DimensionMismatch for another
    shape, KLWishartError for a NaN or infinity.  A (d,) vector is tested
    on Python floats, faster than `_all_finite` at that size."""
    v = np.array(value, dtype=float)
    if v.shape != shape:
        raise DimensionMismatch(f"{name} has shape {v.shape}, expected {shape}")
    if not (all(map(math.isfinite, v.tolist())) if v.ndim == 1 else _all_finite(v)):
        raise KLWishartError(f"{name} must be finite")
    v.setflags(write=False)
    return v


def _all_finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite, with one reduction: counting the
    finite entries costs about half of `np.isfinite(x).all()` at small
    sizes."""
    return np.count_nonzero(np.isfinite(x)) == x.size


def _solved(x: np.ndarray) -> np.ndarray:
    # np.linalg runs its solvers with overflow ignored, out of reach of
    # raise_fp_errors; for finite operands a non-finite result is overflow.
    if not _all_finite(x):
        raise FloatingPointError("non-finite value encountered in solve")
    return x


def _one_matrix(a: PDMatrix, name: str) -> None:
    """DimensionMismatch for a `PDStack` where one matrix goes."""
    if a.entries.ndim != 2:
        raise DimensionMismatch(f"{name} has shape {a.entries.shape}, expected (d, d)")


def whiten(a: PDMatrix, b) -> np.ndarray:
    """L^{-1} B for A = L L': the cached inverse factor applied to B, so
    ||L^{-1} v||^2 = v' A^{-1} v without forming A^{-1}.  For a `PDStack`
    the product broadcasts as np.matmul's does: a (d,) vector or (d, k)
    matrix B applies to every member and a (T, d, k) B pairs member by
    member, so a stack of vectors goes in as (T, d, 1).  The product obeys
    the caller's floating-point policy, and a non-finite one raises
    FloatingPointError under any policy."""
    return _solved(a.inverse_factor @ np.asarray(b, dtype=float))


@raise_fp_errors
def solve(a: PDMatrix, b) -> np.ndarray:
    """A^{-1} B = L^{-T} (L^{-1} B): the whitened B times the cached L^{-1}'.
    A `PDStack` A raises DimensionMismatch."""
    _one_matrix(a, "solve: matrix")
    return a.inverse_factor.T @ whiten(a, b)


@raise_fp_errors
def inverse(a: PDMatrix) -> PDMatrix:
    """A^{-1} = L^{-T} L^{-1} as a fresh PDMatrix, from the cached inverse
    factor (bitwise `make_pd(solve(a, I))`).  A `PDStack` raises
    DimensionMismatch."""
    _one_matrix(a, "inverse: matrix")
    li = a.inverse_factor
    return make_pd(li.T @ li)


@raise_fp_errors
def trace_product(a: PDMatrix, b: PDMatrix) -> np.float64:
    """tr(A B) without forming the product matrix.  Like `quad_form` it
    returns a numpy scalar, so a caller's arithmetic on it obeys
    raise_fp_errors.  Matrices of two dimensions, or a `PDStack`, raise
    DimensionMismatch."""
    if a.entries.shape != b.entries.shape:
        raise DimensionMismatch(f"trace_product: {a.entries.shape} vs {b.entries.shape}")
    return np.sum(a.entries * b.entries)


@raise_fp_errors
def quad_form(v, a: PDMatrix) -> np.float64:
    """v' A v; nonnegative, zero only at v = 0.  A v that is not a vector
    of A's dimension, or a `PDStack` A, raises DimensionMismatch."""
    v = np.asarray(v, dtype=float)
    # A (d,) vector goes with a (d, d) matrix only.
    if v.shape * 2 != a.entries.shape:
        raise DimensionMismatch(f"quad_form: vector {v.shape} vs matrix {a.entries.shape}")
    w = a.factor.T @ v
    return w @ w


@raise_fp_errors
def trace_product_stack(a: PDStack, b: PDMatrix) -> np.ndarray:
    """tr(A_k B) for each member of a stack and one matrix B, a (T,) array."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"trace_product_stack: {a.dim} vs {b.dim}")
    # Each member's d * d entries summed as one row, in `trace_product`'s order.
    return (a.entries * b.entries).reshape(len(a), -1).sum(axis=1)


@raise_fp_errors
def quad_form_stack(v, a: PDStack) -> np.ndarray:
    """v_k' A_k v_k for a (T, d) stack of vectors, a (T,) array."""
    v = np.asarray(v, dtype=float)
    if v.shape != (len(a), a.dim):
        raise DimensionMismatch(f"quad_form_stack: vectors {v.shape} vs stack {a.entries.shape}")
    w = a.factor.swapaxes(1, 2) @ v[:, :, None]
    return np.sum(w * w, axis=(1, 2))
