"""Wishart and inverse-Wishart distributions for real shape nu > d - 1.

Parameters are stored scatter-side (S = V^{-1}) because the posterior
update formulas are additive in S; the scale V is derived on demand.
There is one parameter type: in the Dawid convention C ~ IW(S, nu) iff
P = C^{-1} ~ W(S^{-1}, nu), so `iw_log_pdf` and `iw_mode` take the
`WishartParams` of P and read S from its `scale_inv`.
Sampling uses the Bartlett construction, valid for any real nu > d - 1.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from . import pdcore
from ._kernels import _BLOCK, batch_bartlett
from .errors import DimensionMismatch, InvalidShape
from .pdcore import PDMatrix, raise_fp_errors

LOG_PI = math.log(math.pi)

# Draws per chunk of randoms in `sample_wishart_batch`: one kernel block, so
# each kernel call runs one block on randoms already in its layout.  The
# first chunk is drawn before any kernel runs, so a chunk is kept short; a
# call of at most one chunk starts no thread.
_CHUNK = _BLOCK


def validate_shape(nu: float, d: int) -> None:
    """Enforce a finite nu > d - 1 (strict); low integer shapes give
    rank-deficient samples and cannot support a density on PD matrices."""
    if not math.isfinite(nu):
        raise InvalidShape(f"Wishart shape must be finite; got nu={nu}")
    if not nu > d - 1:
        raise InvalidShape(
            f"Wishart shape must satisfy nu > d - 1; got nu={nu} with d={d}"
        )


@raise_fp_errors
def multivariate_log_gamma(a: float, d: int) -> float:
    """log Gamma_d(a) = (d(d-1)/4) log pi + sum_j log Gamma(a + (1-j)/2).

    Overflow raises FloatingPointError: math.lgamma's OverflowError is
    renamed, and the terms are summed as numpy scalars.
    """
    try:
        terms = [math.lgamma(a + (1 - j) / 2.0) for j in range(1, d + 1)]
    except OverflowError:
        raise FloatingPointError("overflow encountered in lgamma") from None
    return d * (d - 1) / 4.0 * LOG_PI + sum(terms, np.float64(0.0))


class WishartParams:
    """Wishart W(V, nu) stored via the scatter-side parameter S = V^{-1}.

    `log_normaliser` is computed on first access and kept, as `PDMatrix`
    keeps its log-determinant: a fixed prior's densities read it many times.
    """

    __slots__ = ("scale_inv", "shape", "_log_normaliser")

    def __init__(self, scale_inv: PDMatrix, shape: float):
        validate_shape(shape, scale_inv.dim)
        self.scale_inv = scale_inv
        # A numpy scalar, so arithmetic on the shape obeys raise_fp_errors.
        self.shape = np.float64(shape)
        self._log_normaliser = None

    @property
    def dim(self) -> int:
        return self.scale_inv.dim

    @property
    @raise_fp_errors
    def log_normaliser(self) -> np.float64:
        """log Z of W(S^{-1}, nu) = (nu d / 2) log 2 + (nu/2) log|V|
        + log Gamma_d(nu/2), with log|V| = -log|S|; an overflow raises
        FloatingPointError and is not kept."""
        if self._log_normaliser is None:
            d, nu = self.dim, self.shape
            self._log_normaliser = (
                nu * d / 2.0 * math.log(2.0)
                - nu / 2.0 * self.scale_inv.logdet
                + multivariate_log_gamma(nu / 2.0, d)
            )
        return self._log_normaliser

    def scale(self) -> PDMatrix:
        """V = S^{-1}."""
        return pdcore.inverse(self.scale_inv)


@raise_fp_errors
def wishart_log_pdf(w: WishartParams, P: PDMatrix) -> float:
    """log W(P | V, nu) with V = S^{-1}; `trace_product` rejects a P of
    another dimension."""
    d = w.dim
    nu = w.shape
    return float(
        (nu - d - 1) / 2.0 * P.logdet
        - 0.5 * pdcore.trace_product(P, w.scale_inv)
        - w.log_normaliser
    )


@raise_fp_errors
def wishart_mean(w: WishartParams) -> PDMatrix:
    """E[P] = nu V."""
    return pdcore.make_pd(w.shape * w.scale().entries)


def _excess(w: WishartParams, what: str) -> np.float64:
    """nu - d - 1, which `what` needs positive; InvalidShape otherwise."""
    if not w.shape > w.dim + 1:
        raise InvalidShape(f"{what} requires nu > d + 1; got nu={w.shape} with d={w.dim}")
    return w.shape - w.dim - 1


@raise_fp_errors
def wishart_mean_inverse(w: WishartParams) -> PDMatrix:
    """E[P^{-1}] = S / (nu - d - 1); InvalidShape unless nu > d + 1, where
    the expectation is finite."""
    return pdcore.make_pd(w.scale_inv.entries / _excess(w, "E[P^-1]"))


@raise_fp_errors
def wishart_mode(w: WishartParams) -> PDMatrix:
    """Mode (nu - d - 1) V; InvalidShape unless nu > d + 1, where the mode
    is interior (at nu = d + 1 it is the singular zero matrix)."""
    return pdcore.make_pd(_excess(w, "mode") * w.scale().entries)


@raise_fp_errors
def sample_wishart_batch(w: WishartParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Bartlett draws as an (n, d, d) array.

    T lower triangular with T_ii^2 ~ chi-square(nu - i + 1) and standard
    normal strict lower triangle; sample = L T T' L' with L = chol(V).

    The randoms come from `rng` in one fixed order, chunk by chunk over
    rows of _CHUNK draws (the last chunk may be shorter).  For a chunk of b
    draws: b gammas of shape (nu - i + 1)/2 for i = 1, ..., d in turn, then
    its b d(d-1)/2 normals, all b of the first entry of T's strict lower
    triangle (row-major order) first, then all b of the next, and so on.
    So a seed gives the same samples and leaves `rng` in the same state
    whichever thread draws them.  The calling thread draws the first
    chunk; when n > _CHUNK, one helper thread draws the rest while the
    kernel runs on the calling thread, chunk by chunk, under this
    function's floating-point policy.  numpy's generator releases the
    interpreter lock while it draws, so the two run side by side on at
    most two cores.  Each chunk is drawn into C-ordered (d, b) and
    (d(d-1)/2, b) buffers, whose transposes the kernel reads without a copy.
    """
    d = w.dim
    m = d * (d - 1) // 2
    L = w.scale().factor
    out = np.empty((n, d, d))
    gammas, normals = np.empty(n * d), np.empty(n * m)
    starts = range(0, n, _CHUNK)
    chunks = []
    for start in starts:
        stop = min(start + _CHUNK, n)
        chunks.append((
            gammas[start * d : stop * d].reshape(d, stop - start),
            normals[start * m : stop * m].reshape(m, stop - start),
        ))
    shapes = [(w.shape - i) / 2.0 for i in range(d)]
    ready, failed, helper = threading.Semaphore(1), [], None
    if chunks:
        _fill(rng, shapes, *chunks[0])
    if len(chunks) > 1:
        helper = threading.Thread(target=_fill_rest, args=(rng, shapes, chunks[1:], ready, failed))
        helper.start()
    try:
        for start, (g, z) in zip(starts, chunks):
            ready.acquire()
            if failed:
                raise failed[0]
            np.sqrt(np.multiply(g, 2.0, out=g), out=g)
            batch_bartlett(L, g.T, z.T, out=out[start : start + _CHUNK])
    finally:
        if helper is not None:
            helper.join()
    return out


def _fill(rng: np.random.Generator, shapes: list, gammas: np.ndarray, normals: np.ndarray) -> None:
    """Draw one chunk's randoms in the stream order: row i of `gammas` from
    standard_gamma(shapes[i]), row by row, then `normals`."""
    for row, shape in zip(gammas, shapes):
        rng.standard_gamma(shape, out=row)
    rng.standard_normal(out=normals)


def _fill_rest(
    rng: np.random.Generator, shapes: list, chunks: list, ready: threading.Semaphore, failed: list
) -> None:
    """Fill `chunks` in order, releasing `ready` once per chunk.  An error
    is recorded in `failed` and one permit released: the caller tests
    `failed` after every acquire, so it raises at the first one after the
    error and waits on no other."""
    try:
        for gammas, normals in chunks:
            _fill(rng, shapes, gammas, normals)
            ready.release()
    except BaseException as exc:  # re-raised on the calling thread
        failed.append(exc)
        ready.release()


def sample_wishart(w: WishartParams, rng: np.random.Generator) -> PDMatrix:
    """Single Bartlett draw; PD with probability 1."""
    return pdcore.make_pd(sample_wishart_batch(w, 1, rng)[0])


@raise_fp_errors
def iw_log_pdf(w: WishartParams, C: PDMatrix) -> float:
    """log density of C = P^{-1} for P ~ w = W(S^{-1}, nu), that is
    log IW(C | S, nu) = log W(C^{-1} | S^{-1}, nu) - (d+1) log|C|
    = -((nu + d + 1)/2) log|C| - tr(C^{-1} S)/2 - log Z, with log Z the
    normaliser of W(S^{-1}, nu).

    Evaluated from the factors without inverting C:
    tr(C^{-1} S) = ||L_C^{-1} L_S||_F^2.
    """
    d = w.dim
    if C.dim != d:
        raise DimensionMismatch(f"iw_log_pdf: dims {C.dim} vs {d}")
    nu = w.shape
    trace = float(np.sum(pdcore.whiten(C, w.scale_inv.factor) ** 2))
    return float(
        -(nu + d + 1) / 2.0 * C.logdet - 0.5 * trace - w.log_normaliser
    )


def iw_mode(w: WishartParams) -> PDMatrix:
    """Mode S / (nu + d + 1) of C = P^{-1} for P ~ w."""
    return pdcore.make_pd(w.scale_inv.entries / (w.shape + w.dim + 1))
