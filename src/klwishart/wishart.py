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

# Draws per kernel call in `sample_wishart_batch`: a whole number of kernel
# blocks, so every call but the last runs full blocks.  The normals of the
# first chunk and the kernel of the last one overlap nothing, so a chunk is
# kept short; a call of at most one chunk starts no thread.
_CHUNK = 2 * _BLOCK


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

    The randoms come from `rng` in one fixed order: all n x d gammas, then
    the n x d(d-1)/2 normals row by row, so a seed gives the same samples
    and leaves `rng` in the same state as drawing them all up front.  The
    calling thread draws the first _CHUNK rows of normals; when n > _CHUNK,
    one helper thread draws the rest in chunks of _CHUNK rows while the
    kernel runs on the calling thread, chunk by chunk, under this
    function's floating-point policy.  numpy's generator releases the
    interpreter lock while it draws, so the two run side by side on at
    most two cores.
    """
    d = w.dim
    nu = w.shape
    L = w.scale().factor
    tdiag = np.sqrt(rng.gamma(shape=(nu - np.arange(d)) / 2.0, scale=2.0, size=(n, d)))
    offd = np.empty((n, d * (d - 1) // 2))
    out = np.empty((n, d, d))
    rng.standard_normal(out=offd[:_CHUNK])
    ready, failed, helper = threading.Semaphore(1), [], None
    if n > _CHUNK:
        helper = threading.Thread(
            target=_draw_normals, args=(rng, offd[_CHUNK:], ready, failed)
        )
        helper.start()
    try:
        for start in range(0, n, _CHUNK):
            ready.acquire()
            if failed:
                raise failed[0]
            rows = slice(start, start + _CHUNK)
            batch_bartlett(L, tdiag[rows], offd[rows], out=out[rows])
    finally:
        if helper is not None:
            helper.join()
    return out


def _draw_normals(
    rng: np.random.Generator, offd: np.ndarray, ready: threading.Semaphore, failed: list
) -> None:
    """Fill offd with standard normals, _CHUNK rows at a time in order,
    releasing `ready` once per chunk.  An error is recorded in `failed` and
    one permit released: the caller tests `failed` after every acquire, so
    it raises at the first one after the error and waits on no other."""
    try:
        for start in range(0, len(offd), _CHUNK):
            rng.standard_normal(out=offd[start : start + _CHUNK])
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
