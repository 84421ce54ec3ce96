"""Multivariate Gaussian: log-density, entropy, closed-form KL, expected
log-likelihood.

Gaussians are stored in covariance form.  `_log_density` and `_kl` are the
one copy of the log-density and of the KL, which every caller feeds its own
terms.  Densities and KL apply the covariance's cached inverse Cholesky
factor L^{-1} (`pdcore.whiten`), so none of them forms the inverse
covariance.  All computation stays in the log domain.

A `GaussianStack` holds T Gaussians: a (T, d) mean with a `pdcore.PDStack`
covariance.  `logpdf_stack` and `kl_stack` evaluate every member in one
call and return one value per member.
"""

from __future__ import annotations

import math

import numpy as np

from . import pdcore
from .errors import DimensionMismatch, KLWishartError
from .pdcore import PDMatrix, PDStack, raise_fp_errors

LOG_2PI = math.log(2.0 * math.pi)


class Gaussian:
    """Mean vector plus PDMatrix covariance; a `PDStack` covariance raises
    DimensionMismatch (it goes in a `GaussianStack`)."""

    __slots__ = ("mean", "cov")

    def __init__(self, mean, cov: PDMatrix):
        pdcore._one_matrix(cov, "Gaussian covariance")
        self.mean = pdcore.finite_vector(mean, (cov.dim,), "Gaussian mean")
        self.cov = cov

    @property
    def dim(self) -> int:
        return self.cov.dim


class GaussianStack:
    """T Gaussians: a (T, d) stack of means with a PDStack of covariances."""

    __slots__ = ("mean", "cov")

    def __init__(self, mean, cov: PDStack):
        self.mean = pdcore.finite_vector(mean, (len(cov), cov.dim), "Gaussian mean")
        self.cov = cov

    @property
    def dim(self) -> int:
        return self.cov.dim


def _log_density(d: int, logdet, maha):
    """-(1/2)(d log 2 pi + log|cov| + maha): the one copy of the Gaussian
    log-density, for one value or an array of them."""
    return -0.5 * (d * LOG_2PI + logdet + maha)


def _kl(p: Gaussian, q, trace, maha):
    """(1/2)(tr(cov_q^{-1} cov_p) + maha - d + log|cov_q| - log|cov_p|): the
    one copy of the Gaussian KL, for one q or for each member of a stack."""
    return 0.5 * (trace + maha - p.dim + q.cov.logdet - p.cov.logdet)


@raise_fp_errors
def logpdf(g: Gaussian, x) -> float | np.ndarray:
    """log N(x | mean, cov): a float for one point x of shape (d,), an (n,)
    array for the rows of an (n, d) array."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != g.dim:
        raise DimensionMismatch(f"point {x.shape} vs dim {g.dim}")
    # Mahalanobis term ||L^{-1} delta||^2, every row in one whiten.
    try:
        y = pdcore.whiten(g.cov, (x - g.mean).T)
    except FloatingPointError:
        # A NaN or infinite x ends here too; testing x only on this path
        # keeps the check off the per-point cost.
        if not pdcore._all_finite(x):
            raise KLWishartError("point x must be finite") from None
        raise
    # y.dot(y) is y @ y's dot product without matmul's ufunc dispatch.
    maha = float(y.dot(y)) if x.ndim == 1 else np.sum(y * y, axis=0)
    return _log_density(g.dim, g.cov.logdet, maha)


@raise_fp_errors
def logpdf_stack(g: GaussianStack, x) -> np.ndarray:
    """log N(x_j | mean_k, cov_k) for the rows x_j of an (n, d) array and
    each member k of a stack, a (T, n) array: every row under every member
    in one whiten."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != g.dim:
        raise DimensionMismatch(f"points {x.shape} vs dim {g.dim}")
    if not pdcore._all_finite(x):
        raise KLWishartError("point x must be finite")
    y = pdcore.whiten(g.cov, (x - g.mean[:, None, :]).swapaxes(1, 2))
    return _log_density(g.dim, g.cov.logdet[:, None], np.sum(y * y, axis=1))


def entropy(g: Gaussian) -> float:
    """Differential entropy: minus `_log_density` at its expected Mahalanobis term, d."""
    return -_log_density(g.dim, g.cov.logdet, g.dim)


@raise_fp_errors
def kl(p: Gaussian, q: Gaussian) -> float:
    """KL(p || q) between multivariate Gaussians, exact closed form."""
    if p.dim != q.dim:
        raise DimensionMismatch(f"kl: dims {p.dim} vs {q.dim}")
    # tr(Sigma_q^{-1} Sigma_p) = ||L_q^{-1} L_p||_F^2, and the Mahalanobis
    # term is ||L_q^{-1} (m_q - m_p)||^2.
    m = pdcore.whiten(q.cov, p.cov.factor)
    y = pdcore.whiten(q.cov, q.mean - p.mean)
    # KL >= 0; only rounding takes the closed form below zero.
    return max(float(_kl(p, q, np.sum(m * m), y @ y)), 0.0)


@raise_fp_errors
def kl_stack(p: Gaussian, q: GaussianStack) -> np.ndarray:
    """KL(p || q_k) from one Gaussian p to each member of a stack q, a (T,)
    array: `kl`'s closed form, each member's terms summed as one row."""
    if p.dim != q.dim:
        raise DimensionMismatch(f"kl_stack: dims {p.dim} vs {q.dim}")
    m = pdcore.whiten(q.cov, p.cov.factor)
    y = pdcore.whiten(q.cov, (q.mean - p.mean)[:, :, None])
    trace = (m * m).reshape(len(m), -1).sum(axis=1)
    return np.maximum(_kl(p, q, trace, np.sum(y * y, axis=(1, 2))), 0.0)


@raise_fp_errors
def expected_loglik(p: Gaussian, mu, prec: PDMatrix) -> float:
    """E_{x~p}[log N(x | mu, prec^{-1})], exact.

    Equals -KL(p || N(mu, prec^{-1})) - entropy(p), by `_log_density`.
    """
    mu = pdcore.finite_vector(mu, (p.dim,), "mu")
    maha = pdcore.trace_product(prec, p.cov) + pdcore.quad_form(p.mean - mu, prec)
    return float(_log_density(p.dim, -prec.logdet, maha))
