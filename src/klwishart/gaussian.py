"""Multivariate Gaussian: log-density, entropy, closed-form KL, expected
log-likelihood.

Gaussians are stored in covariance form; precision-side callers convert once
via `pdcore.solve`.  All computation stays in the log domain.
"""

from __future__ import annotations

import math

import numpy as np

from . import pdcore
from .errors import DimensionMismatch
from .pdcore import PDMatrix

LOG_2PI = math.log(2.0 * math.pi)


class Gaussian:
    """Mean vector plus PDMatrix covariance."""

    __slots__ = ("mean", "cov")

    def __init__(self, mean, cov: PDMatrix):
        mean = np.asarray(mean, dtype=float)
        if mean.shape != (cov.dim,):
            raise DimensionMismatch(
                f"mean length {mean.shape} vs covariance dim {cov.dim}"
            )
        mean.setflags(write=False)
        self.mean = mean
        self.cov = cov

    @property
    def dim(self) -> int:
        return self.cov.dim

    def precision(self) -> PDMatrix:
        return pdcore.inverse(self.cov)


def logpdf(g: Gaussian, x) -> float:
    """log N(x | mean, cov)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.dim,):
        raise DimensionMismatch(f"point {x.shape} vs dim {g.dim}")
    delta = x - g.mean
    # Mahalanobis term via one solve against the factor: ||L^{-1} delta||^2.
    y = np.linalg.solve(g.cov.factor, delta)
    maha = float(y @ y)
    return -0.5 * (g.dim * LOG_2PI + g.cov.logdet + maha)


def entropy(g: Gaussian) -> float:
    """Differential entropy: (d/2)(1 + log 2 pi) + (1/2) log|cov|."""
    return 0.5 * (g.dim * (1.0 + LOG_2PI) + g.cov.logdet)


def kl(p: Gaussian, q: Gaussian) -> float:
    """KL(p || q) between multivariate Gaussians, exact closed form."""
    if p.dim != q.dim:
        raise DimensionMismatch(f"kl: dims {p.dim} vs {q.dim}")
    d = p.dim
    q_prec = q.precision()
    return 0.5 * (
        pdcore.trace_product(q_prec, p.cov)
        + pdcore.quad_form(q.mean - p.mean, q_prec)
        - d
        + q.cov.logdet
        - p.cov.logdet
    )


def expected_loglik(p: Gaussian, mu, prec: PDMatrix) -> float:
    """E_{x~p}[log N(x | mu, prec^{-1})], exact.

    Equals -KL(p || N(mu, prec^{-1})) - entropy(p).
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (p.dim,) or prec.dim != p.dim:
        raise DimensionMismatch("expected_loglik: dimension mismatch")
    return -0.5 * (
        p.dim * LOG_2PI
        - prec.logdet
        + pdcore.trace_product(prec, p.cov)
        + pdcore.quad_form(p.mean - mu, prec)
    )
