"""Mode-and-pseudocount priors for the Gaussian precision (and mean).

A prior is elicited as (mode covariance Sigma, pseudocount alpha > 0):
its log-density is a scaled negative KL divergence between Gaussians, up
to a constant.  Classical Wishart / normal-Wishart parameters are derived
read-only views, never inputs.

The shape follows from the pseudocount, and only `_classical` computes it:
a scatter S built from a pseudocount t gives W(S^{-1}, nu) with
nu = t + d + 1 for a known mean and nu = t + d for an unknown one.  The
prior views (S = alpha Sigma, t = alpha) and the known-mean posteriors in
`inference` (S-bar, t = n + alpha) all call it.

The unknown-mean prior acts as alpha pseudo-observations with mean m and
centered scatter alpha Sigma, which `inference.merge_stats` merges with data.

A prior is never mutated after construction, so its classical Wishart view
is built by `_view` on the first `to_wishart` / `to_normal_wishart` call
and kept on the prior: every density evaluated against one prior reuses
one S = alpha Sigma and its factor.  The view is lazy because most priors
(each posterior's `as_prior` in an online update) are never evaluated.
"""

from __future__ import annotations

import math

import numpy as np

from . import pdcore
from .errors import KLWishartError, NotPositiveDefinite
from .gaussian import LOG_2PI
from .pdcore import PDMatrix, raise_fp_errors
from .wishart import WishartParams, wishart_log_pdf


def _check_alpha(alpha: float) -> np.float64:
    """alpha as a numpy scalar, so arithmetic on it obeys raise_fp_errors."""
    if not math.isfinite(alpha):
        raise KLWishartError(f"pseudocount alpha must be finite; got {alpha}")
    if not alpha > 0:
        raise KLWishartError(
            "pseudocount alpha must be strictly positive; the alpha = 0 "
            "limit is taken in the posterior, not the prior"
        )
    return np.float64(alpha)


class KLWishartPrior:
    """Known-mean precision prior with mode Sigma^{-1} and pseudocount alpha.

    Never mutated after construction; `to_wishart` caches its view here.
    """

    __slots__ = ("mode_cov", "pseudocount", "known_mean", "_wishart")

    def __init__(self, mode_cov: PDMatrix, pseudocount: float, known_mean):
        self.known_mean = pdcore.finite_vector(known_mean, mode_cov.dim, "known_mean")
        self.mode_cov = mode_cov
        self.pseudocount = _check_alpha(pseudocount)
        self._wishart = None

    @property
    def dim(self) -> int:
        return self.mode_cov.dim


class KLNormalWishartPrior:
    """Unknown-mean prior with mode (m, Sigma^{-1}) and pseudocount alpha.

    Never mutated after construction; `to_normal_wishart` caches its
    Wishart part here.
    """

    __slots__ = ("prior_mean", "mode_cov", "pseudocount", "_wishart")

    def __init__(self, prior_mean, mode_cov: PDMatrix, pseudocount: float):
        self.prior_mean = pdcore.finite_vector(prior_mean, mode_cov.dim, "prior_mean")
        self.mode_cov = mode_cov
        self.pseudocount = _check_alpha(pseudocount)
        self._wishart = None

    @property
    def dim(self) -> int:
        return self.mode_cov.dim


def _classical(scatter, count, known_mean: bool) -> WishartParams:
    """W(S^{-1}, nu) with S = make_pd(scatter) and nu = count + d + 1 for a
    known mean, count + d for an unknown one."""
    s = pdcore.make_pd(scatter)
    nu = count + s.dim
    return WishartParams(scale_inv=s, shape=nu + 1 if known_mean else nu)


def _view(p, known_mean: bool) -> WishartParams:
    """W for S = alpha Sigma at pseudocount alpha, built once and kept on p;
    NotPositiveDefinite naming alpha if alpha Sigma underflows."""
    if p._wishart is None:
        try:
            p._wishart = _classical(p.pseudocount * p.mode_cov.entries, p.pseudocount, known_mean)
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(
                f"alpha * Sigma is not positive definite at alpha={p.pseudocount:g}: {exc}"
            ) from exc
    return p._wishart


@raise_fp_errors
def to_wishart(p: KLWishartPrior) -> WishartParams:
    """Classical view: W with S = alpha Sigma, nu = alpha + d + 1; built on
    the first call and the same object on every later one."""
    return _view(p, known_mean=True)


@raise_fp_errors
def to_normal_wishart(p: KLNormalWishartPrior):
    """Classical view: (W(S = alpha Sigma, nu = alpha + d), m, alpha).

    The last element scales the conditional mean precision: mu | P is
    Gaussian with precision alpha P.  The Wishart part is built on the first
    call and the same object on every later one.
    """
    return _view(p, known_mean=False), p.prior_mean, p.pseudocount


def log_density_wishart_prior(p: KLWishartPrior, P: PDMatrix) -> float:
    """log prior density of a precision matrix; equals
    -alpha KL(N(mu, Sigma) || N(mu, P^{-1})) up to a constant."""
    return wishart_log_pdf(to_wishart(p), P)


@raise_fp_errors
def log_density_nw_prior(p: KLNormalWishartPrior, mu, P: PDMatrix) -> float:
    """Joint log prior density of (mu, P); equals
    -alpha KL(N(m, Sigma) || N(mu, P^{-1})) up to a constant."""
    mu = pdcore.finite_vector(mu, p.dim, "mu")
    wish, m, alpha = to_normal_wishart(p)
    d = p.dim
    # log N(mu | m, (alpha P)^{-1}), from P's own factor.
    log_cond = -0.5 * (
        d * LOG_2PI - d * math.log(alpha) - P.logdet + alpha * pdcore.quad_form(mu - m, P)
    )
    return float(wishart_log_pdf(wish, P) + log_cond)
