"""Conjugate posterior updates, MAP estimators, non-informative limits and
maximum-likelihood estimators for known and unknown mean.

The unknown-mean prior counts as alpha pseudo-observations with mean m and
centered scatter alpha Sigma, which `posterior_unknown` merges with the data
by `merge_stats`, the pairwise rule of Chan, Golub & LeVeque (1979).

The non-informative (alpha = 0) path is an exact substitution into the
posterior formulas, never a tiny-alpha evaluation.  It and the ML estimator
share one set of preconditions (`_limit_scatter`): a finite known mean of
length d, n >= d for a known mean or n >= d + 1 for an unknown one, and a
full-rank scatter / n.  Both divide that scatter by n, so the MAP of the
limit equals the ML estimate bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pdcore
from .errors import DimensionMismatch, InsufficientData, KLWishartError, NotPositiveDefinite
from .klpriors import KLNormalWishartPrior, KLWishartPrior, _classical
from .pdcore import PDMatrix, raise_fp_errors
from .wishart import WishartParams


@dataclass(frozen=True)
class SufficientStats:
    """(n, sample mean, centered scatter): everything a posterior needs.  The
    count may be a real pseudocount, as in a prior's (alpha, m, alpha Sigma)."""

    count: float
    sample_mean: np.ndarray
    centered_scatter: np.ndarray

    @property
    def dim(self) -> int:
        return self.sample_mean.shape[0]


def _observations(data) -> np.ndarray:
    """data as a float array in C order, so reductions over rows sum in the
    same order for every input layout; DimensionMismatch if rows differ in
    length, KLWishartError if a value is NaN or infinite."""
    try:
        x = np.asarray(data, dtype=float, order="C")
    except ValueError as exc:
        if len({np.shape(row) for row in data}) > 1:
            raise DimensionMismatch("observations have inconsistent lengths") from exc
        raise
    if not np.isfinite(x).all():
        raise KLWishartError("observations must be finite")
    return x


@raise_fp_errors
def suff_stats(data) -> SufficientStats:
    """Two-pass reduction of (n, d) observations: mean first, then the
    centered scatter.  Raises InsufficientData for no rows, DimensionMismatch
    for ragged rows or input that is not (n, d), and KLWishartError for a
    NaN or infinite value."""
    x = _observations(data)
    if x.ndim > 0 and len(x) == 0:
        raise InsufficientData("need at least one observation")
    if x.ndim != 2:
        raise DimensionMismatch(
            f"suff_stats: expected (n, d) observations, got shape {x.shape}"
        )
    mean = x.mean(axis=0)
    centered = x - mean
    scatter = centered.T @ centered
    scatter = 0.5 * (scatter + scatter.T)
    return SufficientStats(count=x.shape[0], sample_mean=mean, centered_scatter=scatter)


@raise_fp_errors
def merge_stats(a: SufficientStats, b: SufficientStats) -> SufficientStats:
    """Parallel combination; associative up to rounding."""
    if a.dim != b.dim:
        raise DimensionMismatch("merge_stats: dimension mismatch")
    n = a.count + b.count
    mean = (a.count * a.sample_mean + b.count * b.sample_mean) / n
    delta = a.sample_mean - b.sample_mean
    scatter = (
        a.centered_scatter
        + b.centered_scatter
        + (a.count * b.count / n) * np.outer(delta, delta)
    )
    return SufficientStats(count=n, sample_mean=mean, centered_scatter=scatter)


@dataclass(frozen=True)
class PosteriorKnownMean:
    """Wishart posterior over the precision, with pseudo_total = n + alpha
    as computed; the shape follows from it by the known-mean rule of
    `klpriors._classical`."""

    wishart: WishartParams
    pseudo_total: np.float64


@dataclass(frozen=True)
class PosteriorNormalWishart:
    """Posterior in the same (mode, pseudocount) form as the prior."""

    pseudocount_post: float
    mean_post: np.ndarray
    mode_cov_post: PDMatrix

    def as_prior(self) -> KLNormalWishartPrior:
        """Family closure: the posterior is a valid prior for the next batch."""
        return KLNormalWishartPrior(
            prior_mean=self.mean_post,
            mode_cov=self.mode_cov_post,
            pseudocount=self.pseudocount_post,
        )


def _scatter_about(stats: SufficientStats, mu: np.ndarray) -> np.ndarray:
    """sum_i (x_i - mu)(x_i - mu)' from the centered statistics."""
    delta = stats.sample_mean - mu
    return stats.centered_scatter + stats.count * np.outer(delta, delta)


@raise_fp_errors
def posterior_known_mean(prior: KLWishartPrior, data) -> PosteriorKnownMean:
    """S-bar = alpha Sigma + D'D with rows D = x_i - mu and pseudocount
    n + alpha, from which `klpriors._classical` sets the shape.

    Empty data is allowed: the posterior is then the prior.  Ragged rows, or
    rows not of length d, raise DimensionMismatch.
    """
    d = prior.dim
    x = _observations(data)
    if x.shape == (0,):
        x = x.reshape(0, d)
    if x.ndim != 2 or x.shape[1] != d:
        raise DimensionMismatch("posterior_known_mean: observation length vs prior")
    delta = x - prior.known_mean
    s_bar = prior.pseudocount * prior.mode_cov.entries + delta.T @ delta
    total = x.shape[0] + prior.pseudocount
    wish = _classical(s_bar, total, known_mean=True)
    return PosteriorKnownMean(wishart=wish, pseudo_total=total)


def map_known_mean(post: PosteriorKnownMean) -> PDMatrix:
    """MAP precision (n + alpha) S-bar^{-1}; equals the Wishart mode."""
    return pdcore.inverse(pdcore.make_pd(map_known_mean_cov(post)))


@raise_fp_errors
def map_known_mean_cov(post: PosteriorKnownMean) -> np.ndarray:
    """Inverse of the MAP precision: S-bar / (n + alpha)."""
    return post.wishart.scale_inv.entries / post.pseudo_total


@raise_fp_errors
def posterior_unknown(
    prior: KLNormalWishartPrior, stats: SufficientStats
) -> PosteriorNormalWishart:
    """Exact conjugate update in (mode, pseudocount) form: the prior's alpha
    pseudo-observations merged with the data, then Sigma* = scatter / count.
    A prior of another dimension raises `merge_stats`'s DimensionMismatch."""
    alpha = prior.pseudocount
    pseudo = SufficientStats(alpha, prior.prior_mean, alpha * prior.mode_cov.entries)
    merged = merge_stats(pseudo, stats)
    return PosteriorNormalWishart(
        pseudocount_post=merged.count,
        mean_post=merged.sample_mean,
        mode_cov_post=pdcore.make_pd(merged.centered_scatter / merged.count),
    )


def map_unknown(post: PosteriorNormalWishart):
    """MAP estimate (mu-hat, P-hat^{-1}) = (m*, Sigma*)."""
    return post.mean_post, post.mode_cov_post


def _limit_scatter(stats: SufficientStats, known_mu, what: str):
    """Preconditions shared by the alpha = 0 limit and the ML estimate.

    Returns (mu, scatter about mu, make_pd(scatter / n)), where mu is
    known_mu or the sample mean.  Raises DimensionMismatch for a known_mu
    not of length d, KLWishartError for a non-finite one, and
    InsufficientData for n < d (known mean), n < d + 1 (unknown mean) or a
    rank-deficient scatter.
    """
    d = stats.dim
    if known_mu is None:
        mu, scatter = stats.sample_mean.copy(), stats.centered_scatter
        min_n, need = d + 1, "d + 1 (centering costs one count)"
        label, about = f"unknown-mean {what}", "centered scatter"
    else:
        mu = pdcore.finite_vector(known_mu, d, "known_mu")
        scatter = _scatter_about(stats, mu)
        min_n, need = d, "d"
        label, about = f"known-mean {what}", "scatter about the known mean"
    if stats.count < min_n:
        raise InsufficientData(f"{label} needs n >= {need}; got n={stats.count}, d={d}")
    try:
        cov = pdcore.make_pd(scatter / stats.count)
    except NotPositiveDefinite as exc:
        raise InsufficientData(f"{about} is rank-deficient (rank < {d}): {exc}") from exc
    return mu, scatter, cov


@raise_fp_errors
def noninformative_posterior(stats: SufficientStats, known_mu=None):
    """Jaynes limit: exact alpha = 0 substitution into the posterior.

    Known mean (known_mu given): returns a PosteriorKnownMean with the
    scatter about mu and pseudocount n, shaped by `klpriors._classical`.
    Unknown mean: returns a PosteriorNormalWishart with alpha* = n,
    m* = x-bar, Sigma* = S0-tilde / n.
    Preconditions and errors are those of `_limit_scatter`.

    The limit does not depend on the prior mode Sigma that alpha scales,
    so none is taken (tests/test_inference.py checks this against tiny
    alpha).
    """
    mu, scatter, cov = _limit_scatter(stats, known_mu, "limit")
    if known_mu is None:
        return PosteriorNormalWishart(
            pseudocount_post=float(stats.count), mean_post=mu, mode_cov_post=cov
        )
    total = np.float64(stats.count)
    wish = _classical(scatter, total, known_mean=True)
    return PosteriorKnownMean(wishart=wish, pseudo_total=total)


@raise_fp_errors
def ml_estimate(stats: SufficientStats, known_mu=None):
    """Maximum-likelihood (mu-hat, cov-hat) from the statistics alone; same
    preconditions as the non-informative limit, whose MAP it equals bitwise."""
    mu, scatter, _ = _limit_scatter(stats, known_mu, "ML")
    return mu, scatter / stats.count
