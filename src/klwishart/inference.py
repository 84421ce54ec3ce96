"""Conjugate posterior updates, MAP estimators, non-informative limits and
maximum-likelihood estimators for known and unknown mean.

The non-informative (alpha = 0) path is an exact substitution into the
posterior formulas, never a tiny-alpha evaluation, and shares its final
scatter/count division with the ML estimator so the two agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pdcore
from .errors import (
    DegenerateScatter,
    DimensionMismatch,
    EmptyData,
    InsufficientData,
    NotPositiveDefinite,
    RaggedData,
)
from .klpriors import KLNormalWishartPrior, KLWishartPrior
from .pdcore import PDMatrix
from .wishart import WishartParams


@dataclass(frozen=True)
class SufficientStats:
    """(n, sample mean, centered scatter): everything a posterior needs."""

    count: int
    sample_mean: np.ndarray
    centered_scatter: np.ndarray

    @property
    def dim(self) -> int:
        return self.sample_mean.shape[0]


def _observations(data) -> np.ndarray:
    """data as a float array in C order, so reductions over rows sum in the
    same order for every input layout; RaggedData if rows differ in length."""
    try:
        return np.asarray(data, dtype=float, order="C")
    except ValueError as exc:
        if len({np.shape(row) for row in data}) > 1:
            raise RaggedData("observations have inconsistent lengths") from exc
        raise


def suff_stats(data) -> SufficientStats:
    """Two-pass reduction of (n, d) observations: mean first, then the
    centered scatter."""
    x = _observations(data)
    if x.ndim > 0 and len(x) == 0:
        raise EmptyData("need at least one observation")
    if x.ndim != 2:
        raise DimensionMismatch(
            f"suff_stats: expected (n, d) observations, got shape {x.shape}"
        )
    mean = x.mean(axis=0)
    centered = x - mean
    scatter = centered.T @ centered
    scatter = 0.5 * (scatter + scatter.T)
    return SufficientStats(count=x.shape[0], sample_mean=mean, centered_scatter=scatter)


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
    """Wishart posterior over the precision; shape is n + alpha + d + 1."""

    wishart: WishartParams

    @property
    def pseudo_total(self) -> float:
        """n + alpha, recovered from the shape."""
        return self.wishart.shape - self.wishart.dim - 1


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


def _cov_from_scatter(scatter: np.ndarray, denom: float) -> np.ndarray:
    # Single shared division so alpha = 0 MAP and ML agree bitwise.
    return scatter / denom


def posterior_known_mean(prior: KLWishartPrior, data) -> PosteriorKnownMean:
    """S-bar = alpha Sigma + D'D with rows D = x_i - mu, shape n + alpha + d + 1.

    Empty data is allowed: the posterior is then the prior.
    """
    d = prior.dim
    mismatch = "posterior_known_mean: observation length vs prior"
    try:
        x = _observations(data)
    except RaggedData as exc:
        raise DimensionMismatch(mismatch) from exc
    if x.shape == (0,):
        x = x.reshape(0, d)
    if x.ndim != 2 or x.shape[1] != d:
        raise DimensionMismatch(mismatch)
    delta = x - prior.known_mean
    s_bar = prior.pseudocount * prior.mode_cov.entries + delta.T @ delta
    n = x.shape[0]
    wish = WishartParams(
        scale_inv=pdcore.make_pd(s_bar), shape=n + prior.pseudocount + d + 1
    )
    return PosteriorKnownMean(wishart=wish)


def map_known_mean(post: PosteriorKnownMean) -> PDMatrix:
    """MAP precision (n + alpha) S-bar^{-1}; equals the Wishart mode."""
    try:
        cov = pdcore.make_pd(map_known_mean_cov(post))
    except NotPositiveDefinite as exc:
        raise DegenerateScatter(str(exc)) from exc
    return pdcore.inverse(cov)


def map_known_mean_cov(post: PosteriorKnownMean) -> np.ndarray:
    """Inverse of the MAP precision: S-bar / (n + alpha)."""
    return _cov_from_scatter(post.wishart.scale_inv.entries, post.pseudo_total)


def posterior_unknown(
    prior: KLNormalWishartPrior, stats: SufficientStats
) -> PosteriorNormalWishart:
    """Exact conjugate update in (mode, pseudocount) form."""
    if stats.dim != prior.dim:
        raise DimensionMismatch("posterior_unknown: stats dim vs prior dim")
    alpha = prior.pseudocount
    n = stats.count
    alpha_post = alpha + n
    mean_post = (alpha * prior.prior_mean + n * stats.sample_mean) / alpha_post
    delta = prior.prior_mean - stats.sample_mean
    scaled_mode = (
        alpha * prior.mode_cov.entries
        + stats.centered_scatter
        + (n * alpha / (n + alpha)) * np.outer(delta, delta)
    )
    try:
        mode_cov = pdcore.make_pd(scaled_mode / alpha_post)
    except NotPositiveDefinite as exc:
        raise DegenerateScatter(str(exc)) from exc
    return PosteriorNormalWishart(
        pseudocount_post=alpha_post, mean_post=mean_post, mode_cov_post=mode_cov
    )


def map_unknown(post: PosteriorNormalWishart):
    """MAP estimate (mu-hat, P-hat^{-1}) = (m*, Sigma*)."""
    return post.mean_post, post.mode_cov_post


def noninformative_posterior(
    stats: SufficientStats,
    known_mu=None,
    sigma_direction: PDMatrix | None = None,
):
    """Jaynes limit: exact alpha = 0 substitution into the posterior.

    Known mean (known_mu given): requires n >= d and a full-rank scatter
    about mu; returns a PosteriorKnownMean with shape n + d + 1.
    Unknown mean: requires n >= d + 1 and full-rank centered scatter;
    returns a PosteriorNormalWishart with alpha* = n, m* = x-bar,
    Sigma* = S0-tilde / n.

    sigma_direction only names the direction the limit was approached
    from; the limit is independent of it, which is asserted (tiny-alpha
    cross-check) when a direction is supplied and assertions are enabled.
    """
    d = stats.dim
    if known_mu is not None:
        mu = np.asarray(known_mu, dtype=float)
        if mu.shape != (d,):
            raise DimensionMismatch("noninformative_posterior: known_mu length")
        if stats.count < d:
            raise InsufficientData(
                f"known-mean limit needs n >= d; got n={stats.count}, d={d}"
            )
        scatter = _scatter_about(stats, mu)
        try:
            s0 = pdcore.make_pd(scatter)
        except NotPositiveDefinite as exc:
            raise InsufficientData(
                f"scatter about the known mean is rank-deficient (rank < {d}): {exc}"
            ) from exc
        result = PosteriorKnownMean(
            wishart=WishartParams(scale_inv=s0, shape=stats.count + d + 1)
        )
        if sigma_direction is not None:
            assert _direction_independent_known(stats, mu, sigma_direction, result)
        return result

    if stats.count < d + 1:
        raise InsufficientData(
            f"unknown-mean limit needs n >= d + 1 (centering costs one count); "
            f"got n={stats.count}, d={d}"
        )
    try:
        mode_cov = pdcore.make_pd(
            _cov_from_scatter(stats.centered_scatter, float(stats.count))
        )
    except NotPositiveDefinite as exc:
        raise InsufficientData(
            f"centered scatter is rank-deficient (rank < {d}): {exc}"
        ) from exc
    result = PosteriorNormalWishart(
        pseudocount_post=float(stats.count),
        mean_post=stats.sample_mean.copy(),
        mode_cov_post=mode_cov,
    )
    if sigma_direction is not None:
        assert _direction_independent_unknown(stats, sigma_direction, result)
    return result


def _direction_independent_known(stats, mu, sigma_direction, limit) -> bool:
    tiny = 1e-8
    ref = map_known_mean_cov(limit)
    for sigma in (sigma_direction, pdcore.make_pd(np.eye(stats.dim))):
        s_bar = tiny * sigma.entries + _scatter_about(stats, mu)
        approx = s_bar / (stats.count + tiny)
        if np.linalg.norm(approx - ref) > 1e-6 * np.linalg.norm(ref):
            return False
    return True


def _direction_independent_unknown(stats, sigma_direction, limit) -> bool:
    tiny = 1e-8
    ref = limit.mode_cov_post.entries
    for sigma in (sigma_direction, pdcore.make_pd(np.eye(stats.dim))):
        prior = KLNormalWishartPrior(
            prior_mean=stats.sample_mean, mode_cov=sigma, pseudocount=tiny
        )
        post = posterior_unknown(prior, stats)
        if np.linalg.norm(post.mode_cov_post.entries - ref) > 1e-6 * np.linalg.norm(ref):
            return False
    return True


def ml_estimate(stats: SufficientStats, known_mu=None):
    """Maximum-likelihood (mu-hat, cov-hat); same rank conditions as the
    non-informative limit, with which it shares the final division."""
    d = stats.dim
    if known_mu is not None:
        mu = np.asarray(known_mu, dtype=float)
        if stats.count < d:
            raise InsufficientData(
                f"known-mean ML needs n >= d; got n={stats.count}, d={d}"
            )
        scatter = _scatter_about(stats, mu)
        cov = _cov_from_scatter(scatter, float(stats.count))
        try:
            pdcore.make_pd(cov)
        except NotPositiveDefinite as exc:
            raise InsufficientData(
                f"scatter about the known mean is rank-deficient: {exc}"
            ) from exc
        return mu, cov
    if stats.count < d + 1:
        raise InsufficientData(
            f"unknown-mean ML needs n >= d + 1; got n={stats.count}, d={d}"
        )
    cov = _cov_from_scatter(stats.centered_scatter, float(stats.count))
    try:
        pdcore.make_pd(cov)
    except NotPositiveDefinite as exc:
        raise InsufficientData(f"centered scatter is rank-deficient: {exc}") from exc
    return stats.sample_mean.copy(), cov
