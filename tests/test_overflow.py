"""The library's numeric contract at its entry points: finite inputs whose
arithmetic overflows raise FloatingPointError without a RuntimeWarning, and
NaN or infinite values are rejected where they enter."""

import warnings

import numpy as np
import pytest

from klwishart import gaussian, inference, klpriors, pdcore, wishart
from klwishart.errors import InvalidShape, KLWishartError
from klwishart.gaussian import Gaussian
from klwishart.inference import PosteriorKnownMean, SufficientStats
from klwishart.klpriors import KLNormalWishartPrior, KLWishartPrior
from klwishart.wishart import WishartParams

pd = pdcore.make_pd
I2 = np.eye(2)
DATA = np.array([[1.0, 2.0], [3.0, 1.0], [0.0, 0.0], [2.0, 2.0]])


def _one(value):
    return pd([[value]])


# Entry point -> a call on finite inputs whose arithmetic overflows.
_OVERFLOW = {
    "make_pd": lambda: pd([[1.7e308]]),
    "inverse_of_subnormal": lambda: pdcore.inverse(_one(1e-310)),
    "trace_product": lambda: pdcore.trace_product(_one(1e200), _one(1e200)),
    "quad_form": lambda: pdcore.quad_form([1e200], _one(1e200)),
    "kl": lambda: gaussian.kl(Gaussian([0.0], _one(1e300)), Gaussian([0.0], _one(1e-300))),
    "kl_through_solve": lambda: gaussian.kl(
        Gaussian([1e300], _one(1.0)), Gaussian([0.0], _one(1e-300))
    ),
    "logpdf_point": lambda: gaussian.logpdf(Gaussian([0.0], _one(1.0)), [1e200]),
    "logpdf_rows": lambda: gaussian.logpdf(Gaussian([0.0], _one(1.0)), [[0.0], [1e200]]),
    # The whitening itself overflows (L^-1 = 1e150), so the finite point
    # takes the re-raise in logpdf's whiten handler.
    "logpdf_whiten": lambda: gaussian.logpdf(Gaussian([0.0], _one(1e-300)), [1e200]),
    # The trace (1.6e308) and quadratic (8.2e307) terms are finite; their
    # sum overflows.
    "expected_loglik": lambda: gaussian.expected_loglik(
        Gaussian([0.0], _one(8e307)), [6.4e153], _one(2.0)
    ),
    "sample_wishart_batch": lambda: wishart.sample_wishart_batch(
        WishartParams(_one(1e-300), 1e300), 2, np.random.default_rng(0)
    ),
    # Three chunks of draws: the kernel raises on the calling thread while
    # the helper thread may still be drawing the randoms of later chunks.
    "sample_wishart_batch_chunks": lambda: wishart.sample_wishart_batch(
        WishartParams(pd(I2 * 1e-300), 1e300), 2 * wishart._CHUNK + 1, np.random.default_rng(0)
    ),
    "multivariate_log_gamma": lambda: wishart.multivariate_log_gamma(1e305, 5),
    # (nu/2) log|S| overflows before log Gamma(nu/2) is reached.
    "log_normaliser": lambda: WishartParams(_one(1e300), 1e306).log_normaliser,
    # (nu - 2)/2 log|P| overflows while log Gamma(nu/2) is still finite.
    "wishart_log_pdf_shape": lambda: wishart.wishart_log_pdf(
        WishartParams(_one(1.0), 5.1e305), _one(8.9e307)
    ),
    "wishart_log_pdf_lgamma": lambda: wishart.wishart_log_pdf(
        WishartParams(_one(1.0), 1e306), _one(1.0)
    ),
    "wishart_log_pdf_trace": lambda: wishart.wishart_log_pdf(
        WishartParams(_one(1e300), 3.0), _one(1e300)
    ),
    "iw_log_pdf": lambda: wishart.iw_log_pdf(WishartParams(_one(1e300), 3.0), _one(1e-300)),
    "wishart_mean": lambda: wishart.wishart_mean(WishartParams(_one(1e-300), 1e300)),
    "wishart_mean_inverse": lambda: wishart.wishart_mean_inverse(
        WishartParams(_one(1e300), 2.0000000000000004)
    ),
    "wishart_mode": lambda: wishart.wishart_mode(WishartParams(_one(1e-300), 1e300)),
    "to_wishart": lambda: klpriors.to_wishart(KLWishartPrior(_one(1e300), 1e300, [0.0])),
    "to_normal_wishart": lambda: klpriors.to_normal_wishart(
        KLNormalWishartPrior([0.0], _one(1e300), 1e300)
    ),
    "log_density_nw_prior": lambda: klpriors.log_density_nw_prior(
        KLNormalWishartPrior([0.0, 0.0], pd(I2), 1e300), [1e10, 0.0], pd(I2)
    ),
    "suff_stats": lambda: inference.suff_stats([[1e200, 2e200], [-3e200, 1e200]]),
    "merge_stats": lambda: inference.merge_stats(
        SufficientStats(2, np.array([1e200, 0.0]), I2),
        SufficientStats(2, np.array([-1e200, 0.0]), I2),
    ),
    "posterior_known_mean": lambda: inference.posterior_known_mean(
        KLWishartPrior(pd(I2), 1.0, [0.0, 0.0]), [[1e200, 0.0]]
    ),
    "posterior_unknown": lambda: inference.posterior_unknown(
        KLNormalWishartPrior([0.0, 0.0], pd(I2), 1e308), inference.suff_stats(DATA)
    ),
    "noninformative_posterior": lambda: inference.noninformative_posterior(
        inference.suff_stats(DATA), known_mu=[1e200, 0.0]
    ),
    "ml_estimate": lambda: inference.ml_estimate(
        inference.suff_stats(DATA), known_mu=[1e200, 0.0]
    ),
    "map_known_mean_cov": lambda: inference.map_known_mean_cov(
        PosteriorKnownMean(WishartParams(_one(1e300), 3.0), 1e-300)
    ),
}


@pytest.mark.parametrize("call", _OVERFLOW.values(), ids=_OVERFLOW)
def test_overflow_raises_floating_point_error(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FloatingPointError):
            call()
    assert caught == []


def test_guard_restores_the_callers_error_state():
    # wishart_log_pdf calls the guarded trace_product, and
    # posterior_known_mean the guarded make_pd: a nested entry must leave the
    # caller's state too, raised or returned.  (numpy 1.x's errstate kept one
    # saved state per instance, so there the outer exit restored "raise".)
    before = np.geterr()
    for name in ("kl", "wishart_log_pdf_trace", "posterior_known_mean"):
        with pytest.raises(FloatingPointError):
            _OVERFLOW[name]()
        assert np.geterr() == before, name
    gaussian.kl(Gaussian([0.0], _one(2.0)), Gaussian([1.0], _one(1.0)))
    assert np.geterr() == before
    wishart.wishart_log_pdf(WishartParams(pd(I2), 3.0), pd(I2))
    assert np.geterr() == before
    inference.posterior_known_mean(KLWishartPrior(pd(I2), 1.0, [0.0, 0.0]), DATA)
    assert np.geterr() == before


# Entry point -> (a call with a NaN or infinite value, the error it raises).
_NON_FINITE = {
    "gaussian_mean": (lambda: Gaussian([np.nan, 0.0], pd(I2)), KLWishartError),
    "known_mean": (lambda: KLWishartPrior(pd(I2), 1.0, [0.0, np.inf]), KLWishartError),
    "prior_mean": (lambda: KLNormalWishartPrior([-np.inf, 0.0], pd(I2), 1.0), KLWishartError),
    "alpha_known_mean": (lambda: KLWishartPrior(pd(I2), np.inf, [0.0, 0.0]), KLWishartError),
    "alpha_unknown_mean": (
        lambda: KLNormalWishartPrior([0.0, 0.0], pd(I2), np.inf),
        KLWishartError,
    ),
    "wishart_shape": (lambda: WishartParams(pd(I2), np.inf), InvalidShape),
    "suff_stats_rows": (lambda: inference.suff_stats([[1.0, 2.0], [np.nan, 0.0]]), KLWishartError),
    "posterior_known_mean_rows": (
        lambda: inference.posterior_known_mean(
            KLWishartPrior(pd(I2), 1.0, [0.0, 0.0]), [[np.inf, 0.0]]
        ),
        KLWishartError,
    ),
    "noninformative_known_mu": (
        lambda: inference.noninformative_posterior(
            inference.suff_stats(DATA), known_mu=[np.nan, 0.0]
        ),
        KLWishartError,
    ),
}


@pytest.mark.parametrize("call, error", _NON_FINITE.values(), ids=_NON_FINITE)
def test_non_finite_value_rejected_where_it_enters(call, error):
    with pytest.raises(error, match="must be finite"):
        call()
