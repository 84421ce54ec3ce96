import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from klwishart import gaussian, inference, klpriors, pdcore, wishart
from klwishart.errors import DimensionMismatch, InsufficientData, KLWishartError
from klwishart.gaussian import Gaussian
from klwishart.klpriors import KLNormalWishartPrior, KLWishartPrior


def random_pd(d, rng):
    a = rng.standard_normal((d, d))
    return pdcore.make_pd(a @ a.T + d * np.eye(d))


class TestSuffStats:
    def test_hand_example(self):
        s = inference.suff_stats([(1.0, 0.0), (-1.0, 0.0)])
        assert s.count == 2
        assert np.allclose(s.sample_mean, [0.0, 0.0])
        assert np.allclose(s.centered_scatter, np.diag([2.0, 0.0]))

    def test_single_point(self):
        s = inference.suff_stats([(3.0, 4.0)])
        assert s.count == 1
        assert np.allclose(s.sample_mean, [3.0, 4.0])
        assert np.allclose(s.centered_scatter, np.zeros((2, 2)))

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((20, 3))
        shift = np.array([10.0, -5.0, 2.0])
        a = inference.suff_stats(data)
        b = inference.suff_stats(data + shift)
        assert np.allclose(b.sample_mean, a.sample_mean + shift)
        assert np.allclose(b.centered_scatter, a.centered_scatter, atol=1e-10)

    def test_empty(self):
        with pytest.raises(InsufficientData):
            inference.suff_stats([])

    def test_ragged(self):
        with pytest.raises(DimensionMismatch):
            inference.suff_stats([(1.0, 2.0), (1.0,)])

    def test_one_dimensional_input_raises(self):
        with pytest.raises(DimensionMismatch):
            inference.suff_stats([1.0, 2.0, 3.0])

    def test_array_equals_list_of_tuples_bitwise(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((257, 3)) * [1.0, 10.0, 0.1] + [5.0, -3.0, 1e3]
        a = inference.suff_stats(data)
        b = inference.suff_stats([tuple(row) for row in data.tolist()])
        assert a.count == b.count == 257
        assert np.array_equal(a.sample_mean, b.sample_mean)
        assert np.array_equal(a.centered_scatter, b.centered_scatter)

    def test_merge_matches_concat(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((30, 2))
        a = inference.suff_stats(data[:12])
        b = inference.suff_stats(data[12:])
        merged = inference.merge_stats(a, b)
        full = inference.suff_stats(data)
        assert merged.count == full.count
        assert np.allclose(merged.sample_mean, full.sample_mean, atol=1e-12)
        assert np.allclose(merged.centered_scatter, full.centered_scatter, atol=1e-10)


_IDENTITY_PRIOR = KLWishartPrior(
    mode_cov=pdcore.make_pd(np.eye(2)), pseudocount=1.0, known_mean=np.zeros(2)
)


@pytest.mark.parametrize(
    "call",
    [inference.suff_stats, lambda data: inference.posterior_known_mean(_IDENTITY_PRIOR, data)],
    ids=["suff_stats", "posterior_known_mean"],
)
def test_non_numeric_entry_raises_numpys_value_error(call):
    # Not a library error: numpy's conversion error passes through unchanged.
    with pytest.raises(ValueError, match="^could not convert string to float: 'a'$"):
        call([["a", "b"]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_observations_reject_one_non_finite_entry_last_in_a_large_array(bad):
    x = np.zeros((100_000, 3))
    x[-1, -1] = bad
    with pytest.raises(KLWishartError, match="^observations must be finite$"):
        inference._observations(x)
    x[-1, -1] = 0.0
    assert inference._observations(x) is x


class TestPosteriorKnownMean:
    def test_hand_example(self):
        prior = KLWishartPrior(
            mode_cov=pdcore.make_pd(np.eye(2)), pseudocount=2.0, known_mean=np.zeros(2)
        )
        post = inference.posterior_known_mean(prior, [(1.0, 0.0), (0.0, 1.0)])
        assert np.allclose(post.wishart.scale_inv.entries, 3.0 * np.eye(2))
        assert post.wishart.shape == 7.0

    def test_empty_data_gives_prior(self):
        rng = np.random.default_rng(3)
        sigma = random_pd(2, rng)
        prior = KLWishartPrior(mode_cov=sigma, pseudocount=1.5, known_mean=np.zeros(2))
        post = inference.posterior_known_mean(prior, [])
        ref = klpriors.to_wishart(prior)
        assert post.wishart.scale_inv.entries.tobytes() == ref.scale_inv.entries.tobytes()
        assert post.wishart.shape.tobytes() == ref.shape.tobytes()

    def test_pseudo_total_is_n_plus_alpha_exactly(self):
        # Recovering n + alpha from the shape, (n + alpha + d + 1) - d - 1,
        # loses low bits for many of these (n, alpha, d).
        rng = np.random.default_rng(17)
        for d in (1, 2, 3, 5):
            prior_rows = rng.standard_normal((29, d))
            for alpha in (0.1, 0.3, 0.7, 1.1, 1.0 / 3.0, 2.9, 1e-3, 12.34):
                prior = KLWishartPrior(pdcore.make_pd(np.eye(d)), alpha, np.zeros(d))
                for n in range(1, 30):
                    post = inference.posterior_known_mean(prior, prior_rows[:n])
                    assert post.pseudo_total == n + alpha
                    assert post.wishart.shape == n + alpha + d + 1

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_matches_per_row_outer_sum(self, d):
        rng = np.random.default_rng(d)
        mu = rng.standard_normal(d)
        sigma = random_pd(d, rng)
        prior = KLWishartPrior(mode_cov=sigma, pseudocount=2.5, known_mean=mu)
        data = rng.standard_normal((300, d)) * 3.0 + mu
        ref = prior.pseudocount * prior.mode_cov.entries.copy()
        for x in data:
            ref += np.outer(x - mu, x - mu)
        post = inference.posterior_known_mean(prior, data)
        assert np.allclose(post.wishart.scale_inv.entries, ref, rtol=1e-12, atol=0.0)
        assert post.wishart.shape == 300 + 2.5 + d + 1

    def test_one_dimensional_input_raises(self):
        prior = KLWishartPrior(
            mode_cov=pdcore.make_pd(np.eye(1)), pseudocount=1.0, known_mean=np.zeros(1)
        )
        with pytest.raises(DimensionMismatch):
            inference.posterior_known_mean(prior, [1.0, 2.0])

    def test_ragged_rows_raise(self):
        prior = KLWishartPrior(
            mode_cov=pdcore.make_pd(np.eye(2)), pseudocount=1.0, known_mean=np.zeros(2)
        )
        with pytest.raises(DimensionMismatch):
            inference.posterior_known_mean(prior, [(1.0, 2.0), (1.0,)])

    def test_conjugacy_residual(self):
        rng = np.random.default_rng(5)
        d, n = 2, 8
        sigma = random_pd(d, rng)
        mu = rng.standard_normal(d)
        prior = KLWishartPrior(mode_cov=sigma, pseudocount=1.0, known_mean=mu)
        data = rng.standard_normal((n, d))
        post = inference.posterior_known_mean(prior, data)
        residuals = []
        for _ in range(100):
            prec = random_pd(d, rng)
            cov = pdcore.inverse(prec)
            lik = sum(gaussian.logpdf(Gaussian(mu, cov), x) for x in data)
            residuals.append(
                wishart.wishart_log_pdf(post.wishart, prec)
                - klpriors.log_density_wishart_prior(prior, prec)
                - lik
            )
        assert max(residuals) - min(residuals) < 1e-8


class TestMapKnownMean:
    def test_hand_example(self):
        prior = KLWishartPrior(
            mode_cov=pdcore.make_pd(np.eye(2)), pseudocount=2.0, known_mean=np.zeros(2)
        )
        post = inference.posterior_known_mean(prior, [(1.0, 0.0), (0.0, 1.0)])
        assert np.allclose(inference.map_known_mean_cov(post), 0.75 * np.eye(2))
        assert np.allclose(
            inference.map_known_mean(post).entries, (4.0 / 3.0) * np.eye(2)
        )

    def test_equals_wishart_mode(self):
        rng = np.random.default_rng(7)
        prior = KLWishartPrior(
            mode_cov=random_pd(3, rng), pseudocount=0.7, known_mean=rng.standard_normal(3)
        )
        post = inference.posterior_known_mean(prior, rng.standard_normal((10, 3)))
        a = inference.map_known_mean(post).entries
        b = wishart.wishart_mode(post.wishart).entries
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_one_cholesky_and_the_scatters_own_inverse_factor(self, monkeypatch):
        # One make_pd; the only solve is S-bar's cached L^{-1}, made once.
        calls = []
        for name in ("cholesky", "solve"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(np.linalg, name, counted)
        rng = np.random.default_rng(12)
        prior = KLWishartPrior(
            mode_cov=random_pd(3, rng), pseudocount=2.0, known_mean=rng.standard_normal(3)
        )
        post = inference.posterior_known_mean(prior, rng.standard_normal((16, 3)))
        for expected in (["solve", "cholesky"], ["cholesky"]):
            calls.clear()
            inference.map_known_mean(post)
            assert calls == expected
        assert post.wishart.scale_inv._inverse_factor is not None

    def test_iw_mode_factor(self):
        # inverse of the MAP precision differs from the IW mode by
        # (n + alpha + 2d + 2) / (n + alpha) exactly
        rng = np.random.default_rng(11)
        d, n, alpha = 2, 6, 1.5
        prior = KLWishartPrior(
            mode_cov=random_pd(d, rng), pseudocount=alpha, known_mean=np.zeros(d)
        )
        post = inference.posterior_known_mean(prior, rng.standard_normal((n, d)))
        map_cov = inference.map_known_mean_cov(post)
        iw_mode = wishart.iw_mode(post.wishart).entries
        factor = (n + alpha + 2 * d + 2) / (n + alpha)
        assert np.allclose(map_cov, factor * iw_mode, rtol=1e-12)


class TestPosteriorUnknown:
    def test_hand_example(self):
        prior = KLNormalWishartPrior(
            prior_mean=np.zeros(2), mode_cov=pdcore.make_pd(np.eye(2)), pseudocount=1.0
        )
        stats = inference.suff_stats([(2.0, 0.0)])
        post = inference.posterior_unknown(prior, stats)
        assert post.pseudocount_post == 2.0
        assert np.allclose(post.mean_post, [1.0, 0.0])
        # alpha* Sigma* = I + 0 + (1*1/2) diag(4, 0) = diag(3, 1)
        assert np.allclose(2.0 * post.mode_cov_post.entries, np.diag([3.0, 1.0]))
        assert np.allclose(post.mode_cov_post.entries, np.diag([1.5, 0.5]))

    def test_coupling_vanishes_at_prior_mean(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((10, 2))
        stats = inference.suff_stats(data)
        sigma = random_pd(2, rng)
        prior = KLNormalWishartPrior(
            prior_mean=stats.sample_mean, mode_cov=sigma, pseudocount=2.0
        )
        post = inference.posterior_unknown(prior, stats)
        expected = (2.0 * sigma.entries + stats.centered_scatter) / post.pseudocount_post
        assert np.allclose(post.mode_cov_post.entries, expected, atol=1e-12)

    def test_conjugacy_residual(self):
        rng = np.random.default_rng(17)
        d, n = 2, 7
        sigma = random_pd(d, rng)
        m = rng.standard_normal(d)
        prior = KLNormalWishartPrior(prior_mean=m, mode_cov=sigma, pseudocount=0.9)
        data = rng.standard_normal((n, d))
        stats = inference.suff_stats(data)
        post = inference.posterior_unknown(prior, stats)
        residuals = []
        for _ in range(100):
            prec = random_pd(d, rng)
            cov = pdcore.inverse(prec)
            mu = rng.standard_normal(d)
            lik = sum(gaussian.logpdf(Gaussian(mu, cov), x) for x in data)
            residuals.append(
                klpriors.log_density_nw_prior(post.as_prior(), mu, prec)
                - klpriors.log_density_nw_prior(prior, mu, prec)
                - lik
            )
        assert max(residuals) - min(residuals) < 1e-8

    def test_family_closure_two_batches(self):
        rng = np.random.default_rng(19)
        for split_seed in range(50):
            srng = np.random.default_rng(split_seed)
            d = int(srng.integers(1, 4))
            n = int(srng.integers(4, 30))
            data = np.random.default_rng(1000 + split_seed).standard_normal((n, d))
            k = int(srng.integers(1, n))
            prior = KLNormalWishartPrior(
                prior_mean=srng.standard_normal(d),
                mode_cov=random_pd(d, srng),
                # dyadic alpha keeps pseudocount addition exact in floating point
                pseudocount=0.25 * float(srng.integers(1, 9)),
            )
            post1 = inference.posterior_unknown(prior, inference.suff_stats(data[:k]))
            post2 = inference.posterior_unknown(
                post1.as_prior(), inference.suff_stats(data[k:])
            )
            full = inference.posterior_unknown(prior, inference.suff_stats(data))
            assert post2.pseudocount_post == full.pseudocount_post
            assert np.allclose(post2.mean_post, full.mean_post, atol=1e-12)
            assert np.allclose(
                post2.mode_cov_post.entries,
                full.mode_cov_post.entries,
                rtol=1e-10,
                atol=1e-12,
            )
            # Known mean: the next prior is rebuilt from the posterior's
            # (Sigma*, alpha*).
            mu = srng.standard_normal(d)
            known = KLWishartPrior(prior.mode_cov, prior.pseudocount, mu)
            post1 = inference.posterior_known_mean(known, data[:k])
            rebuilt = KLWishartPrior(
                pdcore.make_pd(inference.map_known_mean_cov(post1)), post1.pseudo_total, mu
            )
            post2 = inference.posterior_known_mean(rebuilt, data[k:])
            full = inference.posterior_known_mean(known, data)
            assert post2.wishart.shape == full.wishart.shape
            assert np.allclose(
                post2.wishart.scale_inv.entries,
                full.wishart.scale_inv.entries,
                rtol=1e-10,
                atol=1e-12,
            )


class TestPosteriorUnknownIsAMerge:
    # The prior counts as alpha pseudo-observations merged by merge_stats;
    # the result is bitwise the closed form written out term by term.
    @staticmethod
    def closed_form(prior, stats):
        alpha, n = prior.pseudocount, stats.count
        alpha_post = alpha + n
        mean_post = (alpha * prior.prior_mean + n * stats.sample_mean) / alpha_post
        delta = prior.prior_mean - stats.sample_mean
        scaled_mode = (
            alpha * prior.mode_cov.entries
            + stats.centered_scatter
            + (n * alpha / (n + alpha)) * np.outer(delta, delta)
        )
        return alpha_post, mean_post, pdcore.make_pd(scaled_mode / alpha_post).entries

    @pytest.mark.parametrize("alpha", [1e-3, 0.3, 1.0, 2.5, 7.0, 1e3])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_bitwise_closed_form(self, d, alpha):
        rng = np.random.default_rng(d * 1000 + int(alpha * 10))
        for n in (1, 2, d + 1, 17, 200):
            prior = KLNormalWishartPrior(
                prior_mean=rng.standard_normal(d), mode_cov=random_pd(d, rng), pseudocount=alpha
            )
            stats = inference.suff_stats(rng.standard_normal((n, d)) * 3.0 + 1.0)
            post = inference.posterior_unknown(prior, stats)
            alpha_post, mean_post, cov_post = self.closed_form(prior, stats)
            assert post.pseudocount_post == alpha_post
            assert post.mean_post.tobytes() == mean_post.tobytes()
            assert post.mode_cov_post.entries.tobytes() == cov_post.tobytes()


class TestMapUnknown:
    def test_hand_example(self):
        prior = KLNormalWishartPrior(
            prior_mean=np.zeros(2), mode_cov=pdcore.make_pd(np.eye(2)), pseudocount=1.0
        )
        post = inference.posterior_unknown(prior, inference.suff_stats([(2.0, 0.0)]))
        mu_hat, cov_hat = inference.map_unknown(post)
        assert np.allclose(mu_hat, [1.0, 0.0])
        assert np.allclose(cov_hat.entries, np.diag([1.5, 0.5]))

    def test_prior_only_mode(self):
        # zero-data posterior is the prior; its MAP is (m, Sigma)
        rng = np.random.default_rng(23)
        sigma = random_pd(2, rng)
        m = rng.standard_normal(2)
        prior = KLNormalWishartPrior(prior_mean=m, mode_cov=sigma, pseudocount=1.2)
        post = inference.PosteriorNormalWishart(
            pseudocount_post=prior.pseudocount,
            mean_post=prior.prior_mean,
            mode_cov_post=prior.mode_cov,
        )
        mu_hat, cov_hat = inference.map_unknown(post)
        assert np.allclose(mu_hat, m)
        assert np.allclose(cov_hat.entries, sigma.entries)


class TestNoninformative:
    def test_known_mean(self):
        rng = np.random.default_rng(29)
        d, n = 2, 10
        mu = np.array([0.5, -0.5])
        data = rng.standard_normal((n, d)) + mu
        stats = inference.suff_stats(data)
        post = inference.noninformative_posterior(stats, known_mu=mu)
        assert post.wishart.shape == n + d + 1
        assert type(post.pseudo_total) is np.float64 and post.pseudo_total == n
        scatter = sum(np.outer(x - mu, x - mu) for x in data)
        assert np.allclose(post.wishart.scale_inv.entries, scatter, atol=1e-10)
        assert np.allclose(
            inference.map_known_mean_cov(post), scatter / n, atol=1e-10
        )

    def test_unknown_mean(self):
        rng = np.random.default_rng(31)
        data = rng.standard_normal((12, 3))
        stats = inference.suff_stats(data)
        post = inference.noninformative_posterior(stats)
        assert post.pseudocount_post == 12.0
        assert np.allclose(post.mean_post, stats.sample_mean)
        assert np.allclose(
            post.mode_cov_post.entries, stats.centered_scatter / 12.0, atol=1e-12
        )

    def test_collinear_rejected(self):
        stats = inference.suff_stats([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(InsufficientData):
            inference.noninformative_posterior(stats, known_mu=np.zeros(2))

    def test_too_few_points_rejected(self):
        stats = inference.suff_stats([(1.0, 0.0, 0.0)])
        with pytest.raises(InsufficientData):
            inference.noninformative_posterior(stats, known_mu=np.zeros(3))
        rng = np.random.default_rng(37)
        stats3 = inference.suff_stats(rng.standard_normal((3, 3)))
        with pytest.raises(InsufficientData):
            inference.noninformative_posterior(stats3)  # needs n >= d + 1

    @pytest.mark.parametrize("known", [True, False], ids=["known_mean", "unknown_mean"])
    def test_tiny_alpha_matches_limit_from_any_direction(self, known):
        # The alpha -> 0 limit does not depend on the prior mode Sigma.
        rng = np.random.default_rng(41)
        data = rng.standard_normal((20, 2))
        stats = inference.suff_stats(data)
        mu = np.zeros(2)
        tiny = 1e-8
        if known:
            limit_post = inference.noninformative_posterior(stats, known_mu=mu)
            limit = inference.map_known_mean_cov(limit_post)
        else:
            limit = inference.noninformative_posterior(stats).mode_cov_post.entries
        for sigma in (random_pd(2, rng), pdcore.make_pd(np.eye(2))):
            if known:
                prior = KLWishartPrior(mode_cov=sigma, pseudocount=tiny, known_mean=mu)
                post = inference.posterior_known_mean(prior, data)
                approx = inference.map_known_mean_cov(post)
            else:
                prior = KLNormalWishartPrior(
                    prior_mean=stats.sample_mean, mode_cov=sigma, pseudocount=tiny
                )
                approx = inference.posterior_unknown(prior, stats).mode_cov_post.entries
            assert np.linalg.norm(approx - limit) <= 1e-6 * np.linalg.norm(limit)


class TestMLEstimate:
    def test_equals_noninformative_map_bitwise(self):
        rng = np.random.default_rng(43)
        data = rng.standard_normal((15, 3))
        stats = inference.suff_stats(data)
        mu = np.array([0.1, 0.2, 0.3])

        post_k = inference.noninformative_posterior(stats, known_mu=mu)
        _, ml_cov_k = inference.ml_estimate(stats, known_mu=mu)
        assert np.array_equal(inference.map_known_mean_cov(post_k), ml_cov_k)

        post_u = inference.noninformative_posterior(stats)
        ml_mu, ml_cov = inference.ml_estimate(stats)
        mu_hat, cov_hat = inference.map_unknown(post_u)
        assert np.array_equal(mu_hat, ml_mu)
        assert np.array_equal(cov_hat.entries, ml_cov)

    def test_scalar_hand_example(self):
        stats = inference.suff_stats([(-1.0,), (1.0,)])
        mu_hat, cov_hat = inference.ml_estimate(stats)
        assert mu_hat[0] == 0.0
        assert cov_hat[0, 0] == pytest.approx(1.0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(47)
        data = rng.standard_normal((20, 2))
        c = 3.0
        _, cov1 = inference.ml_estimate(inference.suff_stats(data))
        _, cov2 = inference.ml_estimate(inference.suff_stats(c * data))
        assert np.allclose(cov2, c * c * cov1, rtol=1e-12)

    def test_insufficient(self):
        stats = inference.suff_stats([(1.0, 2.0)])
        with pytest.raises(InsufficientData):
            inference.ml_estimate(stats, known_mu=np.zeros(2))

    def test_known_mu_length_mismatch_raises(self):
        stats = inference.suff_stats(np.random.default_rng(49).standard_normal((10, 2)))
        with pytest.raises(DimensionMismatch):
            inference.ml_estimate(stats, known_mu=[0.0])


class TestMapMLContinuity:
    def test_tiny_alpha_converges(self):
        rng = np.random.default_rng(53)
        d, n = 3, 50
        data = rng.standard_normal((n, d))
        stats = inference.suff_stats(data)
        ml_mu, ml_cov = inference.ml_estimate(stats)
        sigma = random_pd(d, rng)
        m = rng.standard_normal(d)
        prev_err = None
        for k in range(2, 7):
            alpha = 10.0 ** (-k)
            prior = KLNormalWishartPrior(prior_mean=m, mode_cov=sigma, pseudocount=alpha)
            post = inference.posterior_unknown(prior, stats)
            mu_hat, cov_hat = inference.map_unknown(post)
            err = np.linalg.norm(cov_hat.entries - ml_cov) / np.linalg.norm(ml_cov)
            bound = 10 * alpha * np.linalg.norm(sigma.entries) / np.linalg.norm(ml_cov)
            assert err < bound
            if prev_err is not None:
                assert err < prev_err
            prev_err = err


def test_dim_mismatch_posteriors():
    prior = KLWishartPrior(
        mode_cov=pdcore.make_pd(np.eye(2)), pseudocount=1.0, known_mean=np.zeros(2)
    )
    with pytest.raises(DimensionMismatch):
        inference.posterior_known_mean(prior, [(1.0, 2.0, 3.0)])
    nw = KLNormalWishartPrior(
        prior_mean=np.zeros(2), mode_cov=pdcore.make_pd(np.eye(2)), pseudocount=1.0
    )
    with pytest.raises(DimensionMismatch, match="merge_stats: dimension mismatch"):
        inference.posterior_unknown(nw, inference.suff_stats([(1.0, 2.0, 3.0)] * 4))


coords = st.floats(-1e3, 1e3)


@st.composite
def limit_cases(draw):
    """(n, d) rows with n in [d - 1, d + 3] (at least one row), and a known
    mean or None."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(max(1, d - 1), d + 3))
    x = draw(arrays(np.float64, (n, d), elements=coords))
    return x, draw(st.none() | arrays(np.float64, (d,), elements=coords))


@st.composite
def three_batches(draw):
    d = draw(st.integers(1, 4))
    return [draw(arrays(np.float64, (draw(st.integers(1, 6)), d), elements=coords)) for _ in range(3)]


class TestProperties:
    @given(limit_cases())
    def test_limit_map_equals_ml_or_same_error(self, case):
        x, mu = case
        stats = inference.suff_stats(x)

        def outcome(estimate):
            try:
                return estimate(stats, known_mu=mu)
            except KLWishartError as exc:
                return type(exc)

        post = outcome(inference.noninformative_posterior)
        ml = outcome(inference.ml_estimate)
        if isinstance(post, type) or isinstance(ml, type):
            assert post == ml
            return
        ml_mu, ml_cov = ml
        if mu is None:
            map_mu, map_cov = inference.map_unknown(post)
            assert np.array_equal(map_mu, ml_mu)
            assert np.array_equal(map_cov.entries, ml_cov)
        else:
            assert np.array_equal(inference.map_known_mean_cov(post), ml_cov)

    @given(three_batches())
    def test_merge_stats_associative_and_matches_concat(self, batches):
        a, b, c = map(inference.suff_stats, batches)
        left = inference.merge_stats(inference.merge_stats(a, b), c)
        right = inference.merge_stats(a, inference.merge_stats(b, c))
        full = inference.suff_stats(np.vstack(batches))
        scale = float(np.max(np.abs(np.vstack(batches))))
        # Rounding error grows with n max|x|^2; tiny covers products that
        # underflow, where that bound rounds to zero.
        tiny = np.finfo(float).tiny
        mean_tol = 1e-12 * scale + tiny
        scatter_tol = 1e-12 * full.count * scale**2 + tiny
        for p, q in ((left, right), (left, full), (right, full)):
            assert p.count == q.count
            assert np.all(np.abs(p.sample_mean - q.sample_mean) <= mean_tol)
            assert np.all(np.abs(p.centered_scatter - q.centered_scatter) <= scatter_tol)
