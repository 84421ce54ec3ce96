import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from klwishart import gaussian, klpriors, pdcore, wishart
from klwishart.errors import KLWishartError
from klwishart.gaussian import Gaussian
from klwishart.klpriors import KLNormalWishartPrior, KLWishartPrior


def random_pd(d, rng):
    a = rng.standard_normal((d, d))
    return pdcore.make_pd(a @ a.T + d * np.eye(d))


class TestToWishart:
    def test_identity_mapping(self):
        p = KLWishartPrior(
            mode_cov=pdcore.make_pd(np.eye(2)), pseudocount=3.0, known_mean=np.zeros(2)
        )
        w = klpriors.to_wishart(p)
        assert np.allclose(w.scale_inv.entries, 3.0 * np.eye(2))
        assert w.shape == 6.0

    def test_small_alpha_stays_valid(self):
        d = 3
        p = KLWishartPrior(
            mode_cov=pdcore.make_pd(np.eye(d)),
            pseudocount=1e-12,
            known_mean=np.zeros(d),
        )
        w = klpriors.to_wishart(p)
        assert w.shape == pytest.approx(d + 1)
        wishart.validate_shape(w.shape, d)

    def test_mode_is_sigma_inverse(self):
        rng = np.random.default_rng(1)
        sigma = random_pd(3, rng)
        p = KLWishartPrior(mode_cov=sigma, pseudocount=2.5, known_mean=np.zeros(3))
        mode = wishart.wishart_mode(klpriors.to_wishart(p))
        assert np.allclose(mode.entries, pdcore.inverse(sigma).entries, atol=1e-10)

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 1.0, 10.0, 1000.0])
    def test_shape_constraint_all_alpha(self, alpha):
        for d in (1, 2, 5):
            p = KLWishartPrior(
                mode_cov=pdcore.make_pd(np.eye(d)),
                pseudocount=alpha,
                known_mean=np.zeros(d),
            )
            wishart.validate_shape(klpriors.to_wishart(p).shape, d)
            nw = KLNormalWishartPrior(
                prior_mean=np.zeros(d),
                mode_cov=pdcore.make_pd(np.eye(d)),
                pseudocount=alpha,
            )
            wish, _, _ = klpriors.to_normal_wishart(nw)
            wishart.validate_shape(wish.shape, d)


class TestViewCache:
    # The classical view is built once per prior, on the first call, and
    # densities through it equal those through a freshly built one bitwise.
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_same_view_and_bitwise_densities(self, d, monkeypatch):
        rng = np.random.default_rng(d + 60)
        sigma, mu, m, alpha = random_pd(d, rng), rng.standard_normal(d), rng.standard_normal(d), 0.7 * d
        calls = []
        make_pd = pdcore.make_pd
        monkeypatch.setattr(pdcore, "make_pd", lambda raw: calls.append(1) or make_pd(raw))
        prior_w = KLWishartPrior(sigma, alpha, mu)
        prior_nw = KLNormalWishartPrior(m, sigma, alpha)
        assert calls == []
        view = klpriors.to_wishart(prior_w)
        assert klpriors.to_wishart(prior_w) is view
        assert klpriors.to_normal_wishart(prior_nw)[0] is klpriors.to_normal_wishart(prior_nw)[0]
        assert len(calls) == 2
        for _ in range(10):
            p, point = random_pd(d, rng), rng.standard_normal(d)
            fresh = wishart.WishartParams(make_pd(alpha * sigma.entries), alpha + d + 1)
            assert klpriors.log_density_wishart_prior(prior_w, p) == wishart.wishart_log_pdf(fresh, p)
            assert klpriors.log_density_nw_prior(prior_nw, point, p) == klpriors.log_density_nw_prior(
                KLNormalWishartPrior(m, sigma, alpha), point, p
            )


class TestToNormalWishart:
    def test_unit_example(self):
        p = KLNormalWishartPrior(
            prior_mean=np.zeros(2), mode_cov=pdcore.make_pd(np.eye(2)), pseudocount=1.0
        )
        wish, mean, scale = klpriors.to_normal_wishart(p)
        assert np.allclose(wish.scale_inv.entries, np.eye(2))
        assert wish.shape == 3.0
        assert np.allclose(mean, np.zeros(2))
        assert scale == 1.0

    def test_fractional_alpha_valid(self):
        p = KLNormalWishartPrior(
            prior_mean=np.zeros(2), mode_cov=pdcore.make_pd(np.eye(2)), pseudocount=0.5
        )
        wish, _, _ = klpriors.to_normal_wishart(p)
        assert wish.shape == 2.5
        assert wish.shape > 1.0  # d - 1

    def test_wishart_factor_mode_vs_joint_mode(self):
        # Wishart factor alone peaks at ((alpha-1)/alpha) Sigma^{-1}; the
        # joint density in P still peaks at Sigma^{-1}.
        rng = np.random.default_rng(3)
        sigma = random_pd(2, rng)
        alpha = 4.0
        p = KLNormalWishartPrior(
            prior_mean=np.array([0.4, -1.0]), mode_cov=sigma, pseudocount=alpha
        )
        wish, _, _ = klpriors.to_normal_wishart(p)
        factor_mode = wishart.wishart_mode(wish)
        sigma_inv = pdcore.inverse(sigma)
        assert np.allclose(
            factor_mode.entries, (alpha - 1) / alpha * sigma_inv.entries, atol=1e-10
        )
        joint_at = lambda q: klpriors.log_density_nw_prior(p, p.prior_mean, q)
        at_mode = joint_at(sigma_inv)
        for _ in range(50):
            noise = rng.standard_normal((2, 2)) * 0.05
            pert = pdcore.make_pd(sigma_inv.entries + noise @ noise.T + 0.01 * np.eye(2))
            assert joint_at(pert) < at_mode


class TestAlphaValidation:
    def test_zero_alpha_rejected(self):
        with pytest.raises(KLWishartError):
            KLWishartPrior(
                mode_cov=pdcore.make_pd(np.eye(2)),
                pseudocount=0.0,
                known_mean=np.zeros(2),
            )
        with pytest.raises(KLWishartError):
            KLNormalWishartPrior(
                prior_mean=np.zeros(2),
                mode_cov=pdcore.make_pd(np.eye(2)),
                pseudocount=-1.0,
            )


class TestKnownMeanDensity:
    def test_mode_at_sigma_inverse(self):
        rng = np.random.default_rng(5)
        sigma = random_pd(3, rng)
        p = KLWishartPrior(
            mode_cov=sigma, pseudocount=1.7, known_mean=rng.standard_normal(3)
        )
        sigma_inv = pdcore.inverse(sigma)
        at_mode = klpriors.log_density_wishart_prior(p, sigma_inv)
        for _ in range(50):
            noise = rng.standard_normal((3, 3)) * 0.05
            pert = pdcore.make_pd(
                sigma_inv.entries + noise @ noise.T + 0.01 * np.eye(3)
            )
            assert klpriors.log_density_wishart_prior(p, pert) < at_mode

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_kl_residual_constant(self, d):
        rng = np.random.default_rng(d + 10)
        sigma = random_pd(d, rng)
        mu = rng.standard_normal(d)
        alpha = 0.8
        p = KLWishartPrior(mode_cov=sigma, pseudocount=alpha, known_mean=mu)
        base = Gaussian(mu, sigma)
        residuals = []
        for _ in range(100):
            prec = random_pd(d, rng)
            residuals.append(
                klpriors.log_density_wishart_prior(p, prec)
                + alpha * gaussian.kl(base, Gaussian(mu, pdcore.inverse(prec)))
            )
        assert max(residuals) - min(residuals) < 1e-9

    def test_scalar_density_ratio(self):
        # d=1, Sigma=1, alpha=2: density ratio between P=2 and P=1 equals
        # exp(-2 [KL(1||1/2) - KL(1||1)]).
        p = KLWishartPrior(
            mode_cov=pdcore.make_pd([[1.0]]), pseudocount=2.0, known_mean=np.zeros(1)
        )
        base = Gaussian([0.0], pdcore.make_pd([[1.0]]))
        log_ratio = klpriors.log_density_wishart_prior(
            p, pdcore.make_pd([[2.0]])
        ) - klpriors.log_density_wishart_prior(p, pdcore.make_pd([[1.0]]))
        kl_half = gaussian.kl(base, Gaussian([0.0], pdcore.make_pd([[0.5]])))
        kl_one = gaussian.kl(base, Gaussian([0.0], pdcore.make_pd([[1.0]])))
        assert log_ratio == pytest.approx(-2.0 * (kl_half - kl_one), abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
    def test_mode_invariant_under_alpha(self, alpha):
        rng = np.random.default_rng(29)
        sigma = random_pd(2, rng)
        p = KLWishartPrior(mode_cov=sigma, pseudocount=alpha, known_mean=np.zeros(2))
        sigma_inv = pdcore.inverse(sigma)
        at_mode = klpriors.log_density_wishart_prior(p, sigma_inv)
        for _ in range(30):
            noise = rng.standard_normal((2, 2)) * 0.02
            pert = pdcore.make_pd(sigma_inv.entries + noise @ noise.T + 0.005 * np.eye(2))
            assert klpriors.log_density_wishart_prior(p, pert) < at_mode


class TestNormalWishartDensity:
    def test_joint_mode(self):
        rng = np.random.default_rng(7)
        sigma = random_pd(2, rng)
        m = rng.standard_normal(2)
        p = KLNormalWishartPrior(prior_mean=m, mode_cov=sigma, pseudocount=2.2)
        sigma_inv = pdcore.inverse(sigma)
        at_mode = klpriors.log_density_nw_prior(p, m, sigma_inv)
        for _ in range(50):
            mu = m + rng.standard_normal(2) * 0.1
            noise = rng.standard_normal((2, 2)) * 0.05
            pert = pdcore.make_pd(sigma_inv.entries + noise @ noise.T + 0.01 * np.eye(2))
            assert klpriors.log_density_nw_prior(p, mu, pert) < at_mode

    @pytest.mark.parametrize("mu", [[np.nan, 0.0], [0.0, -np.inf]], ids=["nan", "inf"])
    def test_non_finite_mu_rejected(self, mu):
        p = KLNormalWishartPrior([0.0, 0.0], pdcore.make_pd(np.eye(2)), 2.0)
        with pytest.raises(KLWishartError, match="must be finite"):
            klpriors.log_density_nw_prior(p, mu, pdcore.make_pd(np.eye(2)))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_kl_residual_constant(self, d):
        rng = np.random.default_rng(d + 20)
        sigma = random_pd(d, rng)
        m = rng.standard_normal(d)
        alpha = 1.3
        p = KLNormalWishartPrior(prior_mean=m, mode_cov=sigma, pseudocount=alpha)
        base = Gaussian(m, sigma)
        residuals = []
        for _ in range(100):
            prec = random_pd(d, rng)
            mu = rng.standard_normal(d)
            residuals.append(
                klpriors.log_density_nw_prior(p, mu, prec)
                + alpha * gaussian.kl(base, Gaussian(mu, pdcore.inverse(prec)))
            )
        assert max(residuals) - min(residuals) < 1e-9

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_matches_wishart_times_scipy_normal(self, d):
        rng = np.random.default_rng(d + 70)
        sigma = random_pd(d, rng)
        m = rng.standard_normal(d)
        alpha = 1.7
        p = KLNormalWishartPrior(prior_mean=m, mode_cov=sigma, pseudocount=alpha)
        wish, _, _ = klpriors.to_normal_wishart(p)
        for _ in range(20):
            prec = random_pd(d, rng)
            mu = rng.standard_normal(d)
            expected = wishart.wishart_log_pdf(wish, prec) + multivariate_normal.logpdf(
                mu, m, np.linalg.inv(alpha * prec.entries)
            )
            assert klpriors.log_density_nw_prior(p, mu, prec) == pytest.approx(
                expected, rel=1e-12, abs=0.0
            )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pseudodata_identity(self, d):
        # log density minus alpha * expected log-likelihood of the mode
        # Gaussian is constant in (mu, P).
        rng = np.random.default_rng(d + 30)
        sigma = random_pd(d, rng)
        m = rng.standard_normal(d)
        alpha = 0.6
        p = KLNormalWishartPrior(prior_mean=m, mode_cov=sigma, pseudocount=alpha)
        base = Gaussian(m, sigma)
        residuals = []
        for _ in range(100):
            prec = random_pd(d, rng)
            mu = rng.standard_normal(d)
            residuals.append(
                klpriors.log_density_nw_prior(p, mu, prec)
                - alpha * gaussian.expected_loglik(base, mu, prec)
            )
        assert max(residuals) - min(residuals) < 1e-9
