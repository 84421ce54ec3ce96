import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as sp_gamma, invgamma as sp_invgamma

from klwishart import pdcore, wishart
from klwishart._kernels import batch_bartlett
from klwishart.errors import (
    DimensionMismatch,
    InvalidShape,
    NoInteriorMode,
    ShapeTooSmall,
)
from klwishart.wishart import InverseWishartParams, WishartParams


def random_pd(d, rng, spread=1.0):
    a = rng.standard_normal((d, d)) * spread
    return pdcore.make_pd(a @ a.T + d * np.eye(d))


def wp(v_entries, nu):
    """Construct from the scale matrix V."""
    v = pdcore.make_pd(v_entries)
    return WishartParams(scale_inv=pdcore.inverse(v), shape=nu)


class TestValidateShape:
    def test_ok(self):
        wishart.validate_shape(3.5, 3)

    def test_rank_deficient_regime(self):
        with pytest.raises(InvalidShape):
            wishart.validate_shape(2.0, 3)

    def test_boundary_excluded(self):
        with pytest.raises(InvalidShape):
            wishart.validate_shape(0.0, 1)

    def test_params_validate(self):
        with pytest.raises(InvalidShape):
            WishartParams(scale_inv=pdcore.make_pd(np.eye(3)), shape=1.9)
        with pytest.raises(InvalidShape):
            InverseWishartParams(scatter=pdcore.make_pd(np.eye(3)), shape=2.0)


class TestLogPdf:
    def test_scalar_gamma_oracle(self):
        # d=1: W(v, nu) is Gamma(shape nu/2, scale 2v)
        w = wp([[1.0]], 2.0)
        p = pdcore.make_pd([[1.0]])
        oracle = sp_gamma.logpdf(1.0, a=1.0, scale=2.0)
        assert oracle == pytest.approx(math.log(0.5 * math.exp(-0.5)), abs=1e-12)
        assert wishart.wishart_log_pdf(w, p) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("nu", [1.2, 2.0, 3.0, 5.0])
    def test_normalization_1d(self, nu):
        w = wp([[1.0]], nu)
        total, _ = quad(
            lambda x: math.exp(wishart.wishart_log_pdf(w, pdcore.make_pd([[x]]))),
            1e-12,
            200.0,
            limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_mode_maximizes(self):
        rng = np.random.default_rng(31)
        v = random_pd(3, rng)
        w = WishartParams(scale_inv=pdcore.inverse(v), shape=7.3)
        mode = wishart.wishart_mode(w)
        at_mode = wishart.wishart_log_pdf(w, mode)
        for _ in range(50):
            noise = rng.standard_normal((3, 3)) * 0.1
            pert = pdcore.make_pd(mode.entries + noise @ noise.T + 0.05 * np.eye(3))
            assert wishart.wishart_log_pdf(w, pert) < at_mode

    def test_dim_mismatch(self):
        w = wp(np.eye(2), 5.0)
        with pytest.raises(DimensionMismatch):
            wishart.wishart_log_pdf(w, pdcore.make_pd(np.eye(3)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_scaling_equivariance(self, d):
        # P ~ W(V, nu) implies A P A' ~ W(A V A', nu): change-of-variables
        # residual (d+1) log|det A|.
        rng = np.random.default_rng(d + 60)
        v = random_pd(d, rng)
        nu = d + 2.7
        w1 = WishartParams(scale_inv=pdcore.inverse(v), shape=nu)
        a = rng.standard_normal((d, d)) + 2 * np.eye(d)
        v2 = pdcore.make_pd(a @ v.entries @ a.T)
        w2 = WishartParams(scale_inv=pdcore.inverse(v2), shape=nu)
        for _ in range(10):
            p = random_pd(d, rng)
            p2 = pdcore.make_pd(a @ p.entries @ a.T)
            resid = (
                wishart.wishart_log_pdf(w1, p)
                - wishart.wishart_log_pdf(w2, p2)
                - (d + 1) * math.log(abs(np.linalg.det(a)))
            )
            assert abs(resid) < 1e-9


class TestMoments:
    def test_mean_identity_scale(self):
        d = 3
        w = wp(np.eye(d), float(d + 2))
        assert np.allclose(wishart.wishart_mean(w).entries, (d + 2) * np.eye(d))

    def test_mean_diag(self):
        w = wp(np.diag([1.0, 2.0]), 5.0)
        assert np.allclose(wishart.wishart_mean(w).entries, np.diag([5.0, 10.0]))

    def test_mean_inverse_scalar(self):
        w = WishartParams(scale_inv=pdcore.make_pd([[2.0]]), shape=4.0)
        assert wishart.wishart_mean_inverse(w).entries[0, 0] == pytest.approx(1.0)

    def test_mean_inverse_identity(self):
        w = WishartParams(scale_inv=pdcore.make_pd(np.eye(2)), shape=5.0)
        assert np.allclose(wishart.wishart_mean_inverse(w).entries, 0.5 * np.eye(2))

    def test_mean_inverse_shape_too_small(self):
        w = wp(np.eye(2), 2.5)
        with pytest.raises(ShapeTooSmall):
            wishart.wishart_mean_inverse(w)

    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(37)
        v = random_pd(2, rng)
        w = WishartParams(scale_inv=pdcore.inverse(v), shape=5.0)
        draws = wishart.sample_wishart_batch(w, 100_000, rng)
        exact = wishart.wishart_mean(w).entries
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - exact) < 3 * se)

    def test_monte_carlo_mean_inverse(self):
        rng = np.random.default_rng(41)
        w = WishartParams(scale_inv=pdcore.make_pd(np.eye(2)), shape=8.0)
        draws = wishart.sample_wishart_batch(w, 100_000, rng)
        inv = np.linalg.inv(draws)
        exact = wishart.wishart_mean_inverse(w).entries
        se = inv.std(axis=0, ddof=1) / math.sqrt(inv.shape[0])
        assert np.all(np.abs(inv.mean(axis=0) - exact) < 3 * se)


class TestMode:
    def test_identity_scale(self):
        w = wp(np.eye(2), 6.0)
        assert np.allclose(wishart.wishart_mode(w).entries, 3.0 * np.eye(2))

    def test_boundary_rejected(self):
        w = wp(np.eye(2), 3.0)  # nu = d + 1
        with pytest.raises(NoInteriorMode):
            wishart.wishart_mode(w)

    def test_local_optimality_rays(self):
        rng = np.random.default_rng(43)
        v = random_pd(2, rng)
        w = WishartParams(scale_inv=pdcore.inverse(v), shape=6.4)
        mode = wishart.wishart_mode(w)
        at_mode = wishart.wishart_log_pdf(w, mode)
        for _ in range(20):
            scale = 1.0 + rng.choice([-0.01, 0.01])
            pert = pdcore.make_pd(scale * mode.entries)
            assert wishart.wishart_log_pdf(w, pert) <= at_mode


class TestSampling:
    def test_scalar_monte_carlo(self):
        rng = np.random.default_rng(47)
        w = wp([[1.0]], 4.0)
        draws = wishart.sample_wishart_batch(w, 100_000, rng)[:, 0, 0]
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 4.0) < 3 * se

    def test_draw_is_pd(self):
        rng = np.random.default_rng(53)
        w = wp(np.eye(3), 2.5)  # nu < d + 1: still valid for sampling
        for _ in range(20):
            s = wishart.sample_wishart(w, rng)
            assert isinstance(s, pdcore.PDMatrix)

    def test_seed_determinism(self):
        w = wp(np.eye(2), 4.2)
        a = wishart.sample_wishart(w, np.random.default_rng(99)).entries
        b = wishart.sample_wishart(w, np.random.default_rng(99)).entries
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_batch_equals_kernel_on_cholesky_of_scale(self, d):
        rng = np.random.default_rng(d + 80)
        w = WishartParams(scale_inv=random_pd(d, rng), shape=d + 2.5)
        draws = wishart.sample_wishart_batch(w, 500, np.random.default_rng(5))
        same = np.random.default_rng(5)
        tdiag = np.sqrt(
            same.gamma(shape=(w.shape - np.arange(d)) / 2.0, scale=2.0, size=(500, d))
        )
        offd = same.standard_normal((500, d * (d - 1) // 2))
        L = np.linalg.cholesky(w.scale().entries)
        assert np.array_equal(draws, batch_bartlett(L, tdiag, offd))

    @pytest.mark.parametrize("d,nu", [(1, 1.5), (2, 3.5), (3, 4.2)])
    def test_sampler_moments(self, d, nu):
        rng = np.random.default_rng(d * 10 + 1)
        v = random_pd(d, rng)
        w = WishartParams(scale_inv=pdcore.inverse(v), shape=nu)
        draws = wishart.sample_wishart_batch(w, 100_000, rng)
        exact = nu * w.scale().entries
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - exact) < 3 * se)


class TestInverseWishart:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_jacobian_relation(self, d):
        rng = np.random.default_rng(d + 70)
        for _ in range(25):
            s = random_pd(d, rng)
            nu = d - 1 + 0.5 + 5 * rng.random()
            c = random_pd(d, rng)
            iw = InverseWishartParams(scatter=s, shape=nu)
            # matching Wishart W(S^{-1}, nu): scatter-side parameter is S
            w = WishartParams(scale_inv=s, shape=nu)
            lhs = wishart.iw_log_pdf(iw, c)
            rhs = wishart.wishart_log_pdf(w, pdcore.inverse(c)) - (d + 1) * c.logdet
            assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_matches_density_through_inverse(self, d):
        # The factor-based evaluation against the formula that inverts C.
        rng = np.random.default_rng(d + 90)
        for _ in range(40):
            s = random_pd(d, rng, spread=3.0)
            c = random_pd(d, rng, spread=0.5)
            nu = d - 1 + 0.5 + 8 * rng.random()
            iw = InverseWishartParams(scatter=s, shape=nu)
            w = WishartParams(scale_inv=s, shape=nu)
            expect = wishart.wishart_log_pdf(w, pdcore.inverse(c)) - (d + 1) * c.logdet
            assert wishart.iw_log_pdf(iw, c) == pytest.approx(expect, rel=1e-12)

    def test_scalar_invgamma_oracle(self):
        # d=1: IW(s, nu) is InvGamma(a = nu/2, scale = s/2)
        s, nu, x = 3.0, 4.5, 0.8
        iw = InverseWishartParams(scatter=pdcore.make_pd([[s]]), shape=nu)
        oracle = sp_invgamma.logpdf(x, a=nu / 2.0, scale=s / 2.0)
        assert wishart.iw_log_pdf(iw, pdcore.make_pd([[x]])) == pytest.approx(
            oracle, abs=1e-10
        )

    def test_iw_mode_maximizes(self):
        rng = np.random.default_rng(83)
        s = random_pd(2, rng)
        iw = InverseWishartParams(scatter=s, shape=6.0)
        mode = wishart.iw_mode(iw)
        assert np.allclose(mode.entries, s.entries / (6.0 + 2 + 1))
        at_mode = wishart.iw_log_pdf(iw, mode)
        for _ in range(50):
            noise = rng.standard_normal((2, 2)) * 0.05
            pert = pdcore.make_pd(mode.entries + noise @ noise.T + 0.01 * np.eye(2))
            assert wishart.iw_log_pdf(iw, pert) < at_mode

    def test_conversion(self):
        w = wp(np.diag([1.0, 2.0]), 5.0)
        iw = wishart.wishart_to_inverse(w)
        assert iw.shape == 5.0
        assert np.allclose(iw.scatter.entries, w.scale_inv.entries)


def test_multivariate_log_gamma_matches_scipy():
    from scipy.special import multigammaln

    for d in (1, 2, 3, 5):
        for a in (d / 2.0 + 0.3, 4.0, 10.5):
            assert wishart.multivariate_log_gamma(a, d) == pytest.approx(
                float(multigammaln(a, d)), abs=1e-10
            )
