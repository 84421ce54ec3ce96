import math

import numpy as np
import pytest
from scipy.integrate import quad

from klwishart import gaussian, pdcore
from klwishart.errors import DimensionMismatch, KLWishartError
from klwishart.gaussian import Gaussian


def random_gaussian(d, rng):
    a = rng.standard_normal((d, d))
    cov = pdcore.make_pd(a @ a.T + d * np.eye(d))
    return Gaussian(rng.standard_normal(d), cov)


class TestLogpdf:
    def test_standard_scalar(self):
        g = Gaussian([0.0], pdcore.make_pd([[1.0]]))
        # scalar normal formula: -x^2/2 - log sqrt(2 pi)
        oracle = -0.0 - 0.5 * math.log(2 * math.pi)
        assert gaussian.logpdf(g, [0.0]) == pytest.approx(oracle, abs=1e-12)

    def test_standard_2d(self):
        g = Gaussian([0.0, 0.0], pdcore.make_pd(np.eye(2)))
        assert gaussian.logpdf(g, [0.0, 0.0]) == pytest.approx(
            -math.log(2 * math.pi), abs=1e-12
        )

    def test_symmetry_about_mean(self):
        rng = np.random.default_rng(2)
        g = random_gaussian(3, rng)
        shift = rng.standard_normal(3)
        assert gaussian.logpdf(g, g.mean + shift) == pytest.approx(
            gaussian.logpdf(g, g.mean - shift), abs=1e-12
        )

    def test_dim_mismatch(self):
        g = Gaussian([0.0], pdcore.make_pd([[1.0]]))
        with pytest.raises(DimensionMismatch):
            gaussian.logpdf(g, [0.0, 1.0])

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_rows_match_per_point(self, d):
        rng = np.random.default_rng(d + 60)
        g = random_gaussian(d, rng)
        x = rng.standard_normal((40, d)) * 3.0
        values = gaussian.logpdf(g, x)
        assert values.shape == (40,)
        expected = [gaussian.logpdf(g, row) for row in x]
        assert np.allclose(values, expected, rtol=0.0, atol=1e-12)
        assert gaussian.logpdf(g, x[:0]).shape == (0,)

    @pytest.mark.parametrize(
        "shape", [(4, 3), (), (2, 4, 2)], ids=["n_by_d_plus_1", "0d", "3d"]
    )
    def test_batch_shape_mismatch(self, shape):
        g = Gaussian([0.0, 1.0], pdcore.make_pd(np.eye(2)))
        with pytest.raises(DimensionMismatch):
            gaussian.logpdf(g, np.zeros(shape))

    @pytest.mark.parametrize(
        "x",
        [[np.nan, 0.0], [0.0, -np.inf], [[0.0, 0.0], [np.inf, 1.0]]],
        ids=["nan_point", "inf_point", "inf_row"],
    )
    def test_non_finite_point_rejected(self, x):
        g = Gaussian([0.0, 1.0], pdcore.make_pd([[2.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(KLWishartError, match="must be finite"):
            gaussian.logpdf(g, x)

    def test_integrates_to_one_1d(self):
        g = Gaussian([0.3], pdcore.make_pd([[2.5]]))
        sd = math.sqrt(2.5)
        total, _ = quad(
            lambda x: math.exp(gaussian.logpdf(g, [x])),
            0.3 - 10 * sd,
            0.3 + 10 * sd,
        )
        assert total == pytest.approx(1.0, abs=1e-8)


class TestEntropy:
    def test_scalar(self):
        g = Gaussian([0.0], pdcore.make_pd([[1.0]]))
        assert gaussian.entropy(g) == pytest.approx(
            0.5 * (1 + math.log(2 * math.pi)), abs=1e-12
        )

    def test_identity_additive(self):
        for d in (1, 2, 5):
            g = Gaussian(np.zeros(d), pdcore.make_pd(np.eye(d)))
            assert gaussian.entropy(g) == pytest.approx(
                d * 0.5 * (1 + math.log(2 * math.pi)), abs=1e-12
            )

    def test_scaling(self):
        rng = np.random.default_rng(4)
        g = random_gaussian(3, rng)
        c = 2.7
        scaled = Gaussian(g.mean, pdcore.make_pd(c * g.cov.entries))
        assert gaussian.entropy(scaled) - gaussian.entropy(g) == pytest.approx(
            1.5 * math.log(c), abs=1e-10
        )


class TestKL:
    def test_self_zero(self):
        rng = np.random.default_rng(9)
        for d in (1, 2, 4):
            g = random_gaussian(d, rng)
            assert abs(gaussian.kl(g, g)) < 1e-12

    def test_scalar_formula(self):
        p = Gaussian([0.0], pdcore.make_pd([[1.0]]))
        q = Gaussian([0.0], pdcore.make_pd([[2.0]]))
        # scalar KL: 0.5 * (s_p/s_q + (mu_p - mu_q)^2/s_q - 1 + log(s_q/s_p))
        oracle = 0.5 * (0.5 - 1.0 + math.log(2.0))
        assert gaussian.kl(p, q) == pytest.approx(oracle, abs=1e-12)
        assert gaussian.kl(p, q) == pytest.approx(0.0965735903, abs=1e-9)

    def test_identity_cov_mean_shift(self):
        p = Gaussian([1.0, 0.0], pdcore.make_pd(np.eye(2)))
        q = Gaussian([0.0, 0.0], pdcore.make_pd(np.eye(2)))
        assert gaussian.kl(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            p, q = random_gaussian(d, rng), random_gaussian(d, rng)
            assert gaussian.kl(p, q) >= 0.0

    def test_self_never_negative(self):
        # The closed form can round below zero for p = q; KL itself cannot.
        rng = np.random.default_rng(0)
        for i in range(240):
            g = random_gaussian((1, 2, 3, 5)[i % 4], rng)
            assert gaussian.kl(g, g) >= 0.0

    @pytest.mark.parametrize("d", [2, 3, 5, 10])
    def test_matches_explicit_inverse(self, d):
        rng = np.random.default_rng(d + 50)
        for _ in range(20):
            p, q = random_gaussian(d, rng), random_gaussian(d, rng)
            q_inv = np.linalg.inv(q.cov.entries)
            delta = q.mean - p.mean
            expected = 0.5 * (
                np.trace(q_inv @ p.cov.entries)
                + delta @ q_inv @ delta
                - d
                + np.linalg.slogdet(q.cov.entries)[1]
                - np.linalg.slogdet(p.cov.entries)[1]
            )
            assert gaussian.kl(p, q) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_affine_invariance(self, d):
        rng = np.random.default_rng(d + 40)
        p, q = random_gaussian(d, rng), random_gaussian(d, rng)
        a = rng.standard_normal((d, d)) + 2 * np.eye(d)
        b = rng.standard_normal(d)

        def push(g):
            return Gaussian(a @ g.mean + b, pdcore.make_pd(a @ g.cov.entries @ a.T))

        assert gaussian.kl(push(p), push(q)) == pytest.approx(
            gaussian.kl(p, q), abs=1e-9
        )

    def test_dim_mismatch(self):
        p = Gaussian([0.0], pdcore.make_pd([[1.0]]))
        q = Gaussian([0.0, 0.0], pdcore.make_pd(np.eye(2)))
        with pytest.raises(DimensionMismatch):
            gaussian.kl(p, q)


class TestExpectedLoglik:
    def test_negative_entropy_point(self):
        rng = np.random.default_rng(17)
        g = random_gaussian(3, rng)
        prec = pdcore.inverse(g.cov)
        # at (mu, P) = (mean, cov^-1) this is minus the entropy
        value = gaussian.expected_loglik(g, g.mean, prec)
        oracle = -0.5 * (3 * math.log(2 * math.pi) - prec.logdet + 3)
        assert value == pytest.approx(oracle, abs=1e-10)
        assert value == pytest.approx(-gaussian.entropy(g), abs=1e-10)

    def test_kl_entropy_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            p = random_gaussian(d, rng)
            q = random_gaussian(d, rng)
            prec = pdcore.inverse(q.cov)
            lhs = (
                gaussian.expected_loglik(p, q.mean, prec)
                + gaussian.kl(p, q)
                + gaussian.entropy(p)
            )
            assert abs(lhs) < 1e-10

    @pytest.mark.parametrize("mu", [[np.nan, 0.0], [0.0, np.inf]], ids=["nan", "inf"])
    def test_non_finite_mu_rejected(self, mu):
        g = Gaussian([0.0, 1.0], pdcore.make_pd(np.eye(2)))
        with pytest.raises(KLWishartError, match="must be finite"):
            gaussian.expected_loglik(g, mu, pdcore.make_pd(np.eye(2)))

    def test_monte_carlo(self):
        rng = np.random.default_rng(23)
        p = random_gaussian(2, rng)
        mu = np.array([0.5, -0.2])
        prec = pdcore.make_pd([[2.0, 0.3], [0.3, 1.0]])
        cov_q = pdcore.inverse(prec)
        q = Gaussian(mu, cov_q)
        draws = rng.multivariate_normal(p.mean, p.cov.entries, size=100_000)
        vals = np.array([gaussian.logpdf(q, x) for x in draws])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        exact = gaussian.expected_loglik(p, mu, prec)
        assert abs(vals.mean() - exact) < 3 * se
