"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from klwishart import (
    gaussian,
    inference,
    klpriors,
    pdcore,
    verify,
    wishart,
)
from klwishart.gaussian import Gaussian
from klwishart.klpriors import KLNormalWishartPrior, KLWishartPrior


def announce(num, name, passed):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({name}) failed"


def random_pd(d, rng):
    a = rng.standard_normal((d, d))
    return pdcore.make_pd(a @ a.T + d * np.eye(d))


def test_01_derivation_residuals():
    start = time.monotonic()
    ok = True
    rng = np.random.default_rng(101)
    for d in (1, 2, 3, 5):
        for alpha in (0.1, 1.0, 7.0):
            sigma = random_pd(d, rng)
            mu = rng.standard_normal(d)
            m = rng.standard_normal(d)
            prior_w = KLWishartPrior(mode_cov=sigma, pseudocount=alpha, known_mean=mu)
            prior_nw = KLNormalWishartPrior(
                prior_mean=m, mode_cov=sigma, pseudocount=alpha
            )
            base_w = Gaussian(mu, sigma)
            base_nw = Gaussian(m, sigma)
            res_w, res_nw = [], []
            for _ in range(200):
                prec = random_pd(d, rng)
                cov = pdcore.inverse(prec)
                res_w.append(
                    klpriors.log_density_wishart_prior(prior_w, prec)
                    + alpha * gaussian.kl(base_w, Gaussian(mu, cov))
                )
                mu2 = rng.standard_normal(d)
                res_nw.append(
                    klpriors.log_density_nw_prior(prior_nw, mu2, prec)
                    + alpha * gaussian.kl(base_nw, Gaussian(mu2, cov))
                )
            ok &= (max(res_w) - min(res_w)) < 1e-9
            ok &= (max(res_nw) - min(res_nw)) < 1e-9
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    announce(1, "derivation residuals", ok)


def test_02_conjugacy():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    ok = True
    configs = [(5, 3, 0.2), (4, 2, 1.0)]  # n < d cases included
    while len(configs) < 20:
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 15))
        alpha = float(rng.uniform(0.1, 3.0))
        configs.append((d, n, alpha))
    for d, n, alpha in configs:
        rep = verify.check_conjugacy(d=d, n=n, alpha=alpha, trials=100, rng=rng)
        ok &= rep.passed
    elapsed = time.monotonic() - start
    ok &= elapsed < 20.0
    announce(2, "conjugacy", ok)


def test_03_map_gradients(move_map_off):
    rng = np.random.default_rng(303)
    rep = verify.check_map_gradient(d=2, n=20, alpha=1.0, rng=rng)
    move_map_off()
    neg = verify.check_map_gradient(d=2, n=20, alpha=1.0, rng=np.random.default_rng(303))
    ok = rep.passed and rep.statistic < 1e-5 and neg.statistic > 1e-3
    announce(3, "MAP gradient", ok)


def test_04_noninformative_limit():
    rng = np.random.default_rng(404)
    d, n = 3, 50
    data = rng.standard_normal((n, d))
    stats = inference.suff_stats(data)
    mu = rng.standard_normal(d)

    post_k = inference.noninformative_posterior(stats, known_mu=mu)
    _, ml_cov_k = inference.ml_estimate(stats, known_mu=mu)
    ok = np.array_equal(inference.map_known_mean_cov(post_k), ml_cov_k)

    post_u = inference.noninformative_posterior(stats)
    ml_mu, ml_cov = inference.ml_estimate(stats)
    mu_hat, cov_hat = inference.map_unknown(post_u)
    ok &= np.array_equal(mu_hat, ml_mu) and np.array_equal(cov_hat.entries, ml_cov)

    sigma = random_pd(d, rng)
    m = rng.standard_normal(d)
    for k in (3, 4, 5, 6):
        alpha = 10.0 ** (-k)
        prior = KLNormalWishartPrior(prior_mean=m, mode_cov=sigma, pseudocount=alpha)
        post = inference.posterior_unknown(prior, stats)
        _, cov_a = inference.map_unknown(post)
        err = np.linalg.norm(cov_a.entries - ml_cov) / np.linalg.norm(ml_cov)
        bound = 10 * alpha * np.linalg.norm(sigma.entries) / np.linalg.norm(ml_cov)
        ok &= err < bound
    announce(4, "non-informative limit", ok)


def test_05_moment_identities():
    start = time.monotonic()
    ok = True
    for i, (d, nu) in enumerate([(1, 1.5), (2, 5.0), (3, 6.5)]):
        rep = verify.check_moments(
            d=d, nu=nu, samples=100_000, rng=np.random.default_rng(505 + i)
        )
        ok &= rep.passed
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    announce(5, "moment identities", ok)


def test_06_shape_constraint():
    ok = True
    for d, nu in [(3, 2.0), (3, 1.999), (2, 1.0), (1, 0.0)]:
        try:
            wishart.WishartParams(scale_inv=pdcore.make_pd(np.eye(d)), shape=nu)
            ok = False
        except Exception:
            pass
    for nu_int in (0, 1, 2):
        rep = verify.check_rank_deficiency(d=3, nu_int=nu_int, rng=np.random.default_rng(606))
        ok &= rep.passed
    announce(6, "shape constraint", ok)


def test_07_inverse_wishart_relation():
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(100):
        d = int(rng.integers(1, 5))
        s = random_pd(d, rng)
        nu = d - 1 + 0.5 + 5 * rng.random()
        c = random_pd(d, rng)
        w = wishart.WishartParams(scale_inv=s, shape=nu)
        resid = abs(
            wishart.iw_log_pdf(w, c)
            - wishart.wishart_log_pdf(w, pdcore.inverse(c))
            + (d + 1) * c.logdet
        )
        ok &= resid < 1e-10

    d, n, alpha = 2, 8, 1.5
    prior = KLWishartPrior(
        mode_cov=random_pd(d, rng), pseudocount=alpha, known_mean=np.zeros(d)
    )
    post = inference.posterior_known_mean(prior, rng.standard_normal((n, d)))
    map_cov = inference.map_known_mean_cov(post)
    iw_mode = wishart.iw_mode(post.wishart).entries
    factor = (n + alpha + 2 * d + 2) / (n + alpha)
    ok &= np.allclose(map_cov, factor * iw_mode, rtol=1e-12)
    announce(7, "inverse-Wishart relation", ok)


def test_08_pseudodata_identity():
    rng = np.random.default_rng(808)
    ok = True
    for d in (1, 2, 3):
        sigma = random_pd(d, rng)
        m = rng.standard_normal(d)
        alpha = 1.4
        prior = KLNormalWishartPrior(prior_mean=m, mode_cov=sigma, pseudocount=alpha)
        base = Gaussian(m, sigma)
        res = []
        for _ in range(100):
            prec = random_pd(d, rng)
            mu = rng.standard_normal(d)
            res.append(
                klpriors.log_density_nw_prior(prior, mu, prec)
                - alpha * gaussian.expected_loglik(base, mu, prec)
            )
        ok &= (max(res) - min(res)) < 1e-9
    announce(8, "pseudodata identity", ok)


def test_09_family_closure():
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(50):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(4, 30))
        data = rng.standard_normal((n, d))
        k = int(rng.integers(1, n))
        prior = KLNormalWishartPrior(
            prior_mean=rng.standard_normal(d),
            mode_cov=random_pd(d, rng),
            pseudocount=0.25 * float(rng.integers(1, 9)),  # dyadic: exact addition
        )
        p1 = inference.posterior_unknown(prior, inference.suff_stats(data[:k]))
        p2 = inference.posterior_unknown(p1.as_prior(), inference.suff_stats(data[k:]))
        full = inference.posterior_unknown(prior, inference.suff_stats(data))
        ok &= p2.pseudocount_post == full.pseudocount_post
        ok &= np.allclose(p2.mean_post, full.mean_post, rtol=1e-13, atol=1e-14)
        ok &= np.allclose(
            full.mode_cov_post.entries,
            p2.mode_cov_post.entries,
            rtol=1e-10,
            atol=1e-13,
        )
    announce(9, "family closure", ok)


def test_10_end_to_end_cli(tmp_path):
    rng = np.random.default_rng(1010)
    n = 1000
    true_cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    data = rng.multivariate_normal([0.5, -0.5], true_cov, size=n)
    csv = tmp_path / "data.csv"
    with open(csv, "w") as fh:
        for row in data:
            fh.write(f"{row[0]},{row[1]}\n")

    def fit():
        return subprocess.run(
            [sys.executable, "-m", "klwishart", "fit", "--data", str(csv), "--alpha", "0"],
            capture_output=True,
            text=True,
        )

    res = fit()
    ok = res.returncode == 0
    report = json.loads(res.stdout)
    est = np.asarray(report["map"]["cov"])
    rel_err = np.linalg.norm(est - true_cov) / np.linalg.norm(true_cov)
    ok &= rel_err < 3 * math.sqrt(2.0 / n)

    # golden-file stability: identical output on rerun, byte-identical reserialization
    ok &= fit().stdout == res.stdout
    ok &= json.dumps(json.loads(res.stdout), indent=2) == res.stdout.rstrip("\n")
    announce(10, "end-to-end CLI", ok)
