"""Numerical verification harness.

Each check re-derives one identity from first principles on random inputs
and reports a residual (or z-score) against a fixed threshold.  Checks are
deterministic given a seed and independent of one another.  They have no
switch that corrupts them: the negative controls that guard them against
vacuous passes are in the tests, which monkeypatch the library function a
check calls with a wrong formula and expect the check to fail.

The checks copy no library formula: `check moments` compares the draws with
`wishart_mean` and `wishart_mean_inverse`, and the conjugacy check's prior
is alpha pseudo-observations merged with the data by `merge_stats`.

Each derived quantity is computed once.  A trial's random precision and its
covariance come from one random orthogonal Q and one set of eigenvalues
(`_random_pd_pair`), not from a factor-and-solve inverse; loop-invariant
priors are built before the loop, and the priors keep their own Wishart
views.  The moments check inverts its draws with `_batch_inverse`,
elementwise across blocks of draws, rather than one LAPACK call per small
matrix.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import gaussian, inference, klpriors, pdcore, wishart
from ._kernels import _BLOCK
from .errors import NotPositiveDefinite
from .gaussian import Gaussian
from .pdcore import PDMatrix


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    statistic: float
    threshold: float
    detail: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _report(name: str, statistic: float, threshold: float, detail: str = "") -> CheckReport:
    return CheckReport(
        name=name,
        passed=bool(statistic <= threshold),
        statistic=float(statistic),
        threshold=float(threshold),
        detail=detail,
    )


def _spectrum(d: int, rng: np.random.Generator):
    """Random orthogonal Q and eigenvalues in [0.3, 3], in that stream order."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q, rng.uniform(0.3, 3.0, size=d)


def random_pd(d: int, rng: np.random.Generator) -> PDMatrix:
    """Well-conditioned random PD matrix (eigenvalues roughly in [0.3, 3])."""
    q, eig = _spectrum(d, rng)
    return pdcore.make_pd((q * eig) @ q.T)


def _random_pd_pair(d: int, rng: np.random.Generator) -> tuple[PDMatrix, PDMatrix]:
    """`random_pd(d, rng)` and its inverse Q diag(1/eig) Q', from the same
    draws: the first is bitwise `random_pd` and the generator ends in the
    same state."""
    q, eig = _spectrum(d, rng)
    return pdcore.make_pd((q * eig) @ q.T), pdcore.make_pd((q / eig) @ q.T)


def _spread(values) -> float:
    return float(max(values) - min(values))


def _residual_spread(d: int, trials: int, rng: np.random.Generator, residuals) -> float:
    """Larger spread over trials of the two values of residuals(mu, p, cov).
    Each trial draws its precision pair, then its mean, in that order."""
    values = []
    for _ in range(trials):
        p, cov = _random_pd_pair(d, rng)
        values.append(residuals(rng.standard_normal(d), p, cov))
    return max(_spread(column) for column in zip(*values))


def check_proportionality(
    d: int, alpha: float, trials: int, rng: np.random.Generator
) -> CheckReport:
    """log prior + alpha * KL must be constant in the evaluation point."""
    sigma = random_pd(d, rng)
    mu = rng.standard_normal(d)
    m = rng.standard_normal(d)
    prior_w = klpriors.KLWishartPrior(mode_cov=sigma, pseudocount=alpha, known_mean=mu)
    prior_nw = klpriors.KLNormalWishartPrior(
        prior_mean=m, mode_cov=sigma, pseudocount=alpha
    )
    base = Gaussian(mu, sigma)
    base_nw = Gaussian(m, sigma)

    def residuals(mu2, p, cov):
        return (
            klpriors.log_density_wishart_prior(prior_w, p)
            + alpha * gaussian.kl(base, Gaussian(mu, cov)),
            klpriors.log_density_nw_prior(prior_nw, mu2, p)
            + alpha * gaussian.kl(base_nw, Gaussian(mu2, cov)),
        )

    stat = _residual_spread(d, trials, rng, residuals)
    return _report(
        "proportionality", stat, 1e-9, f"d={d} alpha={alpha} trials={trials}"
    )


def check_conjugacy(
    d: int, n: int, alpha: float, trials: int, rng: np.random.Generator
) -> CheckReport:
    """Posterior log density minus (prior log density + log likelihood)
    must be constant in the parameter point, for both prior families."""
    sigma = random_pd(d, rng)
    mu_known = rng.standard_normal(d)
    m = rng.standard_normal(d)
    data = rng.standard_normal((n, d)) + m

    prior_w = klpriors.KLWishartPrior(
        mode_cov=sigma, pseudocount=alpha, known_mean=mu_known
    )
    post_w = inference.posterior_known_mean(prior_w, data)

    prior_nw = klpriors.KLNormalWishartPrior(
        prior_mean=m, mode_cov=sigma, pseudocount=alpha
    )
    stats = inference.suff_stats(data)
    post_nw_prior = inference.posterior_unknown(prior_nw, stats).as_prior()

    def residuals(mu2, p, cov):
        return (
            wishart.wishart_log_pdf(post_w.wishart, p)
            - klpriors.log_density_wishart_prior(prior_w, p)
            - float(gaussian.logpdf(Gaussian(mu_known, cov), data).sum()),
            klpriors.log_density_nw_prior(post_nw_prior, mu2, p)
            - klpriors.log_density_nw_prior(prior_nw, mu2, p)
            - float(gaussian.logpdf(Gaussian(mu2, cov), data).sum()),
        )

    stat = _residual_spread(d, trials, rng, residuals)
    return _report(
        "conjugacy", stat, 1e-8, f"d={d} n={n} alpha={alpha} trials={trials}"
    )


def check_moments(
    d: int, nu: float, samples: int, rng: np.random.Generator
) -> CheckReport:
    """Empirical Bartlett-sample moments vs `wishart.wishart_mean` (E[P] = nu V)
    and, when defined, `wishart.wishart_mean_inverse` (E[P^-1] =
    S / (nu - d - 1)); statistic is the max componentwise z."""
    v = random_pd(d, rng)
    w = wishart.WishartParams(scale_inv=pdcore.inverse(v), shape=nu)
    draws = wishart.sample_wishart_batch(w, samples, rng)

    exact_mean = wishart.wishart_mean(w).entries
    emp = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(samples)
    z_mean = float(np.max(np.abs(emp - exact_mean) / se))

    detail = f"d={d} nu={nu} N={samples}"
    z = z_mean
    if nu > d + 1:
        inv = _batch_inverse(draws)
        exact_inv = wishart.wishart_mean_inverse(w).entries
        emp_inv = inv.mean(axis=0)
        se_inv = inv.std(axis=0, ddof=1) / np.sqrt(samples)
        z_inv = float(np.max(np.abs(emp_inv - exact_inv) / se_inv))
        z = max(z, z_inv)
        detail += f" z_mean={z_mean:.2f} z_inv={z_inv:.2f}"
    else:
        detail += f" z_mean={z_mean:.2f} (mean-only, nu <= d+1)"
    return _report("moments", z, 4.0, detail)


def _batch_inverse(mats: np.ndarray) -> np.ndarray:
    """Inverses of an (n, d, d) stack of SPD matrices by Gauss-Jordan
    elimination without pivoting, over blocks of _BLOCK matrices.

    Each entry is one length-b vector over a block of b matrices, so numpy
    runs the arithmetic elementwise across matrices instead of calling
    LAPACK once per small matrix.  The elimination runs in place: pivot k
    turns column k of A into column k of A^{-1}, so each pivot updates only
    the d live columns, those of A not yet eliminated and those of A^{-1}
    already started.  The pivots of an SPD matrix are the leading diagonals
    of its Schur complements, all positive, so none needs a row exchange.
    """
    n, d, _ = mats.shape
    out = np.empty_like(mats)
    size = min(n, _BLOCK)
    work, tmp = np.empty((d, d, size)), np.empty((d, d, size))
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        a, update = work[:, :, : stop - start], tmp[:, :, : stop - start]
        a[...] = mats[start:stop].transpose(1, 2, 0)
        for k in range(d):
            # Row k /= A[k, k]; every other row i -= A[i, k] * row k; column k,
            # zeroed but for a 1 at the pivot first, becomes A^{-1}'s.
            col = a[:, k].copy()
            piv = 1.0 / col[k]
            col[k] = 0.0
            a[:, k] = 0.0
            a[k, k] = 1.0
            a[k] *= piv
            np.multiply(col[:, None], a[k], out=update)
            a -= update
        out[start:stop] = a.transpose(2, 0, 1)
    return out


def check_rank_deficiency(d: int, nu_int: int, rng: np.random.Generator) -> CheckReport:
    """Z Z' from nu integer Gaussian columns has rank nu; sub-full-rank
    scatter must be rejected as a precision."""
    if not 0 <= nu_int:
        raise ValueError("nu_int must be a nonnegative integer")
    z = rng.standard_normal((d, nu_int))
    zz = z @ z.T
    svals = np.linalg.svd(zz, compute_uv=False)
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    try:
        pdcore.make_pd(zz)
        accepted = True
    except NotPositiveDefinite:
        accepted = False
    expect_accept = nu_int >= d
    ok = (rank == min(nu_int, d)) and (accepted == expect_accept)
    return _report(
        "rank_deficiency",
        0.0 if ok else 1.0,
        0.5,
        f"d={d} nu={nu_int} rank={rank} accepted={accepted}",
    )


def _sym_basis(d: int):
    """Orthonormal-direction basis of symmetric d x d matrices."""
    basis = []
    for i in range(d):
        for j in range(i + 1):
            e = np.zeros((d, d))
            e[i, j] = e[j, i] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
            basis.append(e)
    return basis


def _central_differences(f, x0: np.ndarray, directions, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of f at x0 along each direction."""
    return np.array([(f(x0 + step * e) - f(x0 - step * e)) / (2.0 * step) for e in directions])


def check_map_gradient(
    d: int, n: int, alpha: float, rng: np.random.Generator
) -> CheckReport:
    """Finite-difference gradient of the posterior log density vanishes at
    the analytic MAP."""
    sigma = random_pd(d, rng)
    mu_known = rng.standard_normal(d)
    data = rng.standard_normal((n, d))

    prior_w = klpriors.KLWishartPrior(
        mode_cov=sigma, pseudocount=alpha, known_mean=mu_known
    )
    post_w = inference.posterior_known_mean(prior_w, data)
    p_hat = inference.map_known_mean(post_w).entries

    def f_known(p: np.ndarray) -> float:
        return wishart.wishart_log_pdf(post_w.wishart, pdcore.make_pd(p))

    g_known = float(np.linalg.norm(_central_differences(f_known, p_hat, _sym_basis(d))))

    prior_nw = klpriors.KLNormalWishartPrior(
        prior_mean=rng.standard_normal(d), mode_cov=sigma, pseudocount=alpha
    )
    post_nw = inference.posterior_unknown(prior_nw, inference.suff_stats(data))
    mu_hat, cov_hat = inference.map_unknown(post_nw)
    p_joint = pdcore.inverse(cov_hat)
    nw_prior_form = post_nw.as_prior()

    def f_mu(mu: np.ndarray) -> float:
        return klpriors.log_density_nw_prior(nw_prior_form, mu, p_joint)

    def f_p(p: np.ndarray) -> float:
        return klpriors.log_density_nw_prior(nw_prior_form, mu_hat, pdcore.make_pd(p))

    g_mu = _central_differences(f_mu, mu_hat, np.eye(d))
    g_p = _central_differences(f_p, p_joint.entries, _sym_basis(d))
    g_joint = float(np.linalg.norm(np.concatenate([g_mu, g_p])))

    stat = max(g_known, g_joint)
    return _report(
        "map_gradient",
        stat,
        1e-5,
        f"d={d} n={n} alpha={alpha} |g_known|={g_known:.2e} |g_joint|={g_joint:.2e}",
    )


# Each entry looks its check up by module-level name when called, so a
# wrapper installed on `verify.check_*` sees the call.
_CHECKS = {
    "proportionality": lambda rng: check_proportionality(d=3, alpha=0.7, trials=200, rng=rng),
    "conjugacy": lambda rng: check_conjugacy(d=2, n=10, alpha=1.0, trials=100, rng=rng),
    "moments": lambda rng: check_moments(d=2, nu=5.0, samples=100_000, rng=rng),
    "rank_deficiency": lambda rng: check_rank_deficiency(d=3, nu_int=2, rng=rng),
    "map_gradient": lambda rng: check_map_gradient(d=2, n=20, alpha=1.0, rng=rng),
}
DEFAULT_SUITE = tuple(_CHECKS)


def run_suite(names, seed: int) -> list[CheckReport]:
    """Run the named checks with documented default parameters, each from a
    fresh generator seeded with `seed`."""
    for name in names:
        if name not in _CHECKS:
            raise ValueError(
                f"unknown suite '{name}'; choose from {'|'.join(('all',) + DEFAULT_SUITE)}"
            )
    return [_CHECKS[name](np.random.default_rng(seed)) for name in names]
