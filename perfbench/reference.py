"""Independent references for the benchmark's output checks.

Everything here uses numpy and the standard library only; no check compares
the program's output with another call into klwishart.  Where the library
has one way to compute a quantity, the reference takes another where one
exists (the normal-Wishart posterior below is built from raw moments, the
library builds it from centred statistics).
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


def random_spd(d: int, rng: np.random.Generator, lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    """Symmetric positive-definite matrix with eigenvalues in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = (q * rng.uniform(lo, hi, size=d)) @ q.T
    return 0.5 * (a + a.T)


def gaussian_rows(n: int, mean: np.ndarray, cov: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return mean + rng.standard_normal((n, mean.shape[0])) @ np.linalg.cholesky(cov).T


def rel_err(actual, expected) -> float:
    """Frobenius-norm error relative to the expected value (absolute below 1)."""
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    if a.shape != e.shape:
        return math.inf
    return float(np.linalg.norm(a - e) / max(1.0, float(np.linalg.norm(e))))


def ml(x: np.ndarray):
    """Maximum-likelihood mean and (biased) covariance."""
    return x.mean(axis=0), np.cov(x, rowvar=False, bias=True)


def nw_posterior(x: np.ndarray, m0: np.ndarray, sigma0: np.ndarray, alpha: float):
    """(alpha*, m*, Sigma*) of the normal-Wishart posterior, from raw moments:
    alpha* Sigma* = alpha Sigma0 + sum x x' + alpha m0 m0' - alpha* m* m*'."""
    n = x.shape[0]
    a_post = alpha + n
    m_post = (alpha * m0 + x.sum(axis=0)) / a_post
    scaled = alpha * sigma0 + x.T @ x + alpha * np.outer(m0, m0) - a_post * np.outer(m_post, m_post)
    return a_post, m_post, scaled / a_post


def known_mean_scatter(x: np.ndarray, mu: np.ndarray, sigma0: np.ndarray, alpha: float) -> np.ndarray:
    """Posterior scatter alpha Sigma0 + sum (x - mu)(x - mu)' of the known-mean prior."""
    c = x - mu
    return alpha * sigma0 + c.T @ c


def gaussian_logpdf_sum(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    d = mean.shape[0]
    _, logdet = np.linalg.slogdet(cov)
    c = x - mean
    maha = np.sum(c * np.linalg.solve(cov, c.T).T)
    return float(-0.5 * (x.shape[0] * (d * LOG_2PI + logdet) + maha))


def gaussian_kl(m1, s1, m2, s2) -> float:
    """KL(N(m1, s1) || N(m2, s2)) in closed form."""
    d = m1.shape[0]
    delta = m2 - m1
    _, ld1 = np.linalg.slogdet(s1)
    _, ld2 = np.linalg.slogdet(s2)
    return float(
        0.5 * (np.trace(np.linalg.solve(s2, s1)) + delta @ np.linalg.solve(s2, delta) - d + ld2 - ld1)
    )


def _log_mvgamma(a: float, d: int) -> float:
    return d * (d - 1) / 4.0 * math.log(math.pi) + sum(math.lgamma(a + (1 - j) / 2.0) for j in range(1, d + 1))


def wishart_logpdf(p: np.ndarray, scatter: np.ndarray, nu: float) -> float:
    """log W(P | V = scatter^{-1}, nu)."""
    d = p.shape[0]
    _, ld_p = np.linalg.slogdet(p)
    _, ld_s = np.linalg.slogdet(scatter)
    return float(
        (nu - d - 1) / 2.0 * ld_p
        - 0.5 * np.trace(scatter @ p)
        - nu * d / 2.0 * math.log(2.0)
        + nu / 2.0 * ld_s
        - _log_mvgamma(nu / 2.0, d)
    )


def nw_log_prior(mu, p, m0, sigma0, alpha) -> float:
    """log NW(mu, P) with P ~ W((alpha Sigma0)^{-1}, alpha + d), mu | P ~ N(m0, (alpha P)^{-1})."""
    d = p.shape[0]
    cond_cov = np.linalg.inv(alpha * p)
    return wishart_logpdf(p, alpha * sigma0, alpha + d) + gaussian_logpdf_sum(mu[None, :], m0, cond_cov)


def bartlett(l_factor: np.ndarray, tdiag: np.ndarray, offd: np.ndarray) -> np.ndarray:
    """L T T' L' for one draw, T built by an explicit loop."""
    d = tdiag.shape[0]
    t = np.zeros((d, d))
    k = 0
    for i in range(d):
        t[i, i] = tdiag[i]
        for j in range(i):
            t[i, j] = offd[k]
            k += 1
    a = l_factor @ t
    return a @ a.T


Z_MAX = 6.0  # two-sided tail 2e-9 per entry, about 1e-7 per d=10 call of 55 entries
SYM_RTOL = 1e-12
PD_STRIDE = 50
CHUNK = 8192


def wishart_draw_problems(draws: np.ndarray, n: int, expected_mean: np.ndarray) -> list[str]:
    """Checks a stack of (n, d, d) Wishart draws: symmetry, positive
    definiteness on a strided subset, and the largest z-score of the sample
    mean against E[P] = nu V.  Moments are accumulated in chunks so the check
    adds little to peak memory."""
    d = expected_mean.shape[0]
    if draws.shape != (n, d, d):
        return [f"draws have shape {draws.shape}, expected {(n, d, d)}"]
    if not np.all(np.isfinite(draws)):
        return ["non-finite draw"]
    out = []
    asym = 0.0
    total = np.zeros((d, d))
    total_sq = np.zeros((d, d))
    for start in range(0, n, CHUNK):
        block = draws[start : start + CHUNK]
        asym = max(asym, float(np.max(np.abs(block - block.transpose(0, 2, 1)))))
        total += block.sum(axis=0)
        total_sq += np.einsum("kij,kij->ij", block, block)
    if asym > SYM_RTOL * float(np.max(np.abs(draws))):
        out.append(f"asymmetry {asym:.3e}")
    try:
        np.linalg.cholesky(draws[::PD_STRIDE])
    except np.linalg.LinAlgError:
        out.append("draw not positive definite")
    mean = total / n
    var = (total_sq - n * mean * mean) / (n - 1)
    z = float(np.max(np.abs(mean - expected_mean) / np.sqrt(var / n)))
    if not z <= Z_MAX:
        out.append(f"mean z-score {z:.2f} > {Z_MAX}")
    return out
