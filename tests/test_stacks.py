"""Stacked evaluation: a PDStack of T matrices and every function that
takes one, against a loop of the single-matrix function over its members.

T runs over 1, d and 7.  T == d is the case where mixing up the stack axis
and a matrix axis raises no error, and T == 1 the smallest stack.  The
single-matrix functions take no stack: `make_pd` rejects a (T, d, d) array,
and `solve`, `inverse`, `trace_product`, `quad_form`, `iw_log_pdf`,
`WishartParams`, both priors and `Gaussian` a PDStack.
"""

import re

import numpy as np
import pytest

from klwishart import gaussian, klpriors, pdcore, wishart
from klwishart.errors import DimensionMismatch, KLWishartError, NotPositiveDefinite
from klwishart.gaussian import Gaussian, GaussianStack

RTOL = 1e-13
DIMS = [1, 2, 3, 5]
COUNTS = ["1", "d", "7"]


def _count(t, d):
    return {"1": 1, "d": d, "7": 7}[t]


def _close(stacked, looped):
    """Each member within RTOL of its loop value: relative to the value for
    scalars, to the member's largest entry for vectors and matrices."""
    looped = np.array(looped)
    assert stacked.shape == looped.shape
    scale = np.abs(looped).reshape(len(looped), -1).max(axis=1)
    err = np.abs(stacked - looped).reshape(len(looped), -1).max(axis=1)
    assert (err <= RTOL * scale).all(), (err / scale).max()


def _raw(d, T, rng):
    """T well-conditioned, not quite symmetric d x d matrices."""
    z = rng.standard_normal((T, d, d))
    return z @ z.swapaxes(1, 2) + d * np.eye(d) + 1e-3 * rng.standard_normal((T, d, d))


@pytest.fixture(params=[(d, t) for d in DIMS for t in COUNTS], ids=lambda p: f"d{p[0]}-T{p[1]}")
def case(request):
    d, t = request.param
    T = _count(t, d)
    rng = np.random.default_rng([d, T])
    raw = _raw(d, T, rng)
    stack, members = pdcore.make_pd_stack(raw), [pdcore.make_pd(m) for m in raw]
    return d, T, rng, stack, members


class TestPDCore:
    def test_make_pd_and_logdet(self, case):
        d, T, _, stack, members = case
        assert stack.dim == d and len(stack) == T
        assert stack.entries.shape == stack.factor.shape == (T, d, d)
        _close(stack.entries, [m.entries for m in members])
        _close(stack.factor, [m.factor for m in members])
        _close(stack.logdet, [m.logdet for m in members])
        assert stack.logdet.shape == (T,) and not stack.logdet.flags.writeable
        assert all(type(m.logdet) is float for m in members)

    def test_inverse_factor(self, case):
        d, T, _, stack, members = case
        inv = stack.inverse_factor
        _close(inv, [m.inverse_factor for m in members])
        assert not inv.flags.writeable
        _close(inv @ stack.factor, np.broadcast_to(np.eye(d), (T, d, d)))

    def test_whiten(self, case):
        d, T, rng, stack, members = case
        vectors, shared, each = rng.standard_normal((T, d)), rng.standard_normal((d, 4)), rng.standard_normal((T, d, 4))
        _close(pdcore.whiten(stack, vectors[:, :, None])[:, :, 0], [pdcore.whiten(m, v) for m, v in zip(members, vectors)])
        _close(pdcore.whiten(stack, shared), [pdcore.whiten(m, shared) for m in members])
        _close(pdcore.whiten(stack, each), [pdcore.whiten(m, b) for m, b in zip(members, each)])

    def test_trace_product(self, case):
        d, T, rng, stack, members = case
        other = pdcore.make_pd(_raw(d, 1, rng)[0])
        _close(pdcore.trace_product_stack(stack, other), [pdcore.trace_product(m, other) for m in members])
        assert type(pdcore.trace_product(members[0], other)) is np.float64
        with pytest.raises(DimensionMismatch):
            pdcore.trace_product_stack(stack, pdcore.make_pd(np.eye(d + 1)))

    def test_quad_form(self, case):
        d, T, rng, stack, members = case
        v = rng.standard_normal((T, d))
        _close(pdcore.quad_form_stack(v, stack), [pdcore.quad_form(x, m) for x, m in zip(v, members)])
        assert type(pdcore.quad_form(v[0], members[0])) is np.float64

    def test_quad_form_takes_one_vector_per_member(self, case):
        d, T, _, stack, _ = case
        with pytest.raises(DimensionMismatch):
            pdcore.quad_form_stack(np.zeros(d), stack)
        with pytest.raises(DimensionMismatch):
            pdcore.quad_form_stack(np.zeros((T + 1, d)), stack)


class TestGaussian:
    def test_logpdf(self, case):
        d, T, rng, cov, members = case
        means, rows = rng.standard_normal((T, d)), rng.standard_normal((6, d))
        g = GaussianStack(means, cov)
        singles = [Gaussian(m, c) for m, c in zip(means, members)]
        _close(gaussian.logpdf_stack(g, rows), [gaussian.logpdf(s, rows) for s in singles])
        assert type(gaussian.logpdf(singles[0], rows[0])) is float

    def test_logpdf_takes_rows_of_finite_points(self, case):
        d, T, _, cov, _ = case
        g = GaussianStack(np.zeros((T, d)), cov)
        with pytest.raises(DimensionMismatch):
            gaussian.logpdf_stack(g, np.zeros(d))
        with pytest.raises(KLWishartError, match="^point x must be finite$"):
            gaussian.logpdf_stack(g, np.full((2, d), np.nan))

    def test_kl(self, case):
        d, T, rng, cov, members = case
        means = rng.standard_normal((T, d))
        one = Gaussian(rng.standard_normal(d), pdcore.make_pd(_raw(d, 1, rng)[0]))
        g = GaussianStack(means, cov)
        singles = [Gaussian(m, c) for m, c in zip(means, members)]
        _close(gaussian.kl_stack(one, g), [gaussian.kl(one, s) for s in singles])
        assert type(gaussian.kl(one, singles[0])) is float

    def test_mean_goes_with_the_stack(self, case):
        d, T, _, cov, _ = case
        with pytest.raises(DimensionMismatch):
            GaussianStack(np.zeros(d), cov)
        with pytest.raises(DimensionMismatch):
            GaussianStack(np.zeros((T + 1, d)), cov)
        with pytest.raises(KLWishartError, match="^Gaussian mean must be finite$"):
            GaussianStack(np.full((T, d), np.inf), cov)


class TestDensities:
    def test_wishart_log_pdf(self, case):
        d, T, rng, P, members = case
        w = wishart.WishartParams(pdcore.make_pd(_raw(d, 1, rng)[0]), shape=d + 1.5)
        _close(wishart.wishart_log_pdf_stack(w, P), [wishart.wishart_log_pdf(w, m) for m in members])
        assert type(wishart.wishart_log_pdf(w, members[0])) is float

    def test_wishart_prior(self, case):
        d, T, rng, P, members = case
        prior = klpriors.KLWishartPrior(pdcore.make_pd(_raw(d, 1, rng)[0]), 0.7, rng.standard_normal(d))
        _close(
            klpriors.log_density_wishart_prior_stack(prior, P),
            [klpriors.log_density_wishart_prior(prior, m) for m in members],
        )
        assert type(klpriors.log_density_wishart_prior(prior, members[0])) is float

    def test_normal_wishart_prior(self, case):
        d, T, rng, P, members = case
        prior = klpriors.KLNormalWishartPrior(rng.standard_normal(d), pdcore.make_pd(_raw(d, 1, rng)[0]), 0.7)
        mu = rng.standard_normal((T, d))
        _close(
            klpriors.log_density_nw_prior_stack(prior, mu, P),
            [klpriors.log_density_nw_prior(prior, x, m) for x, m in zip(mu, members)],
        )
        assert type(klpriors.log_density_nw_prior(prior, mu[0], members[0])) is float
        with pytest.raises(DimensionMismatch):
            klpriors.log_density_nw_prior_stack(prior, mu[0], P)


@pytest.fixture(params=COUNTS, ids=lambda t: f"T{t}")
def stack_and_member(request):
    """A PDStack of T 2 x 2 matrices and its first member as a PDMatrix."""
    raw = _raw(2, _count(request.param, 2), np.random.default_rng(9))
    return pdcore.make_pd_stack(raw), pdcore.make_pd(raw[0])


class TestSingleMatrixFunctionsTakeNoStack:
    """Each raises DimensionMismatch for a PDStack, where it once summed
    every member into one number, returned another shape or built an
    object."""

    def test_trace_product(self, stack_and_member):
        stack, member = stack_and_member
        for a, b in ((stack, member), (member, stack)):
            with pytest.raises(DimensionMismatch, match=r"^trace_product: \(.*\) vs \(.*\)$"):
                pdcore.trace_product(a, b)

    def test_quad_form(self, stack_and_member):
        stack, _ = stack_and_member
        for v in (np.ones(2), np.ones((2, 2))):
            with pytest.raises(DimensionMismatch, match=r"^quad_form: vector"):
                pdcore.quad_form(v, stack)

    def test_iw_log_pdf(self, stack_and_member):
        stack, member = stack_and_member
        with pytest.raises(DimensionMismatch, match=r"^iw_log_pdf: \(.*\) vs \(2, 2\)$"):
            wishart.iw_log_pdf(wishart.WishartParams(member, 4.0), stack)

    def test_gaussian(self, stack_and_member):
        stack, _ = stack_and_member
        with pytest.raises(DimensionMismatch, match=r"^Gaussian covariance has shape \(\d+, 2, 2\)"):
            Gaussian(np.zeros(2), stack)

    def test_solve(self, stack_and_member):
        stack, _ = stack_and_member
        with pytest.raises(DimensionMismatch, match=r"^solve: matrix has shape \(\d+, 2, 2\)"):
            pdcore.solve(stack, np.ones(2))

    def test_inverse(self, stack_and_member):
        stack, _ = stack_and_member
        with pytest.raises(DimensionMismatch, match=r"^inverse: matrix has shape \(\d+, 2, 2\)"):
            pdcore.inverse(stack)

    def test_wishart_params(self, stack_and_member):
        stack, _ = stack_and_member
        with pytest.raises(DimensionMismatch, match=r"^Wishart scale_inv has shape \(\d+, 2, 2\)"):
            wishart.WishartParams(stack, 5.0)

    def test_kl_wishart_prior(self, stack_and_member):
        stack, _ = stack_and_member
        with pytest.raises(DimensionMismatch, match=r"^mode_cov has shape \(\d+, 2, 2\)"):
            klpriors.KLWishartPrior(stack, 1.0, np.zeros(2))

    def test_kl_normal_wishart_prior(self, stack_and_member):
        stack, _ = stack_and_member
        with pytest.raises(DimensionMismatch, match=r"^mode_cov has shape \(\d+, 2, 2\)"):
            klpriors.KLNormalWishartPrior(np.zeros(2), stack, 1.0)


def _stack_with(member, at=2, count=4):
    """`count` 2 x 2 identities with `member` at index `at`."""
    stack = np.stack([np.eye(2)] * count)
    stack[at] = member
    return stack


def _single_message(raw):
    with pytest.raises(NotPositiveDefinite) as info:
        pdcore.make_pd(raw)
    return str(info.value)


class TestStackedRejections:
    """make_pd_stack rejects what make_pd rejects, one test per kind, and
    names the first failing member."""

    @pytest.mark.parametrize(
        "shape", [(3, 2, 3), (3, 3, 2), (0, 2, 2), (3, 0, 0), (2, 2, 2, 2), (2, 2)], ids=str
    )
    def test_non_square_or_empty(self, shape):
        with pytest.raises(DimensionMismatch, match=r"^expected a non-empty \(T, d, d\) stack"):
            pdcore.make_pd_stack(np.ones(shape))

    @pytest.mark.parametrize("shape", [(1, 2, 2), (3, 2, 2), (2, 1, 1)], ids=str)
    def test_make_pd_takes_no_stack(self, shape):
        message = f"expected a non-empty square matrix, got shape {shape}"
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            pdcore.make_pd(np.ones(shape))

    def test_nan(self):
        member = [[np.nan, 0.0], [0.0, 1.0]]
        with pytest.raises(NotPositiveDefinite) as info:
            pdcore.make_pd_stack(_stack_with(member))
        assert str(info.value) == f"{_single_message(member)} (stack index 2)"

    @pytest.mark.parametrize("bad", [np.inf, -np.inf], ids=["inf", "-inf"])
    @pytest.mark.parametrize("position", [(0, 0), (1, 1), (1, 0)], ids=str)
    def test_infinite(self, bad, position):
        member = np.eye(2)
        member[position] = bad
        with pytest.raises(NotPositiveDefinite) as info:
            pdcore.make_pd_stack(_stack_with(member))
        assert str(info.value) == f"{_single_message(member)} (stack index 2)"

    def test_infinite_diagonal_gives_a_non_finite_factor(self):
        with pytest.raises(NotPositiveDefinite) as info:
            pdcore.make_pd_stack(_stack_with([[np.inf, 0.0], [0.0, 1.0]], at=1))
        assert str(info.value) == "non-finite entries in Cholesky factor (stack index 1)"

    def test_indefinite_member_is_named(self):
        member = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(NotPositiveDefinite) as info:
            pdcore.make_pd_stack(_stack_with(member, at=3))
        assert str(info.value) == f"{_single_message(member)} (stack index 3)"

    @pytest.mark.parametrize("at", [0, 2, 3])
    def test_small_pivot_names_the_member(self, at):
        member = np.diag([1.0, 1e-14])
        with pytest.raises(NotPositiveDefinite) as info:
            pdcore.make_pd_stack(_stack_with(member, at=at))
        assert str(info.value) == f"{_single_message(member)} (stack index {at})"

    def test_first_of_two_small_pivots_is_named(self):
        stack = _stack_with(np.diag([1.0, 1e-14]), at=3)
        stack[1] = np.diag([1e-13, 2.0])
        with pytest.raises(NotPositiveDefinite, match=r"\(stack index 1\)$"):
            pdcore.make_pd_stack(stack)

    @pytest.mark.parametrize(
        "later", [[[1.0, 2.0], [2.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]], ids=["indefinite", "infinite"]
    )
    def test_small_pivot_before_a_failed_factor_is_named(self, later):
        # The stacked Cholesky fails, or its factor is not finite, only at
        # index 3; the first member make_pd rejects is still index 1.
        small = np.diag([1.0, 1e-14])
        stack = _stack_with(later, at=3)
        stack[1] = small
        with pytest.raises(NotPositiveDefinite) as info:
            pdcore.make_pd_stack(stack)
        assert str(info.value) == f"{_single_message(small)} (stack index 1)"

    @pytest.mark.parametrize(
        "off", [(1.7e308, 1.7e308), (np.inf, -np.inf)], ids=["overflow", "inf_minus_inf"]
    )
    def test_symmetrisation_overflow(self, off):
        member = np.eye(2)
        member[0, 1], member[1, 0] = off
        with pytest.raises(FloatingPointError):
            pdcore.make_pd(member)
        with pytest.raises(FloatingPointError):
            pdcore.make_pd_stack(_stack_with(member))
