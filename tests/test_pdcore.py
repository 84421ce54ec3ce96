import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from klwishart import inference, pdcore
from klwishart.errors import DimensionMismatch, KLWishartError, NotPositiveDefinite
from klwishart.gaussian import Gaussian
from klwishart.klpriors import KLNormalWishartPrior, KLWishartPrior


def cofactor_det(a: np.ndarray) -> float:
    """Slow cofactor-expansion determinant, independent of any factorization."""
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * cofactor_det(minor)
    return total


def random_pd(d, rng):
    a = rng.standard_normal((d, d))
    return pdcore.make_pd(a @ a.T + d * np.eye(d))


class TestMakePD:
    def test_identity(self):
        a = pdcore.make_pd(np.eye(2))
        assert a.dim == 2
        assert a.logdet == 0.0

    def test_diag_logdet(self):
        a = pdcore.make_pd(np.diag([2.0, 3.0]))
        # oracle: product of eigenvalues
        expected = np.log(np.prod(np.linalg.eigvalsh(np.diag([2.0, 3.0]))))
        assert a.logdet == pytest.approx(expected, abs=1e-12)
        assert a.logdet == pytest.approx(np.log(6.0), abs=1e-12)

    def test_indefinite_rejected(self):
        # eigenvalues 3 and -1 by the 2x2 formula
        with pytest.raises(NotPositiveDefinite):
            pdcore.make_pd([[1.0, 2.0], [2.0, 1.0]])

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            pdcore.make_pd(np.ones((2, 3)))

    def test_symmetrized(self):
        a = pdcore.make_pd([[2.0, 0.1], [0.3, 2.0]])
        assert np.allclose(a.entries, a.entries.T)
        assert a.entries[0, 1] == pytest.approx(0.2)

    def test_tiny_pivot_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            pdcore.make_pd(np.diag([1.0, 1e-14]))

    def test_empty_not_square(self):
        with pytest.raises(DimensionMismatch):
            pdcore.make_pd(np.zeros((0, 0)))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_logdet_cached_and_bitwise_the_factor_formula(self, d):
        rng = np.random.default_rng(d + 40)
        for _ in range(20):
            a = random_pd(d, rng)
            first = a.logdet
            assert first == 2.0 * float(np.log(np.diag(a.factor)).sum())
            assert a.logdet is first


_REJECTED = {
    "tiny_pivot": np.diag([1.0, 1e-14]),
    "tiny_pivot_first": np.diag([1e-13, 2.0, 3.0]),
    "near_rank_one": np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) + 1e-13 * np.eye(3),
    "scaled_down": 1e-200 * np.diag([5.0, 4e-13]),
}


@pytest.mark.parametrize("raw", _REJECTED.values(), ids=_REJECTED)
def test_rejection_reports_the_smallest_squared_pivot(raw):
    a = 0.5 * (raw + raw.T)
    pivot = (np.linalg.cholesky(a).diagonal() ** 2).min()
    with pytest.raises(NotPositiveDefinite) as info:
        pdcore.make_pd(raw)
    assert str(info.value) == (
        f"smallest Cholesky pivot {pivot:.3e} below relative threshold {pdcore.PIVOT_RTOL:g}"
    )


@pytest.mark.parametrize(
    "raw", [[[np.inf, 0.0], [0.0, 1.0]], [[np.inf]]], ids=["inf_in_2x2", "inf_1x1"]
)
def test_infinite_entry_gives_a_non_finite_factor(raw):
    # Cholesky succeeds with an inf on the diagonal; the factor guard rejects it.
    with pytest.raises(NotPositiveDefinite, match="^non-finite entries in Cholesky factor$"):
        pdcore.make_pd(raw)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("position", range(3))
def test_finite_vector_rejects_a_non_finite_entry_anywhere(bad, position):
    v = [0.5, -1.0, 2.0]
    v[position] = bad
    with pytest.raises(KLWishartError, match="^v must be finite$"):
        pdcore.finite_vector(v, (3,), "v")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_solved_rejects_one_non_finite_entry_last_in_a_large_array(bad):
    x = np.zeros((1000, 300))
    x[-1, -1] = bad
    with pytest.raises(FloatingPointError, match="^non-finite value encountered in solve$"):
        pdcore._solved(x)
    x[-1, -1] = 0.0
    assert pdcore._solved(x) is x


def _forward_substitution_quad(factor, v):
    """||L^{-1} v||^2 by forward substitution in long double: a reference
    for `whiten` that shares no code with it."""
    L = factor.astype(np.longdouble)
    y = np.zeros(len(v), dtype=np.longdouble)
    for i in range(len(v)):
        y[i] = (np.longdouble(v[i]) - L[i, :i] @ y[:i]) / L[i, i]
    return y @ y


class TestInverseFactor:
    def test_second_whiten_makes_no_solve(self, monkeypatch):
        calls = []
        linalg_solve = np.linalg.solve

        def counting_solve(*args):
            calls.append(args)
            return linalg_solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        a = random_pd(3, np.random.default_rng(1))
        first = pdcore.whiten(a, np.ones(3))
        assert len(calls) == 1
        second = pdcore.whiten(a, np.ones(3))
        pdcore.whiten(a, np.eye(3))
        assert len(calls) == 1
        assert first.tobytes() == second.tobytes()

    def test_cached_and_read_only(self):
        a = random_pd(3, np.random.default_rng(2))
        inv = a.inverse_factor
        assert a.inverse_factor is inv
        with pytest.raises(ValueError):
            inv[0, 0] = 1.0

    def test_non_finite_inverse_raises_and_is_not_kept(self):
        # A = L L' for L = I - 1e5 N, N the subdiagonal shift: Cholesky
        # recovers L exactly and every pivot ratio is 1 / (1e10 + 1), but
        # L^{-1}[63, 0] = 1e5^63 overflows.
        L = np.eye(64) - 1e5 * np.eye(64, k=-1)
        a = pdcore.make_pd(L @ L.T)
        for _ in range(2):
            with pytest.raises(FloatingPointError):
                a.inverse_factor
        assert a._inverse_factor is None

    @pytest.mark.parametrize("policy", ["raise", "ignore"])
    def test_overflowing_product_raises(self, policy):
        a = pdcore.make_pd([[1e-300]])
        with np.errstate(over=policy), pytest.raises(FloatingPointError):
            pdcore.whiten(a, [1e300])

    def test_inverse_and_solve_make_no_solve_once_cached(self, monkeypatch):
        calls = []
        linalg_solve = np.linalg.solve

        def counting_solve(*args):
            calls.append(args)
            return linalg_solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        a = random_pd(3, np.random.default_rng(3))
        a.inverse_factor
        assert len(calls) == 1
        pdcore.inverse(a)
        pdcore.solve(a, np.ones(3))
        pdcore.solve(a, np.eye(3))
        assert len(calls) == 1

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    def test_inverse_bitwise_the_two_solves(self, d):
        # A^{-1} = L^{-T} L^{-1}, a product of the cached inverse factor: its
        # bytes are every Wishart scale's and every sample's.  The copy makes
        # numpy multiply two distinct operands, as `solve` does; an operand
        # times its own transpose may take a symmetric rank-k route instead.
        rng = np.random.default_rng(d + 60)
        for _ in range(20):
            a = random_pd(d, rng)
            li = a.inverse_factor
            product = pdcore.make_pd(li.T @ li.copy())
            inv = pdcore.inverse(a)
            assert inv.entries.tobytes() == product.entries.tobytes()
            assert inv.factor.tobytes() == product.factor.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    def test_inverse_bitwise_make_pd_of_solve_against_identity(self, d):
        # `inverse` multiplies the cached factor directly; `solve(a, I)` also
        # multiplies by the identity, which must change no bit.
        rng = np.random.default_rng(d + 80)
        for _ in range(200):
            a = random_pd(d, rng)
            assert pdcore.inverse(a).entries.tobytes() == (
                pdcore.make_pd(pdcore.solve(a, np.eye(d))).entries.tobytes()
            )

    def test_inverse_of_a_cached_factor_makes_one_cholesky_and_no_solve(self, monkeypatch):
        calls = []
        for name in ("cholesky", "solve"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(np.linalg, name, counted)
        a = random_pd(3, np.random.default_rng(4))
        a.inverse_factor
        calls.clear()
        pdcore.inverse(a)
        assert calls == ["cholesky"]

    @pytest.mark.parametrize("policy", ["raise", "ignore"])
    def test_inverse_overflow_raises(self, policy):
        # L^{-1} = 1e155 is finite; L^{-T} L^{-1} = 1e310 is not.
        a = pdcore.make_pd([[1e-310]])
        a.inverse_factor
        with np.errstate(over=policy), pytest.raises(FloatingPointError):
            pdcore.inverse(a)

    def test_quadratic_form_accurate_up_to_the_pivot_threshold(self):
        rng = np.random.default_rng(77)
        worst, largest_cond = 0.0, 0.0
        for d in (2, 3, 5, 10):
            for _ in range(60):
                q, _ = np.linalg.qr(rng.standard_normal((d, d)))
                k = rng.uniform(0.0, 12.5)
                lam = 10.0 ** np.concatenate([[0.0, -k], rng.uniform(-k, 0.0, d - 2)])
                try:
                    a = pdcore.make_pd((q * lam) @ q.T)
                except NotPositiveDefinite:
                    continue
                largest_cond = max(largest_cond, np.linalg.cond(a.entries))
                for v in rng.standard_normal((5, d)):
                    y = pdcore.whiten(a, v)
                    ref = _forward_substitution_quad(a.factor, v)
                    worst = max(worst, float(abs(y @ y - ref) / ref))
        assert largest_cond > 1e11
        assert worst <= 1e-12


def _rng(draw):
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@st.composite
def conditioned_up_to_1e8(draw):
    """Q diag(lambda) Q' with Q orthogonal and max/min lambda <= 1e8."""
    d = draw(st.integers(1, 6))
    q, _ = np.linalg.qr(_rng(draw).standard_normal((d, d)))
    exponents = np.array(draw(st.lists(st.floats(0, 8), min_size=d, max_size=d)))
    scale = 10.0 ** draw(st.integers(-100, 100))
    return (q * (scale * 10.0**exponents)) @ q.T


@st.composite
def rank_deficient(draw):
    """Z Z' for a d x r matrix Z with r < d."""
    d = draw(st.integers(1, 6))
    z = _rng(draw).standard_normal((d, draw(st.integers(0, d - 1))))
    z *= 10.0 ** draw(st.integers(-100, 100))
    return z @ z.T


square = st.integers(0, 4).map(lambda d: (d, d))
below_1e300 = arrays(
    float,
    square | array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
    elements=st.floats(-1e300, 1e300),
)


class TestMakePDProperties:
    @given(conditioned_up_to_1e8())
    def test_accepts_condition_number_up_to_1e8(self, a):
        assert pdcore.make_pd(a).dim == a.shape[0]

    @given(rank_deficient())
    def test_rejects_rank_deficient(self, a):
        with pytest.raises(NotPositiveDefinite):
            pdcore.make_pd(a)

    @given(below_1e300)
    def test_raises_only_not_square_or_not_positive_definite(self, a):
        try:
            pdcore.make_pd(a)
        except (DimensionMismatch, NotPositiveDefinite):
            pass


class TestLogdet:
    def test_identity_zero(self):
        for d in (1, 2, 5):
            assert pdcore.make_pd(np.eye(d)).logdet == 0.0

    def test_diag_e(self):
        a = pdcore.make_pd(np.diag([np.e, np.e]))
        assert a.logdet == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_cofactor(self, d):
        rng = np.random.default_rng(d)
        a = random_pd(d, rng)
        assert a.logdet == pytest.approx(
            np.log(cofactor_det(a.entries)), abs=1e-10
        )


class TestSolve:
    def test_identity(self):
        a = pdcore.make_pd(np.eye(3))
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(pdcore.solve(a, b), b)

    def test_diagonal_inverse(self):
        a = pdcore.make_pd(np.diag([2.0, 4.0]))
        x = pdcore.solve(a, np.eye(2))
        assert np.allclose(x, np.diag([0.5, 0.25]))

    def test_residual(self):
        rng = np.random.default_rng(7)
        a = random_pd(5, rng)
        x = pdcore.solve(a, np.eye(5))
        assert np.linalg.norm(a.entries @ x - np.eye(5)) < 1e-10

    @pytest.mark.parametrize("d", range(1, 11))
    def test_roundtrip(self, d):
        rng = np.random.default_rng(d + 100)
        a = random_pd(d, rng)
        x = rng.standard_normal((d, 3))
        rec = pdcore.solve(a, a.entries @ x)
        assert np.linalg.norm(rec - x) < 1e-9 * max(1.0, np.linalg.norm(x))


class TestTraceProduct:
    def test_identity(self):
        for d in (1, 3):
            i = pdcore.make_pd(np.eye(d))
            assert pdcore.trace_product(i, i) == pytest.approx(d)

    def test_diag(self):
        a = pdcore.make_pd(np.diag([1.0, 2.0]))
        b = pdcore.make_pd(np.diag([3.0, 4.0]))
        assert pdcore.trace_product(a, b) == pytest.approx(11.0)

    def test_random_vs_explicit(self):
        rng = np.random.default_rng(3)
        a, b = random_pd(4, rng), random_pd(4, rng)
        oracle = np.trace(a.entries @ b.entries)
        assert pdcore.trace_product(a, b) == pytest.approx(oracle, rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pdcore.trace_product(
                pdcore.make_pd(np.eye(2)), pdcore.make_pd(np.eye(3))
            )


class TestQuadForm:
    def test_zero_vector(self):
        a = pdcore.make_pd(np.eye(3))
        assert pdcore.quad_form(np.zeros(3), a) == 0.0

    def test_basis_vector(self):
        a = pdcore.make_pd(np.diag([5.0, 7.0]))
        assert pdcore.quad_form(np.array([1.0, 0.0]), a) == pytest.approx(5.0)

    def test_random_vs_explicit(self):
        rng = np.random.default_rng(11)
        a = random_pd(4, rng)
        v = rng.standard_normal(4)
        oracle = float(v @ a.entries @ v)
        assert pdcore.quad_form(v, a) == pytest.approx(oracle, rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pdcore.quad_form(np.zeros(3), pdcore.make_pd(np.eye(2)))

    def test_positive_for_random_vectors(self):
        rng = np.random.default_rng(21)
        a = random_pd(3, rng)
        for _ in range(1000):
            v = rng.standard_normal(3)
            assert pdcore.quad_form(v, a) > 0.0


def test_inverse_logdet_negates():
    rng = np.random.default_rng(5)
    for d in (1, 2, 4, 7):
        a = random_pd(d, rng)
        inv = pdcore.inverse(a)
        assert inv.logdet == pytest.approx(-a.logdet, abs=1e-10)


def test_immutability():
    a = pdcore.make_pd(np.eye(2))
    with pytest.raises(ValueError):
        a.entries[0, 0] = 5.0


def test_finite_vector_names_the_wrong_shape():
    with pytest.raises(DimensionMismatch, match=r"^m has shape \(3,\), expected \(2,\)$"):
        pdcore.finite_vector([0.0, 0.0, 0.0], (2,), "m")
    with pytest.raises(DimensionMismatch, match=r"^m has shape \(1, 2\)"):
        pdcore.finite_vector([[0.0, 0.0]], (2,), "m")


_I2 = pdcore.make_pd(np.eye(2))
_STATS = inference.suff_stats([[1.0, 2.0], [3.0, 1.0], [0.0, 0.0], [2.0, 2.0]])


def _noninformative(mu):
    inference.noninformative_posterior(_STATS, known_mu=mu)


# Entry point -> a call on a caller's mean that returns the library's copy
# of it, or None where the result holds no copy.
_KEEPS_A_MEAN = {
    "gaussian": lambda mu: Gaussian(mu, _I2).mean,
    "known_mean_prior": lambda mu: KLWishartPrior(_I2, 1.0, mu).known_mean,
    "normal_wishart_prior": lambda mu: KLNormalWishartPrior(mu, _I2, 1.0).prior_mean,
    "noninformative_posterior": _noninformative,
    "ml_estimate": lambda mu: inference.ml_estimate(_STATS, known_mu=mu)[0],
}


@pytest.mark.parametrize("call", _KEEPS_A_MEAN.values(), ids=_KEEPS_A_MEAN)
def test_callers_mean_stays_writable_and_unshared(call):
    mu = np.array([0.5, 1.0])
    kept = call(mu)
    mu[0] = 7.0  # raises ValueError if the call froze the caller's array
    if kept is not None:
        assert not np.shares_memory(kept, mu) and not kept.flags.writeable
        assert kept.tolist() == [0.5, 1.0]
