import tracemalloc

import numpy as np
import pytest

from klwishart import _kernels

B = _kernels._BLOCK


def randoms(d, n, seed):
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(np.eye(d) + 0.3 * np.ones((d, d)))
    tdiag = np.abs(rng.standard_normal((n, d))) + 0.1
    offd = rng.standard_normal((n, d * (d - 1) // 2))
    return L, tdiag, offd


def scalar_bartlett(L, tdiag, offd):
    """One draw at a time in Python floats, adding in the kernel's order:
    A[i, j] = L[i, j] T[j, j] + L[i, j+1] T[j+1, j] + ... + L[i, i] T[i, j],
    C[i, j] = A[i, 0] A[j, 0] + ... + A[i, j] A[j, j] for j <= i."""
    n, d = tdiag.shape
    L = L.tolist()
    out = np.empty((n, d, d))
    for r in range(n):
        T = [[0.0] * d for _ in range(d)]
        off = iter(offd[r].tolist())
        for i in range(d):
            for j in range(i):
                T[i][j] = next(off)
            T[i][i] = float(tdiag[r, i])
        A = [[0.0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1):
                s = L[i][j] * T[j][j]
                for k in range(j + 1, i + 1):
                    s += L[i][k] * T[k][j]
                A[i][j] = s
        for i in range(d):
            for j in range(i + 1):
                s = A[i][0] * A[j][0]
                for k in range(1, j + 1):
                    s += A[i][k] * A[j][k]
                out[r, i, j] = out[r, j, i] = s
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 6, 10])
def test_batch_matches_per_draw_construction(d):
    n = 50
    L, tdiag, offd = randoms(d, n, d)
    out = _kernels.batch_bartlett(L, tdiag, offd)
    assert out.shape == (n, d, d)
    for k in range(n):
        T = np.zeros((d, d))
        T[np.diag_indices(d)] = tdiag[k]
        T[np.tril_indices(d, k=-1)] = offd[k]
        expect = L @ T @ T.T @ L.T
        assert np.allclose(out[k], expect, atol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3, 6, 10])
def test_bitwise_equal_to_scalar_loop(d):
    L, tdiag, offd = randoms(d, 40, d + 20)
    assert np.array_equal(_kernels.batch_bartlett(L, tdiag, offd), scalar_bartlett(L, tdiag, offd))


@pytest.mark.parametrize("d", [1, 2, 3, 6, 10])
def test_exactly_symmetric(d):
    out = _kernels.batch_bartlett(*randoms(d, B + 7, d + 40))
    assert np.array_equal(out, out.transpose(0, 2, 1))


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_rows_do_not_depend_on_block(n):
    d = 3
    L, tdiag, offd = randoms(d, n, n)
    out = _kernels.batch_bartlett(L, tdiag, offd)
    assert out.shape == (n, d, d)
    for r in range(n):
        alone = _kernels.batch_bartlett(L, tdiag[r : r + 1], offd[r : r + 1])
        assert np.array_equal(out[r], alone[0]), r


def test_writes_into_given_output():
    d, n = 3, B + 7
    L, tdiag, offd = randoms(d, n, 60)
    buffer = np.full((n + 2, d, d), np.nan)
    view = buffer[1:-1]
    assert _kernels.batch_bartlett(L, tdiag, offd, out=view) is view
    assert np.array_equal(view, _kernels.batch_bartlett(L, tdiag, offd))
    assert np.isnan(buffer[[0, -1]]).all()


def test_peak_memory_close_to_output_size():
    L, tdiag, offd = randoms(10, 100_000, 0)
    tracemalloc.start()
    try:
        out = _kernels.batch_bartlett(L, tdiag, offd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * out.nbytes, (peak, out.nbytes)
