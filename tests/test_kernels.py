import numpy as np
import pytest

from klwishart import _kernels


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_batch_matches_per_draw_construction(d):
    rng = np.random.default_rng(d)
    n = 50
    L = np.linalg.cholesky(np.eye(d) + 0.3 * np.ones((d, d)))
    tdiag = np.abs(rng.standard_normal((n, d))) + 0.1
    offd = rng.standard_normal((n, d * (d - 1) // 2))
    out = _kernels.batch_bartlett(L, tdiag, offd)
    assert out.shape == (n, d, d)
    for k in range(n):
        T = np.zeros((d, d))
        T[np.diag_indices(d)] = tdiag[k]
        T[np.tril_indices(d, k=-1)] = offd[k]
        expect = L @ T @ T.T @ L.T
        assert np.allclose(out[k], expect, atol=1e-14)
