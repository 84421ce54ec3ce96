"""Bartlett sampling kernel, vectorized over the draws with numpy.

The randoms are drawn by the caller, so for a given seed the samples
depend only on this arithmetic.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def batch_bartlett(L: np.ndarray, tdiag: np.ndarray, offd: np.ndarray) -> np.ndarray:
    """Stack of samples L T_k T_k' L' from pre-drawn Bartlett randoms."""
    n, d = tdiag.shape
    T = np.zeros((n, d, d))
    rows, cols = np.tril_indices(d, k=-1)
    T[:, rows, cols] = offd
    idx = np.arange(d)
    T[:, idx, idx] = tdiag
    A = L @ T
    return A @ A.transpose(0, 2, 1)
