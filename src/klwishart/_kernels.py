"""Bartlett sampling kernel: triangular arithmetic over blocks of draws.

The randoms are drawn by the caller, so for a given seed the samples
depend only on this arithmetic. Each draw is computed from its own
randoms alone, so the result does not depend on the block size.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

# Draws per block. The scratch, three (d, d, _BLOCK) buffers, is 9.4 MiB at
# d = 10 against 76 MiB of output for 1e5 draws, and numpy's per-call
# overhead is spread over 4096 draws.
_BLOCK = 4096


def batch_bartlett(
    L: np.ndarray, tdiag: np.ndarray, offd: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Stack of samples L T_k T_k' L' from pre-drawn Bartlett randoms,
    written into `out` (n, d, d) when given, else into a new array.

    T_k is lower triangular with diagonal tdiag[k] and strict lower
    triangle offd[k] in row-major order. L and T_k are both lower
    triangular, so A = L T_k is too, with
    A[i, j] = L[i, j] T[j, j] + L[i, j+1] T[j+1, j] + ... + L[i, i] T[i, j];
    then, for j <= i, C[i, j] = A[i, 0] A[j, 0] + ... + A[i, j] A[j, j] and
    C[j, i] = C[i, j]. Both sums are added left to right.

    Each entry is one length-b vector over a block of b draws, so numpy
    runs the arithmetic elementwise across draws.
    """
    n, d = tdiag.shape
    if out is None:
        out = np.empty((n, d, d))
    size = min(n, _BLOCK)
    a, c, tmp = (np.empty((d, d, size)) for _ in range(3))
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        b = stop - start
        t_diag = np.ascontiguousarray(tdiag[start:stop].T)
        t_off = np.ascontiguousarray(offd[start:stop].T)
        ab, cb, tb = a[:, :, :b], c[:, :, :b], tmp[:, :, :b]
        # A = L T, adding column k of L times row k of T for k = 0, 1, ...;
        # row k of T below its diagonal is t_off[k(k-1)/2 : k(k+1)/2].
        for k in range(d):
            np.multiply(L[k:, k, None], t_diag[k], out=ab[k:, k])
            part = tb[: d - k, :k]
            np.multiply(L[k:, k, None, None], t_off[k * (k - 1) // 2 : k * (k + 1) // 2], out=part)
            ab[k:, :k] += part
        # Lower triangle of A A', one row at a time, then its mirror.
        for i in range(d):
            np.multiply(ab[i, 0], ab[: i + 1, 0], out=cb[i, : i + 1])
            for k in range(1, i + 1):
                part = tb[0, : i + 1 - k]
                np.multiply(ab[i, k], ab[k : i + 1, k], out=part)
                cb[i, k : i + 1] += part
            cb[:i, i] = cb[i, :i]
        out[start:stop] = cb.transpose(2, 0, 1)
    return out
