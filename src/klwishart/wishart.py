"""Wishart and inverse-Wishart distributions for real shape nu > d - 1.

Parameters are stored scatter-side (S = V^{-1}) because the posterior
update formulas are additive in S; the scale V is derived on demand.
There is one parameter type: in the Dawid convention C ~ IW(S, nu) iff
P = C^{-1} ~ W(S^{-1}, nu), so `iw_log_pdf` and `iw_mode` take the
`WishartParams` of P and read S from its `scale_inv`.
`_log_pdf` is the one copy of the density, and `wishart_mode` the one route to the mode.
Sampling uses the Bartlett construction, valid for any real nu > d - 1.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from . import pdcore
from ._kernels import _BLOCK, batch_bartlett
from .errors import DimensionMismatch, InvalidShape
from .pdcore import PDMatrix, PDStack, raise_fp_errors

LOG_PI = math.log(math.pi)

# Draws per chunk of randoms in `sample_wishart_batch`: one kernel block, so
# each kernel call runs one block on randoms already in its layout.  The
# first chunk is drawn before any kernel runs, so a chunk is kept short; a
# call of at most one chunk starts no thread.  Each chunk draws from its own
# generator, so the samples of a seed change with _CHUNK.
_CHUNK = _BLOCK

# Chunks of randoms a call holds at once: chunk k is drawn into slot
# k % _RING, and only once the kernel has read the chunk before it in that
# slot.  The bytes do not depend on _RING.
_RING = 4


def validate_shape(nu: float, d: int) -> None:
    """Enforce a finite nu > d - 1 (strict); low integer shapes give
    rank-deficient samples and cannot support a density on PD matrices."""
    if not math.isfinite(nu):
        raise InvalidShape(f"Wishart shape must be finite; got nu={nu}")
    if not nu > d - 1:
        raise InvalidShape(
            f"Wishart shape must satisfy nu > d - 1; got nu={nu} with d={d}"
        )


@raise_fp_errors
def multivariate_log_gamma(a: float, d: int) -> float:
    """log Gamma_d(a) = (d(d-1)/4) log pi + sum_j log Gamma(a + (1-j)/2).

    Overflow raises FloatingPointError: math.lgamma's OverflowError is
    renamed, and the terms are summed as numpy scalars.
    """
    try:
        terms = [math.lgamma(a + (1 - j) / 2.0) for j in range(1, d + 1)]
    except OverflowError:
        raise FloatingPointError("overflow encountered in lgamma") from None
    return d * (d - 1) / 4.0 * LOG_PI + sum(terms, np.float64(0.0))


class WishartParams:
    """Wishart W(V, nu) stored via the scatter-side parameter S = V^{-1}.

    `log_normaliser` is computed on first access and kept, as `PDMatrix`
    keeps its log-determinant: a fixed prior's densities read it many times.
    """

    __slots__ = ("scale_inv", "shape", "_log_normaliser")

    def __init__(self, scale_inv: PDMatrix, shape: float):
        pdcore._one_matrix(scale_inv, "Wishart scale_inv")
        validate_shape(shape, scale_inv.dim)
        self.scale_inv = scale_inv
        # A numpy scalar, so arithmetic on the shape obeys raise_fp_errors.
        self.shape = np.float64(shape)
        self._log_normaliser = None

    @property
    def dim(self) -> int:
        return self.scale_inv.dim

    @property
    @raise_fp_errors
    def log_normaliser(self) -> np.float64:
        """log Z of W(S^{-1}, nu) = (nu d / 2) log 2 + (nu/2) log|V|
        + log Gamma_d(nu/2), with log|V| = -log|S|; an overflow raises
        FloatingPointError and is not kept."""
        if self._log_normaliser is None:
            d, nu = self.dim, self.shape
            self._log_normaliser = (
                nu * d / 2.0 * math.log(2.0)
                - nu / 2.0 * self.scale_inv.logdet
                + multivariate_log_gamma(nu / 2.0, d)
            )
        return self._log_normaliser

    def scale(self) -> PDMatrix:
        """V = S^{-1}."""
        return pdcore.inverse(self.scale_inv)


def _log_pdf(w: WishartParams, logdet, trace):
    """log W(P | V, nu) from log|P| and tr(P S): the one copy of the
    formula, for one P, for each member of a stack, or for P = C^{-1}."""
    return (w.shape - w.dim - 1) / 2.0 * logdet - 0.5 * trace - w.log_normaliser


@raise_fp_errors
def wishart_log_pdf(w: WishartParams, P: PDMatrix) -> float:
    """log W(P | V, nu) with V = S^{-1}; `trace_product` rejects a P of
    another dimension."""
    return float(_log_pdf(w, P.logdet, pdcore.trace_product(P, w.scale_inv)))


@raise_fp_errors
def wishart_log_pdf_stack(w: WishartParams, P: PDStack) -> np.ndarray:
    """`wishart_log_pdf` of each member of a stack P, a (T,) array."""
    return _log_pdf(w, P.logdet, pdcore.trace_product_stack(P, w.scale_inv))


@raise_fp_errors
def wishart_mean(w: WishartParams) -> PDMatrix:
    """E[P] = nu V."""
    return pdcore.make_pd(w.shape * w.scale().entries)


def _excess(w: WishartParams, what: str) -> np.float64:
    """nu - d - 1, which `what` needs positive; InvalidShape otherwise."""
    if not w.shape > w.dim + 1:
        raise InvalidShape(f"{what} requires nu > d + 1; got nu={w.shape} with d={w.dim}")
    return w.shape - w.dim - 1


@raise_fp_errors
def wishart_mean_inverse(w: WishartParams) -> PDMatrix:
    """E[P^{-1}] = S / (nu - d - 1); InvalidShape unless nu > d + 1, where
    the expectation is finite."""
    return pdcore.make_pd(w.scale_inv.entries / _excess(w, "E[P^-1]"))


@raise_fp_errors
def wishart_mode(w: WishartParams) -> PDMatrix:
    """Mode (nu - d - 1) V = (nu - d - 1) L^{-T} L^{-1}, from S = L L''s cached
    L^{-1} in one `make_pd`; InvalidShape unless nu > d + 1, where the mode
    is interior (at nu = d + 1 it is the singular zero matrix)."""
    li = w.scale_inv.inverse_factor
    return pdcore.make_pd(_excess(w, "mode") * (li.T @ li))


@raise_fp_errors
def sample_wishart_batch(w: WishartParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Bartlett draws as an (n, d, d) array.

    T lower triangular with T_ii^2 ~ chi-square(nu - i + 1) and standard
    normal strict lower triangle; sample = L T T' L' with L = chol(V).

    The draws are made in chunks of _CHUNK rows (the last chunk may be
    shorter), and each chunk draws its randoms from its own generator.
    The chunk generators are children of one `np.random.SeedSequence`
    seeded by 4 integers drawn from `rng`, built on `rng`'s bit generator
    type; so the samples depend on `rng`'s state and on _CHUNK, and `rng`
    advances by those 4 integers whatever n is.  A chunk of b draws takes
    from its generator b gammas of shape (nu - i + 1)/2 for i = 1, ..., d in
    turn, then its b d(d-1)/2 normals, all b of the first entry of T's
    strict lower triangle (row-major order) first, then all b of the next,
    and so on.  Each chunk is drawn into C-ordered (d, b) and
    (d(d-1)/2, b) views of one of _RING slot buffers, whose transposes the
    kernel reads without a copy.  A call holds its output, _RING chunks of
    randoms and the kernel's scratch at once: 92.6 MiB at d = 10, n = 1e5
    (tracemalloc), 76.3 MiB of it the output.

    When n > _CHUNK, one helper thread starts, claims chunks 1, 2, ... in
    order and draws them, while the calling thread draws chunk 0, which no
    thread claims; when the chunk the caller needs next is not drawn yet,
    the caller claims and draws the next unclaimed chunk instead of
    waiting, so both threads draw (numpy's generators release the
    interpreter lock while they draw).  A chunk is claimed only once the
    kernel has read the chunk _RING before it, whose slot it takes; the
    helper waits for that slot.  Every claim and draw, and the handling of
    a failed draw, is one `_Draws.step`.
    The x2, sqrt and kernel run on the calling thread only, chunk by chunk
    in order, under this function's floating-point policy.  A chunk gives
    the same randoms whichever thread draws it.
    """
    d = w.dim
    L = w.scale().factor
    out = np.empty((n, d, d))
    starts = range(0, n, _CHUNK)
    sizes = [min(_CHUNK, n - start) for start in starts]
    draws = _Draws(rng, [(w.shape - i) / 2.0 for i in range(d)], sizes)

    def draw_rest():
        while draws.wait_for_slot():
            draws.step()

    helper = None
    if len(starts) > 1:
        helper = threading.Thread(target=draw_rest)
        helper.start()
    try:
        draws.step(0)
        for k, start in enumerate(starts):
            g, z = draws.wait_for(k)
            np.sqrt(np.multiply(g, 2.0, out=g), out=g)
            batch_bartlett(L, g.T, z.T, out=out[start : start + _CHUNK])
    finally:
        if helper is not None:
            draws.stop()
            helper.join()
    return out


class _Draws:
    """The randoms of one `sample_wishart_batch` call, one generator per
    chunk, drawn into a ring of _RING slot buffers: chunk k into slot
    k % _RING.  Chunks 1, 2, ... are claimed in order by whichever thread
    asks first, chunk k only once the kernel has read chunk k - _RING,
    whose slot it takes.  One condition guards the claims, the freed slots
    and `drawn`: `drawn[k]` is set once chunk k is drawn, or its draw
    failed."""

    def __init__(self, rng: np.random.Generator, shapes: list, sizes: list):
        seeds = np.random.SeedSequence(rng.integers(2**63, size=4).tolist()).spawn(len(sizes))
        bit_generator = type(rng.bit_generator)
        self.streams = [np.random.Generator(bit_generator(seed)) for seed in seeds]
        self.shapes, self.sizes = shapes, sizes
        d = len(shapes)
        self.width = d * (d + 1) // 2  # d gammas and d(d-1)/2 normals a draw
        self.slots = [np.empty(self.width * sizes[0]) for _ in range(min(_RING, len(sizes)))]
        self.drawn = [False] * len(sizes)
        self.error = None
        self._next, self._read, self._cond = 1, 0, threading.Condition()

    def chunk(self, k: int) -> tuple:
        """Chunk k's (d, b) gammas and (d(d-1)/2, b) normals, C-ordered
        views of the front of its slot."""
        b, d = self.sizes[k], len(self.shapes)
        slot = self.slots[k % _RING]
        return slot[: d * b].reshape(d, b), slot[d * b : self.width * b].reshape(-1, b)

    def stop(self) -> None:
        """Hand out no further chunk, and wake a thread waiting for a slot."""
        with self._cond:
            self._next = len(self.sizes)
            self._cond.notify_all()

    def step(self, k: int | None = None) -> int | None:
        """Draw chunk k, else claim the next if its slot is free, from its
        own generator: row i of its gammas from standard_gamma(shapes[i]),
        then its normals; its index, or None where no chunk can be claimed
        now (past the last chunk, so after `stop`, or the next chunk's slot
        still held).  An error is kept in `error` and ends the claims;
        `drawn` is set either way."""
        with self._cond:
            if k is None:
                k = self._next
                if k >= self._read + _RING:
                    return None
                self._next += 1
        if k >= len(self.sizes):
            return None
        rng, (gammas, normals) = self.streams[k], self.chunk(k)
        try:
            for row, shape in zip(gammas, self.shapes):
                rng.standard_gamma(shape, out=row)
            rng.standard_normal(out=normals)
        except BaseException as exc:  # raised again by `wait_for`
            self.error = exc
            self.stop()
        with self._cond:
            self.drawn[k] = True
            self._cond.notify_all()
        return k

    def wait_for_slot(self) -> bool:
        """Wait until the next chunk's slot is free or no chunk is left;
        whether a chunk is left to claim."""
        with self._cond:
            self._cond.wait_for(
                lambda: self._next < self._read + _RING or self._next >= len(self.sizes)
            )
            return self._next < len(self.sizes)

    def wait_for(self, k: int) -> tuple:
        """Chunk k's `chunk` views once it is drawn, drawing claimable chunks
        meanwhile; raise the error of a failed draw, if there was one.  The
        kernel has read every chunk before k, so their slots are freed."""
        with self._cond:
            self._read = k
            self._cond.notify_all()
        while not self.drawn[k]:
            if self.step() is None:
                with self._cond:
                    self._cond.wait_for(lambda: self.drawn[k])
        if self.error is not None:
            raise self.error
        return self.chunk(k)


@raise_fp_errors
def iw_log_pdf(w: WishartParams, C: PDMatrix) -> float:
    """log density of C = P^{-1} for P ~ w = W(S^{-1}, nu), that is
    log IW(C | S, nu) = log W(C^{-1} | S^{-1}, nu) - (d+1) log|C|: `_log_pdf`
    at log|P| = -log|C| and tr(P S) = tr(C^{-1} S), plus the Jacobian.

    Evaluated from the factors without inverting C:
    tr(C^{-1} S) = ||L_C^{-1} L_S||_F^2.  A C of another dimension, or a
    `PDStack`, raises DimensionMismatch.
    """
    if C.entries.shape != w.scale_inv.entries.shape:
        raise DimensionMismatch(f"iw_log_pdf: {C.entries.shape} vs {w.scale_inv.entries.shape}")
    trace = np.sum(pdcore.whiten(C, w.scale_inv.factor) ** 2)
    return float(_log_pdf(w, -C.logdet, trace) - (w.dim + 1) * C.logdet)


def iw_mode(w: WishartParams) -> PDMatrix:
    """Mode S / (nu + d + 1) of C = P^{-1} for P ~ w."""
    return pdcore.make_pd(w.scale_inv.entries / (w.shape + w.dim + 1))
