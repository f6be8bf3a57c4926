"""Per-tile linear algebra of the classifier and the filter bank.

One numpy path, vectorized over time-frequency tiles and split into block
kernels.  A block kernel reads one block of frames of an array as channel
planes, a contiguous (channels, frames, bins) array, and writes with
`out=` into buffers its caller passes in; its temporaries are slices of
a `Workspace` that the caller allocated, so a block allocates no array.

  * `loglik_block`: the state covariances depend only on (state, bin), so
    their Cholesky factors are inverted once (`inverse_factors`) and each
    tile's quadratic form is a sum over the lower triangle of the inverse;
  * `mwf_factor` and `mwf_apply`: the multichannel Wiener filter, a
    Hermitian Cholesky factorization of the loaded mixture covariance,
    then forward and back solves per tile and the K source images; the
    noise image is the mixture minus their sum.

The powers have a frame axis of the block's length (time-varying) or 1
(static); with 1 the factorization holds for every frame.  `_loading` is
the one diagonal-loading rule, shared by the filter and, through
`_load_diagonal`, the classifier's state factors.

The library runs the block kernels only in the fused pass of `separator`,
one task per frame block on every core.  `loglik_accumulate` and
`mwf_filter` run them over a whole tensor, one block after another; no
library code calls them.  They stay as the serial references of the
tests and because the pipeline benchmark's tracer wraps them by name.
"""

from __future__ import annotations

import numpy as np

__all__ = ["USE_NUMBA", "loglik_accumulate", "mwf_filter"]

USE_NUMBA = False  # no compiled path; kept for environment reports

_EPS_RIDGE = 1e-9
_BLOCK = 8  # frames per block


class Workspace:
    """Scratch planes of one thread for blocks of up to `frames` frames.

      x      (channels, frames, bins) complex: the block's mixture planes
      y      (filter_channels, frames, bins) complex: one filter's solves
      ll     (frames, bins, states): log-likelihoods, then posteriors
      p      (sources, frames, bins) complex: powers, real part only
      L      (factor_channels, factor_channels, frames, bins) complex: the
             loaded covariance, then its Cholesky factor
      dinv   (factor_channels, frames, bins) complex, real part only: the
             reciprocals of the factor's diagonal
      c      (2, frames, bins) complex and r (4, frames, bins) float:
             temporaries
      mask   (frames, bins) and flags (frames, bins, states): booleans
      img    (images, image_channels, frames, bins) complex and
      t      (images, image_channels, frames, length) float: one filter's
             images of a block and their windowed frames, where the
             separation pass analyzes and synthesizes signals

    Made by the calling thread before any block runs.  The kernels take
    the leading channels and frames of each buffer.
    """

    def __init__(self, frames: int, bins: int, channels: int = 0,
                 factor_channels: int = 0, sources: int = 0,
                 states: int = 0, images: int = 0, image_channels: int = 0,
                 length: int = 0, filter_channels: int = 0):
        B, F, Cf = frames, bins, factor_channels
        self.img = np.empty((images, image_channels, B, F),
                            dtype=np.complex128)
        self.t = np.empty((images, image_channels, B, length))
        self.x = np.empty((channels, B, F), dtype=np.complex128)
        self.y = np.empty((filter_channels, B, F), dtype=np.complex128)
        self.ll = np.empty((B, F, states))
        self.p = np.zeros((sources, B, F), dtype=np.complex128)
        self.L = np.empty((Cf, Cf, B, F), dtype=np.complex128)
        self.dinv = np.zeros((Cf, B, F), dtype=np.complex128)
        self.c = np.empty((2, B, F), dtype=np.complex128)
        self.r = np.empty((4, B, F))
        self.mask = np.empty((B, F), dtype=bool)
        self.flags = np.empty((B, F, states), dtype=bool)


def _loading(trace, noise_over_c, out, positive):
    """Diagonal loading for a loaded trace (trace of S plus the noise power).

    noise/C plus a ridge of 1e-9 of the loaded trace, or 1e-9 when that
    trace is zero; keeps S positive definite for any nonnegative powers.
    Written to `out`, of trace's shape; `positive` is boolean scratch of
    that shape.
    """
    np.greater(trace, 0.0, out=positive)
    out.fill(_EPS_RIDGE)
    np.multiply(trace, _EPS_RIDGE, out=out, where=positive)
    out += noise_over_c
    return out


def _load_diagonal(S, noise_power):
    """Add the diagonal loading to S in place.

    S: (..., C, C) Hermitian PSD batch; noise_power broadcasts against its
    leading axes.  Returns the added amount, shape S.shape[:-2].
    """
    C = S.shape[-1]
    trace = np.einsum("...ii->...", S).real + noise_power
    diag_add = _loading(trace, noise_power / C, np.empty_like(trace),
                        np.empty(trace.shape, dtype=bool))
    idx = np.arange(C)
    S[..., idx, idx] += diag_add[..., None]
    return diag_add


def inverse_factors(factors):
    """(S, F, C, C) lower Cholesky factors -> their inverses, (S, C, C, F)."""
    Linv = np.linalg.inv(np.asarray(factors, dtype=np.complex128))
    return np.ascontiguousarray(Linv.transpose(0, 2, 3, 1))


def loglik_block(x, Linv, logdets, out, ws):
    """Subtract one array's state log-likelihood terms from one block.

    x:       (C, b, F) mixture planes
    Linv:    (S, C, C, F) inverse state factors, from `inverse_factors`
    logdets: (S, F) log det(pi * S_state)
    out:     (b, F, S) float, accumulated in place
    """
    C, b, _ = x.shape
    y, t = ws.c[0, :b], ws.c[1, :b]
    quad, sq = ws.r[0, :b], ws.r[1, :b]
    for s in range(Linv.shape[0]):
        quad.fill(0.0)
        for i in range(C):
            np.multiply(Linv[s, i, 0], x[0], out=y)
            for j in range(1, i + 1):
                np.multiply(Linv[s, i, j], x[j], out=t)
                y += t
            np.square(y.real, out=sq)
            quad += sq
            np.square(y.imag, out=sq)
            quad += sq
        quad += logdets[s]
        out[:, :, s] -= quad
    return out


def loglik_accumulate(X, factors, logdets, out):
    """Add one array's state log-likelihoods into `out`.

    X:       (N, F, C) complex observations of one array
    factors: (S, F, C, C) lower Cholesky factors of the state covariances
    logdets: (S, F) log det(pi * S_state)
    out:     (N, F, S) float, accumulated in place
    """
    N, F, C = X.shape
    Linv = inverse_factors(factors)
    ws = Workspace(_BLOCK, F, channels=C)
    for n0 in range(0, N, _BLOCK):
        n1 = min(n0 + _BLOCK, N)
        x = ws.x[:, :n1 - n0]
        np.copyto(x, np.transpose(X[n0:n1], (2, 0, 1)))
        loglik_block(x, Linv, logdets, out[n0:n1], ws)
    return out


def filter_operands(Rbar):
    """(K, F, C, C) spatial covariances -> (C, C, K, F) planes."""
    return np.ascontiguousarray(np.transpose(Rbar, (2, 3, 0, 1)),
                                dtype=np.complex128)


def mwf_factor(p, Rt, noise_power, noise_over_c, L, dinv, ws):
    """Cholesky factor of the loaded mixture covariance of one block.

    p:            (K, b, F) complex powers with zero imaginary part; b = 1
                  holds for every frame
    Rt:           (C, C, K, F) spatial covariance planes
    noise_power:  (F,) diffuse-noise power, and noise_over_c that over C
    L:            (C, C, b, F) receives S = sum_k p_k Rbar_k, loaded, and
                  then its lower factor in the strictly lower triangle
    dinv:         (C, b, F) with zero imaginary part; receives the
                  reciprocals of the factor's real diagonal
    """
    C = Rt.shape[0]
    K, b, _ = p.shape
    t = ws.c[0, :b]
    trace, load = ws.r[0, :b], ws.r[1, :b]
    for i in range(C):
        for j in range(i + 1):
            np.multiply(p[0], Rt[i, j, 0], out=L[i, j])
            for k in range(1, K):
                np.multiply(p[k], Rt[i, j, k], out=t)
                L[i, j] += t
    np.copyto(trace, L[0, 0].real)
    for i in range(1, C):
        trace += L[i, i].real
    trace += noise_power
    _loading(trace, noise_over_c, load, ws.mask[:b])
    for i in range(C):
        L[i, i].real += load
    for i in range(C):
        for j in range(i + 1):
            acc = L[i, j]
            for k in range(j):
                np.conjugate(L[j, k], out=t)
                np.multiply(L[i, k], t, out=t)
                acc -= t
            if i == j:
                d = dinv[i].real
                np.sqrt(acc.real, out=d)
                np.divide(1.0, d, out=d)
            else:
                acc *= dinv[j]


def mwf_apply(x, p, Rt, L, dinv, out, ws):
    """Source and noise images of one block.

    x:          (C, b, F) mixture planes
    p, L, dinv: the powers and the factor from `mwf_factor`, with a frame
                axis of b or 1
    Rt:         (C, C, K, F) spatial covariance planes
    out:        (K+1, C, b, F) receives the K source images and, last, the
                noise image X - sum_k images_k; the noise filter is
                I - sum_k W_k, so the image sum stays at X however
                ill-conditioned S is
    """
    C, b, _ = x.shape
    K = p.shape[0]
    y, t = ws.y[:C, :b], ws.c[0, :b]
    for i in range(C):
        np.copyto(y[i], x[i])
        for k in range(i):
            np.multiply(L[i, k], y[k], out=t)
            y[i] -= t
        y[i] *= dinv[i]
    for i in range(C - 1, -1, -1):
        for k in range(i + 1, C):
            np.conjugate(L[k, i], out=t)
            np.multiply(t, y[k], out=t)
            y[i] -= t
        y[i] *= dinv[i]
    rest = out[K]
    np.copyto(rest, x)
    for k in range(K):
        for c in range(C):
            img = out[k, c]
            np.multiply(Rt[c, 0, k], y[0], out=img)
            for d in range(1, C):
                np.multiply(Rt[c, d, k], y[d], out=t)
                img += t
            img *= p[k]
            rest[c] -= img


def mwf_filter(X, Rbar, powers, noise_power, block=_BLOCK):
    """Per-tile multichannel Wiener filtering, all sources at once.

    X:           (N, F, C) complex mixture tensor of one array
    Rbar:        (K, F, C, C) unit-trace spatial covariances
    powers:      (N, F, K) or (1, F, K) nonnegative per-source powers;
                 a leading axis of 1 holds for every frame
    noise_power: (F,) diffuse-noise power
    returns      (K+1, N, F, C), a view of one (K+1, C, N, F) buffer; the
                 last slot is the noise image, which absorbs the diagonal
                 loading so the images sum to X.
    Frames are processed `block` at a time.
    """
    X = np.asarray(X, dtype=np.complex128)
    N, F, C = X.shape
    K = Rbar.shape[0]
    Rt = filter_operands(Rbar)
    powers = np.asarray(powers, dtype=np.float64)
    noise_power = np.asarray(noise_power, dtype=np.float64)
    noise_over_c = noise_power / C
    out = np.empty((K + 1, C, N, F), dtype=np.complex128)
    static = powers.shape[0] == 1
    ws = Workspace(block, F, channels=C, factor_channels=C, sources=K,
                   filter_channels=C)
    for n0 in range(0, N, block):
        n1 = min(n0 + block, N)
        if n0 == 0 or not static:
            b = 1 if static else n1 - n0
            p, L, dinv = ws.p[:, :b], ws.L[:, :, :b], ws.dinv[:, :b]
            np.copyto(p.real, np.transpose(powers[n0:n0 + b], (2, 0, 1)))
            mwf_factor(p, Rt, noise_power, noise_over_c, L, dinv, ws)
        x = ws.x[:, :n1 - n0]
        np.copyto(x, np.transpose(X[n0:n1], (2, 0, 1)))
        mwf_apply(x, p, Rt, L, dinv, out[:, :, n0:n1], ws)
    return out.transpose(0, 2, 3, 1)
