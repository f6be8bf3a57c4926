"""Per-tile linear algebra of the classifier and the filter bank.

One numpy path, vectorized over time-frequency tiles and split into block
kernels.  A block kernel reads one block of frames of an array as channel
planes, a contiguous (channels, frames, bins) array, and writes with
`out=` into buffers its caller passes in; its temporaries are slices of
a `Workspace` that the caller allocated, so a block allocates no array.

  * `loglik_block`: the state covariances depend only on (state, bin), so
    their Cholesky factors are inverted once (`inverse_factors`) and each
    tile's quadratic form is a sum over the lower triangle of the inverse;
  * `mwf_factor`, `mwf_solve` and `mwf_apply`: the multichannel Wiener
    filter, a Hermitian Cholesky factorization of the loaded mixture
    covariance, then forward and back solves per tile over every channel,
    and the K source images of any range of channels; the noise image is
    the mixture minus their sum.

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

import math

import numpy as np

__all__ = ["USE_NUMBA", "loglik_accumulate", "mwf_filter"]

USE_NUMBA = False  # no compiled path; kept for environment reports

_EPS_RIDGE = 1e-9
_BLOCK = 8  # frames per block


class Workspace:
    """Scratch planes of one thread for blocks of up to `frames` frames.

      x      (channels, frames, bins) complex: the block's mixture planes
      ll     (frames, bins, states): log-likelihoods, then posteriors
      p      (sources, frames, bins) complex: powers, real part only
      c      (2, frames, bins) complex and r (4, frames, bins) float:
             temporaries
      mask   (frames, bins) and flags (frames, bins, states): booleans
      winners (frames, bins) integers: the state that wins each tile
    and, views of one arena,
      y      (filter_channels, frames, bins) complex: one filter's solves
      img    (images, image_channels, frames, bins) complex: one device's
             images of a block, where the separation pass synthesizes
             signals
      L      (factor_channels, factor_channels, frames, bins) complex: the
             loaded covariance, then its Cholesky factor
      dinv   (factor_channels, frames, bins) complex: the reciprocals of
             the factor's diagonal
      own    (frames, bins, states), or no frames unless `own`: one
             array's own log-likelihoods, then posteriors, where a pass
             also sums them in ll
      t      (frame_images, image_channels, frames, length) float: the
             windowed frames of the images a device's writer synthesizes;
             a `dsp._Reader` takes t[:2] for a block's samples and frames
      idle   float: img and t as one run, idle until a block's first
             filter: a device's recording and truth are rendered over it,
             then framed in t, device by device

    Made by the calling thread before any block runs.  The kernels take
    the leading channels and frames of each buffer.  The arena holds, in
    this order, the solves of a filter over several devices
    (filter_channels above image_channels), which outlive each device's
    synthesis; img, with L, dinv and own over it; and t, with the solves
    of a filter of one device over it.  A filter's factor is spent once
    its solves are formed, before its images are; an array's own
    posteriors once its powers are formed, before its filter starts; and
    the solves of one device once its images are formed, before they are
    synthesized.
    """

    def __init__(self, frames: int, bins: int, channels: int = 0,
                 factor_channels: int = 0, sources: int = 0,
                 states: int = 0, images: int = 0, image_channels: int = 0,
                 length: int = 0, filter_channels: int = 0,
                 own: bool = False, frame_images: int = 0):
        B, F, Cf, Ci = frames, bins, factor_channels, image_channels
        self.x = np.empty((channels, B, F), dtype=np.complex128)
        self.ll = np.empty((B, F, states))
        self.p = np.zeros((sources, B, F), dtype=np.complex128)
        self.c = np.empty((2, B, F), dtype=np.complex128)
        self.r = np.empty((4, B, F))
        self.mask = np.empty((B, F), dtype=bool)
        self.flags = np.empty((B, F, states), dtype=bool)
        self.winners = np.empty((B, F), dtype=np.intp)
        c16, f8 = np.complex128, np.float64
        fields = {"y": ((filter_channels, B, F), c16),
                  "img": ((images, Ci, B, F), c16),
                  "L": ((Cf, Cf, B, F), c16), "dinv": ((Cf, B, F), c16),
                  "own": ((B if own else 0, F, states), f8),
                  "t": ((frame_images, Ci, B, length), f8)}
        size = {name: math.prod(shape) * np.dtype(dtype).itemsize
                for name, (shape, dtype) in fields.items()}
        alone = filter_channels > Ci
        # the regions in arena order, each of fields laid over each
        # other: (field, its byte offset in the region)
        regions = [[("y", 0)] if alone else [],
                   [("img", 0), ("L", 0), ("dinv", size["L"]), ("own", 0)],
                   [("t", 0)] + ([] if alone else [("y", 0)])]
        offsets, at = {}, 0
        for region in regions:
            for name, offset in region:
                offsets[name] = at + offset
            end = max((at + offset + size[name] for name, offset in region),
                      default=at)
            at = -(-end // 64) * 64  # each region 64-byte aligned
        self.arena = np.empty(at // 8)
        raw = self.arena.view(np.uint8)
        for name, (shape, dtype) in fields.items():
            view = raw[offsets[name]:offsets[name] + size[name]]
            setattr(self, name, view.view(dtype).reshape(shape))
        self.idle = raw[offsets["img"]:].view(f8)


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
    dinv:         (C, b, F) complex; receives the reciprocals of the
                  factor's real diagonal, with zero imaginary part
    """
    C = Rt.shape[0]
    K, b, _ = p.shape
    dinv.imag[...] = 0.0
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


def mwf_solve(x, L, dinv, ws):
    """Forward and back solves of one block: ws.y[:C, :b] = S^-1 x.

    x:       (C, b, F) mixture planes
    L, dinv: the factor from `mwf_factor`, with a frame axis of b or 1
    """
    C, b, _ = x.shape
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


def mwf_apply(x, p, Rt, rows, out, ws):
    """Source and noise images of one block, on the channels `rows`.

    x:    (C, b, F) mixture planes, whose solves `mwf_solve` left in ws.y
    p:    the powers of `mwf_factor`, with a frame axis of b or 1
    Rt:   (C, C, K, F) spatial covariance planes
    rows: a slice of the C channels, one device's of a merged array
    out:  (K+1, rows, b, F) receives the K source images and, last, the
          noise image X - sum_k images_k; the noise filter is
          I - sum_k W_k, so the image sum stays at X however
          ill-conditioned S is
    """
    C, b, _ = x.shape
    K = p.shape[0]
    y, t = ws.y[:C, :b], ws.c[0, :b]
    rest = out[K]
    np.copyto(rest, x[rows])
    for k in range(K):
        for i, c in enumerate(range(C)[rows]):
            img = out[k, i]
            np.multiply(Rt[c, 0, k], y[0], out=img)
            for d in range(1, C):
                np.multiply(Rt[c, d, k], y[d], out=t)
                img += t
            img *= p[k]
            rest[i] -= img


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
        mwf_solve(x, L, dinv, ws)
        mwf_apply(x, p, Rt, slice(0, C), out[:, :, n0:n1], ws)
    return out.transpose(0, 2, 3, 1)
