"""Per-tile linear algebra of the classifier and the filter bank.

One numpy path, vectorized over time-frequency tiles.  Both kernels work
on channel planes: every channel (or matrix entry) of a block of frames is
one contiguous (frames, bins) array, and the channel recurrences step
through these planes, so each numpy pass reads memory with unit stride.

  * state log-likelihoods: the state covariances depend only on (state,
    bin), so their Cholesky factors are inverted once and each tile's
    quadratic form is a sum over the lower triangle of the inverse;
  * the multichannel Wiener filter: a Hermitian Cholesky factorization
    with forward and back solves per tile, as channel recurrences.  Its
    result is one (K+1, C, frames, bins) buffer, returned as a
    (K+1, frames, bins, C) view.

The filter's powers have a leading frame axis of N (time-varying) or 1
(static); with 1 the factorization is computed once for every frame.
`_loading` is the one diagonal-loading rule, shared by the filter and,
through `_load_diagonal`, the classifier's state factors.
"""

from __future__ import annotations

import numpy as np

__all__ = ["USE_NUMBA", "loglik_accumulate", "mwf_filter"]

USE_NUMBA = False  # no compiled path; kept for environment reports

_EPS_RIDGE = 1e-9
_BLOCK = 16  # frames per channel plane


def _loading(trace, noise_power, C):
    """Diagonal loading for a loaded trace (trace of S plus the noise power).

    noise/C plus a ridge of 1e-9 of the loaded trace, or 1e-9 when that
    trace is zero; keeps S positive definite for any nonnegative powers.
    """
    ridge = np.where(trace > 0.0, _EPS_RIDGE * trace, _EPS_RIDGE)
    return noise_power / C + ridge


def _load_diagonal(S, noise_power):
    """Add the diagonal loading to S in place.

    S: (..., C, C) Hermitian PSD batch; noise_power broadcasts against its
    leading axes.  Returns the added amount, shape S.shape[:-2].
    """
    C = S.shape[-1]
    trace = np.einsum("...ii->...", S).real + noise_power
    diag_add = _loading(trace, noise_power, C)
    idx = np.arange(C)
    S[..., idx, idx] += diag_add[..., None]
    return diag_add


def loglik_accumulate(X, factors, logdets, out):
    """Add one array's state log-likelihoods into `out`.

    X:       (N, F, C) complex observations of one array
    factors: (S, F, C, C) lower Cholesky factors of the state covariances
    logdets: (S, F) log det(pi * S_state)
    out:     (N, F, S) float, accumulated in place
    """
    N, F, C = X.shape
    Linv = np.linalg.inv(np.asarray(factors, dtype=np.complex128))
    Linv = np.ascontiguousarray(Linv.transpose(0, 2, 3, 1))  # (S, C, C, F)
    for n0 in range(0, N, _BLOCK):
        n1 = min(n0 + _BLOCK, N)
        Xb = np.ascontiguousarray(np.transpose(X[n0:n1], (2, 0, 1)),
                                  dtype=np.complex128)  # (C, B, F)
        for s in range(Linv.shape[0]):
            quad = np.zeros((n1 - n0, F))
            for i in range(C):
                y = Linv[s, i, 0] * Xb[0]
                for j in range(1, i + 1):
                    y += Linv[s, i, j] * Xb[j]
                quad += y.real ** 2
                quad += y.imag ** 2
            out[n0:n1, :, s] -= quad + logdets[s]
    return out


def _weighted_sum(w, planes):
    """sum_k w[k] * planes[k], with broadcasting."""
    acc = w[0] * planes[0]
    for k in range(1, len(w)):
        acc += w[k] * planes[k]
    return acc


def _cholesky(S):
    """Lower Cholesky factor of a Hermitian PD matrix of planes, in place.

    S[i][j] for j <= i are (..., F) complex planes, overwritten.  Returns
    the strictly lower factor L[i][j] (j < i) in the same nested form and
    the reciprocals of its real diagonal, as complex planes.
    """
    C = len(S)
    dinv = [None] * C
    for i in range(C):
        for j in range(i + 1):
            acc = S[i][j]
            for k in range(j):
                acc -= S[i][k] * np.conj(S[j][k])
            if i == j:
                dinv[i] = (1.0 / np.sqrt(acc.real)).astype(np.complex128)
            else:
                acc *= dinv[j]
    return S, dinv


def _cho_solve(L, dinv, x):
    """Solve L L^H z = x plane by plane; x is a sequence of C planes."""
    C = len(L)
    y = [None] * C
    for i in range(C):
        acc = x[i].copy()
        for k in range(i):
            acc -= L[i][k] * y[k]
        acc *= dinv[i]
        y[i] = acc
    for i in range(C - 1, -1, -1):
        acc = y[i]
        for k in range(i + 1, C):
            acc -= np.conj(L[k][i]) * y[k]
        acc *= dinv[i]
    return y


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
    Frames are processed `block` at a time to bound the temporaries.
    """
    X = np.asarray(X, dtype=np.complex128)
    N, F, C = X.shape
    K = Rbar.shape[0]
    Rt = np.ascontiguousarray(
        np.transpose(Rbar, (2, 3, 0, 1)), dtype=np.complex128)  # (C, C, K, F)
    powers = np.asarray(powers, dtype=np.float64)
    noise_power = np.asarray(noise_power, dtype=np.float64)
    out = np.empty((K + 1, C, N, F), dtype=np.complex128)
    static = powers.shape[0] == 1
    for n0 in range(0, N, block):
        n1 = min(n0 + block, N)
        if n0 == 0 or not static:
            p = np.ascontiguousarray(
                np.transpose(powers if static else powers[n0:n1], (2, 0, 1)),
                dtype=np.complex128)  # (K, B|1, F)
            S = [[_weighted_sum(p, Rt[i, j]) for j in range(i + 1)]
                 for i in range(C)]
            trace = sum(S[i][i].real for i in range(C)) + noise_power
            diag_add = _loading(trace, noise_power, C)
            for i in range(C):
                S[i][i] += diag_add
            L, dinv = _cholesky(S)
        # (C, B, F); always a copy, since the noise image is formed in it
        Xb = np.transpose(X[n0:n1], (2, 0, 1)).copy()
        y = _cho_solve(L, dinv, Xb)
        # the noise filter is I - sum_k W_k, so taking the noise image as
        # the rest keeps the image sum at X however ill-conditioned S is
        rest = Xb
        for k in range(K):
            for c in range(C):
                img = _weighted_sum(Rt[c, :, k], y)
                img *= p[k]
                out[k, c, n0:n1] = img
                rest[c] -= img
        out[K, :, n0:n1] = rest
    return out.transpose(0, 2, 3, 1)
