"""Per-tile linear algebra of the classifier and the filter bank.

One numpy path, vectorized over batches of time-frequency tiles:

  * state log-likelihoods: the state covariances depend only on (state,
    bin), so their Cholesky factors are inverted once and each tile's
    quadratic form is one small matrix product;
  * the multichannel Wiener filter: a Hermitian Cholesky factorization
    with forward and back solves per tile, as channel recurrences.

The filter's powers have a leading frame axis of N (time-varying) or 1
(static); with 1 the factorization is computed once for every frame.
`_load_diagonal` is the one diagonal-loading rule, shared by the filter
and the classifier's state factors.
"""

from __future__ import annotations

import numpy as np

__all__ = ["USE_NUMBA", "loglik_accumulate", "mwf_filter"]

USE_NUMBA = False  # no compiled path; kept for environment reports

_EPS_RIDGE = 1e-9


def _load_diagonal(S, noise_power):
    """Add noise/C plus a trace-scaled ridge to the diagonal of S in place.

    S: (..., C, C) Hermitian PSD batch; noise_power broadcasts against its
    leading axes.  Returns the added amount, shape S.shape[:-2].  The
    ridge (1e-9 of the loaded trace, or 1e-9 when that trace is zero)
    keeps S positive definite for any nonnegative powers.
    """
    C = S.shape[-1]
    trace = np.einsum("...ii->...", S).real + noise_power
    ridge = np.where(trace > 0.0, _EPS_RIDGE * trace, _EPS_RIDGE)
    diag_add = noise_power / C + ridge
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
    Linv = np.linalg.inv(np.asarray(factors, dtype=np.complex128))
    Xt = np.ascontiguousarray(np.transpose(X, (1, 2, 0)), dtype=np.complex128)
    for s in range(Linv.shape[0]):  # one (F, C, N) buffer at a time
        y = Linv[s] @ Xt
        quad = (y.real ** 2 + y.imag ** 2).sum(axis=1)  # (F, N)
        out[:, :, s] += -quad.T - logdets[s][None, :]
    return out


def _cholesky(S):
    """Lower Cholesky factors of a (..., C, C) Hermitian PD batch."""
    C = S.shape[-1]
    L = np.zeros_like(S)
    for i in range(C):
        for j in range(i + 1):
            acc = S[..., i, j].copy()
            for k in range(j):
                acc -= L[..., i, k] * np.conj(L[..., j, k])
            if i == j:
                L[..., i, i] = np.sqrt(acc.real)
            else:
                L[..., i, j] = acc / L[..., j, j]
    return L


def _cho_solve(L, x):
    """Solve L L^H z = x for batched lower L (..., C, C) and x (..., C)."""
    C = x.shape[-1]
    y = np.empty(np.broadcast_shapes(L.shape[:-1], x.shape), np.complex128)
    for i in range(C):
        acc = x[..., i].copy()
        for k in range(i):
            acc -= L[..., i, k] * y[..., k]
        y[..., i] = acc / L[..., i, i]
    for i in range(C - 1, -1, -1):
        acc = y[..., i].copy()
        for k in range(i + 1, C):
            acc -= np.conj(L[..., k, i]) * y[..., k]
        y[..., i] = acc / np.conj(L[..., i, i])
    return y


def mwf_filter(X, Rbar, powers, noise_power, block=64):
    """Per-tile multichannel Wiener filtering, all sources at once.

    X:           (N, F, C) complex mixture tensor of one array
    Rbar:        (K, F, C, C) unit-trace spatial covariances
    powers:      (N, F, K) or (1, F, K) nonnegative per-source powers;
                 a leading axis of 1 holds for every frame
    noise_power: (F,) diffuse-noise power
    returns      (K+1, N, F, C); the last slot is the noise image, which
                 absorbs the diagonal loading so the images sum to X.
    Frames are processed `block` at a time to bound the temporaries.
    """
    X = np.asarray(X, dtype=np.complex128)
    Rbar = np.asarray(Rbar, dtype=np.complex128)
    powers = np.asarray(powers, dtype=np.float64)
    noise_power = np.asarray(noise_power, dtype=np.float64)
    N, F, C = X.shape
    K = Rbar.shape[0]
    out = np.empty((K + 1, N, F, C), dtype=np.complex128)
    Rb = Rbar.transpose(1, 0, 2, 3).reshape(F, K, C * C)
    static = powers.shape[0] == 1
    for n0 in range(0, N, block):
        n1 = min(n0 + block, N)
        if n0 == 0 or not static:
            p = powers if static else powers[n0:n1]  # (B or 1, F, K)
            S = (p[:, :, None, :] @ Rb).reshape(p.shape[0], F, C, C)
            _load_diagonal(S, noise_power[None, :])
            L = _cholesky(S)
        y = _cho_solve(L, X[n0:n1])
        for k in range(K):
            img = (Rbar[k] @ y[..., None])[..., 0]
            out[k, n0:n1] = p[:, :, k, None] * img
        # the noise filter is I - sum_k W_k, so taking the noise image as
        # the rest keeps the image sum at X however ill-conditioned S is
        out[K, n0:n1] = X[n0:n1] - out[:K, n0:n1].sum(axis=0)
    return out
