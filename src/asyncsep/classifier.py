"""Joint per-tile state classification across all arrays.

For every time-frequency tile the log-likelihood of each latent state
(one dominant source, or noise only) is accumulated over all arrays under
the local Gaussian model, turned into posterior probabilities with uniform
priors, and reduced to per-source power estimates.  This is the only place
where information crosses array boundaries.

Each stage has one block kernel that works on a block of frames:
`_kernels.loglik_block` for the log-likelihoods, `posterior_block` for the
softmax and its checks, and `power_block` for the powers.  `classify`,
`posteriors` and `source_power_estimates` run them over a whole tensor,
one block after another; `separator.separate` runs them inside its fused
per-block pass and keeps full-size posteriors only in a buffer its caller
passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .dsp import SpectrogramTensor
from .errors import NumericalError
from .model import SpatialModel, StateSpectrumModel

__all__ = [
    "PosteriorMap",
    "PowerEstimate",
    "classify",
    "posteriors",
    "source_power_estimates",
    "state_factors",
    "save_posteriors",
    "posterior_histogram",
]

_LOG_PI = float(np.log(np.pi))


@dataclass
class PosteriorMap:
    """Posterior state probabilities and the log-likelihoods behind them.

    gamma, log_likelihoods: (frames, bins, states); states are the
    directional sources in model order plus the noise-only state last.
    log_likelihoods is None where only the posteriors were kept, as for
    the ones `separator.separate` writes.
    """

    gamma: np.ndarray
    log_likelihoods: np.ndarray | None
    state_ids: list[str]

    def __post_init__(self):
        if self.log_likelihoods is not None and \
                self.gamma.shape != self.log_likelihoods.shape:
            raise ValueError("gamma and log_likelihoods must share a shape")
        _check_sums(self.gamma, np.empty(self.gamma.shape[:-1]))


def _check_sums(gamma, sums):
    """Raise unless every tile's posteriors sum to 1 within 1e-12.

    gamma: (..., states); sums: float scratch of gamma.shape[:-1].
    """
    np.sum(gamma, axis=-1, out=sums)
    sums -= 1.0
    np.abs(sums, out=sums)
    if not sums.max(initial=0.0) <= 1e-12:  # a NaN fails too
        raise ValueError("posteriors do not sum to 1")


@dataclass
class PowerEstimate:
    """Per-tile source powers; the last source slot is the diffuse noise."""

    sigma2: np.ndarray  # (frames or 1, bins, K+1); 1 = same every frame
    source_ids: list[str]


def state_factors(spatial: SpatialModel, states: StateSpectrumModel,
                  array_id: str) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of every state covariance of one array.

    Returns (S, F, C, C) lower factors and (S, F) log det(pi * S_state),
    with S_state the regularized power-weighted covariance sum.
    """
    cov = spatial.covariances[array_id]  # (K, F, C, C)
    K, F, C, _ = cov.shape
    var = states.conditional_variances()[:, :K, :]  # (S, K, F)
    noise = states.noise_spectrum

    S_mat = np.einsum("skf,kfcd->sfcd", var, cov)
    _kernels._load_diagonal(S_mat, noise[None, :])

    try:
        factors = np.linalg.cholesky(S_mat)
    except np.linalg.LinAlgError as exc:  # cannot happen for valid models
        raise NumericalError(f"state covariance not positive definite: {exc}")
    diag = np.diagonal(factors, axis1=-2, axis2=-1).real
    logdets = C * _LOG_PI + 2.0 * np.log(diag).sum(axis=-1)
    return factors, logdets


def _check_aligned(observations: dict[str, SpectrogramTensor],
                   spatial: SpatialModel, array_ids: list[str]):
    shapes = {}
    for m in array_ids:
        if m not in observations:
            raise ValueError(f"no observations for array {m!r}")
        t = observations[m]
        if not np.isfinite(t.coeffs).all():
            raise NumericalError(f"non-finite STFT coefficients in array {m!r}")
        if t.channels != spatial.channels(m):
            raise ValueError(
                f"array {m!r}: {t.channels} channels, model expects "
                f"{spatial.channels(m)}")
        if t.n_bins != spatial.n_bins:
            raise ValueError(
                f"array {m!r}: {t.n_bins} bins, model expects {spatial.n_bins}")
        shapes[m] = (t.n_frames, t.n_bins)
    if len(set(shapes.values())) > 1:
        raise ValueError(f"observations not aligned across arrays: {shapes}")


def classify(observations: dict[str, SpectrogramTensor],
             spatial: SpatialModel, states: StateSpectrumModel,
             array_ids: list[str] | None = None) -> PosteriorMap:
    """Posterior state probabilities from the listed arrays (default: all).

    The per-array log-likelihoods add up tile by tile (conditional
    independence across arrays), so restricting array_ids to a single
    array gives the local classifier of the tv-local filter variant.
    """
    if array_ids is None:
        array_ids = sorted(observations)
    _check_aligned(observations, spatial, array_ids)
    first = observations[array_ids[0]]
    N, F = first.n_frames, first.n_bins

    ll = np.zeros((N, F, states.n_states))
    for m in array_ids:
        factors, logdets = state_factors(spatial, states, m)
        _kernels.loglik_accumulate(observations[m].coeffs, factors, logdets, ll)
    return posteriors(ll, state_ids=states.state_ids)


def posteriors(log_likelihoods: np.ndarray,
               state_ids: list[str] | None = None) -> PosteriorMap:
    """Stable softmax over the trailing state axis with uniform priors.

    log_likelihoods: (frames, bins, states), left untouched.  Runs
    `posterior_block` over blocks of frames.
    """
    ll = np.asarray(log_likelihoods, dtype=np.float64)
    N, F, n_states = ll.shape
    g = np.empty(ll.shape)
    ws = _kernels.Workspace(_kernels._BLOCK, F, states=n_states)
    for n0 in range(0, N, _kernels._BLOCK):
        n1 = n0 + _kernels._BLOCK
        posterior_block(ll[n0:n1], g[n0:n1], ws)
    if state_ids is None:
        state_ids = [str(s) for s in range(n_states)]
    return PosteriorMap(g, ll, state_ids)


def posterior_block(ll, out, ws):
    """Posteriors of one block of log-likelihoods, (b, F, S), into `out`.

    `out` is C-contiguous and may be `ll` itself.  The per-tile maximum
    and normaliser are accumulated one state plane at a time, in state
    order.  With fewer than 8 states numpy's own reductions along the
    state axis add in that order too; with more they sum pairwise, and
    the two differ by rounding only.  Non-finite log-likelihoods raise
    NumericalError, and posteriors that do not sum to 1 ValueError.
    """
    b = ll.shape[0]
    if not np.isfinite(ll, out=ws.flags[:b]).all():
        raise NumericalError("non-finite state log-likelihoods")
    peak, total = ws.r[0, :b], ws.r[1, :b]
    np.copyto(peak, ll[..., 0])
    for s in range(1, ll.shape[-1]):
        np.maximum(peak, ll[..., s], out=peak)
    np.subtract(ll, peak[..., None], out=out)
    np.exp(out, out=out)
    np.copyto(total, out[..., 0])
    for s in range(1, out.shape[-1]):
        total += out[..., s]
    out /= total[..., None]
    _check_sums(out, total)
    return out


def source_power_estimates(gamma: PosteriorMap,
                           states: StateSpectrumModel) -> PowerEstimate:
    """Posterior-weighted source powers per tile (noise source last).

    The noise slot is pinned to the state-independent noise spectrum
    rather than recomputed through the convex combination.  Runs
    `power_block` over blocks of frames.
    """
    var = states.conditional_variances()  # (S, K+1, F)
    g = gamma.gamma
    N, F, _ = g.shape
    sigma2 = np.empty((N, F, var.shape[1]))
    planes = sigma2.transpose(2, 0, 1)
    ws = _kernels.Workspace(_kernels._BLOCK, F)
    for n0 in range(0, N, _kernels._BLOCK):
        n1 = n0 + _kernels._BLOCK
        power_block(g[n0:n1], var, planes[:-1, n0:n1], ws)
    sigma2[:, :, -1] = states.noise_spectrum[None, :]
    return PowerEstimate(sigma2, states.source_ids + [states.state_ids[-1]])


def power_block(gamma, var, out, ws):
    """Posterior-weighted source powers of one block.

    gamma: (b, F, S) posteriors; var: (S, K+1, F) conditional variances;
    out: K' <= K+1 planes of (b, F) float, out[k] = sum_s gamma_s var[s, k],
    one weighted state plane at a time.
    """
    t = ws.r[0, :gamma.shape[0]]
    for k in range(len(out)):
        np.multiply(gamma[..., 0], var[0, k], out=out[k])
        for s in range(1, gamma.shape[-1]):
            np.multiply(gamma[..., s], var[s, k], out=t)
            out[k] += t
    return out


def save_posteriors(pmap: PosteriorMap, path) -> None:
    """Dump gamma as a binary tensor (.npy) for offline inspection."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.save(path, pmap.gamma)


def posterior_histogram(pmap: PosteriorMap, width: int = 50) -> str:
    """Text histogram of which state wins each tile."""
    winners = pmap.gamma.argmax(axis=2)
    n_tiles = winners.size
    lines = []
    for s, sid in enumerate(pmap.state_ids):
        share = float((winners == s).sum()) / n_tiles
        bar = "#" * int(round(share * width))
        lines.append(f"{sid:>12s} |{bar:<{width}s}| {share * 100:5.1f}%")
    return "\n".join(lines) + "\n"
