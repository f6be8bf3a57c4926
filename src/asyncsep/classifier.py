"""Joint per-tile state classification across all arrays.

For every time-frequency tile the log-likelihood of each latent state
(one dominant source, or noise only) is accumulated over all arrays under
the local Gaussian model, turned into posterior probabilities with uniform
priors, and reduced to per-source power estimates.  This is the only place
where information crosses array boundaries.
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
    """

    gamma: np.ndarray
    log_likelihoods: np.ndarray
    state_ids: list[str]

    def __post_init__(self):
        if self.gamma.shape != self.log_likelihoods.shape:
            raise ValueError("gamma and log_likelihoods must share a shape")
        sums = self.gamma.sum(axis=2)
        if not np.allclose(sums, 1.0, rtol=0.0, atol=1e-12):
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

    The per-tile maximum and normaliser are accumulated one state plane
    at a time, in state order.  With fewer than 8 states numpy's own
    reductions along the state axis add in that order too; with more
    they sum pairwise, and the two differ by rounding only.
    """
    ll = np.asarray(log_likelihoods, dtype=np.float64)
    if not np.isfinite(ll).all():
        raise NumericalError("non-finite state log-likelihoods")
    n_states = ll.shape[-1]
    peak = ll[..., 0].copy()
    for s in range(1, n_states):
        np.maximum(peak, ll[..., s], out=peak)
    g = ll - peak[..., None]
    np.exp(g, out=g)
    total = g[..., 0].copy()
    for s in range(1, n_states):
        total += g[..., s]
    g /= total[..., None]
    if state_ids is None:
        state_ids = [str(s) for s in range(n_states)]
    return PosteriorMap(g, ll, state_ids)


def source_power_estimates(gamma: PosteriorMap,
                           states: StateSpectrumModel) -> PowerEstimate:
    """Posterior-weighted source powers per tile (noise source last).

    The noise slot is pinned to the state-independent noise spectrum
    rather than recomputed through the convex combination.
    """
    var = states.conditional_variances()  # (S, K+1, F)
    sigma2 = np.einsum("nfs,skf->nfk", gamma.gamma, var)
    sigma2[:, :, -1] = states.noise_spectrum[None, :]
    return PowerEstimate(sigma2, states.source_ids + [states.state_ids[-1]])


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
