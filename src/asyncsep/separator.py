"""Per-array time-varying multichannel Wiener filtering.

Four filter variants share one per-tile kernel:

  static-local     time-invariant powers (long-term spectra), each array
                   filtered with its own microphones only
  static-pooled    time-invariant powers on the channel-concatenated
                   merged array (only meaningful when clocks are shared)
  tv-local         per-tile powers from each array's own classifier
  tv-distributed   per-tile powers from the joint classifier over all
                   arrays (the proposed operating mode)

The powers that drive the filter have a frame axis of N (one set per
tile, the tv modes) or 1 (one set for every frame, the static modes).
Every variant produces one image per (array, source) plus an auxiliary
noise image that absorbs the diagonal loading, so the images of a tile
always sum to the observed mixture coefficient.

The filter kernel works on (channel, frame, bin) planes and writes an
array's K+1 images into one (K+1, C, N, F) buffer; the image tensors of a
SeparationResult are (N, F, C) views into that buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .classifier import PowerEstimate, classify, source_power_estimates
from .dsp import SpectrogramTensor
from .model import NOISE_ID, SpatialModel, StateSpectrumModel, pooled_tensor

__all__ = [
    "MODES",
    "SeparationResult",
    "separate",
    "filter_array",
]

MODES = ("static-local", "static-pooled", "tv-local", "tv-distributed")


@dataclass
class SeparationResult:
    """STFT-domain source-image estimates per (array id, source id).

    The noise image is stored under the reserved source id "noise" and is
    auxiliary: evaluation only scores directional sources.
    """

    images: dict[tuple[str, str], SpectrogramTensor]
    mode: str
    metadata: dict = field(default_factory=dict)


def filter_array(obs: SpectrogramTensor, spatial: SpatialModel,
                 array_id: str, powers: PowerEstimate,
                 states: StateSpectrumModel) -> np.ndarray:
    """Filter one array's full tensor given per-tile or static powers.

    Depends on other arrays only through `powers`, whose frame axis is N
    or 1.  Returns (K+1, N, F, C) complex with the noise image last, a
    view of one (K+1, C, N, F) buffer.
    """
    sigma2 = powers.sigma2
    return _kernels.mwf_filter(obs.coeffs, spatial.covariances[array_id],
                               sigma2[:, :, :-1], states.noise_spectrum)


def _static_powers(states: StateSpectrumModel) -> PowerEstimate:
    """Time-invariant powers: the long-term average spectrum of each source.

    One frame, (1, F, K+1), that the filter applies to every frame.
    """
    sigma2 = np.concatenate([states.ltas.T, states.noise_spectrum[:, None]],
                            axis=1)
    return PowerEstimate(sigma2[None], states.source_ids + [NOISE_ID])


def _consistency(est: np.ndarray, coeffs: np.ndarray) -> float:
    """Worst per-tile relative deviation of the image sum from the mixture."""
    diff = est.sum(axis=0) - coeffs
    num = np.sqrt((diff.real ** 2 + diff.imag ** 2).sum(axis=-1))
    den = np.sqrt((coeffs.real ** 2 + coeffs.imag ** 2).sum(axis=-1))
    rel = num / (den + 1e-300)
    rel[den == 0.0] = 0.0
    return float(rel.max())


def _result_images(est: np.ndarray, template: SpectrogramTensor,
                   array_id: str, source_ids: list[str],
                   images: dict) -> None:
    for k, sid in enumerate(source_ids + [NOISE_ID]):
        images[(array_id, sid)] = SpectrogramTensor(
            est[k], template.window, template.rate_hz, template.n_samples)


def separate(observations: dict[str, SpectrogramTensor],
             spatial: SpatialModel, states: StateSpectrumModel,
             mode: str = "tv-distributed") -> SeparationResult:
    """Estimate all source images for every array under one filter variant."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    array_ids = sorted(m for m in observations if m != SpatialModel.POOLED)
    if not array_ids:
        raise ValueError("no observations given")

    images: dict[tuple[str, str], SpectrogramTensor] = {}
    consistency: dict[str, float] = {}

    if mode == "static-pooled":
        if SpatialModel.POOLED not in spatial.covariances:
            raise ValueError(
                "static-pooled requires a model trained with include_pooled")
        order = spatial.pooled_order
        merged = pooled_tensor(observations, order)
        pooled_obs = {SpatialModel.POOLED: merged}
        powers = _static_powers(states)
        est = filter_array(merged, spatial, SpatialModel.POOLED, powers, states)
        consistency[SpatialModel.POOLED] = _consistency(est, merged.coeffs)
        offset = 0
        for m in order:
            c = spatial.channels(m)
            _result_images(est[:, :, :, offset:offset + c], observations[m],
                           m, spatial.source_ids, images)
            offset += c
    else:
        if mode == "tv-distributed":
            gamma = classify(observations, spatial, states, array_ids)
            shared = source_power_estimates(gamma, states)
        for m in array_ids:
            obs = observations[m]
            if mode == "static-local":
                powers = _static_powers(states)
            elif mode == "tv-local":
                local = classify(observations, spatial, states, [m])
                powers = source_power_estimates(local, states)
            else:
                powers = shared
            est = filter_array(obs, spatial, m, powers, states)
            consistency[m] = _consistency(est, obs.coeffs)
            _result_images(est, obs, m, spatial.source_ids, images)

    return SeparationResult(images, mode,
                            metadata={"consistency_rel_max": consistency})
