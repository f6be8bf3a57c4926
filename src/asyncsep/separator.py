"""Per-array time-varying multichannel Wiener filtering.

Four filter variants share one per-tile kernel:

  static-local     time-invariant powers (long-term spectra), each array
                   filtered with its own microphones only
  static-pooled    static-local on the merged array over every device, id
                   "a+b+..." (only meaningful when clocks are shared)
  tv-local         per-tile powers from each array's own classifier
  tv-distributed   per-tile powers from the joint classifier over all
                   arrays (the proposed operating mode)

The powers that drive the filter have a frame axis of N (one set per
tile, the tv modes) or 1 (one set for every frame, the static modes).
Every variant produces one image per (device, source) plus an auxiliary
noise image that absorbs the diagonal loading, so the images of a tile
always sum to the observed mixture coefficient.

`separate` runs one fused pass per block of frames.  For the tv modes a
block sums the classifying arrays' log-likelihoods, takes the softmax and
forms the powers; every array's filter then factorizes its loaded
covariance (the static modes factorize once, before the pass), writes the
K+1 images into the array's (K+1, C, N, F) buffer and checks that they
sum to the mixture.  No full-size log-likelihoods, posteriors or powers
are kept.  The blocks are independent and write disjoint slices, so they
run on every core (`_pool`), and the result does not depend on the number
of threads.  The image tensors of a SeparationResult are (N, F, C) views
into the buffers.

`filter_array` runs the same kernels over a whole tensor, one block after
another, for powers computed by `classifier.classify` and
`classifier.source_power_estimates`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels, _pool
from .classifier import (PowerEstimate, _check_aligned, posterior_block,
                         power_block, state_factors)
from .dsp import SpectrogramTensor
from .model import NOISE_ID, SpatialModel, StateSpectrumModel

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


@dataclass
class _Filter:
    """One filter of the block pass: its images and what it needs."""

    cov_id: str        # key of the spatial covariances
    arrays: list[str]  # its member devices, in channel order
    channels: slice    # those channels among the block's mixture planes
    Rt: np.ndarray     # (C, C, K, F) covariance planes
    noise: tuple       # (noise power, noise power / C), each (F,)
    out: np.ndarray    # (K+1, C, N, F) images
    worst: np.ndarray  # per block, the worst squared image-sum deviation
    static: tuple | None  # (p, L, dinv) factorized for every frame, or None


@dataclass
class _Unit:
    """Devices whose frame blocks are processed together."""

    arrays: list[str]  # their channel planes, stacked in this order
    n_frames: int
    loglik: list       # (channel slice, Linv, logdets) per classifying array
    filters: list[_Filter]

    @property
    def channels(self) -> int:
        return self.filters[-1].channels.stop


def _deviation_block(planes: np.ndarray, x: np.ndarray, ws) -> float:
    """Worst squared relative deviation of the image sum in one block.

    planes: (K+1, C, b, F) images; x: (C, b, F) mixture.  Per channel the
    images are summed and the mixture subtracted, and the squared
    deviations and mixture powers are accumulated over channels.  Tiles
    with a silent mixture count as 0.
    """
    C, b, _ = x.shape
    d = ws.c[0, :b]
    num, den, t, u = (ws.r[i, :b] for i in range(4))
    active = ws.mask[:b]
    num.fill(0.0)
    den.fill(0.0)
    for c in range(C):
        np.sum(planes[:, c], axis=0, out=d)
        d -= x[c]
        for z, acc in ((d, num), (x[c], den)):
            np.square(z.real, out=t)
            np.square(z.imag, out=u)
            t += u
            acc += t
    np.greater(den, 0.0, out=active)
    np.divide(num, den, out=num, where=active)
    np.logical_not(active, out=active)
    np.copyto(num, 0.0, where=active)
    return float(num.max())


def _consistency(est: np.ndarray, coeffs: np.ndarray) -> float:
    """Worst per-tile relative deviation of the image sum from the mixture.

    est is a (K+1, N, F, C) view of a (K+1, C, N, F) buffer, as
    `filter_array` returns it; it is read as those planes by
    `_deviation_block`, a block of frames at a time.
    """
    planes = est.transpose(0, 3, 1, 2)  # (K+1, C, N, F)
    mix = coeffs.transpose(2, 0, 1)     # (C, N, F)
    N, F = planes.shape[2:]
    ws = _kernels.Workspace(_kernels._BLOCK, F)
    worst = [0.0]
    for n0 in range(0, N, _kernels._BLOCK):
        n1 = n0 + _kernels._BLOCK
        worst.append(_deviation_block(planes[:, :, n0:n1], mix[:, n0:n1], ws))
    return float(np.sqrt(max(worst)))


def _filter_block(f: _Filter, x: np.ndarray, n0: int, n1: int, ws) -> None:
    """Write frames n0:n1 of one filter's images, given the block's powers.

    x: the filter's (C, n1 - n0, F) mixture planes.  Time-varying powers
    are in ws.p and are factorized here; static ones were factorized once.
    """
    b = n1 - n0
    C = x.shape[0]
    if f.static is None:
        p, L, dinv = ws.p[:, :b], ws.L[:C, :C, :b], ws.dinv[:C, :b]
        _kernels.mwf_factor(p, f.Rt, *f.noise, L, dinv, ws)
    else:
        p, L, dinv = f.static
    _kernels.mwf_apply(x, p, f.Rt, L, dinv, f.out[:, :, n0:n1], ws)


def _run_block(unit: _Unit, n0: int, ws, observations, var) -> None:
    """The fused pass over one block of frames of one unit."""
    n1 = min(n0 + _kernels._BLOCK, unit.n_frames)
    b = n1 - n0
    x = ws.x[:, :b]
    lo = 0
    for m in unit.arrays:
        coeffs = observations[m].coeffs
        hi = lo + coeffs.shape[2]
        np.copyto(x[lo:hi], np.transpose(coeffs[n0:n1], (2, 0, 1)))
        lo = hi
    if unit.loglik:
        ll = ws.ll[:b]
        ll.fill(0.0)
        for channels, Linv, logdets in unit.loglik:
            _kernels.loglik_block(x[channels], Linv, logdets, ll, ws)
        posterior_block(ll, ll, ws)
        power_block(ll, var, ws.p.real[:, :b], ws)
    for f in unit.filters:
        _filter_block(f, x[f.channels], n0, n1, ws)
        f.worst[n0 // _kernels._BLOCK] = _deviation_block(
            f.out[:, :, n0:n1], x[f.channels], ws)


def _units(observations, spatial: SpatialModel, states: StateSpectrumModel,
           mode: str, array_ids: list[str]) -> list[_Unit]:
    """The units of the block pass under one mode, with their buffers."""
    K, F = spatial.n_sources, spatial.n_bins
    noise = states.noise_spectrum
    static = mode.startswith("static")

    def unit(cov_ids):
        arrays = [m for c in cov_ids for m in spatial.members(c)]
        _check_aligned(observations, spatial, arrays)
        n_frames = observations[arrays[0]].n_frames
        filters, lo = [], 0
        for cov_id in cov_ids:
            members = spatial.members(cov_id)
            C = sum(observations[m].channels for m in members)
            filters.append(_Filter(
                cov_id, members, slice(lo, lo + C),
                _kernels.filter_operands(spatial.covariances[cov_id]),
                (noise, noise / C),
                np.empty((K + 1, C, n_frames, F), dtype=np.complex128),
                np.zeros(-(-n_frames // _kernels._BLOCK)), None))
            lo += C
        if not static:
            loglik = []
            for f in filters:
                factors, logdets = state_factors(spatial, states, f.cov_id)
                loglik.append((f.channels, _kernels.inverse_factors(factors),
                               logdets))
            return _Unit(arrays, n_frames, loglik, filters)
        for f in filters:
            # the long-term spectra hold for every frame: factorize once
            C = f.out.shape[1]
            ws = _kernels.Workspace(1, F, factor_channels=C, sources=K)
            ws.p.real[:, 0] = states.ltas
            _kernels.mwf_factor(ws.p, f.Rt, *f.noise, ws.L, ws.dinv, ws)
            f.static = (ws.p, ws.L, ws.dinv)
        return _Unit(arrays, n_frames, [], filters)

    if mode == "tv-distributed":
        return [unit(array_ids)]
    if mode == "static-pooled":
        array_ids = [spatial.merged_id()]
        if array_ids[0] not in spatial.covariances:
            raise ValueError("static-pooled requires a model trained with "
                             "include_pooled (asyncsep train --pooled)")
    return [unit([m]) for m in array_ids]


def separate(observations: dict[str, SpectrogramTensor],
             spatial: SpatialModel, states: StateSpectrumModel,
             mode: str = "tv-distributed") -> SeparationResult:
    """Estimate all source images for every array under one filter variant.

    One fused pass per block of frames, on every core this process may
    run on; see the module docstring.  Non-finite observations raise
    NumericalError.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    array_ids = sorted(observations)
    if not array_ids:
        raise ValueError("no observations given")

    units = _units(observations, spatial, states, mode, array_ids)
    var = states.conditional_variances()
    tasks = [(u, n0) for u in units
             for n0 in range(0, u.n_frames, _kernels._BLOCK)]
    factor_channels = max((f.out.shape[1] for u in units for f in u.filters
                           if f.static is None), default=0)
    workspaces = [
        _kernels.Workspace(_kernels._BLOCK, spatial.n_bins,
                           channels=max(u.channels for u in units),
                           factor_channels=factor_channels,
                           sources=spatial.n_sources, states=states.n_states)
        for _ in range(min(_pool.worker_count(), len(tasks)))]
    _pool.run(tasks, lambda task, ws: _run_block(*task, ws, observations, var),
              workspaces)

    images: dict[tuple[str, str], SpectrogramTensor] = {}
    consistency: dict[str, float] = {}
    for u in units:
        for f in u.filters:
            consistency[f.cov_id] = float(np.sqrt(max([0.0, *f.worst])))
            est = f.out.transpose(0, 2, 3, 1)  # (K+1, N, F, C)
            lo = 0
            for m in f.arrays:
                t = observations[m]
                for k, sid in enumerate(spatial.source_ids + [NOISE_ID]):
                    images[(m, sid)] = SpectrogramTensor(
                        est[k, :, :, lo:lo + t.channels], t.window, t.rate_hz,
                        t.n_samples)
                lo += t.channels
    return SeparationResult(images, mode,
                            metadata={"consistency_rel_max": consistency})
