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

Separation is one fused pass per block of frames.  A block reads its
mixture planes from a source, and for the tv modes sums the classifying
arrays' log-likelihoods, takes the softmax and forms the powers; every
array's filter then factorizes its loaded covariance (the static modes
factorize once, before the pass), writes the K+1 images of the block,
checks that they sum to the mixture and hands them to a sink.  No
full-size log-likelihoods or powers are kept; the joint posteriors are
kept only when the caller passes a buffer for them.  Outside
tv-distributed, a unit that classifies over every array and has no
filters fills that buffer; `classifier.classify` runs the pass on that
unit alone.  The blocks run on every core (`_pool`), and the result does
not depend on the number of threads.

`separate` copies its blocks in from STFT tensors and its sink is each
filter's (K+1, C, N, F) image buffer; the image tensors of its result
are (N, F, C) views into them.  `separate_recordings` frames, windows
and transforms each block from the recordings itself, and its sink
synthesizes the block's images and overlap-adds them into each filter's
(K+1, C, samples) signal buffer, so no spectrogram of a whole recording
is ever held.  Blocks of one filter add in frame order: a block waits
until the previous block has added its frames, which cannot deadlock as
the pool hands out tasks in order.  Every sample then adds its frames in
ascending order, as `dsp.istft` does, and the image signals equal
`istft` of `separate`'s images bit for bit.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import _kernels, _pool, dsp
from .classifier import posterior_block, power_block, state_factors
from .dsp import SampledSignal, SpectrogramTensor, WindowSpec
from .errors import NumericalError
from .model import NOISE_ID, SpatialModel, StateSpectrumModel

__all__ = [
    "MODES",
    "SeparationResult",
    "separate",
    "separate_recordings",
]

MODES = ("static-local", "static-pooled", "tv-local", "tv-distributed")


@dataclass
class SeparationResult:
    """Source-image estimates per (array id, source id).

    The images are STFT tensors from `separate` and signals from
    `separate_recordings`.  The noise image is stored under the reserved
    source id "noise" and is auxiliary: evaluation only scores
    directional sources.
    """

    images: dict[tuple[str, str], SpectrogramTensor | SampledSignal]
    mode: str
    metadata: dict = field(default_factory=dict)


class _Spectra:
    """Sink of `separate`: the blocks' images stay in one (K+1, C, N, F)
    buffer."""

    def __init__(self, images: int, channels: int, n_frames: int, bins: int):
        self.out = np.empty((images, channels, n_frames, bins),
                            dtype=np.complex128)

    def planes(self, n0, n1, ws):
        return self.out[:, :, n0:n1]

    def put(self, n0, n1, ws):
        pass

    def abort(self):
        pass


class _Signals:
    """Sink of `separate_recordings`: the images overlap-added into one
    (K+1, C, samples) buffer, in frame order.

    A block's images are synthesized in its thread's scratch; once the
    previous block has added its frames, the block adds its own and
    divides the samples no later block reaches by the summed squared
    window.  After a block fails, the blocks waiting for it return.
    """

    def __init__(self, images: int, channels: int, n_frames: int,
                 window: WindowSpec):
        self.hop, self.win = window.hop, window.window()
        self.n_frames = n_frames
        self.denom, self.good = dsp._synthesis_norm(window, n_frames)
        self.out = np.zeros((images, channels, self.denom.shape[0]))
        self._added = 0  # frames added so far
        self._failed = False
        self._turn = threading.Condition()

    def planes(self, n0, n1, ws):
        K1, C = self.out.shape[:2]
        return ws.img[:K1, :C, :n1 - n0]

    def put(self, n0, n1, ws):
        K1, C = self.out.shape[:2]
        frames = ws.t[:K1, :C, :n1 - n0]
        dsp._synthesize(self.planes(n0, n1, ws), self.win, frames)
        with self._turn:
            self._turn.wait_for(lambda: self._added == n0 or self._failed)
            if self._failed:
                return
        dsp._overlap_add(frames, n0, self.hop, self.out)
        with self._turn:
            self._added = n1
            self._turn.notify_all()
        # the next block adds from frame n1's first sample on
        span = slice(n0 * self.hop, self.out.shape[2] if n1 == self.n_frames
                     else n1 * self.hop)
        done = self.out[:, :, span]
        np.divide(done, self.denom[span], out=done, where=self.good[span])

    def abort(self):
        with self._turn:
            self._failed = True
            self._turn.notify_all()


@dataclass
class _Filter:
    """One filter of the block pass: where its images go and what it needs."""

    cov_id: str        # key of the spatial covariances
    arrays: list[str]  # its member devices, in channel order
    channels: slice    # those channels among the block's mixture planes
    Rt: np.ndarray     # (C, C, K, F) covariance planes
    noise: tuple       # (noise power, noise power / C), each (F,)
    sink: _Spectra | _Signals  # takes the (K+1, C, b, F) images of a block
    worst: np.ndarray  # per block, the worst squared image-sum deviation
    static: tuple | None  # (p, L, dinv) factorized for every frame, or None

    @property
    def n_channels(self) -> int:
        return self.channels.stop - self.channels.start


@dataclass
class _Unit:
    """Devices whose frame blocks are processed together."""

    arrays: list[str]  # their channel planes, stacked in this order
    n_frames: int
    channels: int      # of the stacked planes
    source: Callable   # source(x, n0, n1, ws) writes the block's planes
    loglik: list       # (channel slice, Linv, logdets) per classifying array
    filters: list[_Filter]
    posteriors: np.ndarray | None  # (N, F, S) joint posteriors, or None


def _copy_in(tensors, x, n0, n1, ws) -> None:
    """Source of `separate`: frames n0:n1 of (N, F, C) STFT coefficients."""
    lo = 0
    for coeffs in tensors:
        hi = lo + coeffs.shape[2]
        np.copyto(x[lo:hi], np.transpose(coeffs[n0:n1], (2, 0, 1)))
        lo = hi


def _analyze_in(padded, window, win, x, n0, n1, ws) -> None:
    """Source of `separate_recordings`: frames n0:n1 analyzed from (C,
    samples) channel-major recordings with the analysis padding."""
    lo = 0
    for p in padded:
        hi = lo + p.shape[0]
        dsp._analyze(p, n0, n1, window, win, ws.t[0, :p.shape[0], :n1 - n0],
                     x[lo:hi])
        lo = hi


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


def _filter_block(f: _Filter, x: np.ndarray, n0: int, n1: int, ws) -> None:
    """Write frames n0:n1 of one filter's images, given the block's powers.

    x: the filter's (C, n1 - n0, F) mixture planes; the images go to the
    sink's planes.  Time-varying powers are in ws.p and are factorized
    here; static ones were factorized once.
    """
    b = n1 - n0
    C = x.shape[0]
    if f.static is None:
        p, L, dinv = ws.p[:, :b], ws.L[:C, :C, :b], ws.dinv[:C, :b]
        _kernels.mwf_factor(p, f.Rt, *f.noise, L, dinv, ws)
    else:
        p, L, dinv = f.static
    _kernels.mwf_apply(x, p, f.Rt, L, dinv, f.sink.planes(n0, n1, ws), ws)


def _run_block(unit: _Unit, n0: int, ws, var) -> None:
    """The fused pass over one block of frames of one unit."""
    n1 = min(n0 + _kernels._BLOCK, unit.n_frames)
    b = n1 - n0
    x = ws.x[:unit.channels, :b]
    try:
        unit.source(x, n0, n1, ws)
        if unit.loglik:
            ll = ws.ll[:b]
            ll.fill(0.0)
            for channels, Linv, logdets in unit.loglik:
                _kernels.loglik_block(x[channels], Linv, logdets, ll, ws)
            posterior_block(ll, ll, ws)
            if unit.posteriors is not None:
                np.copyto(unit.posteriors[n0:n1], ll)
            if unit.filters:
                power_block(ll, var, ws.p.real[:, :b], ws)
        for f in unit.filters:
            _filter_block(f, x[f.channels], n0, n1, ws)
            f.worst[n0 // _kernels._BLOCK] = _deviation_block(
                f.sink.planes(n0, n1, ws), x[f.channels], ws)
            f.sink.put(n0, n1, ws)
    except BaseException:
        for f in unit.filters:  # release the blocks that wait for this one
            f.sink.abort()
        raise


def _unit(layout: dict, spatial: SpatialModel, states: StateSpectrumModel,
          cov_ids: list[str], source, classifies: bool, sink=None,
          posteriors=None) -> _Unit:
    """One unit of the block pass over the devices of `cov_ids`.

    layout: device -> (channels, frames), for the devices given.
    source(arrays) is the unit's source over its devices.  The unit sums
    the log-likelihoods of cov_ids when it classifies, writes
    `posteriors` when given, and has one filter per entry of cov_ids,
    each with a new sink(channels, frames), unless sink is None.  The
    filters of a unit that does not classify use the long-term spectra
    (the static modes).
    """
    F, noise = spatial.n_bins, states.noise_spectrum
    arrays = [m for c in cov_ids for m in spatial.members(c)]
    for m in arrays:
        if m not in layout:
            raise ValueError(f"no observations for array {m!r}")
    frames = {m: layout[m][1] for m in arrays}
    if len(set(frames.values())) > 1:
        raise ValueError(f"observations not aligned across arrays: "
                         f"frames {frames}")
    n_frames = frames[arrays[0]]
    if posteriors is not None and (
            posteriors.shape != (n_frames, F, states.n_states)
            or posteriors.dtype != np.float64):
        raise ValueError(
            f"posteriors must be a float64 array of shape "
            f"{(n_frames, F, states.n_states)}, got {posteriors.dtype} "
            f"{posteriors.shape}")
    loglik, filters, lo = [], [], 0
    for cov_id in cov_ids:
        members = spatial.members(cov_id)
        C = sum(layout[m][0] for m in members)
        channels = slice(lo, lo + C)
        lo += C
        if classifies:
            factors, logdets = state_factors(spatial, states, cov_id)
            loglik.append((channels, _kernels.inverse_factors(factors),
                           logdets))
        if sink is not None:
            filters.append(_Filter(
                cov_id, members, channels,
                _kernels.filter_operands(spatial.covariances[cov_id]),
                (noise, noise / C), sink(C, n_frames),
                np.zeros(-(-n_frames // _kernels._BLOCK)), None))
    for f in filters if not classifies else []:
        # no per-tile powers: the long-term spectra hold for every frame,
        # so factorize once
        ws = _kernels.Workspace(1, F, factor_channels=f.n_channels,
                                sources=spatial.n_sources)
        ws.p.real[:, 0] = states.ltas
        _kernels.mwf_factor(ws.p, f.Rt, *f.noise, ws.L, ws.dinv, ws)
        f.static = (ws.p, ws.L, ws.dinv)
    return _Unit(arrays, n_frames, lo, source(arrays), loglik, filters,
                 posteriors)


def _units(layout: dict, spatial: SpatialModel, states: StateSpectrumModel,
           mode: str, posteriors, source, sink) -> list[_Unit]:
    """The units of the block pass under one mode, with their sinks.

    See `_unit`; sink(channels, frames) is a new sink for one filter.
    The unit that classifies over every array writes `posteriors`: the
    one unit of tv-distributed, or else one more unit that has no
    filters, as `classifier.classify` runs it.
    """
    array_ids = sorted(layout)
    if mode == "tv-distributed":
        return [_unit(layout, spatial, states, array_ids, source, True, sink,
                      posteriors)]
    filter_ids = array_ids
    if mode == "static-pooled":
        filter_ids = [spatial.merged_id()]
        if filter_ids[0] not in spatial.covariances:
            raise ValueError("static-pooled requires a model trained with "
                             "include_pooled (asyncsep train --pooled)")
    units = [_unit(layout, spatial, states, [m], source,
                   not mode.startswith("static"), sink) for m in filter_ids]
    if posteriors is not None:
        units.append(_unit(layout, spatial, states, array_ids, source, True,
                           posteriors=posteriors))
    return units


def _run_pass(units: list[_Unit], spatial: SpatialModel,
              states: StateSpectrumModel, length: int = 0) -> dict:
    """Run every block of every unit on the pool; the worst image-sum
    deviation per filter.  length: the window length when the pass
    analyzes and synthesizes signals, else 0."""
    var = states.conditional_variances()
    tasks = [(u, n0) for u in units
             for n0 in range(0, u.n_frames, _kernels._BLOCK)]
    filters = [f for u in units for f in u.filters]
    factor_channels = max((f.n_channels for f in filters
                           if f.static is None), default=0)
    filter_channels = max((f.n_channels for f in filters), default=0)
    # every device is among some filter's channels, so the analysis of a
    # device's frames fits the synthesis scratch too
    images, image_channels = 0, 0
    if length:
        images, image_channels = spatial.n_sources + 1, filter_channels
    channels = max((u.channels for u in units), default=0)
    _pool.run(tasks, lambda task, ws: _run_block(*task, ws, var),
              lambda: _kernels.Workspace(
                  _kernels._BLOCK, spatial.n_bins, channels=channels,
                  factor_channels=factor_channels, sources=spatial.n_sources,
                  states=states.n_states, images=images,
                  image_channels=image_channels, length=length,
                  filter_channels=filter_channels))
    return {f.cov_id: float(np.sqrt(max([0.0, *f.worst]))) for f in filters}


def _images(units: list[_Unit], spatial: SpatialModel, image) -> dict:
    """(device, source) -> image(filter, k, device, lo, hi) for every
    filter's devices, hi - lo their channels among the filter's."""
    images = {}
    for u in units:
        for f in u.filters:
            lo = 0
            for m in f.arrays:
                hi = lo + spatial.channels(m)
                for k, sid in enumerate(spatial.source_ids + [NOISE_ID]):
                    images[(m, sid)] = image(f, k, m, lo, hi)
                lo = hi
    return images


def _check_inputs(mode: str, array_ids) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not array_ids:
        raise ValueError("no observations given")
    for m in array_ids:
        SpatialModel.check_id(m, "device")


def _tensor_inputs(observations: dict[str, SpectrogramTensor],
                   spatial: SpatialModel) -> tuple[dict, Callable]:
    """The layout and unit sources of a pass over STFT tensors.

    Each tensor must be finite and hold its array's channels and the
    model's bins; that the frames agree is left to `_unit`.
    """
    for m, t in sorted(observations.items()):
        if not np.isfinite(t.coeffs).all():
            raise NumericalError(f"non-finite STFT coefficients in array {m!r}")
        if t.channels != spatial.channels(m):
            raise ValueError(
                f"array {m!r}: {t.channels} channels, model expects "
                f"{spatial.channels(m)}")
        if t.n_bins != spatial.n_bins:
            raise ValueError(
                f"array {m!r}: {t.n_bins} bins, model expects {spatial.n_bins}")
    layout = {m: (t.channels, t.n_frames) for m, t in observations.items()}
    return layout, lambda arrays: partial(
        _copy_in, [observations[m].coeffs for m in arrays])


def separate(observations: dict[str, SpectrogramTensor],
             spatial: SpatialModel, states: StateSpectrumModel,
             mode: str = "tv-distributed", *,
             posteriors: np.ndarray | None = None) -> SeparationResult:
    """Estimate all source images for every array under one filter variant.

    One fused pass per block of frames, on every core this process may
    run on; see the module docstring.  Non-finite observations raise
    NumericalError, and device ids outside `SpatialModel.check_id`
    ConfigError.

    posteriors: an optional (N, F, S) float64 buffer that receives the
    joint state posteriors over every array, in every mode.  They come
    from the unit `classifier.classify` runs, so they equal its `gamma`
    bit for bit; the images do not depend on them.
    """
    _check_inputs(mode, sorted(observations))
    K, F = spatial.n_sources, spatial.n_bins
    layout, source = _tensor_inputs(observations, spatial)
    units = _units(layout, spatial, states, mode, posteriors, source,
                   lambda C, N: _Spectra(K + 1, C, N, F))
    consistency = _run_pass(units, spatial, states)

    def image(f, k, m, lo, hi):  # an (N, F, C) view of the buffer
        t = observations[m]
        return SpectrogramTensor(f.sink.out[k, lo:hi].transpose(1, 2, 0),
                                 t.window, t.rate_hz, t.n_samples)

    return SeparationResult(_images(units, spatial, image), mode,
                            metadata={"consistency_rel_max": consistency})


def separate_recordings(recordings: dict[str, SampledSignal],
                        window: WindowSpec, spatial: SpatialModel,
                        states: StateSpectrumModel,
                        mode: str = "tv-distributed", *,
                        posteriors: np.ndarray | None = None
                        ) -> SeparationResult:
    """`separate` from recordings to image signals, streamed by frame block.

    recordings: device -> samples, analyzed with `window` as `stft` does.
    Returns separate's keys, noise images included, as SampledSignals of
    their recording's length and rate, equal to `istft(separate(stft(
    ...)).images[key], length=n)`, with the same metadata.  Each block is
    analyzed, separated and synthesized in one task (see the module
    docstring), so neither the recordings' spectrograms nor the images'
    are held.  Recordings must hold the model's channels and at least
    one window; in the modes that filter devices jointly, their frame
    counts must agree.  ValueError if not, NumericalError for non-finite
    samples and ConfigError for device ids outside
    `SpatialModel.check_id`.

    posteriors: as for `separate`.
    """
    array_ids = sorted(recordings)
    _check_inputs(mode, array_ids)
    F = spatial.n_bins
    if window.length // 2 + 1 != F:
        raise ValueError(f"window length {window.length} gives "
                         f"{window.length // 2 + 1} bins, model expects {F}")
    layout = {}
    for m in array_ids:
        rec = recordings[m]
        if rec.channels != spatial.channels(m):
            raise ValueError(f"array {m!r}: {rec.channels} channels, model "
                             f"expects {spatial.channels(m)}")
        if rec.n_samples < window.length:
            raise ValueError(f"array {m!r}: {rec.n_samples} samples, fewer "
                             f"than one frame ({window.length})")
        if not np.isfinite(rec.samples).all():
            raise NumericalError(f"non-finite samples in array {m!r}")
        layout[m] = (rec.channels, dsp.stft_frame_count(rec.n_samples, window))
    padded = {}

    def source(arrays):
        for m in arrays:
            if m not in padded:
                padded[m] = dsp._padded_channels(recordings[m].samples, window)
        return partial(_analyze_in, [padded[m] for m in arrays], window,
                       window.window())

    K = spatial.n_sources
    units = _units(layout, spatial, states, mode, posteriors, source,
                   lambda C, N: _Signals(K + 1, C, N, window))
    consistency = _run_pass(units, spatial, states, window.length)

    def image(f, k, m, lo, hi):  # the recording's span, past the padding
        rec = recordings[m]
        return SampledSignal(
            f.sink.out[k, lo:hi, window.length:window.length + rec.n_samples].T,
            rec.rate_hz)

    return SeparationResult(_images(units, spatial, image), mode,
                            metadata={"consistency_rel_max": consistency})
