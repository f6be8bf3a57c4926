"""Per-array time-varying multichannel Wiener filtering.

Four filter variants share one per-tile kernel:

  static-local     time-invariant powers (long-term spectra), each array
                   filtered with its own microphones only
  static-pooled    static-local on the merged array over every device, the
                   model's `merged` (only meaningful when clocks are shared)
  tv-local         per-tile powers from each array's own classifier
  tv-distributed   per-tile powers from the joint classifier over all
                   arrays (the proposed operating mode)

The powers that drive the filter have a frame axis of N (one set per
tile, the tv modes) or 1 (one set for every frame, the static modes).
Every variant produces one image per (device, source) plus an auxiliary
noise image that absorbs the diagonal loading, so the images of a tile
always sum to the observed mixture coefficient.

Separation is one fused pass per block of frames.  A block reads its
mixture planes through one reader per device, in channel order, and
checks each device's planes as they are read: a non-finite value raises
NumericalError naming the device before the block waits for anything,
so the first such block in task order decides the error.  For the tv
modes it then sums the classifying arrays' log-likelihoods, takes the
softmax and forms the powers; every array's filter then factorizes its
loaded covariance (the static modes factorize once, before the pass),
writes the K+1 images of the block, checks that they sum to the mixture
and hands them to a sink.  No
full-size log-likelihoods or powers are kept; the joint posteriors are
kept only when the caller passes a buffer for them.  Outside
tv-distributed, a unit that classifies over every array and has no
filters fills that buffer; `classifier.classify` runs the pass on that
unit alone.  The blocks run on every core (`_pool`), and the result does
not depend on the number of threads.

`separate` and `classify` read their blocks from STFT tensors
(`dsp._TensorReader`), and the sink of `separate` is each filter's
(K+1, C, N, F) image buffer; the image tensors of its result are
(N, F, C) views into them.  The streamed pass (`_separate_sources`)
reads each block from the recordings through a `dsp._Reader`, which
frames them as `dsp.stft` does, and its sink is a `dsp._Writer`, the
overlap-add of `dsp.istft`, which hands each finished span of the
images kept to their destinations (`_ImageWriter`); no spectrogram of a
whole recording is ever held.  The writer adds a filter's blocks in
frame order, so the image signals equal `istft` of `separate`'s images
bit for bit.  `separate_recordings` streams from arrays into arrays;
`asyncsep separate` streams from WAV files into WAV files, and its
posteriors into a `.npy` file, so it holds a fixed number of blocks
whatever the length; `run_experiment` streams from arrays into scores
(`metrics._Scores`), keeps no noise image and so synthesizes none.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, _pool, dsp
from .classifier import posterior_block, power_block, state_factors
from .dsp import SampledSignal, SpectrogramTensor, WindowSpec
from .errors import NumericalError
from .model import NOISE_ID, SpatialModel, StateSpectrumModel, _merged_label

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

    def put(self, n0, n1, planes, scratch):
        pass

    def abort(self):
        pass


class _ImageWriter(dsp._Writer):
    """Sink of the streamed pass: a `dsp._Writer` of one filter's images,
    synthesized from a block's K+1 images in its thread's image planes,
    which routes each finished span itself.  parts: (k, lo, hi, dest)
    sends image k's rows lo:hi, one device's channels, to dest, a
    destination of that image's (hi - lo, samples) signal (`dsp._Samples`,
    `audio.WavSink`, `metrics._ImageScore`), or to nowhere when dest is
    None.  The noise image, the last, is synthesized only when a part
    keeps it; the image-sum check still reads all K+1 planes."""

    def __init__(self, images: int, channels: int, n_frames: int,
                 window: WindowSpec, parts):
        self.images = images
        self.parts = [p for p in parts if p[3] is not None]
        noise = any(k == images - 1 for k, *_ in self.parts)
        super().__init__((images if noise else images - 1, channels),
                         n_frames, window, _kernels._BLOCK, None)

    def planes(self, n0, n1, ws):
        return ws.img[:self.images, :self.buf.shape[1], :n1 - n0]

    def put(self, n0, n1, planes, scratch):
        super().put(n0, n1, planes[:self.buf.shape[0]], scratch)

    def write(self, start, samples) -> None:
        for k, lo, hi, dest in self.parts:
            dest.write(start, samples[k, lo:hi])


@dataclass
class _Filter:
    """One filter of the block pass: where its images go and what it needs."""

    arrays: list[str]  # its devices, in channel order
    channels: slice    # those channels among the block's mixture planes
    Rt: np.ndarray     # (C, C, K, F) covariance planes
    noise: tuple       # (noise power, noise power / C), each (F,)
    sink: _Spectra | _ImageWriter  # takes the (K+1, C, b, F) images of a block
    static: tuple | None  # (p, L, dinv) factorized for every frame, or None
    worst: float = 0.0  # the worst squared image-sum deviation so far
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def n_channels(self) -> int:
        return self.channels.stop - self.channels.start


@dataclass
class _Unit:
    """Devices whose frame blocks are processed together."""

    devices: list[str]
    readers: list      # one per device; their channel planes, stacked
    n_frames: int
    channels: int      # of the stacked planes
    loglik: list       # (channel slice, Linv, logdets) per classifying array
    filters: list[_Filter]
    posteriors: object  # takes the (N, F, S) joint posteriors, or None


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
        lo = 0
        for m, reader in zip(unit.devices, unit.readers):
            planes = x[lo:lo + reader.channels]
            lo += reader.channels
            reader.read(n0, n1, ws.t, planes)
            for plane in planes:
                if not np.isfinite(plane, out=ws.mask[:b]).all():
                    raise NumericalError(
                        f"non-finite {reader.holds} in array {m!r}")
        if unit.loglik:
            ll = ws.ll[:b]
            ll.fill(0.0)
            for channels, Linv, logdets in unit.loglik:
                _kernels.loglik_block(x[channels], Linv, logdets, ll, ws)
            posterior_block(ll, ll, ws)
            if isinstance(unit.posteriors, np.ndarray):
                np.copyto(unit.posteriors[n0:n1], ll)
            elif unit.posteriors is not None:
                unit.posteriors.put(n0, ll, ws)
            if unit.filters:
                power_block(ll, var, ws.p.real[:, :b], ws)
        for f in unit.filters:
            _filter_block(f, x[f.channels], n0, n1, ws)
            planes = f.sink.planes(n0, n1, ws)
            worst = _deviation_block(planes, x[f.channels], ws)
            with f.lock:
                if worst > f.worst:  # never for a NaN, as in `max`
                    f.worst = worst
            f.sink.put(n0, n1, planes, ws.t)
    except BaseException:
        for f in unit.filters:  # release the blocks that wait for this one
            f.sink.abort()
        raise


def _unit(readers: dict, spatial: SpatialModel, states: StateSpectrumModel,
          entries: list[tuple], classifies: bool, sink=None,
          posteriors=None) -> _Unit:
    """One unit of the block pass over the devices of `entries`.

    entries: (devices, (K, F, C, C) covariances over their channels) pairs;
    readers: device -> its frame blocks (`dsp._Reader` or
    `dsp._TensorReader`).
    The unit sums the entries' log-likelihoods when it classifies, writes
    `posteriors` when given, an (N, F, S) float64 array or an object of
    that shape and dtype whose put(n0, block, ws) takes the posteriors of
    frames n0 onwards (`classifier.PosteriorFile`), and has one filter
    per entry, each with a new sink(devices, channels, frames), unless
    sink is None.  The filters of a unit that does not classify use the
    long-term spectra (the static modes).
    """
    F, noise = spatial.n_bins, states.noise_spectrum
    arrays = [m for devices, _ in entries for m in devices]
    for m in arrays:
        if m not in readers:
            raise ValueError(f"no observations for array {m!r}")
    frames = {m: readers[m].n_frames for m in arrays}
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
    for devices, cov in entries:
        C = sum(readers[m].channels for m in devices)
        channels = slice(lo, lo + C)
        lo += C
        if classifies:
            factors, logdets = state_factors(cov, states)
            loglik.append((channels, _kernels.inverse_factors(factors),
                           logdets))
        if sink is not None:
            filters.append(_Filter(
                devices, channels, _kernels.filter_operands(cov),
                (noise, noise / C), sink(devices, C, n_frames), None))
    for f in filters if not classifies else []:
        # no per-tile powers: the long-term spectra hold for every frame,
        # so factorize once
        ws = _kernels.Workspace(1, F, factor_channels=f.n_channels,
                                sources=spatial.n_sources)
        ws.p.real[:, 0] = states.ltas
        _kernels.mwf_factor(ws.p, f.Rt, *f.noise, ws.L, ws.dinv, ws)
        f.static = (ws.p, ws.L, ws.dinv)
    return _Unit(arrays, [readers[m] for m in arrays], n_frames, lo, loglik,
                 filters, posteriors)


def _units(readers: dict, spatial: SpatialModel, states: StateSpectrumModel,
           mode: str, posteriors, sink) -> list[_Unit]:
    """The units of the block pass under one mode, with their sinks.

    See `_unit`; sink(devices, channels, frames) is a new sink for one
    filter.
    The unit that classifies over every array writes `posteriors`: the
    one unit of tv-distributed, or else one more unit that has no
    filters.  `classifier.classify` runs tv-distributed with no sink.
    """
    every = [([m], spatial.covariances[m]) for m in sorted(readers)]
    if mode == "tv-distributed":
        return [_unit(readers, spatial, states, every, True, sink,
                      posteriors)]
    filters = every
    if mode == "static-pooled":
        merged = spatial.merged_covariances()
        if merged is None:
            raise ValueError("static-pooled requires a model trained with "
                             "include_pooled (asyncsep train --pooled)")
        filters = [(sorted(spatial.covariances), merged)]
    units = [_unit(readers, spatial, states, [entry],
                   not mode.startswith("static"), sink) for entry in filters]
    if posteriors is not None:
        units.append(_unit(readers, spatial, states, every, True,
                           posteriors=posteriors))
    return units


def _run_pass(units: list[_Unit], spatial: SpatialModel,
              states: StateSpectrumModel, length: int = 0) -> dict:
    """Run every block of every unit on the pool; the worst image-sum
    deviation per filter.  length: the window length when the pass
    analyzes and synthesizes signals, else 0."""
    var = states.conditional_variances()
    filters = [f for u in units for f in u.filters]
    factor_channels = max((f.n_channels for f in filters
                           if f.static is None), default=0)
    filter_channels = max((f.n_channels for f in filters), default=0)
    # every device is among some filter's channels, so the analysis of a
    # device's frames fits the synthesis scratch too
    images, image_channels = 0, 0
    if length:  # the readers take two planes of frames, too
        images, image_channels = max(spatial.n_sources + 1, 2), filter_channels
    channels = max((u.channels for u in units), default=0)
    _pool.run([(u, n0) for u in units
               for n0 in range(0, u.n_frames, _kernels._BLOCK)],
              lambda task, ws: _run_block(*task, ws, var),
              lambda: _kernels.Workspace(
                  _kernels._BLOCK, spatial.n_bins, channels=channels,
                  factor_channels=factor_channels, sources=spatial.n_sources,
                  states=states.n_states, images=images,
                  image_channels=image_channels, length=length,
                  filter_channels=filter_channels))
    return {_merged_label(f.arrays): float(np.sqrt(f.worst)) for f in filters}


def _parts(devices: list[str], spatial: SpatialModel):
    """(k, source id, device, lo, hi) for every image of a filter over
    `devices`, device by device: rows lo:hi of its image k are that
    device's channels."""
    bounds = list(itertools.accumulate(
        [spatial.channels(m) for m in devices], initial=0))
    for m, lo, hi in zip(devices, bounds, bounds[1:]):
        for k, sid in enumerate(spatial.source_ids + [NOISE_ID]):
            yield k, sid, m, lo, hi


def _check_inputs(mode: str, array_ids) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not array_ids:
        raise ValueError("no observations given")
    for m in array_ids:
        SpatialModel.check_id(m, "device")


def _check_array(m: str, channels: int, spatial: SpatialModel) -> None:
    """ValueError unless the model holds array m, with `channels`."""
    if m not in spatial.covariances:
        raise ValueError(f"array {m!r} is not in the model, which holds "
                         f"{', '.join(spatial.covariances)}")
    if channels != spatial.channels(m):
        raise ValueError(f"array {m!r}: {channels} channels, model expects "
                         f"{spatial.channels(m)}")


def _tensor_readers(observations: dict[str, SpectrogramTensor],
                    spatial: SpatialModel) -> dict:
    """The readers of a pass over STFT tensors, by device.

    Each tensor must be of an array of the model and hold that array's
    channels and the model's bins; that the frames agree is left to
    `_unit`, and that they are finite to the pass (`_run_block`).
    """
    readers = {}
    for m, t in sorted(observations.items()):
        _check_array(m, t.channels, spatial)
        if t.n_bins != spatial.n_bins:
            raise ValueError(
                f"array {m!r}: {t.n_bins} bins, model expects {spatial.n_bins}")
        readers[m] = dsp._TensorReader(t.coeffs)
    return readers


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
    units = _units(_tensor_readers(observations, spatial), spatial, states,
                   mode, posteriors,
                   lambda devices, C, N: _Spectra(K + 1, C, N, F))
    consistency = _run_pass(units, spatial, states)
    images = {  # (N, F, C) views of the buffers
        (m, sid): SpectrogramTensor(
            f.sink.out[k, lo:hi].transpose(1, 2, 0), observations[m].window,
            observations[m].rate_hz, observations[m].n_samples)
        for u in units for f in u.filters
        for k, sid, m, lo, hi in _parts(f.arrays, spatial)}
    return SeparationResult(images, mode,
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
    are held.  Recordings must be of the model's arrays and hold their
    channels and at least one window; in the modes that filter devices
    jointly, their frame counts must agree.  ValueError if not,
    NumericalError for non-finite samples and ConfigError for device ids
    outside `SpatialModel.check_id`.

    posteriors: as for `separate`.
    """
    images = {}

    def image(m, sid):
        rec = recordings[m]
        dest = images[(m, sid)] = dsp._Samples((rec.channels,),
                                               rec.n_samples)
        return dest

    consistency = _separate_sources(
        {m: dsp._ArraySource(rec.samples) for m, rec in recordings.items()},
        window, spatial, states, mode, posteriors, image)
    return SeparationResult(
        {(m, sid): SampledSignal(dest.out.T, recordings[m].rate_hz)
         for (m, sid), dest in images.items()}, mode,
        metadata={"consistency_rel_max": consistency})


def _separate_sources(sources: dict, window: WindowSpec,
                      spatial: SpatialModel, states: StateSpectrumModel,
                      mode: str, posteriors, image) -> dict:
    """The streamed pass from sample sources to image destinations.

    sources: device -> its (n, C) samples, a sample source of
    `dsp._Reader`; posteriors: as `_unit` takes them; image(device,
    source id) -> the destination of that image's (C, n) signal, an
    object with write(start, samples) (`dsp._Samples`, `audio.WavSink`,
    `metrics._ImageScore`), or None for an image nobody keeps; it is
    called for every image, noise included, in the order of `separate`'s
    images, once the sources' shapes are checked.  A filter none of
    whose noise images is kept does not synthesize them
    (`_ImageWriter`).  Checks and errors as for
    `separate_recordings`; the pass finds non-finite samples as it reads
    them, after the destinations are made, so a caller that must leave
    nothing behind on failure discards them.  Returns the worst
    image-sum deviation per filter.
    """
    array_ids = sorted(sources)
    _check_inputs(mode, array_ids)
    F = spatial.n_bins
    if window.length // 2 + 1 != F:
        raise ValueError(f"window length {window.length} gives "
                         f"{window.length // 2 + 1} bins, model expects {F}")
    readers = {}
    for m in array_ids:
        source = sources[m]
        _check_array(m, source.channels, spatial)
        if source.n_samples < window.length:
            raise ValueError(f"array {m!r}: {source.n_samples} samples, "
                             f"fewer than one frame ({window.length})")
        readers[m] = dsp._Reader(source, window)

    def sink(devices, C, N):
        return _ImageWriter(spatial.n_sources + 1, C, N, window, [
            (k, lo, hi, image(m, sid))
            for k, sid, m, lo, hi in _parts(devices, spatial)])

    units = _units(readers, spatial, states, mode, posteriors, sink)
    return _run_pass(units, spatial, states, window.length)
