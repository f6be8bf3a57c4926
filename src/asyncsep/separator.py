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

Separation is one fused pass per block of frames over every device,
for every mode asked for at once; one task per block.  A block reads
each device's mixture planes through one reader per device, in channel
order, and checks them as they are read: a non-finite value raises
NumericalError naming the device before the block waits for anything,
so the first such block in task order, and in it the first device,
decides the error.  Where the pass scores its images, the block then
reads the truth span it will finish on each device (`metrics._Scores`)
into its thread's scratch, before any writer's turn.  The static modes'
filters, factorized once before the pass, filter the block.  When a
mode classifies, each device's log-likelihoods are formed once, into
their own plane: tv-local takes each plane's softmax for that device's
filter, and tv-distributed adds the planes in device order and takes
the softmax of the sum, which also fills the posteriors when the caller
passes a buffer for them.  Each filter writes the K+1 images of the
block, checks that they sum to the mixture and hands them to a sink.  No
full-size log-likelihoods or powers are kept.  With no mode the pass only
classifies; `classifier.classify` runs it so.  The blocks run on every
core (`_pool`), and the result depends neither on the number of threads
nor on which modes share the pass.

`separate` and `classify` read their blocks from STFT tensors
(`dsp._TensorReader`), and the sink of `separate` is each filter's
(K+1, C, N, F) image buffer; the image tensors of its result are
(N, F, C) views into them.  The streamed pass (`_separate_sources`)
reads each block from the recordings through a `dsp._Reader`, which
frames them as `dsp.stft` does, and its sink is a `dsp._Writer`, the
overlap-add of `dsp.istft`, which hands each finished span of the
images kept to their destinations (`_ImageWriter`); no spectrogram of a
whole recording is ever held, and a writer keeps only its carry
between blocks.  The writer adds a filter's blocks in frame order, so
the image signals equal `istft` of `separate`'s images bit for bit.
`separate_recordings` streams from arrays into arrays; `asyncsep
separate` streams from WAV files into WAV files, and its posteriors
into a `.npy` file, so it holds a fixed number of blocks whatever the
length; `run_experiment` streams every mode of a variant in one pass
from arrays into scores (`metrics._Scores`), keeps no noise image and
so synthesizes none.
"""

from __future__ import annotations

import itertools
import math
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

    def put(self, n0, n1, planes, ws):
        pass

    def abort(self):
        pass


class _ImageWriter(dsp._Writer):
    """Sink of the streamed pass: a `dsp._Writer` of one filter's images,
    synthesized from a block's K+1 images in its thread's image planes,
    with its block sums in the thread's workspace, which routes each
    finished span itself.  parts: (k, lo, hi, dest) sends image k's rows
    lo:hi, one device's channels, to dest, a destination of that image's
    (hi - lo, samples) signal (`dsp._Samples`, `audio.WavSink`,
    `metrics._ImageScore`), or to nowhere when dest is None.  The noise
    image, the last, is synthesized only when a part keeps it; the
    image-sum check still reads all K+1 planes."""

    def __init__(self, images: int, channels: int, n_frames: int,
                 window: WindowSpec, parts):
        self.images = images
        self.parts = [p for p in parts if p[3] is not None]
        noise = any(k == images - 1 for k, *_ in self.parts)
        super().__init__((images if noise else images - 1, channels),
                         n_frames, window, None)

    def planes(self, n0, n1, ws):
        return ws.img[:self.images, :self.rows[1], :n1 - n0]

    def put(self, n0, n1, planes, ws):
        super().put(n0, n1, planes[:self.rows[0]], ws.t, ws.sums)

    def write(self, start, samples) -> None:
        for k, lo, hi, dest in self.parts:
            dest.write(start, samples[k, lo:hi])


@dataclass
class _Filter:
    """One filter of the block pass: where its images go and what it needs."""

    mode: str
    arrays: list[str]  # its devices, in channel order
    channels: slice    # those channels among the block's mixture planes
    n_frames: int
    Rt: np.ndarray     # (C, C, K, F) covariance planes
    noise: tuple       # (noise power, noise power / C), each (F,)
    sink: _Spectra | _ImageWriter  # takes the (K+1, C, b, F) images of a block
    static: tuple | None = None  # (p, L, dinv) factorized for every frame
    worst: float = 0.0  # the worst squared image-sum deviation so far
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def n_channels(self) -> int:
        return self.channels.stop - self.channels.start


@dataclass
class _Pass:
    """The frame blocks of every device and what each block feeds."""

    devices: list[str]
    readers: list      # one per device; their channel planes, stacked
    frames: list[int]  # each device's frames
    channels: list[slice]  # each device's planes among the stacked ones
    loglik: list       # (Linv, logdets) per device, when a mode classifies
    static: list[_Filter]  # the filters of the long-term spectra
    local: list[list[_Filter]]  # per device, those of its own posteriors
    distributed: list[_Filter]  # those of the joint posteriors
    joint: bool        # whether the block sums the log-likelihoods
    posteriors: object  # takes the (N, F, S) joint posteriors, or None
    filters: list[_Filter]  # every filter, mode by mode
    window: WindowSpec | None = None  # of the signals analyzed, if any
    truth: object = None  # reads the truth each block finishes, or None

    @property
    def width(self) -> int:
        return self.channels[-1].stop


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


def _apply(f: _Filter, n0: int, ws) -> None:
    """Filter one block of frames, check its image sum and sink it."""
    n1 = min(n0 + _kernels._BLOCK, f.n_frames)
    x = ws.x[f.channels, :n1 - n0]
    _filter_block(f, x, n0, n1, ws)
    planes = f.sink.planes(n0, n1, ws)
    worst = _deviation_block(planes, x, ws)
    with f.lock:
        if worst > f.worst:  # never for a NaN, as in `max`
            f.worst = worst
    f.sink.put(n0, n1, planes, ws)


def _run_block(p: _Pass, n0: int, ws, var) -> None:
    """The fused pass over one block of frames of every device.

    Reads and checks each device's planes, reads the truth the block
    finishes, then runs the static filters; each device's
    log-likelihoods, when some mode classifies, go to its own posteriors
    and tv-local filters, and are added in device order into the joint
    ones, which are bit for bit the running difference of one plane,
    (0 - qa) - qb == (0 - qa) + (0 - qb).  A device with no frame left in
    the block (recordings of unequal length) takes no part in it.
    """
    ends = [min(n0 + _kernels._BLOCK, n) for n in p.frames]
    try:
        for m, reader, n1, ch in zip(p.devices, p.readers, ends, p.channels):
            if n1 <= n0:
                continue
            planes = ws.x[ch, :n1 - n0]
            reader.read(n0, n1, ws.t, planes)
            for plane in planes:
                if not np.isfinite(plane, out=ws.mask[:n1 - n0]).all():
                    raise NumericalError(
                        f"non-finite {reader.holds} in array {m!r}")
        if p.truth is not None:
            for m, n, n1 in zip(p.devices, p.frames, ends):
                if n1 > n0:
                    p.truth.read(m, *dsp._finished(p.window, n, n0, n1),
                                 ws.truth)
        for f in p.static:
            if n0 < f.n_frames:
                _apply(f, n0, ws)
        if not p.loglik:
            return
        joint = None
        if p.joint:  # every device has the block's frames
            joint = ws.ll[:ends[0] - n0]
            joint.fill(0.0)
        for (Linv, logdets), ch, n1, filters in zip(
                p.loglik, p.channels, ends, p.local or itertools.repeat(())):
            if n1 <= n0:
                continue
            x = ws.x[ch, :n1 - n0]
            if not p.local:
                _kernels.loglik_block(x, Linv, logdets, joint, ws)
                continue
            ll = (ws.ll if joint is None else ws.own)[:n1 - n0]
            ll.fill(0.0)
            _kernels.loglik_block(x, Linv, logdets, ll, ws)
            if joint is not None:
                joint += ll
            posterior_block(ll, ll, ws)
            power_block(ll, var, ws.p.real[:, :n1 - n0], ws)
            for f in filters:
                _apply(f, n0, ws)
        if joint is None:
            return
        posterior_block(joint, joint, ws)
        if isinstance(p.posteriors, np.ndarray):
            np.copyto(p.posteriors[n0:ends[0]], joint)
        elif p.posteriors is not None:
            p.posteriors.put(n0, joint, ws)
        if p.distributed:
            power_block(joint, var, ws.p.real[:, :ends[0] - n0], ws)
            for f in p.distributed:
                _apply(f, n0, ws)
    except BaseException:
        for f in p.filters:  # release the blocks that wait for this one
            f.sink.abort()
        raise


def _plan(readers: dict, spatial: SpatialModel, states: StateSpectrumModel,
          modes, posteriors=None, sink=None) -> _Pass:
    """The block pass over the devices of `readers` under `modes`.

    readers: device -> its frame blocks (`dsp._Reader` or
    `dsp._TensorReader`).  Each mode has one filter per device, with a new
    sink(mode, devices, channels, frames), except static-pooled, which
    has one over every device; the static modes use the long-term
    spectra, tv-local each device's own posteriors and tv-distributed the
    joint posteriors over every device.  The block sums the devices'
    log-likelihoods for tv-distributed and to write `posteriors` when
    given, an (N, F, S) float64 array or an object of that shape and
    dtype whose put(n0, block, ws) takes the posteriors of frames n0
    onwards (`classifier.PosteriorFile`); with no mode and `posteriors`
    it classifies and filters nothing (`classifier.classify`).  The
    devices' frames must agree where the block sums them or filters them
    together; the filter operands of a device are formed once for every
    mode.
    """
    F, noise = spatial.n_bins, states.noise_spectrum
    devices = sorted(readers)
    merged = None
    if "static-pooled" in modes:
        merged = spatial.merged_covariances()
        if merged is None:
            raise ValueError("static-pooled requires a model trained with "
                             "include_pooled (asyncsep train --pooled)")
        for m in spatial.covariances:
            if m not in readers:
                raise ValueError(f"no observations for array {m!r}")
    frames = [readers[m].n_frames for m in devices]
    joint = "tv-distributed" in modes or posteriors is not None
    if (joint or merged is not None) and len(set(frames)) > 1:
        raise ValueError(f"observations not aligned across arrays: "
                         f"frames {dict(zip(devices, frames))}")
    if posteriors is not None and (
            posteriors.shape != (frames[0], F, states.n_states)
            or posteriors.dtype != np.float64):
        raise ValueError(
            f"posteriors must be a float64 array of shape "
            f"{(frames[0], F, states.n_states)}, got {posteriors.dtype} "
            f"{posteriors.shape}")
    bounds = list(itertools.accumulate(
        [readers[m].channels for m in devices], initial=0))
    channels = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    loglik = []
    if joint or "tv-local" in modes:
        for m in devices:
            factors, logdets = state_factors(spatial.covariances[m], states)
            loglik.append((_kernels.inverse_factors(factors), logdets))
    operands = {}  # the filter operands, by devices, shared by the modes

    def make(mode, devs, cov, ch, n):
        if tuple(devs) not in operands:
            operands[tuple(devs)] = _kernels.filter_operands(cov)
        C = ch.stop - ch.start
        return _Filter(mode, devs, ch, n, operands[tuple(devs)],
                       (noise, noise / C), sink(mode, devs, C, n))

    by_mode, filters, static = {}, [], []
    for mode in modes:
        if mode == "static-pooled":
            by_mode[mode] = [make(mode, devices, merged,
                                  slice(0, bounds[-1]), frames[0])]
        else:
            by_mode[mode] = [
                make(mode, [m], spatial.covariances[m], ch, n)
                for m, ch, n in zip(devices, channels, frames)]
        filters += by_mode[mode]
        if mode.startswith("static"):
            static += by_mode[mode]
    for f in static:
        # no per-tile powers: the long-term spectra hold for every frame,
        # so factorize once
        ws = _kernels.Workspace(1, F, factor_channels=f.n_channels,
                                sources=spatial.n_sources)
        ws.p.real[:, 0] = states.ltas
        _kernels.mwf_factor(ws.p, f.Rt, *f.noise, ws.L, ws.dinv, ws)
        f.static = (ws.p, ws.L, ws.dinv)
    return _Pass(devices, [readers[m] for m in devices], frames, channels,
                 loglik, static, [[f] for f in by_mode.get("tv-local", [])],
                 by_mode.get("tv-distributed", []), joint, posteriors,
                 filters)


def _run_pass(p: _Pass, spatial: SpatialModel,
              states: StateSpectrumModel) -> dict:
    """Run every block on the pool, one task per block of frames over
    every device; mode -> the worst image-sum deviation per filter.

    Each thread's workspace also holds, where the pass analyzes and
    synthesizes signals, its writers' block sums (`dsp._block_sums`,
    ws.sums) and, with a truth reader, the truth span each block finishes
    (ws.truth), read in the workspace's frame scratch.
    """
    var = states.conditional_variances()
    factor_channels = max((f.n_channels for f in p.filters
                           if f.static is None), default=0)
    filter_channels = max((f.n_channels for f in p.filters), default=0)
    images, image_channels, length = 0, 0, 0
    if p.window is not None:  # the readers take two planes of frames, too
        images = max(spatial.n_sources + 1, 2)
        image_channels = max(filter_channels, *(
            ch.stop - ch.start for ch in p.channels))
        length = p.window.length
    rows = max((math.prod(f.sink.rows) for f in p.filters
                if isinstance(f.sink, dsp._Writer)), default=0)

    def workspace():
        ws = _kernels.Workspace(
            _kernels._BLOCK, spatial.n_bins, channels=p.width,
            factor_channels=factor_channels, sources=spatial.n_sources,
            states=states.n_states, images=images,
            image_channels=image_channels, length=length,
            filter_channels=filter_channels,
            own=p.joint and bool(p.local))
        if p.window is not None:  # a block's images are synthesized first
            ws.sums = dsp._block_sums(rows, p.window, _kernels._BLOCK,
                                      ws.img.view(np.float64))
        if p.truth is not None:
            ws.truth = p.truth.scratch(spare=ws.t)
        return ws

    _pool.run(range(0, max(p.frames), _kernels._BLOCK),
              lambda n0, ws: _run_block(p, n0, ws, var), workspace)
    out = {}
    for f in p.filters:
        out.setdefault(f.mode, {})[_merged_label(f.arrays)] = float(
            np.sqrt(f.worst))
    return out


def _parts(devices: list[str], spatial: SpatialModel):
    """(k, source id, device, lo, hi) for every image of a filter over
    `devices`, device by device: rows lo:hi of its image k are that
    device's channels."""
    bounds = list(itertools.accumulate(
        [spatial.channels(m) for m in devices], initial=0))
    for m, lo, hi in zip(devices, bounds, bounds[1:]):
        for k, sid in enumerate(spatial.source_ids + [NOISE_ID]):
            yield k, sid, m, lo, hi


def _check_inputs(modes, array_ids) -> None:
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if len(set(modes)) < len(modes):
        raise ValueError(f"modes repeated: {', '.join(modes)}")
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
    `_plan`, and that they are finite to the pass (`_run_block`).
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
    joint state posteriors over every array, in every mode.  They are
    summed as `classifier.classify` sums them, so they equal its `gamma`
    bit for bit; the images do not depend on them.
    """
    _check_inputs([mode], sorted(observations))
    K, F = spatial.n_sources, spatial.n_bins
    p = _plan(_tensor_readers(observations, spatial), spatial, states,
              [mode], posteriors,
              lambda mode, devices, C, N: _Spectra(K + 1, C, N, F))
    consistency = _run_pass(p, spatial, states)[mode]
    images = {  # (N, F, C) views of the buffers
        (m, sid): SpectrogramTensor(
            f.sink.out[k, lo:hi].transpose(1, 2, 0), observations[m].window,
            observations[m].rate_hz, observations[m].n_samples)
        for f in p.filters for k, sid, m, lo, hi in _parts(f.arrays, spatial)}
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

    def image(mode, m, sid):
        rec = recordings[m]
        dest = images[(m, sid)] = dsp._Samples((rec.channels,),
                                               rec.n_samples)
        return dest

    consistency = _separate_sources(
        {m: dsp._ArraySource(rec.samples) for m, rec in recordings.items()},
        window, spatial, states, [mode], posteriors, image)[mode]
    return SeparationResult(
        {(m, sid): SampledSignal(dest.out.T, recordings[m].rate_hz)
         for (m, sid), dest in images.items()}, mode,
        metadata={"consistency_rel_max": consistency})


def _separate_sources(sources: dict, window: WindowSpec,
                      spatial: SpatialModel, states: StateSpectrumModel,
                      modes, posteriors, image, truth=None) -> dict:
    """The streamed pass from sample sources to image destinations, one
    pass for every mode.

    sources: device -> its (n, C) samples, a sample source of
    `dsp._Reader`; modes: the filter variants, each at most once, or none
    (the pass then only fills posteriors); posteriors: as `_plan` takes
    them; image(mode, device, source id) -> the destination of that
    image's (C, n) signal under mode, an object with write(start,
    samples) (`dsp._Samples`, `audio.WavSink`, `metrics._ImageScore`), or
    None for an image nobody keeps; it is called for every image, noise
    included, mode by mode in the order of `separate`'s images, once the
    sources' shapes are checked.  A filter none of whose noise images is
    kept does not synthesize them (`_ImageWriter`).  truth: None, or an
    object whose read(device, start, stop, scratch) reads the truth of
    the samples start:stop that a block finishes on that device, into
    the thread's scratch(spare=) before any of the block's writes
    (`metrics._Scores`).  Checks and errors as for `separate_recordings`;
    the pass finds non-finite samples as it reads them, block by block
    across devices, after the destinations are made, so a caller that
    must leave nothing behind on failure discards them.  Returns, by
    mode, the worst image-sum deviation per filter.
    """
    array_ids = sorted(sources)
    _check_inputs(modes, array_ids)
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

    def sink(mode, devices, C, N):
        return _ImageWriter(spatial.n_sources + 1, C, N, window, [
            (k, lo, hi, image(mode, m, sid))
            for k, sid, m, lo, hi in _parts(devices, spatial)])

    p = _plan(readers, spatial, states, modes, posteriors, sink)
    p.window, p.truth = window, truth
    return _run_pass(p, spatial, states)
