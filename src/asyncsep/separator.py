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
decides the error.  Where the pass scores its images, each device's
samples come from its recording (`metrics._Scores.read`), with, from
the same render, the truth span the block will finish on that device
and the recording's own part of it, into the thread's scratch, before
any writer's turn.  The static modes'
filters, factorized once before the pass, filter the block.  When a
mode classifies, each device's log-likelihoods are formed once, into
their own plane: tv-local takes each plane's softmax for that device's
filter, and tv-distributed adds the planes in device order and takes
the softmax of the sum, which also fills the posteriors when the caller
passes a buffer for them.  Each filter solves the block over all its
channels once, then forms the K+1 images of one device at a time, adds
that device's share of the check that they sum to the mixture, and
hands them to that device's sink; a filter of every device
(static-pooled) is a filter of one device repeated over its devices'
channels, so a thread holds one device's images and frames whatever
the filter.  No full-size log-likelihoods or powers are kept.  With no
mode the pass only classifies; `classifier.classify` runs it so.  The
blocks run on every core (`_pool`), and the result depends neither on
the number of threads nor on which modes share the pass.

`separate` and `classify` read their blocks from STFT tensors
(`dsp._TensorReader`), and the sink of `separate` is a (K+1, C, N, F)
image buffer per filter and device; the image tensors of its result
are (N, F, C) views into them.  The streamed pass (`_separate_sources`)
reads each block from the recordings through a `dsp._Reader`, which
frames them as `dsp.stft` does, and its sink is a `dsp._Writer`, the
overlap-add of `dsp.istft`, which hands each finished span of the
images kept to their destinations (`_ImageWriter`, one per filter and
device); no spectrogram of a whole recording is ever held, and a
writer keeps only its carry between blocks.  A writer adds its blocks
in frame order, so the image signals equal `istft` of `separate`'s
images bit for bit.
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
    """Sink of `separate`: one device's images of a filter stay in one
    (K+1, C, N, F) buffer."""

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
    """Sink of the streamed pass: a `dsp._Writer` of one device's images
    under one filter, synthesized from a block's K+1 images in its
    thread's image planes, with its block sums in the thread's
    workspace, which routes each finished span itself.  parts: (k, dest)
    sends image k to dest, a destination of that image's (C, samples)
    signal (`dsp._Samples`, `audio.WavSink`, `metrics._ImageScore`), or
    to nowhere when dest is None.  The noise image, the last, is
    synthesized only when a part keeps it; the image-sum check still
    reads all K+1 planes."""

    def __init__(self, images: int, channels: int, n_frames: int,
                 window: WindowSpec, parts):
        self.images = images
        self.parts = [p for p in parts if p[1] is not None]
        noise = any(k == images - 1 for k, _ in self.parts)
        super().__init__((images if noise else images - 1, channels),
                         n_frames, window, None)

    def planes(self, n0, n1, ws):
        return ws.img[:self.images, :self.rows[1], :n1 - n0]

    def put(self, n0, n1, planes, ws):
        super().put(n0, n1, planes[:self.rows[0]], ws.t, ws.sums)

    def write(self, start, samples) -> None:
        for k, dest in self.parts:
            dest.write(start, samples[k])


@dataclass
class _Filter:
    """One filter of the block pass: where its images go and what it needs."""

    mode: str
    arrays: list[str]  # its devices, in channel order
    channels: slice    # those channels among the block's mixture planes
    rows: list[slice]  # each device's channels among the filter's
    n_frames: int
    Rt: np.ndarray     # (C, C, K, F) covariance planes
    noise: tuple       # (noise power, noise power / C), each (F,)
    # per device, what takes the (K+1, C, b, F) images of its channels
    sinks: list[_Spectra | _ImageWriter]
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
    truth: object = None  # reads the samples and the truth, or None

    @property
    def width(self) -> int:
        return self.channels[-1].stop


def _deviation_block(parts, ws) -> float:
    """Worst squared relative deviation of the image sum in one block.

    parts: (planes, x) of consecutive ranges of a filter's channels, in
    channel order, each read before the next is drawn: (K+1, C, b, F)
    images and their (C, b, F) mixture.  Per channel the images are
    summed and the mixture subtracted, and the squared deviations and
    mixture powers are accumulated over every range's channels; their
    ratio and its maximum are taken once.  Tiles with a silent mixture
    count as 0.
    """
    for i, (planes, x) in enumerate(parts):
        C, b, _ = x.shape
        d = ws.c[0, :b]
        num, den, t, u = (ws.r[j, :b] for j in range(4))
        if not i:
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
    active = ws.mask[:b]
    np.greater(den, 0.0, out=active)
    np.divide(num, den, out=num, where=active)
    np.logical_not(active, out=active)
    np.copyto(num, 0.0, where=active)
    return float(num.max())


def _solve(f: _Filter, x: np.ndarray, ws) -> np.ndarray:
    """Solve one block of a filter, x its (C, b, F) mixture planes, into
    ws.y; returns the block's powers.  Time-varying powers are in ws.p
    and are factorized here; static ones were factorized once."""
    C, b, _ = x.shape
    if f.static is None:
        p, L, dinv = ws.p[:, :b], ws.L[:C, :C, :b], ws.dinv[:C, :b]
        _kernels.mwf_factor(p, f.Rt, *f.noise, L, dinv, ws)
    else:
        p, L, dinv = f.static
    _kernels.mwf_solve(x, L, dinv, ws)
    return p


def _images(f: _Filter, x: np.ndarray, p, n0: int, n1: int, ws):
    """Frames n0:n1 of a filter's images, device by device in channel
    order: each device's are formed in its sink's planes from the
    block's solves, yielded with that device's mixture planes and, once
    read, sunk."""
    for rows, sink in zip(f.rows, f.sinks):
        planes = sink.planes(n0, n1, ws)
        _kernels.mwf_apply(x, p, f.Rt, rows, planes, ws)
        yield planes, x[rows]
        sink.put(n0, n1, planes, ws)


def _apply(f: _Filter, n0: int, ws) -> None:
    """Filter one block of frames, and form, check and sink its images
    device by device."""
    n1 = min(n0 + _kernels._BLOCK, f.n_frames)
    x = ws.x[f.channels, :n1 - n0]
    p = _solve(f, x, ws)
    worst = _deviation_block(_images(f, x, p, n0, n1, ws), ws)
    with f.lock:
        if worst > f.worst:  # never for a NaN, as in `max`
            f.worst = worst


def _run_block(p: _Pass, n0: int, ws, var) -> None:
    """The fused pass over one block of frames of every device.

    Reads and checks each device's planes, with the truth the block
    finishes on that device when the pass scores, then runs the static
    filters; each device's
    log-likelihoods, when some mode classifies, go to its own posteriors
    and tv-local filters, and are added in device order into the joint
    ones, which are bit for bit the running difference of one plane,
    (0 - qa) - qb == (0 - qa) + (0 - qb).  A device with no frame left in
    the block (recordings of unequal length) takes no part in it.
    """
    ends = [min(n0 + _kernels._BLOCK, n) for n in p.frames]
    try:
        for m, reader, n, n1, ch in zip(p.devices, p.readers, p.frames, ends,
                                        p.channels):
            if n1 <= n0:
                continue
            span = None
            if p.truth is not None:  # and the truth the block finishes
                span = p.truth.read(m, reader.span(n0, n1), dsp._finished(
                    p.window, n, n0, n1), ws.truth)
            planes = ws.x[ch, :n1 - n0]
            reader.read(n0, n1, ws.t, planes, span)
            for plane in planes:
                if not np.isfinite(plane, out=ws.mask[:n1 - n0]).all():
                    raise NumericalError(
                        f"non-finite {reader.holds} in array {m!r}")
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
            for sink in f.sinks:
                sink.abort()
        raise


def _plan(readers: dict, spatial: SpatialModel, states: StateSpectrumModel,
          modes, posteriors=None, sink=None) -> _Pass:
    """The block pass over the devices of `readers` under `modes`.

    readers: device -> its frame blocks (`dsp._Reader` or
    `dsp._TensorReader`).  Each mode has one filter per device, except
    static-pooled, which has one over every device, and each filter a
    new sink(mode, device, channels, frames) per device; the static
    modes use the long-term spectra, tv-local each device's own
    posteriors and tv-distributed the joint posteriors over every
    device.  The block sums the devices' log-likelihoods for
    tv-distributed and to write `posteriors` when given, an (N, F, S)
    float64 array or an object of that shape and dtype whose put(n0,
    block, ws) takes the posteriors of frames n0 onwards
    (`classifier.PosteriorFile`); with no mode and `posteriors` it
    classifies and filters nothing (`classifier.classify`).  The
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

    def make(mode, devs, cov, chs, n):
        """The filter of devs, whose planes are chs, in channel order."""
        if tuple(devs) not in operands:
            operands[tuple(devs)] = _kernels.filter_operands(cov)
        lo, hi = chs[0].start, chs[-1].stop
        return _Filter(
            mode, devs, slice(lo, hi),
            [slice(c.start - lo, c.stop - lo) for c in chs], n,
            operands[tuple(devs)], (noise, noise / (hi - lo)),
            [sink(mode, m, c.stop - c.start, n) for m, c in zip(devs, chs)])

    by_mode, filters, static = {}, [], []
    for mode in modes:
        if mode == "static-pooled":
            by_mode[mode] = [make(mode, devices, merged, channels,
                                  frames[0])]
        else:
            by_mode[mode] = [
                make(mode, [m], spatial.covariances[m], [ch], n)
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

    Each thread's workspace is sized by the widest device, not the
    widest filter, as a filter forms, checks and synthesizes its images
    device by device; only the solves of a filter over several devices
    hold every channel.  Where the pass analyzes and synthesizes
    signals, it also holds its writers' block sums (`dsp._block_sums`,
    ws.sums) and, with a truth reader, each block's span of a device's
    recording, the truth span it finishes and the recording's part of
    it (ws.truth), rendered in scratch that lies over the image planes
    and frames (ws.idle).
    """
    var = states.conditional_variances()
    factor_channels = max((f.n_channels for f in p.filters
                           if f.static is None), default=0)
    filter_channels = max((f.n_channels for f in p.filters), default=0)
    writers = [s for f in p.filters for s in f.sinks
               if isinstance(s, dsp._Writer)]
    images, image_channels, length, frame_images = 0, 0, 0, 0
    if p.window is not None:
        images = spatial.n_sources + 1
        image_channels = max(ch.stop - ch.start for ch in p.channels)
        length = p.window.length
        # the rows the writers synthesize; the readers take two, too
        frame_images = max([2] + [w.rows[0] for w in writers])
    rows = max((math.prod(w.rows) for w in writers), default=0)

    def workspace():
        ws = _kernels.Workspace(
            _kernels._BLOCK, spatial.n_bins, channels=p.width,
            factor_channels=factor_channels, sources=spatial.n_sources,
            states=states.n_states, images=images,
            image_channels=image_channels, length=length,
            filter_channels=filter_channels,
            own=p.joint and bool(p.local), frame_images=frame_images)
        if p.window is not None:  # a block's images are synthesized first
            ws.sums = dsp._block_sums(rows, p.window, _kernels._BLOCK,
                                      ws.img.view(np.float64))
        if p.truth is not None:
            ws.truth = p.truth.scratch(spare=ws.idle)
        elif p.window is not None:  # the readers read their sources
            for m, reader in zip(p.devices, p.readers):
                if reader.raw_floats(_kernels._BLOCK) > ws.t[0].size:
                    raise ValueError(f"the samples of array {m!r} need "
                                     f"more scratch than a block holds")
        return ws

    _pool.run(range(0, max(p.frames), _kernels._BLOCK),
              lambda n0, ws: _run_block(p, n0, ws, var), workspace)
    out = {}
    for f in p.filters:
        out.setdefault(f.mode, {})[_merged_label(f.arrays)] = float(
            np.sqrt(f.worst))
    return out


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
              lambda mode, m, C, N: _Spectra(K + 1, C, N, F))
    consistency = _run_pass(p, spatial, states)[mode]
    images = {  # (N, F, C) views of the buffers
        (m, sid): SpectrogramTensor(
            sink.out[k].transpose(1, 2, 0), observations[m].window,
            observations[m].rate_hz, observations[m].n_samples)
        for f in p.filters for m, sink in zip(f.arrays, f.sinks)
        for k, sid in enumerate(spatial.source_ids + [NOISE_ID])}
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
    object whose read(device, span, finished, scratch) returns that
    device's samples span, (start, stop), that a block's frames cover,
    and reads from the same render the truth of the samples finished,
    (start, stop), that the block finishes on that device, into the
    thread's scratch(spare=), before any of the block's writes
    (`metrics._Scores`, whose recordings are the sources).  Checks and errors as for
    `separate_recordings`;
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

    def sink(mode, m, C, N):
        return _ImageWriter(spatial.n_sources + 1, C, N, window, [
            (k, image(mode, m, sid))
            for k, sid in enumerate(spatial.source_ids + [NOISE_ID])])

    p = _plan(readers, spatial, states, modes, posteriors, sink)
    p.window, p.truth = window, truth
    return _run_pass(p, spatial, states)
