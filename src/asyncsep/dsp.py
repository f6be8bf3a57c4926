"""Time-frequency analysis/synthesis and fractional-delay resampling.

Conventions used throughout the package:
  * time-domain signals are float64 arrays of shape (num_samples, num_channels)
  * STFT tensors are complex128 arrays of shape (num_frames, num_bins, num_channels)
  * the one-sided spectrum keeps bins 0..length//2 inclusive

Every reader of samples reads them from a sample source, an object with
  * n_samples and channels: it holds (n_samples, channels) samples;
  * scratch_floats(rows): the floats of raw scratch it reads up to
    `rows` samples in;
  * read(start, stop, raw, out): samples start:stop, within 0:n_samples,
    into out, (channels, stop - start) float, through raw, contiguous
    uint8 scratch of scratch_floats(stop - start) floats or more.
An array (`_ArraySource`), a WAV file's data chunk (`audio.WavSource`),
a scene's image (`scene._ImageSource`) and a device's recording
(`_Clock`) are sample sources, and every reader sizes its scratch by
asking its sources.

The framing rule exists once, in two private classes: `_Reader` frames
any run of a recording's frames, with the analysis padding, from a
sample source, and `_Writer` synthesizes runs of frames, overlap-adds
them and their squared window in frame order, divides each finished
span by that window sum and hands it past the padding to a destination
(an array, or WAV files).  Neither holds more than a block of samples
of its own.  `stft` reads through a reader, `istft` writes through a
writer, and the streamed pass of `separator` uses both.  Which frames
reach a sample is decided only by `_overlap_add`; a run's span, the
padding and a read past a source's ends each have one helper too.

Every fractional delay and clock resampling interpolates with one
Lagrange stencil, of order `_ORDER` (4): `_lagrange_weights`.  A
constant delay (`_Delay`) forms its weights once and renders any span of
the delayed signal on its own, bit for bit as the whole.  One class,
`_Clock`, reads sample sources at a device's clock, a span at a time:
as a sample source it is the device's recording, its sources mixed with
its noise (`scene._recordings`), and from the same read of its sources
it also renders them stacked, for `lagrange_resample`,
`metrics.at_device_clock` and the truth that `metrics._Scores` scores
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _pool

__all__ = [
    "SampledSignal",
    "WindowSpec",
    "SpectrogramTensor",
    "stft",
    "istft",
    "lagrange_resample",
    "fractional_delay",
]

_CHUNK = 64  # channel frames of one `stft` or `istft` task (`_chunk`)
_ORDER = 4  # Lagrange order of every fractional delay and clock resampling
_SPAN = 16384  # samples resampled, mixed or converted from WAV at once


def _as_2d(samples) -> np.ndarray:
    """Coerce samples to a (num_samples, num_channels) float64 array."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"samples must be 1-D or 2-D, got ndim={arr.ndim}")
    return arr


@dataclass
class SampledSignal:
    """Uniformly sampled multichannel signal at a nominal rate.

    samples: (num_samples, num_channels) float64
    rate_hz: nominal sample rate in Hz
    """

    samples: np.ndarray
    rate_hz: float

    def __post_init__(self):
        self.samples = _as_2d(self.samples)
        if not self.rate_hz > 0:
            raise ValueError(f"rate_hz must be positive, got {self.rate_hz}")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def channels(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.rate_hz


@dataclass(frozen=True)
class WindowSpec:
    """Analysis/synthesis window configuration.

    The hop must divide the length and the squared window must satisfy the
    constant-overlap-add property at that hop, which is what weighted
    overlap-add synthesis relies on.  The window is always the periodic
    von Hann, which meets both for overlap factors of 4 (75% overlap, the
    validated default).
    """

    length: int = 4096
    hop: int = 1024

    def __post_init__(self):
        if self.length <= 0 or self.hop <= 0:
            raise ValueError("window length and hop must be positive")
        if self.length % self.hop != 0:
            raise ValueError(
                f"hop ({self.hop}) must divide window length ({self.length})")
        dev = self.cola_deviation()
        if dev > 1e-8:
            raise ValueError(
                f"window/hop is not COLA-compliant for weighted overlap-add "
                f"(relative deviation {dev:.2e}); use an overlap factor >= 3")

    @classmethod
    def from_overlap(cls, length: int, overlap: float) -> "WindowSpec":
        hop = int(round(length * (1.0 - overlap)))
        return cls(length=length, hop=hop)

    def window(self) -> np.ndarray:
        # periodic von Hann; the symmetric variant breaks the overlap-add sum
        n = np.arange(self.length)
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / self.length)

    def overlap_sum(self) -> np.ndarray:
        """Sum of squared windows over one hop period of an infinite tiling."""
        w2 = self.window() ** 2
        return w2.reshape(self.length // self.hop, self.hop).sum(axis=0)

    def cola_deviation(self) -> float:
        s = self.overlap_sum()
        mean = s.mean()
        if mean <= 0:
            return np.inf
        return float(np.abs(s - mean).max() / mean)


@dataclass
class SpectrogramTensor:
    """One-sided STFT coefficients indexed (frame, frequency bin, channel).

    n_samples records the original signal extent so synthesis can restore
    the exact length after the analysis padding is stripped.
    """

    coeffs: np.ndarray
    window: WindowSpec
    rate_hz: float
    n_samples: int | None = field(default=None)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.ndim != 3:
            raise ValueError("coeffs must be (frames, bins, channels)")
        expected = self.window.length // 2 + 1
        if self.coeffs.shape[1] != expected:
            raise ValueError(
                f"bin count {self.coeffs.shape[1]} inconsistent with window "
                f"length {self.window.length} (expected {expected})")

    @property
    def n_frames(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_bins(self) -> int:
        return self.coeffs.shape[1]

    @property
    def channels(self) -> int:
        return self.coeffs.shape[2]


def frame_count(n_samples: int, window: WindowSpec) -> int:
    """Number of full frames for an n_samples signal (no padding)."""
    if n_samples < window.length:
        return 0
    return (n_samples - window.length) // window.hop + 1


def stft_frame_count(n_samples: int, window: WindowSpec) -> int:
    """Number of frames `stft` gives an n_samples signal."""
    left, right = _analysis_padding(n_samples, window)
    return frame_count(left + n_samples + right, window)


def _chunk(channels: int) -> int:
    """Frames of every channel in one `stft` or `istft` task: about
    `_CHUNK` channel frames, and at least one frame."""
    return max(1, _CHUNK // max(channels, 1))


def _analysis_padding(n_samples: int, window: WindowSpec) -> tuple[int, int]:
    """Zero-padding (left, right) so every input sample gets full window
    coverage and the last frame lands exactly on the padded tail."""
    left = window.length
    return left, window.length + -(n_samples + left) % window.hop


def _span(window: WindowSpec, frames: int) -> int:
    """The samples a run of `frames` frames covers."""
    return (frames - 1) * window.hop + window.length


def _read_padded(read, n: int, start: int, raw, out) -> None:
    """Samples start, start + 1, ... of a sample source of n samples into
    out, (C, width) float, and zeros where they pass the source's ends;
    read: the source's read(start, stop, raw, out)."""
    width = out.shape[-1]
    a = min(max(-start, 0), width)  # out holds the source's samples a:b
    b = min(max(n - start, a), width)
    out[:, :a] = 0.0
    out[:, b:] = 0.0
    if a < b:
        read(start + a, start + b, raw, out[:, a:b])


class _ArraySource:
    """An (n, C) array as a sample source; it reads without scratch."""

    def __init__(self, samples: np.ndarray):
        self.samples = samples
        self.n_samples, self.channels = samples.shape

    def scratch_floats(self, rows: int) -> int:
        return 0

    def read(self, start: int, stop: int, raw, out) -> None:
        np.copyto(out, self.samples[start:stop].T)


class _Reader:
    """Frame blocks of one recording, analyzed as `stft` does.

    source: the recording's (n, C) samples, a sample source.  channels,
    n_frames and n_bins give the (C, N, F) of the spectrogram, and `read`
    windows and transforms any run of its frames.  The analysis padding
    is virtual: a run reads its span of samples and zeros where the span
    passes the recording's ends, so no copy of the recording is held.
    """

    holds = "samples"  # as the pass names them when they are not finite

    def __init__(self, source, window: WindowSpec):
        self.source, self.channels = source, source.channels
        self.left = _analysis_padding(source.n_samples, window)[0]
        self.n_frames = stft_frame_count(source.n_samples, window)
        self.n_bins = window.length // 2 + 1
        self.window, self.win = window, window.window()

    def span(self, n0: int, n1: int) -> tuple[int, int]:
        """The samples (start, stop) of the source that frames n0:n1
        cover; they pass its ends where the padding is."""
        start = n0 * self.window.hop - self.left
        return start, start + _span(self.window, n1 - n0)

    def raw_floats(self, frames: int) -> int:
        """The floats of plane 0 of `read`'s scratch in which the source
        reads the span of up to `frames` frames."""
        return self.source.scratch_floats(_span(self.window, frames))

    def read(self, n0: int, n1: int, scratch, out, span=None) -> None:
        """Spectra of frames n0:n1 into out, (C, n1 - n0, bins) complex.

        scratch: contiguous float, (2, C', b, length) with C' >= C,
        b >= n1 - n0 and `raw_floats(n1 - n0)` floats or more in plane 0.
        Plane 1 receives the samples of `span(n0, n1)`, zeros past the
        source's ends, unless span, contiguous (C, count) float, already
        holds them; plane 0 the source's raw bytes, then the windowed
        frames.
        """
        hop, length, C = self.window.hop, self.window.length, self.channels
        if span is None:
            count = _span(self.window, n1 - n0)
            span = scratch[1].reshape(-1)[:C * count].reshape(C, count)
            _read_padded(self.source.read, self.source.n_samples,
                         self.span(n0, n1)[0],
                         scratch[0].reshape(-1).view(np.uint8), span)
        # the frames as a strided view of the span (numpy's
        # sliding_window_view keeps a little memory per call)
        view = np.ndarray((C, n1 - n0, length), buffer=span,
                          strides=(span.strides[0], hop * span.itemsize,
                                   span.itemsize))
        frames = scratch[0, :C, :n1 - n0]
        with np.errstate(invalid="ignore"):  # inf gives NaN, not a warning
            np.multiply(view, self.win, out=frames)
            np.fft.rfft(frames, axis=-1, out=out)


class _TensorReader:
    """Frame blocks of one (N, F, C) STFT tensor's coefficients, read as
    `_Reader` reads a recording's; it reads no samples, so it has no
    window and takes no scratch or span."""

    window, holds = None, "STFT coefficients"

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs
        self.n_frames, self.n_bins, self.channels = coeffs.shape

    def read(self, n0, n1, scratch, out, span=None) -> None:
        np.copyto(out, np.transpose(self.coeffs[n0:n1], (2, 0, 1)))


def stft(signal: SampledSignal, window: WindowSpec) -> SpectrogramTensor:
    """Short-time Fourier transform with one window length of edge padding.

    Parameters
    ----------
    signal : SampledSignal
        Input of at least one window length.
    window : WindowSpec
        COLA-compliant analysis window.

    Returns
    -------
    SpectrogramTensor with coeffs of shape (frames, length//2 + 1, channels).

    Runs of `_chunk` frames are tasks on the thread pool (`_pool`): a
    task reads its frames of every channel through one `_Reader`, into
    its thread's scratch and its slice of the output, so the coefficients
    do not depend on the thread count.
    """
    x = signal.samples
    if x.shape[0] < window.length:
        raise ValueError(
            f"signal ({x.shape[0]} samples) shorter than one frame "
            f"({window.length} samples)")
    reader = _Reader(_ArraySource(x), window)
    n_frames, chunk = reader.n_frames, _chunk(x.shape[1])
    coeffs = np.empty((n_frames, reader.n_bins, x.shape[1]), np.complex128)
    planes = coeffs.transpose(2, 0, 1)
    _pool.run(range(0, n_frames, chunk),
              lambda n0, scratch: reader.read(
                  n0, min(n0 + chunk, n_frames), scratch,
                  planes[:, n0:n0 + chunk]),
              lambda: np.empty((2, x.shape[1], min(chunk, n_frames),
                                window.length)))
    return SpectrogramTensor(coeffs, window, signal.rate_hz, x.shape[0])


def _overlap_add(frames, hop: int, out) -> None:
    """Add the windowed frames 0, 1, ... into out, in frame order.

    frames: (..., b, length); out: (..., total).  Phase r adds sample
    block r of every frame with one strided add; taking the phases in
    descending order adds each sample's frames in ascending order, so
    adding blocks of frames in ascending order adds every sample's frames
    in ascending order, whatever the blocks.
    """
    b, length = frames.shape[-2:]
    for r in reversed(range(length // hop)):
        dst = out[..., r * hop:(b + r) * hop]
        dst = dst.reshape(dst.shape[:-1] + (b, hop))  # a view
        dst += frames[..., r * hop:(r + 1) * hop]


class _Samples:
    """Destination of a `_Writer`: (*rows, length) samples in one array,
    zeros where no frame reaches."""

    def __init__(self, rows: tuple, length: int):
        self.out = np.zeros(rows + (length,))

    def write(self, start: int, samples) -> None:
        """Samples start, start + 1, ... of every row, (*rows, k) float;
        those past the length are dropped."""
        dst = self.out[..., start:start + samples.shape[-1]]
        np.copyto(dst, samples[..., :dst.shape[-1]])


def _finished(window: WindowSpec, n_frames: int, n0: int,
              n1: int) -> tuple[int, int]:
    """The samples (start, stop) past the left padding that a `_Writer` of
    n_frames frames finishes once it has added frames n0:n1; none when
    start >= stop.  The next block adds from frame n1's first sample on,
    and the last block finishes every sample it reaches."""
    hop, left = window.hop, _analysis_padding(0, window)[0]  # for any length
    done = _span(window, n1 - n0) if n1 == n_frames else (n1 - n0) * hop
    return max(n0 * hop, left) - left, n0 * hop + done - left


def _block_sums(rows: int, window: WindowSpec, frames: int,
                spare=None) -> tuple:
    """The scratch of a `_Writer` of up to `rows` rows that adds blocks of
    up to `frames` frames: room for the partial sums of a block's rows and
    of its window, a view of spare, float, when that is large enough, and
    where the window's sum is not ~0."""
    span = _span(window, frames)
    if spare is None or spare.size < (rows + 1) * span:
        spare = np.empty((rows + 1) * span)
    return spare.reshape(-1)[:(rows + 1) * span], np.empty(span, dtype=bool)


class _Writer:
    """Weighted overlap-add of frame blocks into signals, in frame order.

    Synthesizes the (*rows) signals of n_frames frames, analysis padding
    included, and hands the samples past the left padding, in order, to
    `write`: to `dest`, an object with write(start, samples) (`_Samples`,
    or a sink of WAV files), unless a subclass routes them itself.  `put`
    synthesizes a block of frames in the caller's scratch; once the
    previous block is done, it adds the frames to the partial sums the
    previous block left, and their squared window to the window's own
    partial sum, one row (`_overlap_add` both), in the caller's block sums
    (`_block_sums`), then divides the samples no later block reaches
    (`_finished`) by that sum where it is not ~0 and writes them.  Only
    the partial sums, one window length less a hop per row, stay in the
    writer between blocks.  Blocks may be put from several threads: each
    waits its turn (`_pool.Turns`), which cannot deadlock when the blocks
    are pool tasks in frame order.  After a block fails, or `abort`, the
    blocks waiting for it return.
    """

    def __init__(self, rows: tuple, n_frames: int, window: WindowSpec,
                 dest):
        self.window, self.win = window, window.window()
        self.win2 = self.win ** 2  # each frame's part of the window sum
        self.rows, self.n_frames, self.dest = rows, n_frames, dest
        self.left = _analysis_padding(0, window)[0]  # for any length
        # the partial sums the previous block left, of the rows and of
        # their squared window
        carry = window.length - window.hop
        self.carry, self.wcarry = np.zeros(rows + (carry,)), np.zeros(carry)
        self._turns = _pool.Turns()  # at the frames added so far

    def put(self, n0: int, n1: int, planes, frames, sums) -> None:
        """Add frames n0:n1, planes (*rows, n1 - n0, bins) complex.

        frames: float, at least (*rows, n1 - n0, length) on every axis;
        its leading part receives the windowed frames.  sums:
        `_block_sums` of as many rows and frames or more, which may share
        memory with planes: those are transformed before the sums are
        formed.
        """
        frames = frames[tuple(map(slice, self.rows)) + (slice(n1 - n0),)]
        try:
            np.fft.irfft(planes, n=self.window.length, axis=-1, out=frames)
            frames *= self.win
            if not self._turns.wait(n0):
                return
            self._add(frames, n0, n1, sums)
        except BaseException:  # release the blocks that wait for this one
            self.abort()
            raise
        self._turns.advance(n1)

    def _add(self, frames, n0: int, n1: int, sums) -> None:
        """Add frames n0:n1 and write out the samples they finish."""
        hop, b = self.window.hop, n1 - n0
        reach = _span(self.window, b)  # samples the block touches
        start, stop = _finished(self.window, self.n_frames, n0, n1)
        done = self.left + stop - n0 * hop  # the block's samples finished
        flat, where = sums
        count = math.prod(self.rows) * reach
        signals = flat[:count].reshape(self.rows + (reach,))
        wsum = flat[count:count + reach]
        squares = np.broadcast_to(self.win2, frames.shape[-2:])
        for buf, carry, add in ((signals, self.carry, frames),
                                (wsum, self.wcarry, squares)):
            k = carry.shape[-1]
            np.copyto(buf[..., :k], carry)
            buf[..., k:] = 0.0
            _overlap_add(add, hop, buf)
            if n1 < self.n_frames:
                np.copyto(carry, buf[..., done:done + k])
        if start < stop:
            first = done - (stop - start)
            out, where = signals[..., first:done], where[:stop - start]
            np.greater(wsum[first:done], 1e-12, out=where)
            np.divide(out, wsum[first:done], out=out, where=where)
            self.write(start, out)

    def write(self, start: int, samples) -> None:
        """Hand the finished samples start, start + 1, ... to dest."""
        self.dest.write(start, samples)

    def abort(self) -> None:
        self._turns.abort()


def istft(spec: SpectrogramTensor, length: int | None = None) -> SampledSignal:
    """Weighted overlap-add synthesis, inverse of :func:`stft`.

    Uses the analysis window again for synthesis and divides by the summed
    squared window, so an unmodified tensor reconstructs the original
    samples to machine precision on the analyzed extent.  By default the
    output has the tensor's n_samples, or, without them, all but one
    window length at either end of the frames' extent.

    Runs of `_chunk` frames are tasks on the thread pool (`_pool`): a
    task synthesizes its frames of every channel in its thread's scratch
    and one `_Writer` overlap-adds them in frame order.  The samples are
    returned as a (length, channels) view of a channel-major buffer.
    """
    window = spec.window
    n_frames, _, n_ch = spec.coeffs.shape
    if length is None:
        length = spec.n_samples
    if length is None:
        length = max(_span(window, n_frames) - 2 * window.length, 0)
    chunk = _chunk(n_ch)
    dest = _Samples((n_ch,), length)
    writer = _Writer((n_ch,), n_frames, window, dest)
    planes = spec.coeffs.transpose(2, 0, 1)
    block = min(chunk, n_frames)
    _pool.run(range(0, n_frames, chunk),
              lambda n0, scratch: writer.put(
                  n0, min(n0 + chunk, n_frames), planes[:, n0:n0 + chunk],
                  *scratch),
              lambda: (np.empty((n_ch, block, window.length)),
                       _block_sums(n_ch, window, block)))
    return SampledSignal(dest.out.T, spec.rate_hz)


def _lagrange_weights(t, out, diffs):
    """Lagrange basis weights on the stencil nodes 0.._ORDER at abscissae t.

    t: (r,); out: (_ORDER + 1, r) receives weight j in row j, the product
    over l != j of (t - l) / (j - l) taken in ascending l; diffs:
    (_ORDER + 2, r) float scratch.
    """
    for l in range(_ORDER + 1):
        np.subtract(t, l, out=diffs[l])
    q = diffs[_ORDER + 1]
    for j in range(_ORDER + 1):
        others = [l for l in range(_ORDER + 1) if l != j]
        np.divide(diffs[others[0]], j - others[0], out=out[j])
        for l in others[1:]:
            np.divide(diffs[l], j - l, out=q)
            out[j] *= q
    return out


def _stencils(p, t, index, weights, diffs) -> None:
    """The stencils of positions p >= 0, (r,): index, (r,) int, receives
    each stencil's first sample in the input padded by _ORDER + 1 zeros
    before it, and weights, (_ORDER + 1, r), its Lagrange weights; t and
    diffs are float scratch, (r,) and (_ORDER + 2, r)."""
    np.floor(p, out=t)
    t -= (_ORDER - 1) // 2  # the stencil starts, whole numbers
    np.add(t, _ORDER + 1, out=index, casting="unsafe")
    np.subtract(p, t, out=t)  # abscissae relative to the stencil starts
    _lagrange_weights(t, weights, diffs)


def _gather(padded, index, weights, tap, dst) -> None:
    """Add the interpolated rows of stencils (index, weights) into dst.

    padded: (C, n) input, channel-major; index: (r,) stencil starts in
    it; weights: (_ORDER + 1, r); tap and dst: (C, r), tap scratch.  One
    gather index serves every tap: tap j reads the view shifted by j, and
    is added in ascending j.  Every tap, index + j, lies in padded.
    """
    for j in range(_ORDER + 1):
        for c in range(padded.shape[0]):  # contiguous rows, not copied
            np.take(padded[c, j:], index, out=tap[c], mode="clip")
        tap *= weights[j]
        dst += tap


class _Clock:
    """One device's sources on its clock, and its recording: the one
    reader of sample sources at a device clock.

    sources: sample sources of one length (`_ArraySource`,
    `audio.WavSource`, `scene._ImageSource`), in order; sro_hz: the clock
    offset at `rate`, finite and smaller than the rate, or ValueError;
    noise: None, or an object whose add(start, stop, out, z) adds the
    noise of samples start:stop to out, (C, stop - start), through z,
    float scratch of as many values (`scene._Noise`).  A source's sample
    tau at the clock is its sample at position tau * rate / (rate +
    sro_hz), interpolated over _ORDER + 1 samples (`_stencils`,
    `_gather`) with zeros past either end, or without an offset its
    sample tau.  As a sample source the clock is the recording, with the
    channels of sources[0]: the sources added in order to zeros, then
    the noise, on the nominal clock, read at the clock.  `render` reads
    the recording, the sources stacked, or both, from one read of each
    source's window under one set of stencils: only the window the
    span's stencils touch, in the caller's scratch, so threads may read
    one clock at once.
    """

    def __init__(self, sources, rate: float, sro_hz: float, noise=None):
        if not math.isfinite(sro_hz):
            raise ValueError(f"rate_offset_hz must be finite, got {sro_hz}")
        if abs(sro_hz) >= rate:
            raise ValueError(f"|rate_offset_hz| ({abs(sro_hz)}) must be "
                             f"below the sample rate ({rate})")
        # input samples per output sample
        self.ratio = rate / (rate + sro_hz) if sro_hz != 0.0 else None
        self.sources, self.rate, self.noise = sources, rate, noise
        self.n_samples, self.channels = sources[0].n_samples, \
            sources[0].channels
        self.bounds = np.cumsum([0] + [s.channels for s in sources]).tolist()
        self.widest = max(s.channels for s in sources)

    def at(self, sro_hz: float) -> "_Clock":
        """The same sources and noise at the clock offset sro_hz."""
        return _Clock(self.sources, self.rate, sro_hz, self.noise)

    def scratch(self, rows: int) -> np.ndarray:
        """The raw scratch of `render` for up to `rows` samples."""
        return np.empty(self.scratch_floats(rows)).view(np.uint8)

    def scratch_floats(self, rows: int) -> int:
        """The size of `scratch`, in floats: with an offset, the stencils
        and the recording's window; then a source's span or window, and
        the scratch a source reads it in.  The window: a span's stencils
        start at most (rows - 1) * ratio + 1 samples apart, and none past
        the last sample `_stencils` pads."""
        floats, width = 0, rows
        if self.ratio is not None:
            width = min(math.ceil((rows - 1) * self.ratio) + _ORDER + 3,
                        self.n_samples + _ORDER + 1)
            floats = ((2 * _ORDER + 6 + self.widest) * rows
                      + self.channels * width)
        return floats + self.widest * width + max(
            s.scratch_floats(width) for s in self.sources)

    def read(self, start: int, stop: int, raw, out) -> None:
        """The recording's samples start:stop into out, (C, stop - start)
        float; raw: `scratch` of as many samples or more."""
        self.render(start, stop, raw, out)

    def render(self, start: int, stop: int, raw, out=None,
               stacked=None) -> None:
        """The recording's samples start:stop into out, (C, stop - start)
        float, unless out is None, and, given stacked, (t0, t1, rows),
        the sources' samples t0:t1, within start:stop, into rows, (every
        source's channels, t1 - t0) float, source by source; raw:
        `scratch` of stop - start samples or more.  Allocates no array.

        Without an offset the sources are read straight into the rows
        when the recording is not read, as a sum would turn their -0.0
        into +0.0.  With one, every source's window is gathered on its
        own: per element the products add in the same order as over the
        sources stacked.
        """
        if stop <= start:
            return
        if self.ratio is None:
            self._nominal(start, stop, raw, out, stacked)
            return
        r, n, C, widest = stop - start, self.n_samples, self.channels, \
            self.widest
        # positions, abscissae, stencil starts, differences, weights, taps
        f = raw[:8 * (2 * _ORDER + 6 + widest) * r].view(np.float64)
        pos, t, index = f[:r], f[r:2 * r], f[2 * r:3 * r].view(np.int64)
        diffs = f[3 * r:(_ORDER + 5) * r].reshape(_ORDER + 2, r)
        weights = f[(_ORDER + 5) * r:(2 * _ORDER + 6) * r].reshape(-1, r)
        tap = f[(2 * _ORDER + 6) * r:].reshape(widest, r)
        pos.fill(1.0)
        pos[0] = start
        np.add.accumulate(pos, out=pos)  # start, start + 1, ..., in place
        pos *= self.ratio  # = np.arange(n) * ratio, rows start:stop
        _stencils(pos, t, index, weights, diffs)
        # the g rows with a tap at or before the sources' last sample read
        # them; the others are zeros
        g = int(np.searchsorted(index, n + _ORDER, side="right"))
        if out is not None:
            out.fill(0.0)
        if stacked is not None:
            t0, t1, rows = stacked
            rows.fill(0.0)
        if not g:
            return
        # the window of the sources whose column 0 holds sample `first`
        base = int(index[0])
        first, index, weights = base - _ORDER - 1, index[:g], weights[:, :g]
        index -= base
        width = int(index[-1]) + _ORDER + 1
        rest = raw[f.nbytes:]
        if out is not None:
            mix = rest[:8 * C * width].view(np.float64).reshape(C, width)
            rest = rest[mix.nbytes:]
            mix.fill(0.0)
        window = rest[:8 * widest * width].view(np.float64)
        rest = rest[window.nbytes:]
        for source, c0, c1 in zip(self.sources, self.bounds,
                                  self.bounds[1:]):
            x = window[:(c1 - c0) * width].reshape(c1 - c0, width)
            _read_padded(source.read, n, first, rest, x)
            if out is not None:
                mix += x
            if stacked is not None:
                i0, i1 = t0 - start, min(t1 - start, g)
                if i0 < i1:
                    _gather(x, index[i0:i1], weights[:, i0:i1],
                            tap[:c1 - c0, :i1 - i0], rows[c0:c1, :i1 - i0])
        if out is None:
            return
        if self.noise is not None:  # on the samples the window holds
            c0 = min(max(-first, 0), width)
            c1 = min(max(n - first, c0), width)
            if c0 < c1:
                self.noise.add(first + c0, first + c1, mix[:, c0:c1], window)
        _gather(mix, index, weights, tap[:C, :g], out[:, :g])

    def _nominal(self, start: int, stop: int, raw, out, stacked) -> None:
        """`render` without an offset."""
        if out is None:
            t0, t1, rows = stacked
            for source, c0, c1 in zip(self.sources, self.bounds,
                                      self.bounds[1:]):
                source.read(t0, t1, raw, rows[c0:c1])
            return
        r = stop - start
        span = raw[:8 * self.widest * r].view(np.float64)
        out.fill(0.0)
        for source, c0, c1 in zip(self.sources, self.bounds,
                                  self.bounds[1:]):
            x = span[:(c1 - c0) * r].reshape(c1 - c0, r)
            source.read(start, stop, raw[span.nbytes:], x)
            out += x
            if stacked is not None:
                t0, t1, rows = stacked
                np.copyto(rows[c0:c1], x[:, t0 - start:t1 - start])
        if self.noise is not None:
            self.noise.add(start, stop, out, span)


def _resampled(clock: _Clock) -> np.ndarray:
    """Every sample of clock's sources stacked, (channels, n), read as
    tasks on the thread pool (`_pool`) of `_SPAN` samples, each in its
    thread's scratch, so a sample does not depend on the thread count."""
    n = clock.n_samples
    out = np.empty((clock.bounds[-1], n))

    def read(r0, raw):
        r1 = min(r0 + _SPAN, n)
        clock.render(r0, r1, raw, stacked=(r0, r1, out[:, r0:r1]))

    _pool.run(range(0, n, _SPAN), read, lambda: clock.scratch(min(_SPAN, n)))
    return out


def lagrange_resample(signal: SampledSignal,
                      rate_offset_hz: float) -> SampledSignal:
    """Resample by a small clock-rate offset using local Lagrange interpolation.

    rate_offset_hz: deviation of the actual clock from the nominal rate.
    Output sample tau takes the value of the input at continuous position
    tau * rate / (rate + rate_offset_hz), interpolated over _ORDER + 1
    points.  Output length equals input length; positions past the input
    tail read zeros.  The input is read through a `_Clock`; the samples
    are returned as a (length, channels) view of a channel-major buffer.
    """
    clock = _Clock([_ArraySource(signal.samples)], signal.rate_hz,
                   rate_offset_hz)
    return SampledSignal(_resampled(clock).T, signal.rate_hz)


def fractional_delay(samples: np.ndarray, delay: float) -> np.ndarray:
    """Delay a signal by a (possibly fractional) number of samples.

    A constant delay puts every output sample at the same abscissa within
    its stencil, so this is a fixed (_ORDER + 1)-tap Lagrange
    fractional-delay FIR: the stencil and weights of
    :func:`lagrange_resample`, computed once (`_Delay`).  Output length
    equals input length; the first floor(delay) samples are exactly zero.
    """
    if not math.isfinite(delay):
        raise ValueError(f"delay must be finite, got {delay}")
    if delay < 0:
        raise ValueError(f"delay must be nonnegative, got {delay}")
    x = np.asarray(samples, dtype=np.float64)
    squeeze = x.ndim == 1
    x = _as_2d(x)
    out = np.empty_like(x)
    _Delay(delay).read(x, 0, out, np.empty_like(x))
    return out[:, 0] if squeeze else out


class _Delay:
    """A constant delay of `delay` samples, valid and nonnegative, as
    `fractional_delay` applies it; its weights are formed once, and
    `read` renders any span of a delayed signal."""

    def __init__(self, delay: float):
        self.delay, self.zeros = delay, math.floor(delay)
        # output i reads x[i + first + j], j = 0.._ORDER, always at the
        # abscissa -delay - first within its stencil
        self.first = math.floor(-delay) - (_ORDER - 1) // 2
        weights = _lagrange_weights(np.array([-delay - self.first]),
                                    np.empty((_ORDER + 1, 1)),
                                    np.empty((_ORDER + 2, 1)))
        self.weights = weights[:, 0].tolist()

    def read(self, x, start: int, out, tap) -> None:
        """Samples start, start + 1, ... of x delayed, into out.

        x: (n, ...) float; out and tap: (r, ...) float with start + r <= n,
        tap scratch.  Each sample is what the whole delayed signal holds
        there, bit for bit: the taps past x's ends are skipped, and the
        strictly causal samples are exactly zero.  Allocates no array.
        """
        r, n = out.shape[0], x.shape[0]
        if self.delay == 0.0:
            np.copyto(out, x[start:start + r])
            return
        out.fill(0.0)
        for j, weight in enumerate(self.weights):
            shift = self.first + j
            lo = max(start, -shift) - start
            hi = min(start + r, n - shift) - start
            if lo < hi:
                np.multiply(x[start + lo + shift:start + hi + shift], weight,
                            out=tap[lo:hi])
                out[lo:hi] += tap[lo:hi]
        # the stencil reaches the first samples a little ahead of the
        # delay; keep the strictly causal region exactly zero
        out[:max(self.zeros - start, 0)] = 0.0
