"""Time-frequency analysis/synthesis and fractional-delay resampling.

Conventions used throughout the package:
  * time-domain signals are float64 arrays of shape (num_samples, num_channels)
  * STFT tensors are complex128 arrays of shape (num_frames, num_bins, num_channels)
  * the one-sided spectrum keeps bins 0..length//2 inclusive

The framing rule exists once, in two private classes: `_Reader` frames
any run of a recording's frames, with the analysis padding, from a
sample source (an array, or a WAV file's data chunk), and `_Writer`
synthesizes runs of frames, overlap-adds them and their squared window
in frame order, divides each finished span by that window sum and hands
it past the padding to a destination (an array, or WAV files).  Neither
holds more than a block of samples of its own.  `stft` reads through a
reader, `istft` writes through a writer, and the streamed pass of
`separator` uses both.  Which frames reach a sample is decided only by
`_overlap_add`; a run's span, the padding and a read past a source's
ends each have one helper too.

Every fractional delay and clock resampling interpolates with one
Lagrange stencil, of order `_ORDER` (4): `_lagrange_weights`.  A
constant delay (`_Delay`) forms its weights once and renders any span of
the delayed signal on its own, bit for bit as the whole.  One
sample source, `_Clock`, reads sources at a device's clock a span at a
time; `lagrange_resample`, `metrics.at_device_clock` and the scoring of
`asyncsep evaluate` and `run_experiment` all read through it.
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
    """An (n, C) array as the sample source of a `_Reader`."""

    def __init__(self, samples: np.ndarray):
        self.samples = samples
        self.n_samples, self.channels = samples.shape

    def read(self, start: int, stop: int, raw, out) -> None:
        """Samples start:stop into out, (C, stop - start) float; raw,
        the scratch of a source that converts, is not used."""
        np.copyto(out, self.samples[start:stop].T)


class _Reader:
    """Frame blocks of one recording, analyzed as `stft` does.

    source: the recording's (n, C) samples, an object with n_samples,
    channels and read(start, stop, raw, out), which writes samples
    start:stop into out, (C, stop - start) float, through raw, uint8
    scratch: an `_ArraySource` or an `audio.WavSource`.  channels,
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

    def read(self, n0: int, n1: int, scratch, out) -> None:
        """Spectra of frames n0:n1 into out, (C, n1 - n0, bins) complex.

        scratch: contiguous float, (2, C', b, length) with C' >= C and
        b >= n1 - n0.  Plane 1 receives the span of samples the frames
        cover, plane 0 the source's raw bytes, then the windowed frames.
        """
        hop, length, C = self.window.hop, self.window.length, self.channels
        count = _span(self.window, n1 - n0)
        span = scratch[1].reshape(-1)[:C * count].reshape(C, count)
        _read_padded(self.source.read, self.source.n_samples,
                     n0 * hop - self.left,
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
    window and takes no scratch."""

    window, holds = None, "STFT coefficients"

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs
        self.n_frames, self.n_bins, self.channels = coeffs.shape

    def read(self, n0, n1, scratch, out) -> None:
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


class _Discard:
    """Destination of a `_Writer` row that is not kept; a writer need not
    synthesize a row that only goes here."""

    def write(self, start: int, samples) -> None:
        pass


class _Writer:
    """Weighted overlap-add of frame blocks into signals, in frame order.

    Synthesizes the (*rows) signals of n_frames frames, analysis padding
    included, and hands the samples past the left padding to `dest`, an
    object with write(start, samples), in order: `_Samples`, or a sink of
    WAV files.  `put` synthesizes a block of up to `block` frames in the
    caller's scratch; once the previous block is done, it adds the frames
    to the partial sums the previous block left, and their squared window
    to the window's own partial sum, one row (`_overlap_add` both), then
    divides the samples no later block reaches by that sum where it is
    not ~0 and writes them to dest.  Only the partial sums, one window
    length less a hop per row, stay between blocks.  Blocks may be put
    from several threads: each waits its turn (`_pool.Turns`), which
    cannot deadlock when the blocks are pool tasks in frame order.  After
    a block fails, or `abort`, the blocks waiting for it return.
    """

    def __init__(self, rows: tuple, n_frames: int, window: WindowSpec,
                 block: int, dest):
        self.window, self.win = window, window.window()
        self.win2 = self.win ** 2  # each frame's part of the window sum
        self.n_frames, self.dest = n_frames, dest
        self.left = _analysis_padding(0, window)[0]  # for any length
        span, carry = _span(window, block), window.length - window.hop
        # the partial sums of a block's frames and of their squared
        # window, and those the previous block left
        self.buf = np.zeros(rows + (span,))
        self.carry = np.zeros(rows + (carry,))
        self.wsum, self.wcarry = np.zeros(span), np.zeros(carry)
        self.where = np.empty(span, dtype=bool)  # scratch: where it is not ~0
        self._turns = _pool.Turns()  # at the frames added so far

    def put(self, n0: int, n1: int, planes, scratch) -> None:
        """Add frames n0:n1, planes (*rows, n1 - n0, bins) complex.

        scratch: float, at least (*rows, n1 - n0, length) on every axis;
        its leading part receives the windowed frames.
        """
        frames = scratch[tuple(map(slice, self.buf.shape[:-1]))
                         + (slice(n1 - n0),)]
        try:
            np.fft.irfft(planes, n=self.window.length, axis=-1, out=frames)
            frames *= self.win
            if not self._turns.wait(n0):
                return
            self._add(frames, n0, n1)
        except BaseException:  # release the blocks that wait for this one
            self.abort()
            raise
        self._turns.advance(n1)

    def _add(self, frames, n0: int, n1: int) -> None:
        """Add frames n0:n1 and write out the samples they finish."""
        hop, b = self.window.hop, n1 - n0
        reach = _span(self.window, b)  # samples the block touches
        # the next block adds from frame n1's first sample on
        done = reach if n1 == self.n_frames else b * hop
        squares = np.broadcast_to(self.win2, frames.shape[-2:])
        for buf, carry, add in ((self.buf, self.carry, frames),
                                (self.wsum, self.wcarry, squares)):
            buf, k = buf[..., :reach], carry.shape[-1]
            np.copyto(buf[..., :k], carry)
            buf[..., k:] = 0.0
            _overlap_add(add, hop, buf)
            if n1 < self.n_frames:
                np.copyto(carry, buf[..., done:done + k])
        out, where = self.buf[..., :done], self.where[:done]
        np.greater(self.wsum[:done], 1e-12, out=where)
        np.divide(out, self.wsum[:done], out=out, where=where)
        skip = max(self.left - n0 * hop, 0)
        if skip < done:
            self.dest.write(n0 * hop + skip - self.left, out[..., skip:])

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
    writer = _Writer((n_ch,), n_frames, window, chunk, dest)
    planes = spec.coeffs.transpose(2, 0, 1)
    _pool.run(range(0, n_frames, chunk),
              lambda n0, frames: writer.put(
                  n0, min(n0 + chunk, n_frames), planes[:, n0:n0 + chunk],
                  frames),
              lambda: np.empty((n_ch, min(chunk, n_frames), window.length)))
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
    """A sample source of one device's samples on its clock.

    sources: sample sources of one length (`_ArraySource`,
    `audio.WavSource`), their channels stacked; sro_hz: the clock offset
    at `rate`, finite and smaller than the rate, or ValueError.  Sample
    tau is theirs at position tau * rate / (rate + sro_hz), interpolated
    over _ORDER + 1 samples (`_stencils`, `_gather`) with zeros past
    either end, or without an offset their sample tau.  `read` reads only
    the window its span's stencils touch, in the caller's scratch, so
    threads may read one clock at once.
    """

    def __init__(self, sources, rate: float, sro_hz: float):
        if not math.isfinite(sro_hz):
            raise ValueError(f"rate_offset_hz must be finite, got {sro_hz}")
        if abs(sro_hz) >= rate:
            raise ValueError(f"|rate_offset_hz| ({abs(sro_hz)}) must be "
                             f"below the sample rate ({rate})")
        # input samples per output sample
        self.ratio = rate / (rate + sro_hz) if sro_hz != 0.0 else None
        self.sources, self.n_samples = sources, sources[0].n_samples
        self.bounds = np.cumsum([0] + [s.channels for s in sources]).tolist()
        self.channels = self.bounds[-1]

    def scratch(self, rows: int) -> np.ndarray:
        """The raw scratch of `read` for up to `rows` samples: 8 bytes per
        float of its planes and window, then per sample a source reads 8
        per channel, and at least 16 (what `scene._ImageSource` renders
        a span in)."""
        floats, width, C = 0, rows, self.channels
        if self.ratio is not None:
            # a span's stencils start at most (rows - 1) * ratio + 1
            # samples apart, and none past the last sample `_stencils` pads
            width = min(math.ceil((rows - 1) * self.ratio) + _ORDER + 3,
                        self.n_samples + _ORDER + 1)
            floats = (2 * _ORDER + 6 + C) * rows + C * width
        widest = max(2, *(s.channels for s in self.sources))
        return np.empty(floats + widest * width).view(np.uint8)

    def read(self, start: int, stop: int, raw, out) -> None:
        """Samples start:stop into out, (C, stop - start) float; raw:
        `scratch` of as many samples or more.  Allocates no array."""
        r, n, C = stop - start, self.n_samples, self.channels
        if self.ratio is None or r <= 0:
            self._read(start, stop, raw, out)
            return
        # positions, abscissae, stencil starts, differences, weights, taps
        f = raw[:8 * (2 * _ORDER + 6 + C) * r].view(np.float64)
        pos, t, index = f[:r], f[r:2 * r], f[2 * r:3 * r].view(np.int64)
        diffs = f[3 * r:(_ORDER + 5) * r].reshape(_ORDER + 2, r)
        weights = f[(_ORDER + 5) * r:(2 * _ORDER + 6) * r].reshape(-1, r)
        tap = f[(2 * _ORDER + 6) * r:].reshape(C, r)
        pos.fill(1.0)
        pos[0] = start
        np.add.accumulate(pos, out=pos)  # start, start + 1, ..., in place
        pos *= self.ratio  # = np.arange(n) * ratio, rows start:stop
        _stencils(pos, t, index, weights, diffs)
        out.fill(0.0)
        # the rows with a tap at or before the sources' last sample
        g = int(np.searchsorted(index, n + _ORDER, side="right"))
        if not g:
            return
        base = int(index[0])
        width = int(index[g - 1]) - base + _ORDER + 1
        index = index[:g]
        index -= base
        # window column i holds the sources' sample base - _ORDER - 1 + i
        at = f.nbytes + 8 * C * width
        window = raw[f.nbytes:at].view(np.float64).reshape(C, width)
        _read_padded(self._read, n, base - _ORDER - 1, raw[at:], window)
        _gather(window, index, weights[:, :g], tap[:, :g], out[:, :g])

    def _read(self, start: int, stop: int, raw, out) -> None:
        for source, c0, c1 in zip(self.sources, self.bounds,
                                  self.bounds[1:]):
            source.read(start, stop, raw, out[c0:c1])


def _resampled(clock: _Clock) -> np.ndarray:
    """Every sample of clock, (C, n), read as tasks on the thread pool
    (`_pool`) of `_SPAN` samples, each in its thread's scratch,
    so a sample does not depend on the thread count."""
    n = clock.n_samples
    out = np.empty((clock.channels, n))
    _pool.run(range(0, n, _SPAN),
              lambda r0, raw: clock.read(r0, min(r0 + _SPAN, n), raw,
                                         out[:, r0:r0 + _SPAN]),
              lambda: clock.scratch(min(_SPAN, n)))
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
