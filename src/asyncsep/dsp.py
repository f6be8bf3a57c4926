"""Time-frequency analysis/synthesis and fractional-delay resampling.

Conventions used throughout the package:
  * time-domain signals are float64 arrays of shape (num_samples, num_channels)
  * STFT tensors are complex128 arrays of shape (num_frames, num_bins, num_channels)
  * the one-sided spectrum keeps bins 0..length//2 inclusive
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
    "long_term_average_spectrum",
]

_SYNTH_CHUNK = 64  # frames synthesized at a time by `istft`


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
    overlap-add synthesis relies on.  The periodic von Hann window meets
    both for overlap factors of 4 (75% overlap, the validated default).
    """

    length: int = 4096
    hop: int = 1024
    shape: str = "hann"

    def __post_init__(self):
        if self.length <= 0 or self.hop <= 0:
            raise ValueError("window length and hop must be positive")
        if self.length % self.hop != 0:
            raise ValueError(
                f"hop ({self.hop}) must divide window length ({self.length})")
        if self.shape != "hann":
            raise ValueError(f"unsupported window shape: {self.shape!r}")
        dev = self.cola_deviation()
        if dev > 1e-8:
            raise ValueError(
                f"window/hop is not COLA-compliant for weighted overlap-add "
                f"(relative deviation {dev:.2e}); use an overlap factor >= 3")

    @classmethod
    def from_overlap(cls, length: int, overlap: float, shape: str = "hann") -> "WindowSpec":
        hop = int(round(length * (1.0 - overlap)))
        return cls(length=length, hop=hop, shape=shape)

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


def _analysis_padding(n_samples: int, window: WindowSpec) -> tuple[int, int]:
    """Zero-padding (left, right) so every input sample gets full window
    coverage and the last frame lands exactly on the padded tail."""
    left = window.length
    core = n_samples + left + window.length
    rem = (core - window.length) % window.hop
    right = window.length + (window.hop - rem) % window.hop
    return left, right


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
    """
    x = signal.samples
    if x.shape[0] < window.length:
        raise ValueError(
            f"signal ({x.shape[0]} samples) shorter than one frame "
            f"({window.length} samples)")
    left, right = _analysis_padding(x.shape[0], window)
    padded = np.pad(x, ((left, right), (0, 0)))
    n_frames = frame_count(padded.shape[0], window)
    win = window.window()

    n_bins = window.length // 2 + 1
    coeffs = np.empty((n_frames, n_bins, x.shape[1]), dtype=np.complex128)
    for c in range(x.shape[1]):
        frames = np.lib.stride_tricks.sliding_window_view(
            padded[:, c], window.length)[::window.hop]
        coeffs[:, :, c] = np.fft.rfft(frames * win, axis=1)
    return SpectrogramTensor(coeffs, window, signal.rate_hz, x.shape[0])


def istft(spec: SpectrogramTensor, length: int | None = None) -> SampledSignal:
    """Weighted overlap-add synthesis, inverse of :func:`stft`.

    Uses the analysis window again for synthesis and divides by the summed
    squared window, so an unmodified tensor reconstructs the original
    samples to machine precision on the analyzed extent.

    Each channel is one task on the thread pool (`_pool`): its frames are
    synthesized `_SYNTH_CHUNK` at a time into a buffer the calling thread
    allocated and overlap-added one hop phase at a time: phase r adds
    sample block r of every frame of the chunk with one strided add.
    Taking the phases in descending order and the chunks in ascending
    order adds each output sample's frames in ascending frame order.  The
    denominator and its mask are built once.  The samples are returned as
    a (length, channels) view of a channel-major buffer.
    """
    window = spec.window
    dev = window.cola_deviation()
    if dev > 1e-8:
        raise ValueError(f"window/hop not COLA-compliant (deviation {dev:.2e})")

    n_frames, _, n_ch = spec.coeffs.shape
    hop = window.hop
    total = (n_frames - 1) * hop + window.length
    span = n_frames * hop
    win = window.window()
    win2 = win ** 2

    denom = np.zeros(total)
    for r in reversed(range(window.length // hop)):
        wdst = denom[r * hop:r * hop + span].reshape(n_frames, hop)  # a view
        wdst += win2[r * hop:(r + 1) * hop]
    good = denom > 1e-12
    out = np.zeros((n_ch, total))
    chunks = [np.empty((min(_SYNTH_CHUNK, n_frames) or 1, window.length))
              for _ in range(min(_pool.worker_count(), n_ch))]
    _pool.run(range(n_ch),
              lambda c, chunk: _synthesize_channel(
                  spec.coeffs[:, :, c], win, hop, denom, good, out[c], chunk),
              chunks)

    # strip the analysis padding
    left = window.length
    if length is None:
        length = spec.n_samples
    if length is None:
        length = max(total - 2 * window.length, 0)
    out = out[:, left:left + length]
    if out.shape[1] < length:
        out = np.pad(out, ((0, 0), (0, length - out.shape[1])))
    return SampledSignal(out.T, spec.rate_hz)


def _synthesize_channel(coeffs, win, hop, denom, good, out, chunk) -> None:
    """Overlap-add one channel's (N, F) frames into `out` and normalise it.

    chunk: (frames, window length) float scratch.
    """
    n_frames = coeffs.shape[0]
    length = win.shape[0]
    for f0 in range(0, n_frames, len(chunk)):
        f1 = min(f0 + len(chunk), n_frames)
        frames = chunk[:f1 - f0]
        np.fft.irfft(coeffs[f0:f1], n=length, axis=-1, out=frames)
        frames *= win
        for r in reversed(range(length // hop)):
            dst = out[(f0 + r) * hop:(f1 + r) * hop].reshape(f1 - f0, hop)
            dst += frames[:, r * hop:(r + 1) * hop]
    np.divide(out, denom, out=out, where=good)


def _lagrange_weights(t, order: int) -> np.ndarray:
    """Lagrange basis weights on the stencil nodes 0..order at abscissa t.

    t is a scalar (one constant-delay FIR) or an (m,) array (one stencil per
    output sample); the result has shape (order + 1,) + shape(t).
    """
    diffs = [t - l for l in range(order + 1)]
    weights = []
    for j in range(order + 1):
        w = np.ones_like(diffs[0])
        for l in range(order + 1):
            if l != j:
                w *= diffs[l] / (j - l)
        weights.append(w)
    return np.array(weights)


def _interpolate_at(x: np.ndarray, pos: np.ndarray, order: int) -> np.ndarray:
    """Evaluate x at continuous positions by local Lagrange interpolation.

    x: (n, channels); pos: (m,) positions in samples.  Positions outside
    the input read zeros.  Uses order+1 support points around each position.
    """
    base = np.floor(pos).astype(np.int64)
    start = base - (order - 1) // 2
    # abscissa relative to the stencil start
    weights = _lagrange_weights(pos - start, order)

    lo = int(start.min())
    hi = int(start.max()) + order
    pad_left = max(-lo, 0) + 1
    pad_right = max(hi - (x.shape[0] - 1), 0) + 1
    padded = np.pad(x, ((pad_left, pad_right), (0, 0)))

    # one gather index for every tap: tap j reads the view shifted by j
    index = start + pad_left
    out = np.zeros((pos.shape[0], x.shape[1]))
    tap = np.empty_like(out)
    for j in range(order + 1):
        np.take(padded[j:], index, axis=0, out=tap, mode="clip")
        tap *= weights[j][:, None]
        out += tap
    return out


def lagrange_resample(signal: SampledSignal, rate_offset_hz: float,
                      order: int = 4) -> SampledSignal:
    """Resample by a small clock-rate offset using local Lagrange interpolation.

    Output sample tau takes the value of the input at continuous position
    tau * rate / (rate + rate_offset_hz).  Output length equals input
    length; positions past the input tail read zeros.

    Parameters
    ----------
    rate_offset_hz : deviation of the actual clock from the nominal rate.
    order : polynomial order (order+1 support points per output sample).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not math.isfinite(rate_offset_hz):
        raise ValueError(f"rate_offset_hz must be finite, got {rate_offset_hz}")
    if abs(rate_offset_hz) >= signal.rate_hz:
        raise ValueError(
            f"|rate_offset_hz| ({abs(rate_offset_hz)}) must be below the "
            f"sample rate ({signal.rate_hz})")

    x = signal.samples
    n = x.shape[0]
    if n == 0:
        return SampledSignal(x.copy(), signal.rate_hz)
    ratio = signal.rate_hz / (signal.rate_hz + rate_offset_hz)
    pos = np.arange(n, dtype=np.float64) * ratio
    return SampledSignal(_interpolate_at(x, pos, order), signal.rate_hz)


def fractional_delay(samples: np.ndarray, delay: float, order: int = 4) -> np.ndarray:
    """Delay a signal by a (possibly fractional) number of samples.

    A constant delay puts every output sample at the same abscissa within
    its stencil, so this is a fixed (order+1)-tap Lagrange fractional-delay
    FIR: the stencil and weights of :func:`lagrange_resample`, computed
    once.  Output length equals input length; the first floor(delay)
    samples are exactly zero.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not math.isfinite(delay):
        raise ValueError(f"delay must be finite, got {delay}")
    if delay < 0:
        raise ValueError(f"delay must be nonnegative, got {delay}")
    x = np.asarray(samples, dtype=np.float64)
    squeeze = x.ndim == 1
    x = _as_2d(x)
    n = x.shape[0]
    if delay == 0.0:
        out = x.copy()
    else:
        # output i reads x[i + first + j], j = 0..order, always at the
        # abscissa -delay - first within its stencil
        first = math.floor(-delay) - (order - 1) // 2
        weights = _lagrange_weights(-delay - first, order)
        out = np.zeros_like(x)
        for j in range(order + 1):
            shift = first + j
            lo, hi = max(0, -shift), min(n, n - shift)
            if lo < hi:
                out[lo:hi] += weights[j] * x[lo + shift:hi + shift]
        # the stencil reaches the first samples a little ahead of the
        # delay; keep the strictly causal region exactly zero
        out[:math.floor(delay)] = 0.0
    return out[:, 0] if squeeze else out


def long_term_average_spectrum(spec: SpectrogramTensor) -> np.ndarray:
    """Mean of |coefficient|^2 over frames and channels, per frequency bin."""
    if spec.n_frames < 1:
        raise ValueError("spectrogram has no frames")
    power = spec.coeffs.real ** 2 + spec.coeffs.imag ** 2
    return power.mean(axis=(0, 2))
