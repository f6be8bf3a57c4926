"""Separation quality metrics, scored at each device's clock.

Estimates stay on the clock of the device that recorded them, so the
truth images are read there through `dsp._Clock`: `at_device_clock`
moves whole images.  `_Scores` scores each span of an estimate against
the same span of its truth as it arrives, for `score_images`, `asyncsep
evaluate` and `run_experiment`'s streamed pass.  One rule sums the SDR
energies (`_Energies`), for whole images and spans alike, so `sdr` of a
pair and every score of `_Scores` agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from . import _pool
from .dsp import SampledSignal, _ArraySource, _Clock, _resampled
from .errors import NumericalError

__all__ = ["sdr", "at_device_clock", "score_images"]

_CHUNK = 4096  # samples of one chunk of the SDR energies (`_Energies`)


def sdr(reference: SampledSignal, estimate: SampledSignal) -> float:
    """Signal-to-distortion ratio in dB.

    10 * log10 of reference energy over error energy, summed over all
    samples and channels.  Returns +inf when the estimate is exact;
    raises ValueError for an all-zero reference (the ratio is undefined)
    and NumericalError when either energy is not finite.  The energies
    are summed on the calling thread (`_Energies`).
    """
    ref, est = _same_shape(reference, estimate)
    energies = _Energies(ref.shape[1], _energy_scratch(ref.shape[1]))
    energies.add(ref.T, est.T)
    return _score("the pair", *energies.totals())


def _same_shape(reference, estimate) -> tuple:
    """The samples of both; ValueError unless their shapes agree."""
    ref, est = reference.samples, estimate.samples
    if ref.shape != est.shape:
        raise ValueError(
            f"reference {ref.shape} and estimate {est.shape} shapes differ")
    return ref, est


def at_device_clock(truth, sro_hz) -> dict:
    """The truth images on their devices' clocks, in the key order of truth.

    truth: (device, source) -> SampledSignal; sro_hz: device -> clock
    offset in Hz, where a device with none or 0 keeps its images, the same
    objects.  The images of one (device, length, rate) group are read
    through one `dsp._Clock`, their channels stacked, so the weights are
    formed once; each equals resampling that image alone.
    """
    moved = {key: (_ArraySource(ref.samples), ref.rate_hz)
             for key, ref in truth.items() if sro_hz.get(key[0], 0.0)}
    out = dict(truth)
    for clock, keys in _clocks(moved, sro_hz):
        planes = _resampled(clock)
        for key, c0, c1 in zip(keys, clock.bounds, clock.bounds[1:]):
            out[key] = SampledSignal(planes[c0:c1].T, truth[key].rate_hz)
    return out


def _clocks(truth, sro_hz) -> list:
    """(`dsp._Clock` over the images, keys) of every (device, length,
    rate) group of truth, (device, source) -> (sample source, rate)."""
    groups = {}
    for (m, k), (source, rate) in truth.items():
        groups.setdefault((m, source.n_samples, rate), []).append((m, k))
    return [(_Clock([truth[key][0] for key in keys], rate,
                    sro_hz.get(m, 0.0)), keys)
            for (m, _, rate), keys in groups.items()]


def score_images(refs, estimates) -> dict[str, float]:
    """"m/k" -> SDR of estimates[(m, k)] against refs[(m, k)], in the key
    order of refs, each equal to `sdr` of the pair.

    Every pair is checked first: a missing estimate or shapes that
    differ raise ValueError.  The images are then scored as they stand,
    with no clock offset, by `_Scores`.
    """
    for (m, k), ref in refs.items():
        if (m, k) not in estimates:
            raise ValueError(f"no estimate of {m}/{k}")
        _same_shape(ref, estimates[(m, k)])
    scores = _Scores({key: (_ArraySource(ref.samples), ref.rate_hz)
                      for key, ref in refs.items()}, {}, _CHUNK)
    scores.feed({key: _ArraySource(estimates[key].samples) for key in refs})
    return scores.scores()


def _finite_mean(values) -> float:
    """Mean of the finite values; +inf when none is finite."""
    vals = [v for v in values if math.isfinite(v)]
    return sum(vals) / len(vals) if vals else math.inf


class _Energies:
    """The two SDR energies of one (reference, estimate) pair, fed in
    sample order.

    `add` takes the next samples of both.  The squared reference and the
    squared error are summed in chunks of `_CHUNK` samples at fixed
    places, samples j * _CHUNK to (j + 1) * _CHUNK: a chunk's squares lie
    channel-major in contiguous rows of scratch, np.sum adds each row,
    and the row sums add in chunk order, channel by channel.  So the
    energies depend neither on the layout of the samples nor on how they
    were split among calls, and `sdr` and the span-by-span
    scoring of `_Scores` agree bit for bit.  scratch: `_energy_scratch`
    of `channels` or more.
    """

    def __init__(self, channels: int, scratch):
        planes, sums = scratch
        self.sq, self.err = planes[:, :channels]
        self.sums = sums[:, :channels]
        self.filled = 0  # samples of the open chunk
        self.ref = self.error = 0.0

    def add(self, ref, est) -> None:
        """The next samples, ref and est (channels, k) float of any
        layout, fastest channel-major.  Allocates no array."""
        i, k = 0, ref.shape[1]
        while i < k:
            j = min(k, i + _CHUNK - self.filled)
            part = slice(self.filled, self.filled + j - i)
            np.square(ref[:, i:j], out=self.sq[:, part])
            np.subtract(est[:, i:j], ref[:, i:j], out=self.err[:, part])
            self.filled += j - i
            i = j
            if self.filled == _CHUNK:
                self._close()

    def _close(self) -> None:
        sq, err = self.sq[:, :self.filled], self.err[:, :self.filled]
        np.square(err, out=err)
        np.sum(sq, axis=1, out=self.sums[0])  # row by row, as np.sum(row)
        np.sum(err, axis=1, out=self.sums[1])
        for ref, error in self.sums.T.tolist():
            self.ref += ref
            self.error += error
        self.filled = 0

    def totals(self) -> tuple[float, float]:
        """(reference energy, error energy) of every sample added."""
        if self.filled:
            self._close()
        return self.ref, self.error


def _energy_scratch(channels: int):
    """The scratch of an `_Energies` of up to `channels` channels."""
    return np.empty((2, channels, _CHUNK)), np.empty((2, channels))


def _score(name: str, ref_energy: float, err_energy: float) -> float:
    """SDR in dB of one pair's energies; NumericalError when either is not
    finite, ValueError for an all-zero reference."""
    if not (math.isfinite(ref_energy) and math.isfinite(err_energy)):
        raise NumericalError(
            f"SDR of {name} undefined: reference energy {ref_energy}, "
            f"error energy {err_energy}")
    if ref_energy == 0.0:
        raise ValueError("SDR undefined for an all-zero reference")
    return (math.inf if err_energy == 0.0
            else 10.0 * math.log10(ref_energy / err_energy))


class _Spans:
    """The truth images of one clock, a span of up to `rows` samples at a
    time: `rows(k, a, b)` gives source k at samples a:b, a view of scratch
    the next span reuses.  Each span is read once for every image, so they
    share its weights.  Allocates no array."""

    def __init__(self, clock, rows: int):
        self.clock, self.rows_max = clock, rows
        self.n_samples, self.raw = clock.n_samples, clock.scratch(rows)
        self.out = np.empty((clock.channels, rows))
        self.span = None  # the (a, b) read into out

    def rows(self, k: int, a: int, b: int) -> np.ndarray:
        if b - a > self.rows_max:
            raise ValueError(f"span of {b - a} samples, more than the "
                             f"{self.rows_max} this clock holds")
        if self.span != (a, b):
            self.clock.read(a, b, self.raw, self.out[:, :b - a])
            self.span = (a, b)
        c0, c1 = self.clock.bounds[k:k + 2]
        return self.out[c0:c1, :b - a]


class _ImageScore:
    """Destination of one image signal (`dsp._Writer`) that scores it
    against its truth image, source k of `spans`, as its spans arrive.
    Given its device's (n, C) recording, it also scores the recording's
    same span, the unprocessed estimate, against the same truth rows."""

    def __init__(self, spans: _Spans, k: int, recording=None):
        C = spans.clock.sources[k].channels
        self.spans, self.k, self.written = spans, k, 0
        self.energies = _Energies(C, _energy_scratch(C))
        self.recording = recording
        if recording is not None:
            self.unprocessed = _Energies(C, _energy_scratch(C))

    def write(self, start: int, samples) -> None:
        """Samples start, start + 1, ... of the estimate, (C, k) float;
        those past the truth's length are dropped.  Allocates no array."""
        k = min(samples.shape[-1], self.spans.n_samples - start)
        if k <= 0:
            return
        if start != self.written:
            raise ValueError(f"samples from {start} on scored after "
                             f"{self.written}")
        ref = self.spans.rows(self.k, start, start + k)
        self.energies.add(ref, samples[:, :k])
        if self.recording is not None:
            self.unprocessed.add(ref, self.recording[start:start + k].T)
        self.written += k


class _Scores:
    """Scores of image signals written span by span against the truth at
    each device's clock.

    truth: (device, source) -> (sample source, rate) of the truth image
    (`dsp._ArraySource`, `audio.WavSource`, `scene._ImageSource`);
    sro_hz: device -> clock offset in Hz; rows: the most samples a span
    holds; recordings: device -> (n, C) samples, whose spans each
    destination also scores, as the unprocessed estimates
    (`scores(unprocessed=True)`), or None.
    `destination(m, k)` takes the estimate of image (m, k), for
    `separator`'s streamed pass (None for a key not in truth, which the
    pass then need not synthesize), and
    `feed` reads every image's estimate from a sample source.  Each
    (device, length, rate) group is read through one clock (`_Spans`).
    `scores()` equals `score_images(at_device_clock(truth, sro_hz),
    estimates)` bit for bit.  Spans of different groups may be written
    from different threads; those of one group in turn.
    """

    def __init__(self, truth: dict, sro_hz: dict, rows: int,
                 recordings: dict | None = None):
        self.groups, self.images = [], {}
        for clock, keys in _clocks(truth, sro_hz):
            spans = _Spans(clock, rows)
            recording = None if recordings is None else recordings[keys[0][0]]
            self.groups.append((spans, keys))
            self.images.update((key, _ImageScore(spans, i, recording))
                               for i, key in enumerate(keys))
        self.rows, self.order = rows, list(truth)

    def destination(self, m: str, k: str):
        return self.images.get((m, k))

    def feed(self, estimates: dict) -> None:
        """Score every image's estimate, estimates: (device, source) ->
        sample source.  Each group is a task on the pool (`_pool`) that
        reads its estimates a span at a time in its thread's scratch."""
        widest = max((s.channels for s in estimates.values()), default=0)

        def work(i, scratch):
            (spans, keys), (buf, raw) = self.groups[i], scratch
            for s0 in range(0, spans.n_samples, self.rows):
                s1 = min(s0 + self.rows, spans.n_samples)
                for key in keys:
                    est = buf[:estimates[key].channels, :s1 - s0]
                    estimates[key].read(s0, s1, raw, est)
                    self.images[key].write(s0, est)

        _pool.run(range(len(self.groups)), work,
                  lambda: (np.empty((widest, self.rows)),
                           np.empty(widest * self.rows).view(np.uint8)))

    def scores(self, unprocessed: bool = False) -> dict[str, float]:
        """"m/k" -> SDR of the estimates, or of the recordings, in the key
        order of truth; ValueError for an image not written to its end."""
        out = {}
        for m, k in self.order:
            image = self.images[(m, k)]
            if image.written != image.spans.n_samples:
                raise ValueError(f"estimate of {m}/{k} holds "
                                 f"{image.written} of "
                                 f"{image.spans.n_samples} samples")
            energies = image.unprocessed if unprocessed else image.energies
            out[f"{m}/{k}"] = _score(f"{m}/{k}", *energies.totals())
        return out
