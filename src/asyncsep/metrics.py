"""Separation quality metrics, scored at each device's clock.

Estimates stay on the clock of the device that recorded them, so
`at_device_clock` moves the truth images there and `score_images` scores
them; `asyncsep evaluate` scores through these.  `run_experiment` scores
inside its streamed pass instead (`_Scores`): each finished span of an
estimate against the same span of its truth image on the device clock,
so it holds neither image signals nor resampled truth, with the same
scores bit for bit.  One rule sums the SDR energies (`_Energies`), for
whole images and spans alike.
"""

from __future__ import annotations

import math

import numpy as np

from . import _pool, dsp
from .dsp import _ORDER, SampledSignal, lagrange_resample
from .errors import NumericalError

__all__ = ["sdr", "at_device_clock", "score_images"]

_CHUNK = 4096  # samples of one chunk of the SDR energies (`_Energies`)


def sdr(reference: SampledSignal, estimate: SampledSignal) -> float:
    """Signal-to-distortion ratio in dB.

    10 * log10 of reference energy over error energy, summed over all
    samples and channels.  Returns +inf when the estimate is exact;
    raises ValueError for an all-zero reference (the ratio is undefined)
    and NumericalError when either energy is not finite.
    """
    return _sdr_pairs([(reference, estimate)], ["the pair"])[0]


def at_device_clock(truth, sro_hz) -> dict:
    """The truth images on their devices' clocks, in the key order of truth.

    truth: (device, source) -> SampledSignal; sro_hz: device -> clock
    offset in Hz, where a device with none or 0 keeps its images, the same
    objects.  The images of one (device, length, rate) group are resampled
    in one `lagrange_resample` call, their channels side by side, so the
    weights are formed once; each equals resampling that image alone.
    """
    groups = {}
    for (m, k), ref in truth.items():
        if sro_hz.get(m, 0.0) != 0.0:
            groups.setdefault((m, ref.n_samples, ref.rate_hz), []).append(
                (m, k))
    out = dict(truth)
    for (m, _, rate), keys in groups.items():
        stacked = lagrange_resample(
            SampledSignal(np.concatenate([truth[key].samples for key in keys],
                                         axis=1), rate), sro_hz[m])
        bounds = np.cumsum([truth[key].channels for key in keys])[:-1]
        out.update((key, SampledSignal(part, rate)) for key, part in
                   zip(keys, np.split(stacked.samples, bounds, axis=1)))
    return out


def score_images(refs, estimates) -> dict[str, float]:
    """"m/k" -> SDR of estimates[(m, k)] against refs[(m, k)], in the key
    order of refs, scored on the pool (`_sdr_pairs`)."""
    names = [f"{m}/{k}" for m, k in refs]
    return dict(zip(names, _sdr_pairs(
        [(ref, estimates[key]) for key, ref in refs.items()], names)))


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
    were split among calls, and `_sdr_pairs` and the span-by-span
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


def _sdr_pairs(pairs, names=None) -> list[float]:
    """`sdr` of every (reference, estimate) pair, in order; names, by
    default "pair <index>", label the pairs in errors.

    Each pair is one task on the thread pool (`_pool`); it sums its
    energies through `_Energies` in its thread's scratch of one chunk,
    so the scores do not depend on the thread count.  Shapes are checked
    before any task runs; after, the first pair whose energies are not
    finite raises NumericalError, or whose reference is all zero
    ValueError.
    """
    refs, ests = [], []
    for reference, estimate in pairs:
        ref, est = reference.samples, estimate.samples
        if ref.shape != est.shape:
            raise ValueError(
                f"reference {ref.shape} and estimate {est.shape} shapes differ")
        refs.append(ref)
        ests.append(est)
    energies = np.empty((len(refs), 2))

    def work(i, scratch):
        acc = _Energies(refs[i].shape[1], scratch)
        acc.add(refs[i].T, ests[i].T)
        energies[i] = acc.totals()

    channels = max((ref.shape[1] for ref in refs), default=0)
    _pool.run(range(len(refs)), work, lambda: _energy_scratch(channels))
    names = names or [f"pair {i}" for i in range(len(refs))]
    return [_score(name, *pair) for name, pair in zip(names, energies.tolist())]


class _DeviceClock:
    """Truth images of one device on its clock, a span of samples at a time.

    images: (n, C_k) truth images of one length; sro_hz: the device's clock
    offset at `rate`; rows: the most samples one span holds.  `rows(k, a,
    b)` gives image k at samples a:b of the device clock, channel-major,
    equal to rows a:b of `at_device_clock`'s image bit for bit: the
    positions, stencils and weights are those of `lagrange_resample`
    (`dsp._stencils`), and the images are gathered (`dsp._gather`) from a
    window of their samples padded with zeros as `dsp._interpolate_at`
    pads them.  Like `at_device_clock`, which resamples a device's images
    side by side, the clock forms the weights and gathers every image
    once per span, their channels stacked, so each numpy call works on
    every channel.  Rows whose every tap lies past the images are +0.0,
    as the padded gather makes them.  Without an offset, rows are views
    of the images.
    """

    def __init__(self, images: list, rate: float, sro_hz: float, rows: int):
        self.images, self.rows_max = images, rows
        self.n_samples = images[0].shape[0]
        self.ratio = dsp._clock_ratio(rate, sro_hz) if sro_hz != 0.0 else None
        self.span = None  # the (a, b) gathered into out
        if self.ratio is None:
            return
        # the images' channels, stacked
        self.bounds = np.cumsum([0] + [x.shape[1] for x in images]).tolist()
        C = self.bounds[-1]
        # a span's stencils start at most (rows - 1) * ratio + 1 samples
        # apart, and none past the images' last padded sample
        width = min(math.ceil((rows - 1) * self.ratio) + _ORDER + 3,
                    self.n_samples + _ORDER + 1)
        self.steps = np.arange(rows, dtype=np.float64)
        self.pos, self.t = np.empty(rows), np.empty(rows)
        self.index = np.empty(rows, dtype=np.int64)
        self.diffs = np.empty((_ORDER + 2, rows))
        self.weights = np.empty((_ORDER + 1, rows))
        self.tap, self.out = np.empty((C, rows)), np.empty((C, rows))
        self.window = np.empty((C, width))

    def _gather(self, a: int, b: int) -> None:
        """Every image at samples a:b into out."""
        r, n = b - a, self.n_samples
        pos, index = self.pos[:r], self.index[:r]
        np.add(self.steps[:r], a, out=pos)
        pos *= self.ratio  # = np.arange(n) * ratio, rows a:b
        dsp._stencils(pos, self.t[:r], index, self.weights[:, :r],
                      self.diffs[:, :r])
        out = self.out[:, :r]
        out.fill(0.0)
        # the rows with a tap at or before the padded images' last sample
        g = int(np.searchsorted(index, n + _ORDER, side="right"))
        if g:
            base = int(index[0])
            width = int(index[g - 1]) - base + _ORDER + 1
            index = index[:g]
            index -= base
            # window i: sample base + i of the padded images, x[i - lo]
            window, lo = self.window[:, :width], _ORDER + 1 - base
            s0 = min(max(lo, 0), width)  # the window holds x in s0:s1
            s1 = min(max(n + lo, s0), width)
            window[:, :s0] = 0.0
            window[:, s1:] = 0.0
            for x, c0, c1 in zip(self.images, self.bounds, self.bounds[1:]):
                np.copyto(window[c0:c1, s0:s1], x[s0 - lo:s1 - lo].T)
            dsp._gather(window, index, self.weights[:, :g], self.tap[:, :g],
                        out[:, :g])
        self.span = (a, b)

    def rows(self, k: int, a: int, b: int) -> np.ndarray:
        """Image k at device samples a:b, (C_k, b - a); a view of scratch
        that the next span reuses.  Allocates no array."""
        if self.ratio is None:
            return self.images[k][a:b].T
        if b - a > self.rows_max:
            raise ValueError(f"span of {b - a} samples, more than the "
                             f"{self.rows_max} this clock holds")
        if self.span != (a, b):
            self._gather(a, b)
        return self.out[self.bounds[k]:self.bounds[k + 1], :b - a]


class _ImageScore:
    """Destination of one image signal (`dsp._Writer`) that scores it
    against its truth image k of `clock` as its spans arrive.  Given its
    device's (n, C) recording, it also scores the recording's same span,
    the unprocessed estimate, against the same truth rows."""

    def __init__(self, clock: _DeviceClock, k: int, recording=None):
        C = clock.images[k].shape[1]
        self.clock, self.k, self.written = clock, k, 0
        self.energies = _Energies(C, _energy_scratch(C))
        self.recording = recording
        if recording is not None:
            self.unprocessed = _Energies(C, _energy_scratch(C))

    def write(self, start: int, samples) -> None:
        """Samples start, start + 1, ... of the estimate, (C, k) float;
        those past the truth's length are dropped.  Allocates no array."""
        k = min(samples.shape[-1], self.clock.n_samples - start)
        if k <= 0:
            return
        if start != self.written:
            raise ValueError(f"samples from {start} on scored after "
                             f"{self.written}")
        ref = self.clock.rows(self.k, start, start + k)
        self.energies.add(ref, samples[:, :k])
        if self.recording is not None:
            self.unprocessed.add(ref, self.recording[start:start + k].T)
        self.written += k


class _Discard:
    """Destination of an image signal that is not scored."""

    def write(self, start: int, samples) -> None:
        pass


class _Scores:
    """Scores of image signals written span by span against the truth at
    each device's clock.

    truth: (device, source) -> SampledSignal; sro_hz: device -> clock
    offset in Hz; rows: the most samples a span holds; recordings:
    device -> (n, C) samples, whose spans each destination also scores,
    as the unprocessed estimates (`scores(unprocessed=True)`), or None.
    `destination(m, k)` takes the estimate of image (m, k), for
    `separator`'s streamed pass (a key not in truth is discarded), and
    `feed` a device's samples as the estimate of its every image.
    `scores()` equals
    `score_images(at_device_clock(truth, sro_hz), estimates)` bit for
    bit: the truth's spans are `at_device_clock`'s, with the weights
    formed once per device span (`_DeviceClock`), and the energies sum
    as `_sdr_pairs` sums them (`_Energies`).  Spans of different devices
    may be written from different threads; those of one device in turn.
    """

    def __init__(self, truth: dict, sro_hz: dict, rows: int,
                 recordings: dict | None = None):
        groups = {}
        for (m, k), ref in truth.items():
            groups.setdefault((m, ref.n_samples, ref.rate_hz), []).append(
                (m, k))
        self.images = {}
        for (m, _, rate), keys in groups.items():
            clock = _DeviceClock([truth[key].samples for key in keys], rate,
                                 sro_hz.get(m, 0.0), rows)
            recording = None if recordings is None else recordings[m]
            self.images.update((key, _ImageScore(clock, i, recording))
                               for i, key in enumerate(keys))
        self.rows = rows
        self.order = list(truth)

    def destination(self, m: str, k: str):
        return self.images.get((m, k), _Discard())

    def feed(self, m: str, samples: np.ndarray) -> None:
        """Device m's (n, C) samples as the estimate of its every image,
        in spans of `rows`."""
        dests = [dest for (a, _), dest in self.images.items() if a == m]
        for s0 in range(0, samples.shape[0], self.rows):
            span = samples[s0:s0 + self.rows].T
            for dest in dests:
                dest.write(s0, span)

    def scores(self, unprocessed: bool = False) -> dict[str, float]:
        """"m/k" -> SDR of the estimates, or of the recordings, in the key
        order of truth; ValueError for an image not written to its end."""
        out = {}
        for m, k in self.order:
            image = self.images[(m, k)]
            if image.written != image.clock.n_samples:
                raise ValueError(f"estimate of {m}/{k} holds "
                                 f"{image.written} of "
                                 f"{image.clock.n_samples} samples")
            energies = image.unprocessed if unprocessed else image.energies
            out[f"{m}/{k}"] = _score(f"{m}/{k}", *energies.totals())
        return out
