"""Separation quality metrics, scored at each device's clock.

Estimates stay on the clock of the device that recorded them, so the
truth images are read there through `dsp._Clock`: `at_device_clock`
moves whole images.  `_Scores` scores each span of an estimate against
the same span of its truth as it arrives, for `score_images`, `asyncsep
evaluate` and `run_experiment`'s streamed pass.  One rule sums the SDR
energies (`_Energy`), for whole images and spans alike, so `sdr` of a
pair and every score of `_Scores` agree bit for bit.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from . import _pool
from .dsp import SampledSignal, _ArraySource, _Clock, _read_padded, _resampled
from .errors import NumericalError

__all__ = ["sdr", "at_device_clock", "score_images"]

_CHUNK = 4096  # samples of one chunk of the SDR energies (`_Energy`)


def sdr(reference: SampledSignal, estimate: SampledSignal) -> float:
    """Signal-to-distortion ratio in dB.

    10 * log10 of reference energy over error energy, summed over all
    samples and channels.  Returns +inf when the estimate is exact;
    raises ValueError for an all-zero reference (the ratio is undefined)
    and NumericalError when either energy is not finite.  The energies
    are summed on the calling thread (`_Energy`).
    """
    ref, est = _same_shape(reference, estimate)
    C = ref.shape[1]
    energy, error = (_Energy(C, _energy_scratch(C)) for _ in range(2))
    energy.add(ref.T)
    error.add(ref.T, est.T)
    return _score("the pair", energy.totals(), error.totals())


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


class _Energy:
    """The energy of one signal fed in sample order: `add(x)` takes its
    next samples, `add(x, y)` those of the difference y - x.

    The squares are summed in chunks of `_CHUNK` samples at fixed places,
    samples j * _CHUNK to (j + 1) * _CHUNK: a chunk's samples lie
    channel-major in contiguous rows of scratch, np.sum adds each row's
    squares, and the row sums add in chunk order, channel by channel.  So
    the energy depends neither on the layout of the samples nor on how
    they were split among calls, and `sdr` and the span-by-span scoring
    of `_Scores` agree bit for bit.  scratch: `_energy_scratch` of
    `channels` or more.
    """

    def __init__(self, channels: int, scratch):
        plane, sums = scratch
        self.plane, self.sums = plane[:channels], sums[:channels]
        self.filled = 0  # samples of the open chunk
        self.total = 0.0

    def add(self, x, y=None) -> None:
        """The next samples, x and y (channels, k) float of any layout,
        fastest channel-major.  Allocates no array."""
        i, k = 0, x.shape[1]
        while i < k:
            j = min(k, i + _CHUNK - self.filled)
            part = self.plane[:, self.filled:self.filled + j - i]
            if y is None:
                np.copyto(part, x[:, i:j])
            else:
                np.subtract(y[:, i:j], x[:, i:j], out=part)
            self.filled += j - i
            i = j
            if self.filled == _CHUNK:
                self._close()

    def _close(self) -> None:
        part = self.plane[:, :self.filled]
        np.square(part, out=part)
        np.sum(part, axis=1, out=self.sums)  # row by row, as np.sum(row)
        for row in self.sums.tolist():
            self.total += row
        self.filled = 0

    def totals(self) -> float:
        """The energy of every sample added."""
        if self.filled:
            self._close()
        return self.total


def _energy_scratch(channels: int):
    """The scratch of an `_Energy` of up to `channels` channels."""
    return np.empty((channels, _CHUNK)), np.empty(channels)


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


class _ImageScore:
    """Destination of one estimate of one image (`dsp._Writer`) that scores
    it against its truth, source k of clock group g, as its spans arrive:
    against the span of that group that this thread read last, in
    `last`, the threading.local of `_Scores.read`.  Given `reference`,
    the truth's `_Energy`, it also sums the truth's energy, and with
    `recording` it scores the same span of its device's recording, read
    with the truth, the unprocessed estimate, against the same rows."""

    def __init__(self, last, g: int, clock, k: int, reference=None,
                 recording: bool = False):
        self.c0, self.c1 = clock.bounds[k:k + 2]
        C = self.c1 - self.c0
        self.last, self.g, self.written = last, g, 0
        self.n_samples = clock.n_samples
        self.error = _Energy(C, _energy_scratch(C))
        self.reference, self.recording = reference, recording
        if recording:
            self.unprocessed = _Energy(C, _energy_scratch(C))

    def write(self, start: int, samples) -> None:
        """Samples start, start + 1, ... of the estimate, (C, k) float;
        those past the truth's length are dropped.  Allocates no array."""
        k = min(samples.shape[-1], self.n_samples - start)
        if k <= 0:
            return
        if start != self.written:
            raise ValueError(f"samples from {start} on scored after "
                             f"{self.written}")
        spans = getattr(self.last, "spans", None)
        at, rows, recorded = (None, None, None) if spans is None else \
            spans.get(self.g, (None, None, None))
        if at != start or rows.shape[-1] < k:
            raise ValueError(f"the truth of samples {start}:{start + k} "
                             f"was not read on this thread")
        ref = rows[self.c0:self.c1, :k]
        if self.reference is not None:
            self.reference.add(ref)
        if self.recording:
            self.unprocessed.add(ref, recorded[:, :k])
        self.error.add(ref, samples[:, :k])
        self.written += k


class _Scores:
    """Scores of image signals written span by span against the truth at
    each device's clock.

    truth: (device, source) -> (sample source, rate) of the truth image
    (`dsp._ArraySource`, `audio.WavSource`, `scene._ImageSource`);
    sro_hz: device -> clock offset in Hz; rows: the most samples a span
    holds; modes: the names of the estimates of every image (one, None,
    by default); recordings: device -> its recording, a
    `scene._Recording` at sro_hz's clock over that device's truth
    images, in key order, or None.
    Each (device, length, rate) group of truth images is read through one
    clock (`dsp._Clock`), a span at a time, into the caller's scratch
    (`scratch`); `destination(mode, m, k)`, the estimate of image (m, k)
    under mode, scores the writes of each thread against the span that
    thread read last.  With recordings, `separator`'s streamed pass reads
    each block's span of a device's recording through `read`, which
    renders the truth span the block finishes from the same render of
    its images, once whatever the number of modes (None for a key not
    in truth, which the pass then need not synthesize), and the first
    mode's destinations also score that span of the recording, the
    unprocessed estimate (`scores(unprocessed=True)`).  `feed` reads
    every image's estimate from a sample source instead.  The truth's
    energy is summed once per image, by the first mode's destination.
    `scores(mode)` equals `score_images(at_device_clock(truth, sro_hz),
    estimates)` bit for bit.  Spans of different groups may be written
    from different threads; those of one destination in order.
    """

    def __init__(self, truth: dict, sro_hz: dict, rows: int,
                 recordings: dict | None = None, modes=(None,)):
        self.groups, self.by_device = [], {}  # (clock, keys, first row)
        self.images, self.reference = {}, {}
        # the spans each thread read last; the destinations hold it, not
        # the scorer, so that freeing the scorer frees them at once
        self.last = threading.local()
        channels = 0
        for clock, keys in _clocks(truth, sro_hz):
            g, m = len(self.groups), keys[0][0]
            self.groups.append((clock, keys, channels))
            self.by_device.setdefault(m, []).append(g)
            channels += clock.channels
            for k, key in enumerate(keys):
                C = clock.sources[k].channels
                self.reference[key] = _Energy(C, _energy_scratch(C))
                for j, mode in enumerate(modes):
                    self.images[(mode, key)] = _ImageScore(
                        self.last, g, clock, k,
                        None if j else self.reference[key],
                        not j and recordings is not None)
        self.rows, self.channels = rows, channels
        self.modes, self.order = list(modes), list(truth)
        self.recordings, self.samples = recordings, {}
        if recordings is not None:
            at = 0  # each device's rows of its recording's span
            for m, (g,) in self.by_device.items():
                if recordings[m].parts != self.groups[g][0].sources:
                    raise ValueError(f"the recording of {m!r} is not of "
                                     f"its truth images")
                self.samples[m] = at
                at += recordings[m].channels * rows

    def destination(self, mode, m: str, k: str):
        return self.images.get((mode, (m, k)))

    def scratch(self, channels: int | None = None, spare=None) -> tuple:
        """One thread's scratch of `read`: rows for `channels` truth
        channels (every group's, by default) of a span; the raw scratch
        of the clocks, or with recordings theirs, a view of spare, float,
        when that is large enough; the spans read; and, with recordings,
        the rows of their spans."""
        readers = [clock for clock, _, _ in self.groups] \
            if self.recordings is None else self.recordings.values()
        floats = max((r.scratch_floats(self.rows) for r in readers),
                     default=0)
        if spare is None or spare.size < floats:
            spare = np.empty(floats)
        raw = spare.reshape(-1)[:floats].view(np.uint8)
        rows = np.empty((self.channels if channels is None else channels,
                         self.rows))
        samples = None if self.recordings is None else np.empty(
            sum(rec.channels for rec in self.recordings.values())
            * self.rows)
        return rows, raw, {}, samples

    def read(self, m: str, span: tuple, finished: tuple, scratch):
        """Device m's recording at samples span, (start, stop), zeros
        where it passes the recording's ends, and from the same render
        its truth images and the recording at samples finished, (start,
        stop) within span, those past their length dropped, into scratch,
        this thread's, whose spans the destinations then score this
        thread's writes against; returns the recording's samples,
        (C, stop - start), a view of scratch.  Allocates no array."""
        rows, raw, spans, flat = scratch
        (g,), rec = self.by_device[m], self.recordings[m]
        clock, _, r0 = self.groups[g]
        (a, b), (t0, t1) = span, finished
        t1 = min(t1, rec.n_samples)
        at = self.samples[m]
        samples = flat[at:at + rec.channels * (b - a)].reshape(-1, b - a)
        truth = rows[r0:r0 + clock.channels, :max(t1 - t0, 0)]
        _read_padded(functools.partial(
            rec.read, truth=(t0, t1, truth) if t0 < t1 else None),
            rec.n_samples, a, raw, samples)
        spans[g] = (t0, truth, samples[:, t0 - a:])
        self.last.spans = spans
        return samples

    def _read_group(self, g, start, stop, out, raw, spans) -> None:
        clock = self.groups[g][0]
        stop = min(stop, clock.n_samples)
        if stop - start > self.rows:
            raise ValueError(f"span of {stop - start} samples, more than "
                             f"the {self.rows} a span holds")
        out = out[:, :max(stop - start, 0)]
        if start < stop:
            clock.read(start, stop, raw, out)
        spans[g] = (start, out, None)
        self.last.spans = spans

    def feed(self, estimates: dict) -> None:
        """Score every image's estimate under the one mode, estimates:
        (device, source) -> sample source.  Each group is a task on the
        pool (`_pool`) that reads its truth and its estimates a span at a
        time in its thread's scratch."""
        widest = max((s.channels for s in estimates.values()), default=0)
        mode, = self.modes

        def work(g, scratch):
            (clock, keys, _), (buf, raw, truth) = self.groups[g], scratch
            rows, truth_raw, spans, _ = truth
            for s0 in range(0, clock.n_samples, self.rows):
                s1 = min(s0 + self.rows, clock.n_samples)
                self._read_group(g, s0, s1, rows[:clock.channels], truth_raw,
                                 spans)
                for key in keys:
                    est = buf[:estimates[key].channels, :s1 - s0]
                    estimates[key].read(s0, s1, raw, est)
                    self.images[(mode, key)].write(s0, est)

        _pool.run(range(len(self.groups)), work, lambda: (
            np.empty((widest, self.rows)),
            np.empty(widest * self.rows).view(np.uint8),
            self.scratch(max(c.channels for c, _, _ in self.groups))))

    def energies(self, key, mode=None, unprocessed: bool = False) -> tuple:
        """(truth energy, error energy) of image key's estimate under mode,
        or of its recording; ValueError for an estimate not written to
        its end."""
        image = self.images[(self.modes[0] if unprocessed else mode, key)]
        if image.written != image.n_samples:
            raise ValueError(f"estimate of {key[0]}/{key[1]} holds "
                             f"{image.written} of {image.n_samples} "
                             f"samples")
        error = image.unprocessed if unprocessed else image.error
        return self.reference[key].totals(), error.totals()

    def scores(self, mode=None, unprocessed: bool = False) -> dict:
        """"m/k" -> SDR of the estimates under mode, or of the recordings,
        in the key order of truth; ValueError for an image not written to
        its end."""
        return {f"{m}/{k}": _score(f"{m}/{k}", *self.energies(
            (m, k), mode, unprocessed)) for m, k in self.order}
