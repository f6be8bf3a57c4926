"""Synthetic asynchronous multi-array scenes with ground-truth source images.

A scene is a declarative description of sources, arrays and their coupling
(per-channel gain, fractional delay and optional echo taps), plus per-array
sample-clock offsets.  Synthesis renders every source image exactly, mixes
them with seeded white noise, and finally resamples each array by its own
clock offset, so the ground-truth images stay on the nominal clock.

One renderer serves every caller.  The source signals are rendered
whole (`_image_sources`); each (array, source) image is a sample source
over its signal (`_ImageSource`) that renders any span of the image on
its own; and each array's recording is a sample source over its images
(`_Recording`) that adds their spans in source order, then its noise,
drawn again for any span from saved generator states (`_Noise`), and
reads that mixture at the array's clock.  `synthesize_scene` reads
every image whole and every recording over those; `run_experiment`
holds only the source signals, and its streamed pass renders each
block's recording span and the truth that block finishes from one
render of the images.

Scene files are YAML::

    version: 1
    rate_hz: 16000
    duration_s: 15.0
    noise_level: 0.003          # white-noise standard deviation per channel
    arrays:
      - {id: a1, channels: 2, sro_hz: 0.3}
    sources:
      - id: s1
        signal: {type: speech_noise, level: 0.1, activity: 0.45}
        coupling:
          a1:                   # one entry per channel of the array
            - {delay: 0.0, gain: 1.0,
               echoes: [{delay: 310.4, gain: 0.30}]}
            - {delay: 4.2, gain: 0.95}

Signal descriptors: ``wav`` (path, mixed down to mono, rate must match),
``white`` (level), ``tone`` (freq_hz, level), ``impulse`` (position,
amplitude), ``speech_noise`` (level, activity, band_hz, tilt_hz,
modulation_hz).  Delays are in samples and may be fractional; echo delays
are absolute, not relative to the direct path.  Every delay and clock
offset is rendered with `dsp`'s one Lagrange stencil (`dsp._ORDER`).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import _pool, dsp
from .audio import read_wav
from .dsp import SampledSignal, _ArraySource, _Delay
from .errors import ConfigError
from .model import SpatialModel

__all__ = [
    "EchoTap",
    "ChannelCoupling",
    "SourceSpec",
    "ArraySpec",
    "SceneSpec",
    "SourceImageSet",
    "MultichannelRecording",
    "load_scene",
    "scene_from_dict",
    "scene_to_dict",
    "synthesize_scene",
]

_NOISE_SPAN = 4096  # samples between the saved states of an array's noise


@dataclass
class EchoTap:
    delay: float
    gain: float


@dataclass
class ChannelCoupling:
    delay: float
    gain: float
    echoes: list[EchoTap] = field(default_factory=list)


@dataclass
class SourceSpec:
    id: str
    signal: dict
    coupling: dict[str, list[ChannelCoupling]]


@dataclass
class ArraySpec:
    id: str
    channels: int
    sro_hz: float = 0.0


@dataclass
class SceneSpec:
    rate_hz: float
    duration_s: float
    sources: list[SourceSpec]
    arrays: list[ArraySpec]
    noise_level: float = 0.0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise ConfigError unless the scene can be synthesized."""
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ConfigError("duration_s must be positive and finite")
        if not (math.isfinite(self.rate_hz) and self.rate_hz > 0):
            raise ConfigError("rate_hz must be positive and finite")
        if self.n_samples < 1:
            raise ConfigError("duration_s is shorter than one sample")
        if not (math.isfinite(self.noise_level) and self.noise_level >= 0):
            raise ConfigError("noise_level must be nonnegative and finite")
        for arr in self.arrays:
            if arr.channels < 1:
                raise ConfigError(f"array {arr.id!r}: channels must be at "
                                  f"least 1, got {arr.channels}")
            if not (math.isfinite(arr.sro_hz) and abs(arr.sro_hz) < self.rate_hz):
                raise ConfigError(
                    f"array {arr.id!r}: sro_hz must be finite and below "
                    f"rate_hz in magnitude, got {arr.sro_hz}")
        ids = [a.id for a in self.arrays]
        for m in ids:
            SpatialModel.check_id(m, "device")
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate array ids")
        sids = [s.id for s in self.sources]
        for k in sids:
            SpatialModel.check_id(k, "source")
        if len(set(sids)) != len(sids):
            raise ConfigError("duplicate source ids")
        for src in self.sources:
            _signal_numbers(src.signal, f"source {src.id!r}")
            for arr in self.arrays:
                taps = src.coupling.get(arr.id)
                if taps is None:
                    raise ConfigError(
                        f"source {src.id!r} has no coupling for array {arr.id!r}")
                if len(taps) != arr.channels:
                    raise ConfigError(
                        f"source {src.id!r} / array {arr.id!r}: "
                        f"{len(taps)} channel couplings, expected {arr.channels}")
                for tap in taps:
                    values = [tap.delay, tap.gain] + [
                        v for e in tap.echoes for v in (e.delay, e.gain)]
                    if not all(math.isfinite(v) for v in values):
                        raise ConfigError(
                            f"source {src.id!r}: delays and gains must be finite")
                    if tap.delay < 0 or any(e.delay < 0 for e in tap.echoes):
                        raise ConfigError(
                            f"source {src.id!r}: delays must be nonnegative")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.rate_hz))

    def array(self, array_id: str) -> ArraySpec:
        for a in self.arrays:
            if a.id == array_id:
                return a
        raise KeyError(array_id)


@dataclass
class SourceImageSet:
    """Ground-truth per-(array, source) images on the nominal clock."""

    images: dict[tuple[str, str], SampledSignal]

    def __post_init__(self):
        by_array: dict[str, tuple[int, float]] = {}
        for (m, _), sig in self.images.items():
            key = (sig.n_samples, sig.rate_hz)
            if m in by_array and by_array[m] != key:
                raise ValueError(f"images of array {m!r} differ in length or rate")
            by_array[m] = key


@dataclass
class MultichannelRecording:
    """One device's recording; sro_hz is the clock offset baked into it."""

    signal: SampledSignal
    array_id: str
    sro_hz: float = 0.0


# ---------------------------------------------------------------------------
# scene file handling
# ---------------------------------------------------------------------------

def _of(kind, value, what: str):
    """value as written in the scene; ConfigError naming `what` unless it
    is a `kind` (an empty `id:` loads as None, `id: 12` as an integer)."""
    if not isinstance(value, kind):
        name = {str: "string", dict: "mapping"}.get(kind, "list")
        raise ConfigError(f"{what} must be a {name}, got {value!r}")
    return value


def _number(value, what: str, whole: bool = False):
    """value as a float, or a whole one as an int; ConfigError naming
    `what` if it is not."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
    if whole and not number.is_integer():
        raise ConfigError(f"{what} must be a whole number, got {value!r}")
    return int(number) if whole else number


# the numbers each signal type reads, and their defaults (`_render_into`)
_SIGNALS = {"white": {"level": 0.1}, "tone": {"freq_hz": 440.0, "level": 0.1},
            "impulse": {"position": 0, "amplitude": 1.0},
            "speech_noise": {"band_hz": (120.0, 7200.0), "tilt_hz": 500.0,
                             "modulation_hz": 3.0, "activity": 0.5,
                             "level": 0.1}}


def _signal_numbers(descriptor, where: str = "source") -> dict:
    """The numbers a signal descriptor's type reads, defaults filled in,
    none for "wav"; ConfigError naming the source unless the type is
    "wav" or in `_SIGNALS`, and naming the field unless each number is
    finite, a position whole, a band two numbers and an activity in
    (0, 1]."""
    kind = descriptor.get("type") if isinstance(descriptor, dict) else None
    if not (isinstance(kind, str) and (kind == "wav" or kind in _SIGNALS)):
        raise ConfigError(f"{where}: unknown source signal type {kind!r}, "
                          f"not one of {', '.join(['wav', *_SIGNALS])}")
    numbers = {}
    for name, default in _SIGNALS.get(kind, {}).items():
        value, what = descriptor.get(name, default), f"{where}: signal {name}"
        band = isinstance(default, tuple)
        if band and not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise ConfigError(f"{what} must be two numbers, got {value!r}")
        got = [_number(v, what, name == "position")
               for v in (value if band else [value])]
        if not all(map(math.isfinite, got)):
            raise ConfigError(f"{what} must be finite, got {value!r}")
        if name == "activity" and not 0.0 < got[0] <= 1.0:
            raise ConfigError(f"{what} must be in (0, 1], got {value!r}")
        numbers[name] = got if band else got[0]
    return numbers


def _coupling_from_dict(obj, where: str) -> ChannelCoupling:
    if not isinstance(obj, dict) or "delay" not in obj or "gain" not in obj:
        raise ConfigError(f"{where}: channel coupling needs 'delay' and 'gain'")
    echoes = []
    for e in _of((list, tuple), obj.get("echoes") or [], f"{where}: echoes"):
        if not isinstance(e, dict) or "delay" not in e or "gain" not in e:
            raise ConfigError(f"{where}: echo taps need 'delay' and 'gain'")
        echoes.append(EchoTap(_number(e["delay"], f"{where}: echo delay"),
                              _number(e["gain"], f"{where}: echo gain")))
    return ChannelCoupling(_number(obj["delay"], f"{where}: delay"),
                           _number(obj["gain"], f"{where}: gain"), echoes)


def scene_from_dict(data: dict, base_dir: Path | None = None) -> SceneSpec:
    """Build a validated SceneSpec from parsed YAML/JSON data."""
    if not isinstance(data, dict):
        raise ConfigError("scene config must be a mapping")
    version = data.get("version", 1)
    if version != 1:
        raise ConfigError(f"unsupported scene config version: {version}")
    try:
        arrays = []
        for a in data["arrays"]:
            aid = _of(str, a["id"], "array id")
            arrays.append(ArraySpec(
                aid, _number(a["channels"], f"array {aid!r}: channels", True),
                _number(a.get("sro_hz", 0.0), f"array {aid!r}: sro_hz")))
        raw_sources = data["sources"]
        rate = _number(data["rate_hz"], "rate_hz")
        duration = _number(data["duration_s"], "duration_s")
        noise = _number(data.get("noise_level", 0.0), "noise_level")
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"scene config missing or malformed field: {exc}") from exc

    sources = []
    for s in _of((list, tuple), raw_sources, "sources"):
        if not (isinstance(s, dict) and {"id", "signal", "coupling"} <= set(s)):
            raise ConfigError("each source needs 'id', 'signal' and 'coupling'")
        sid = _of(str, s["id"], "source id")
        signal = dict(_of(dict, s["signal"], f"source {sid!r}: signal"))
        if signal.get("type") == "wav" and base_dir is not None:
            p = Path(signal.get("path", ""))
            if not p.is_absolute():
                signal["path"] = str(base_dir / p)
        coupling = {}
        for aid, taps in _of(dict, s["coupling"],
                             f"source {sid!r}: coupling").items():
            where = f"source {sid!r}/array {aid!r}"
            coupling[_of(str, aid, f"source {sid!r}: coupling key")] = [
                _coupling_from_dict(t, where)
                for t in _of((list, tuple), taps, f"{where}: couplings")]
        sources.append(SourceSpec(sid, signal, coupling))
    return SceneSpec(rate_hz=rate, duration_s=duration, sources=sources,
                     arrays=arrays, noise_level=noise)


def load_scene(path) -> SceneSpec:
    """Load and validate a YAML scene file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"scene file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse scene file {path}: {exc}") from exc
    try:
        return scene_from_dict(data, base_dir=path.parent)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def scene_to_dict(spec: SceneSpec) -> dict:
    return {
        "version": 1,
        "rate_hz": spec.rate_hz,
        "duration_s": spec.duration_s,
        "noise_level": spec.noise_level,
        "arrays": [{"id": a.id, "channels": a.channels, "sro_hz": a.sro_hz}
                   for a in spec.arrays],
        "sources": [{
            "id": s.id,
            "signal": dict(s.signal),
            "coupling": {
                aid: [{"delay": t.delay, "gain": t.gain,
                       "echoes": [{"delay": e.delay, "gain": e.gain}
                                  for e in t.echoes]}
                      for t in taps]
                for aid, taps in s.coupling.items()},
        } for s in spec.sources],
    }


# ---------------------------------------------------------------------------
# source signal rendering
# ---------------------------------------------------------------------------

class _RenderScratch:
    """One thread's scratch for rendering sources of n samples: 26 bytes
    per sample (a and b, 8 each; the spectrum, 16 per bin; active and
    mask, 1 each)."""

    def __init__(self, n: int):
        bins = n // 2 + 1
        self.a = np.empty(n)
        self.b = np.empty(n)
        self.active = np.empty(n, dtype=bool)
        self.spectrum = np.empty(bins, dtype=np.complex128)
        self.mask = np.empty((2, bins), dtype=bool)


def _bandlimited_noise(n: int, cutoff_hz: float, rng: np.random.Generator,
                       freqs: np.ndarray, out: np.ndarray, ws) -> None:
    """White noise with its bins above cutoff_hz zeroed, into out (n,).

    freqs: the rfft bin frequencies of n samples; ws: a `_RenderScratch`.
    """
    rng.standard_normal(out=out)
    np.fft.rfft(out, out=ws.spectrum)
    np.greater(freqs, cutoff_hz, out=ws.mask[0])
    np.copyto(ws.spectrum, 0.0, where=ws.mask[0])
    np.fft.irfft(ws.spectrum, n, out=out)


def _render_speech_noise(n: int, rng: np.random.Generator, params: dict,
                         freqs: np.ndarray, out: np.ndarray, ws) -> None:
    """Speech-like test source: tilted bandpass noise under a sparse,
    syllabic-rate envelope with genuine silent gaps; written to out (n,)
    through ws, a `_RenderScratch`; params: its `_signal_numbers`.

    ws.b holds the tilt, then the envelope, then the ranks of the active
    samples; ws.a the noise, then the active samples' squares."""
    band, tilt, mod = (params[k] for k in ("band_hz", "tilt_hz",
                                           "modulation_hz"))
    activity, level = params["activity"], params["level"]

    carrier, noise, env = out, ws.a[:n], ws.b
    rng.standard_normal(out=noise)
    np.fft.rfft(noise, out=ws.spectrum)
    # the tilt 1 / sqrt(1 + (f / tilt)^2), zero outside the band
    shape = env[:freqs.shape[0]]
    np.divide(freqs, tilt, out=shape)
    np.square(shape, out=shape)
    np.add(shape, 1.0, out=shape)
    np.sqrt(shape, out=shape)
    np.divide(1.0, shape, out=shape)
    outside, above = ws.mask
    np.less(freqs, band[0], out=outside)
    np.greater(freqs, band[1], out=above)
    outside |= above
    np.copyto(shape, 0.0, where=outside)
    ws.spectrum *= shape
    np.fft.irfft(ws.spectrum, n, out=carrier)
    np.square(carrier, out=noise)
    carrier /= max(np.sqrt(np.mean(noise)), 1e-30)

    raw = noise
    _bandlimited_noise(n, mod, rng, freqs, raw, ws)
    np.copyto(env, raw)  # partitioned in place by the quantile
    thr = np.quantile(env, 1.0 - activity, overwrite_input=True)
    np.subtract(raw, thr, out=env)
    np.maximum(env, 0.0, out=env)
    peak = env.max()
    if peak > 0:
        env /= peak
    carrier *= env
    active = ws.active
    np.greater(env, 0, out=active)
    count = int(np.count_nonzero(active))
    if count:
        # gather the active samples in order: each lands on its rank
        # among them, every inactive one on the spare slot past them
        # (none when every sample is active); the envelope is spent
        index, kept = env.view(np.intp)[:n], ws.a[:count + 1]
        np.copyto(index, active)
        np.cumsum(index, out=index)
        index -= 1
        np.logical_not(active, out=active)
        np.copyto(index, count, where=active)
        np.put(kept, index, carrier)
        kept = kept[:count]
        np.square(kept, out=kept)
        r = np.sqrt(np.mean(kept))
        if r > 0:
            carrier *= level / r


def _render_into(descriptor: dict, n: int, rate: float,
                 rng: np.random.Generator, freqs: np.ndarray,
                 out: np.ndarray, ws) -> None:
    """Render one mono source signal of n samples into out (n,).

    freqs: the rfft bin frequencies of n samples at rate; ws: a
    `_RenderScratch`.  Only a wav source allocates: it reads its file.
    """
    numbers = _signal_numbers(descriptor)
    kind = descriptor["type"]
    if kind == "wav":
        sig = read_wav(descriptor.get("path", ""), expected_rate=rate)
        mono = sig.samples.mean(axis=1)
        out.fill(0.0)
        m = min(n, mono.shape[0])
        out[:m] = mono[:m]
    elif kind == "white":
        rng.standard_normal(out=out)
        out *= numbers["level"]
    elif kind == "tone":
        # the sample times 0, 1/rate, ...: whole numbers add exactly
        steps = ws.b
        steps.fill(1.0)
        steps[:1] = 0.0
        np.cumsum(steps, out=out)
        out /= rate
        out *= 2.0 * np.pi * numbers["freq_hz"]
        np.sin(out, out=out)
        out *= numbers["level"]
    elif kind == "impulse":
        pos = numbers["position"]
        if not 0 <= pos < n:
            raise ConfigError(f"impulse position {pos} outside signal")
        out.fill(0.0)
        out[pos] = numbers["amplitude"]
    else:  # speech_noise
        _render_speech_noise(n, rng, numbers, freqs, out, ws)


def _bin_freqs(n: int, rate: float) -> np.ndarray:
    """The rfft bin frequencies of n samples (none for none)."""
    return np.fft.rfftfreq(n, 1.0 / rate) if n else np.empty(0)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def _child_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


class _ImageSource:
    """One (array, source) image as a sample source (`dsp._ArraySource`'s
    read(start, stop, raw, out)), rendered span by span from its source
    signal, (n,).

    Channel c is the source delayed by its direct path times its gain,
    plus each echo's delayed source times that echo's gain, in tap order.
    Every tap's weights are formed once, here (`dsp._Delay`), and a span
    holds what the whole image holds there, bit for bit.
    """

    def __init__(self, signal: np.ndarray, taps: list[ChannelCoupling]):
        self.signal = signal
        self.n_samples, self.channels = signal.shape[0], len(taps)
        self.taps = [[(t.gain, _Delay(t.delay))]
                     + [(e.gain, _Delay(e.delay)) for e in t.echoes]
                     for t in taps]

    def read(self, start: int, stop: int, raw, out) -> None:
        """Samples start:stop into out, (C, stop - start) float, rendered
        in raw, scratch of 16 bytes or more: raw.nbytes // 16 samples at a
        time, the whole span when raw holds 16 bytes per sample.
        Allocates no array."""
        floats = raw[:raw.nbytes // 16 * 16].view(np.float64)
        piece = max(floats.shape[0] // 2, 1)
        for a in range(start, stop, piece):
            b = min(a + piece, stop)
            delayed, tap = floats[:b - a], floats[piece:piece + b - a]
            for y, taps in zip(out[:, a - start:b - start], self.taps):
                for i, (gain, delay) in enumerate(taps):
                    delay.read(self.signal, a, delayed, tap)
                    if not i:
                        np.multiply(delayed, gain, out=y)
                    else:
                        delayed *= gain
                        y += delayed


def _image_sources(spec: SceneSpec, seed: int) -> dict:
    """Every (array, source) image of a scene as an `_ImageSource`, keyed
    (array id, source id) in source order, then array order.

    The source signals are rendered whole, one task per source on the
    thread pool (`_pool`), each from its own random stream, so they do
    not depend on the thread count; the image sources hold them.
    """
    n, rate = spec.n_samples, spec.rate_hz
    signals = np.empty((len(spec.sources), n))
    rngs = [np.random.default_rng([seed, 101, idx])
            for idx in range(len(spec.sources))]
    freqs = _bin_freqs(n, rate)
    _pool.run(range(len(spec.sources)),
              lambda idx, ws: _render_into(spec.sources[idx].signal, n, rate,
                                           rngs[idx], freqs, signals[idx],
                                           ws),
              lambda: _RenderScratch(n))
    return {(arr.id, src.id): _ImageSource(sig, src.coupling[arr.id])
            for src, sig in zip(spec.sources, signals)
            for arr in spec.arrays}


class _Noise:
    """One array's white noise, (n, C): standard normals drawn from rng, a
    PCG64 `Generator`, in sample order, channels fastest, times level.

    One sweep here saves the generator's state at every `_NOISE_SPAN`th
    sample, so `add` draws the noise of any span again from the state
    saved before it.  Standard normals do not depend on how their draws
    are split, so a span holds what the whole noise holds there, bit for
    bit.  scratch: float, `_NOISE_SPAN` * C or more.
    """

    def __init__(self, channels: int, n: int, level: float, rng, scratch):
        self.channels, self.level, self.every = channels, level, _NOISE_SPAN
        self.states = []
        self._threads = threading.local()  # each thread's generator
        for s0 in range(0, n, self.every):
            self.states.append(rng.bit_generator.state)
            rng.standard_normal(out=scratch[:(min(s0 + self.every, n) - s0)
                                            * channels])

    def add(self, start: int, stop: int, out, z) -> None:
        """Add the noise of samples start:stop, start < stop, to out,
        (C, stop - start) float; z: contiguous float scratch of
        (stop - start) * C or more.  Allocates no array."""
        rng = getattr(self._threads, "rng", None)
        if rng is None:
            rng = self._threads.rng = np.random.default_rng(0)
        i = start // self.every
        rng.bit_generator.state = self.states[i]
        z = z.reshape(-1)
        skip = (start - i * self.every) * self.channels
        while skip:
            k = min(skip, z.shape[0])
            rng.standard_normal(out=z[:k])
            skip -= k
        z = z[:(stop - start) * self.channels].reshape(stop - start, -1)
        rng.standard_normal(out=z)
        z *= self.level
        out += z.T


class _Recording:
    """One array's recording as a sample source (`dsp._ArraySource`'s
    read(start, stop, raw, out)), (n, C), rendered span by span.

    On the nominal clock, a sample is its images' samples, read from
    parts, their sample sources in source order, added in order to
    zeros, then its noise (`_Noise`, or None for none); with a clock
    offset the recording is that mixture read at the array's clock
    through the stencils of `dsp._Clock`.  A span holds what the whole
    recording holds there, bit for bit, whatever the spans.
    """

    def __init__(self, parts, channels: int, n: int, noise, rate: float,
                 sro_hz: float = 0.0):
        self.parts, self.noise, self.rate = parts, noise, rate
        self.n_samples, self.channels = n, channels
        # the clock of the images, stacked; of silence when there is none
        self.clock = dsp._Clock(
            parts or [_ArraySource(np.broadcast_to(0.0, (n, channels)))],
            rate, sro_hz) if sro_hz else None

    def at(self, sro_hz: float) -> "_Recording":
        """The same recording at the clock offset sro_hz."""
        return _Recording(self.parts, self.channels, self.n_samples,
                          self.noise, self.rate, sro_hz)

    def scratch_floats(self, rows: int) -> int:
        """The floats of raw scratch in which `read` renders `rows`
        samples at once: on the nominal clock a part's span and what an
        image renders it in; at a clock the stencils, then the mixture's
        window, a part's and what an image renders it in."""
        C = self.channels
        if self.clock is None:
            return (C + 2) * rows
        return (self.clock.stencil_floats(rows, C)
                + (2 * C + 2) * self.clock.width(rows))

    def read(self, start: int, stop: int, raw, out, truth=None) -> None:
        """Samples start:stop into out, (C, stop - start) float, rendered
        in raw, uint8 scratch: the whole span at once when it holds
        `scratch_floats(stop - start)` floats, else a piece at a time.

        truth: None, or (t0, t1, rows): also the samples t0:t1, within
        start:stop, of the images at the array's clock into rows,
        (K * C, t1 - t0) float, image by image, from the same render
        under the same stencils (the truth that the streamed pass scores
        against, `metrics._Scores.read`).  Allocates no array.
        """
        floats, piece = raw.nbytes // 8, max(stop - start, 1)
        while self.scratch_floats(piece) > floats:
            if piece == 1:
                raise ValueError(f"{floats} floats of scratch cannot "
                                 f"render a sample")
            piece = (piece + 1) // 2
        read = self._read if self.clock is None else self._read_clocked
        for a in range(start, stop, piece):
            b = min(a + piece, stop)
            images = None
            if truth is not None:
                t0, t1, rows = truth
                lo, hi = max(t0, a), min(t1, b)
                if lo < hi:
                    images = (lo - a, hi - a, rows[:, lo - t0:hi - t0])
            read(a, b, raw, out[:, a - start:b - start], images)

    def _read(self, a: int, b: int, raw, out, images) -> None:
        """Samples a:b on the nominal clock; images: None, or (i0, i1,
        rows), the images' samples a + i0:a + i1 into rows."""
        C, r = self.channels, b - a
        at = 8 * C * r
        span = raw[:at].view(np.float64).reshape(C, r)
        out.fill(0.0)
        for k, part in enumerate(self.parts):
            part.read(a, b, raw[at:], span)
            out += span
            if images is not None:
                i0, i1, rows = images
                np.copyto(rows[k * C:(k + 1) * C], span[:, i0:i1])
        if self.noise is not None:
            self.noise.add(a, b, out, span)

    def _read_clocked(self, a: int, b: int, raw, out, images) -> None:
        """Samples a:b at the array's clock: each image's window of the
        stencils is rendered once, gathered into images' rows, (i0, i1,
        rows) as for `_read`, and added to the mixture's window, which,
        its noise added, is gathered into out."""
        C, n = self.channels, self.n_samples
        first, index, weights, tap, rest = self.clock.stencils(a, b, raw, C)
        out.fill(0.0)
        if images is not None:
            images[2].fill(0.0)
        g = index.shape[0]
        if not g:
            return
        width = int(index[-1]) + dsp._ORDER + 1
        f = rest[:16 * C * width].view(np.float64)
        mix, span = f[:C * width].reshape(C, width), f[C * width:].reshape(
            C, width)
        mix.fill(0.0)
        for k, part in enumerate(self.parts):
            dsp._read_padded(part.read, n, first, rest[f.nbytes:], span)
            mix += span
            if images is not None:
                i0, i1, rows = images
                i1 = min(i1, g)  # the later samples read zeros
                if i0 < i1:
                    dsp._gather(span, index[i0:i1], weights[:, i0:i1],
                                tap[:, :i1 - i0],
                                rows[k * C:(k + 1) * C, :i1 - i0])
        if self.noise is not None:  # on the samples the window holds
            c0 = min(max(-first, 0), width)
            c1 = min(max(n - first, c0), width)
            if c0 < c1:
                self.noise.add(first + c0, first + c1, mix[:, c0:c1], span)
        dsp._gather(mix, index, weights, tap[:, :g], out[:, :g])


def _recordings(spec: SceneSpec, seed: int, images: dict) -> dict:
    """Every array's recording (`_Recording`) at its clock offset, by
    array id in array order, over the images, sample sources keyed as
    `_image_sources` keys them.  Each array draws its noise from its own
    stream, swept once in a task on the pool (`_Noise`), so the noise
    does not depend on the clock offsets or the thread count."""
    n = spec.n_samples
    noises = [None] * len(spec.arrays)
    if spec.noise_level > 0:
        def sweep(a_idx, scratch):
            rng = np.random.default_rng(_child_seed(seed, 202, a_idx))
            noises[a_idx] = _Noise(spec.arrays[a_idx].channels, n,
                                   spec.noise_level, rng, scratch)

        _pool.run(range(len(spec.arrays)), sweep, lambda: np.empty(
            _NOISE_SPAN * max(a.channels for a in spec.arrays)))
    return {arr.id: _Recording([images[(arr.id, src.id)]
                                for src in spec.sources], arr.channels, n,
                               noise, spec.rate_hz, arr.sro_hz)
            for arr, noise in zip(spec.arrays, noises)}


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def synthesis_bytes(spec: SceneSpec) -> int:
    """The float64 samples `synthesize_scene` holds at once, in bytes.

    Every source signal, every (array, source) image and every
    recording.  Working buffers come on top, so this is a lower bound.
    `run_experiment` holds less of a scene: its source signals alone
    (see the `experiment` module).
    """
    channels = sum(a.channels for a in spec.arrays)
    n_src = len(spec.sources)
    return 8 * spec.n_samples * (n_src + (n_src + 1) * channels)


def check_seed(seed: int) -> None:
    """ConfigError unless seed may seed a scene: nonnegative."""
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")


def synthesize_scene(spec: SceneSpec, seed: int
                     ) -> tuple[SourceImageSet, dict[str, MultichannelRecording]]:
    """Render ground-truth images and per-device recordings for a scene.

    Returns images on the nominal clock and recordings with each array's
    sro_hz applied after mixing (one clock per device).  Deterministic
    given (spec, seed).  A scene whose samples (`synthesis_bytes`) exceed
    the physical memory raises ConfigError before anything is allocated,
    and so does a negative seed.

    Four rounds of tasks run on the thread pool (`_pool`): one per source
    rendering, each from its own random stream (`_image_sources`); one
    per (array, source) image, which reads its `_ImageSource` whole in
    its thread's scratch; one per array's noise sweep (`_recordings`);
    and one per `dsp._SPAN` samples of an array's recording, read from
    its `_Recording` over those images.  The calling thread allocates
    every source signal, image and recording first, so the samples do
    not depend on the thread count.  Images and recordings are (n, C)
    views of channel-major buffers.
    """
    check_seed(seed)
    need, have = synthesis_bytes(spec), _physical_memory()
    if have is not None and need > have:
        raise ConfigError(
            f"the scene needs at least {need / 2**30:.3g} GiB of samples "
            f"({spec.duration_s:g} s at {spec.rate_hz:g} Hz), more than the "
            f"{have / 2**30:.3g} GiB of physical memory")
    n, rate = spec.n_samples, spec.rate_hz
    sources = _image_sources(spec, seed)
    images = {key: np.empty((src.channels, n))
              for key, src in sources.items()}
    _pool.run(list(images),
              lambda key, raw: sources[key].read(0, n, raw, images[key]),
              lambda: np.empty(2 * n).view(np.uint8))
    sources = _recordings(spec, seed, {key: _ArraySource(x.T)
                                       for key, x in images.items()})
    mixes = {m: np.empty((rec.channels, n)) for m, rec in sources.items()}
    span = min(dsp._SPAN, n)
    _pool.run([(m, s0) for m in mixes for s0 in range(0, n, span)],
              lambda task, raw: sources[task[0]].read(
                  task[1], min(task[1] + span, n), raw,
                  mixes[task[0]][:, task[1]:task[1] + span]),
              lambda: np.empty(max(rec.scratch_floats(span)
                                   for rec in sources.values())
                               ).view(np.uint8))
    recordings = {arr.id: MultichannelRecording(
        SampledSignal(mixes[arr.id].T, rate), arr.id, arr.sro_hz)
        for arr in spec.arrays}
    return SourceImageSet({key: SampledSignal(x.T, rate)
                           for key, x in images.items()}), recordings
