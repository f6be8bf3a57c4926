"""Synthetic asynchronous multi-array scenes with ground-truth source images.

A scene is a declarative description of sources, arrays and their coupling
(per-channel gain, fractional delay and optional echo taps), plus per-array
sample-clock offsets.  Synthesis renders every source image exactly, mixes
them with seeded white noise, and finally resamples each array by its own
clock offset, so the ground-truth images stay on the nominal clock.

One renderer serves every caller.  The source signals are rendered
whole (`_image_sources`); each (array, source) image is a sample source
over its signal (`_ImageSource`) that renders any span of the image on
its own, and each array's mixture adds its images' spans in source order
and then draws its noise, a chunk at a time (`_mixtures`).
`synthesize_scene` reads every image whole and mixes those;
`run_experiment` holds only the sources, reads the images span by span
and mixes them without ever holding one whole.

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import _pool, dsp
from .audio import read_wav
from .dsp import SampledSignal, _ArraySource, _Delay, lagrange_resample
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
    """One thread's scratch for rendering sources of n samples."""

    def __init__(self, n: int):
        bins = n // 2 + 1
        self.a = np.empty(n + 1)
        self.b = np.empty(n)
        self.index = np.empty(n, dtype=np.intp)
        self.active = np.empty(n, dtype=bool)
        self.spectrum = np.empty(bins, dtype=np.complex128)
        self.shape = np.empty(bins)
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
    through ws, a `_RenderScratch`; params: its `_signal_numbers`."""
    band, tilt, mod = (params[k] for k in ("band_hz", "tilt_hz",
                                           "modulation_hz"))
    activity, level = params["activity"], params["level"]

    carrier, noise, env = out, ws.a[:n], ws.b
    rng.standard_normal(out=noise)
    np.fft.rfft(noise, out=ws.spectrum)
    # the tilt 1 / sqrt(1 + (f / tilt)^2), zero outside the band
    shape = ws.shape
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
        index, kept = ws.index, ws.a[:count + 1]
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


def _mix_into(out, parts, noise_level: float, rng, ws) -> None:
    """One array's mixture into out, (C, n) float, a chunk of up to
    `dsp._SPAN` samples at a time: its images' samples, read from parts,
    their sample sources, added in order to zeros, then at a positive
    level its seeded white noise, drawn in sample order (channels
    fastest), times the level.  So the samples do not depend on the chunk
    size.  ws: `_mix_scratch`.  Allocates no array."""
    C, n = out.shape
    span, raw, noise = ws
    for s0 in range(0, n, dsp._SPAN):
        s1 = min(s0 + dsp._SPAN, n)
        total, part_span = out[:, s0:s1], span[:C, :s1 - s0]
        total.fill(0.0)
        for part in parts:
            part.read(s0, s1, raw, part_span)
            total += part_span
        if noise_level > 0:
            z = noise[:(s1 - s0) * C].reshape(s1 - s0, C)
            rng.standard_normal(out=z)
            z *= noise_level
            total += z.T


def _mix_scratch(channels: int, n: int):
    """The scratch of `_mix_into` for arrays of up to `channels` channels
    and n samples."""
    rows = min(dsp._SPAN, n)
    return (np.empty((channels, rows)), np.empty(2 * rows).view(np.uint8),
            np.empty(channels * rows))


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


def _mixtures(spec: SceneSpec, seed: int, images: dict) -> list:
    """Every array's mixture of the images, sample sources keyed as
    `_image_sources` keys them, with its noise, as a (C, n) channel-major
    array, in array order; one task per array on the pool (`_mix_into`),
    each drawing its noise from its own stream."""
    n = spec.n_samples
    mixes = [np.empty((arr.channels, n)) for arr in spec.arrays]
    rngs = [np.random.default_rng(_child_seed(seed, 202, a_idx))
            for a_idx in range(len(spec.arrays))]
    _pool.run(range(len(spec.arrays)),
              lambda a_idx, ws: _mix_into(
                  mixes[a_idx],
                  [images[(spec.arrays[a_idx].id, src.id)]
                   for src in spec.sources],
                  spec.noise_level, rngs[a_idx], ws),
              lambda: _mix_scratch(
                  max((a.channels for a in spec.arrays), default=0), n))
    return mixes


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def synthesis_bytes(spec: SceneSpec) -> int:
    """The float64 samples `synthesize_scene` holds at once, in bytes.

    Every source signal, every (array, source) image and every mixture,
    plus one more recording per array for its clock resampling.  Working
    buffers come on top, so this is a lower bound.  `run_experiment`
    holds less of a scene: its sources, mixtures and resampled
    recordings, but no image (see the `experiment` module).
    """
    channels = sum(a.channels for a in spec.arrays)
    n_src = len(spec.sources)
    return 8 * spec.n_samples * (n_src + (n_src + 2) * channels)


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

    Three rounds of tasks run on the thread pool (`_pool`): one per source
    rendering, each from its own random stream (`_image_sources`); one
    per (array, source) image, which reads its `_ImageSource` whole in
    its thread's scratch; and one per array's mixture of those images
    (`_mixtures`).  The calling thread allocates every source signal,
    image and mixture first, so the samples do not depend on the thread
    count.  Images and recordings are (n, C) views of channel-major
    buffers.
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
    mixes = _mixtures(spec, seed, {key: _ArraySource(x.T)
                                   for key, x in images.items()})

    recordings = {}
    for arr, total in zip(spec.arrays, mixes):
        signal = SampledSignal(total.T, rate)
        if arr.sro_hz:  # all channels of a device share its one clock
            signal = lagrange_resample(signal, arr.sro_hz)
        recordings[arr.id] = MultichannelRecording(signal, arr.id,
                                                   arr.sro_hz)
    return SourceImageSet({key: SampledSignal(x.T, rate)
                           for key, x in images.items()}), recordings
