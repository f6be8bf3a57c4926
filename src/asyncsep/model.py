"""Spatial covariance estimation and the two-level state spectrum model.

Per (array, source, frequency) the trainer accumulates unit-trace Hermitian
spatial covariances from training source images.  The state model holds
the long-term average spectrum of every source, from which the high/low
variance pair (10 dB above / 10 dB below the average) is derived, and one
diffuse-noise spectrum that is identical in every state and drives every
array's diagonal loading.  Each trained quantity is stored once.

Training (`_train`) reads the images a block of frames at a time through
frame readers, from STFT tensors (`train_models`) or from samples, in
arrays or WAV files (`_train_sources`), so no spectrogram of a whole
image is held, and the merged array reads its devices' frames side by
side.  Each (group, source) is one task on the pool, which makes two
passes over its own blocks of frames: the first sums each bin's energy,
which sets the silence gate; the second sums the gated outer products.
Every sum adds its frames in frame order, so the model does not depend
on the block size or the number of threads, and is the same from a
tensor as from its samples.

The spatial model holds the covariances of each device and, in a field of
its own, of the merged array, which outputs and the container name "a+b"
(`_merged_label`); only the container reader reads that name.  Device ids
hold no "+", and only `SpatialModel.check_id` says which ids are allowed.
"""

from __future__ import annotations

import io
import json
import math
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _pool, dsp
from .dsp import SpectrogramTensor, WindowSpec
from .errors import ConfigError, NumericalError

__all__ = [
    "SpatialModel",
    "StateSpectrumModel",
    "train_models",
    "save_models",
    "load_models",
    "model_summary",
    "NOISE_ID",
]

NOISE_ID = "noise"

SILENCE_GATE = 1e-6     # -60 dB relative to the per-bin average energy
VARIANCE_FLOOR = 1e-12  # relative clamp keeping state variances positive

_MAGIC = b"ASEPMODL"
_FORMAT_VERSION = 4  # 2: CRC-32; 3: merged entries; 4: each quantity once
_MAX_NDIM = 4  # the container stores (F,), (K, F) and (K, F, C, C) arrays
_UNIT_TOL = 1e-9  # Hermitian, unit-trace and PSD slack a container may hold
_FRAME_BLOCK = 16  # frames of one training task, at most


@dataclass
class SpatialModel:
    """Trained spatial parameters of every array.

    covariances: device id -> (K, F, C, C) complex, unit trace, Hermitian PSD
    merged: the same over every channel of two or more devices, in device
            id order, for the merged array; or None
    fallback_bins: (array id, source id) -> bins where training was silent
                   and the covariance fell back to identity/channels
    """

    covariances: dict[str, np.ndarray]
    source_ids: list[str]
    fallback_bins: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)
    merged: np.ndarray | None = None

    def __post_init__(self):
        _check_ids(self.covariances, self.source_ids)
        for aid, cov in self.covariances.items():
            if cov.ndim != 4 or cov.shape[0] != len(self.source_ids):
                raise ValueError(
                    f"array {aid!r}: covariances must be (K, F, C, C) with "
                    f"K={len(self.source_ids)}")
        f_counts = {c.shape[1] for c in self.covariances.values()}
        if len(f_counts) > 1:
            raise ValueError("inconsistent bin counts across arrays")
        C = sum(map(self.channels, self.covariances))
        if self.merged is not None and (len(self.covariances) < 2 or (
                self.merged.shape != (self.n_sources, self.n_bins, C, C))):
            raise ValueError(f"merged covariances must be (K, F, {C}, {C}) "
                             f"over two or more devices")

    @property
    def n_sources(self) -> int:
        return len(self.source_ids)

    @property
    def n_bins(self) -> int:
        return next(iter(self.covariances.values())).shape[1]

    @staticmethod
    def check_id(value, kind: str) -> None:
        """Raise ConfigError unless `value` may name a `kind` of id.

        kind is "device" or "source".  Ids name files, so every id is a
        non-empty str that encodes as UTF-8, is printable and holds no
        "/", "\\" or NUL.  A device id holds no "+", which joins the
        merged array's id, and no "__" nor a final "_", as it ends at the
        first "__" of `<array>__<source>.wav`.  No source is NOISE_ID.
        """
        if not isinstance(value, str) or not value:
            reason = "must be a non-empty string"
        elif not value.isprintable() or "/" in value or "\\" in value:
            # NUL and the lone surrogates, the only code points UTF-8
            # cannot encode, are not printable
            reason = "must be printable and hold no '/', '\\' or NUL"
        elif kind == "device" and "+" in value:
            reason = "contains '+', which joins the merged array's id"
        elif kind == "device" and ("__" in value or value.endswith("_")):
            reason = ("contains '__' or ends in '_', so <array>__<source>.wav "
                      "names would split in the wrong place")
        elif kind == "source" and value == NOISE_ID:
            reason = "is reserved for the noise image"
        else:
            return
        raise ConfigError(f"{kind} id {value!r} {reason}")

    def merged_covariances(self) -> np.ndarray | None:
        """`merged`; one device is its own merged array."""
        if len(self.covariances) == 1:
            return next(iter(self.covariances.values()))
        return self.merged

    def channels(self, array_id: str) -> int:
        return self.covariances[array_id].shape[2]


@dataclass
class StateSpectrumModel:
    """State-conditional source variances built from long-term spectra.

    States are one per directional source, in source order, plus one final
    noise-only state.  A source has variance sigma_high in its own state
    and sigma_low in every other, both derived from ltas.  The diffuse
    noise source keeps noise_spectrum in every state.
    """

    source_ids: list[str]
    ltas: np.ndarray            # (K, F) long-term average spectrum per source
    noise_spectrum: np.ndarray  # (F,)

    @property
    def sigma_high(self) -> np.ndarray:
        """(K, F) variance of each source in its own state."""
        return 10.0 * self.ltas

    @property
    def sigma_low(self) -> np.ndarray:
        """(K, F) variance of each source in every other state."""
        return self.ltas / 10.0

    @property
    def n_states(self) -> int:
        return len(self.source_ids) + 1

    @property
    def state_ids(self) -> list[str]:
        return list(self.source_ids) + [NOISE_ID]

    def conditional_variances(self) -> np.ndarray:
        """(S, K+1, F) variance of each source (noise last) in each state."""
        K, F = self.ltas.shape
        var = np.empty((K + 1, K + 1, F))
        var[:, :K] = self.sigma_low
        var[range(K), range(K)] = self.sigma_high
        var[:, K] = self.noise_spectrum
        return var


def _check_ids(array_ids, source_ids) -> None:
    """`SpatialModel.check_id` over the devices and the sources."""
    for m in array_ids:
        SpatialModel.check_id(m, "device")
    for k in source_ids:
        SpatialModel.check_id(k, "source")


def _merged_label(devices) -> str:
    """The id that outputs and the container give the merged array over
    `devices`; one device's is its own id."""
    return "+".join(sorted(devices))


def _entries(spatial: SpatialModel):
    """(id, covariances) of every device, then of the merged array."""
    yield from spatial.covariances.items()
    if spatial.merged is not None:
        yield _merged_label(spatial.covariances), spatial.merged


def _state_model(source_ids, power, counts, noise_gain: float
                 ) -> StateSpectrumModel:
    """The state model from each device's summed power per source.

    power: (M, K, F) summed |coefficient|^2; counts: the frames times
    channels behind each sum.  The long-term average spectrum of a
    source pools every device, in device order.
    """
    M, K, F = power.shape
    ltas = np.zeros((K, F))
    for k_idx in range(K):
        total = np.zeros(F)
        count = 0
        for i in range(M):
            total += power[i, k_idx]
            count += counts[i][k_idx]
        ltas[k_idx] = total / count

    floor = VARIANCE_FLOOR * ltas.max(axis=1, keepdims=True)
    ltas = np.maximum(ltas, floor)

    return StateSpectrumModel(list(source_ids), ltas,
                              noise_gain * ltas.mean(axis=0))


class _Sums:
    """What training sums over the frames of one (group, source).

    A group is the devices whose frames training reads side by side, in
    channel order: one device, or every device when the merged entry is
    trained.  source: the source id; parts: the frame readers of each
    part of the source's images, one per device of the group; the parts'
    frames are pooled in order.  entries: (entry id, its channels among
    the group's) of every entry trained from these frames, the devices
    first.  Pass 1 sums each entry's frame energies per bin (`energy`);
    pass 2 the gated outer products, the upper triangle of each entry's
    (C, C) as (C (C + 1) / 2, F) rows (`products`), and the frames kept
    per bin (`counts`), over `blocks`.  One task runs both passes
    (`_sum_frames`).
    """

    def __init__(self, source: str, parts: list[list],
                 entries: list[tuple[str, slice]], bins: int):
        self.source, self.parts, self.entries = source, parts, entries
        self.channels = entries[-1][1].stop
        self.n_frames = sum(p[0].n_frames for p in parts)
        E = len(entries)
        self.energy = np.zeros((E, bins))
        self.gate = np.empty((E, bins))
        self.counts = np.zeros((E, bins))
        self.products = [
            np.zeros((C * (C + 1) // 2, bins), dtype=np.complex128)
            for C in (ch.stop - ch.start for _, ch in entries)]
        # (part, n0, n1) of every block of frames n0:n1 of a part
        self.blocks = [(i, n0, min(n0 + _FRAME_BLOCK, p[0].n_frames))
                       for i, p in enumerate(parts)
                       for n0 in range(0, p[0].n_frames, _FRAME_BLOCK)]


class _Scratch:
    """One thread's scratch for the training tasks of all_sums: blocks of
    up to `_FRAME_BLOCK` frames, the readers' samples included, with
    room in plane 0 for the raw scratch their sources state."""

    def __init__(self, all_sums: list[_Sums]):
        readers = [r for sums in all_sums for part in sums.parts
                   for r in part]
        framed = [r for r in readers if r.window is not None]
        block = min(_FRAME_BLOCK, max(r.n_frames for r in readers))
        channels = max(s.channels for s in all_sums)
        entries = max(len(s.entries) for s in all_sums)
        bins = all_sums[0].energy.shape[1]
        self.samples = np.empty((0,))
        if framed:
            length = max(r.window.length for r in framed)
            rows = max([r.channels for r in framed] + [
                -(-r.raw_floats(block) // (block * length)) for r in framed])
            self.samples = np.empty((2, rows, block, length))
        self.x = np.empty((channels, block, bins), dtype=np.complex128)
        self.xw = np.empty((channels, block, bins), dtype=np.complex128)
        self.t = np.empty((block, bins), dtype=np.complex128)
        self.p = np.empty((2, block, bins))
        self.energy = np.empty((entries, block, bins))
        self.flags = np.empty((entries, bins), dtype=bool)
        self.w = np.empty((block, bins))


def _add_frames(acc, frames) -> None:
    """Add frames[0], frames[1], ... to acc, one after another, so a sum
    over frames does not depend on how they are split into blocks."""
    for row in frames:
        acc += row


def _frame_energies(sums: _Sums, i: int, n0: int, n1: int, ws):
    """Read frames n0:n1 of part i of a (group, source) into ws.x and
    return them, (C, b, F), and each entry's energy per frame and bin,
    (E, b, F): the sum of |x|^2 over its channels in channel order."""
    b = n1 - n0
    x = ws.x[:sums.channels, :b]
    lo = 0
    for reader in sums.parts[i]:
        reader.read(n0, n1, ws.samples, x[lo:lo + reader.channels])
        lo += reader.channels
    p, q = ws.p[0, :b], ws.p[1, :b]
    energy = ws.energy[:len(sums.entries), :b]
    for e, (_, ch) in enumerate(sums.entries):
        np.square(x[ch.start].real, out=energy[e])
        np.square(x[ch.start].imag, out=q)
        energy[e] += q
        for c in range(ch.start + 1, ch.stop):
            np.square(x[c].real, out=p)
            np.square(x[c].imag, out=q)
            p += q
            energy[e] += p
    return x, energy


def _add_energies(sums: _Sums, i: int, n0: int, n1: int, ws) -> None:
    """Pass 1 over one block: add its frame energies to the sums."""
    _, energy = _frame_energies(sums, i, n0, n1, ws)
    for acc, e in zip(sums.energy, energy):
        _add_frames(acc, e)


def _add_products(sums: _Sums, i: int, n0: int, n1: int, ws) -> None:
    """Pass 2 over one block: add the outer products of the frames that
    pass each entry's gate, and their counts, to the sums."""
    b = n1 - n0
    x, energy = _frame_energies(sums, i, n0, n1, ws)
    w, t = ws.w[:b], ws.t[:b]
    for e, (_, ch) in enumerate(sums.entries):
        np.greater_equal(energy[e], sums.gate[e], out=w)
        _add_frames(sums.counts[e], w)
        xe, xw = x[ch], ws.xw[:ch.stop - ch.start, :b]
        np.conjugate(xe, out=xw)
        xw *= w
        rows = iter(sums.products[e])
        for c in range(len(xe)):
            for d in range(c, len(xe)):
                np.multiply(xe[c], xw[d], out=t)
                _add_frames(next(rows), t)


def _gate(sums: _Sums, flags, names) -> None:
    """Check pass 1's energies and set the silence gate of pass 2; flags:
    (E, F) bool scratch.  An entry of non-finite energy, as one
    non-finite value makes it, raises NumericalError naming its image,
    names[(device, source)] or "device/source", the devices' first.  The
    gate is -60 dB below each bin's mean frame energy, and no frame
    passes where that mean is 0."""
    np.isfinite(sums.energy, out=flags)
    for (m, _), finite in zip(sums.entries, flags):
        if not finite.all():
            name = (names or {}).get((m, sums.source), f"{m}/{sums.source}")
            raise NumericalError(f"non-finite values in training image {name}")
    np.divide(sums.energy, sums.n_frames, out=sums.gate)
    np.less_equal(sums.gate, 0.0, out=flags)
    sums.gate *= SILENCE_GATE
    np.copyto(sums.gate, np.inf, where=flags)


def _sum_frames(sums: _Sums, ws, names) -> None:
    """One task: both passes over the blocks of one (group, source) in
    frame order, the gate (`_gate`) set between them, so each sum adds its
    frames in frame order whatever the block size and the thread count."""
    for i, n0, n1 in sums.blocks:
        _add_energies(sums, i, n0, n1, ws)
    _gate(sums, ws.flags[:len(sums.entries)], names)
    for i, n0, n1 in sums.blocks:
        _add_products(sums, i, n0, n1, ws)


def _covariances(products, counts, C: int, cov, fallback) -> None:
    """An entry's (F, C, C) unit-trace covariances from its summed outer
    products, into cov, and in fallback, (F,) bool, the bins that kept
    no frame or summed to no power and fell back to the identity / C."""
    rows = iter(products)
    for c in range(C):
        for d in range(c, C):
            row = next(rows)
            cov[:, c, d] = row
            cov[:, d, c] = row.conj()
    np.equal(counts, 0.0, out=fallback)
    kept = ~fallback
    np.divide(cov, counts[:, None, None], out=cov, where=kept[:, None, None])
    trace = cov[:, 0, 0].real.copy()
    for c in range(1, C):
        trace += cov[:, c, c].real
    powered = trace > 0.0
    np.divide(cov, trace[:, None, None], out=cov, where=powered[:, None, None])
    fallback |= ~powered
    cov[fallback] = np.eye(C) / C


def _pairs(readers) -> tuple[list[str], list[str]]:
    """Sorted device and source ids of readers, (device, source) -> a
    list of frame readers; ConfigError unless every pair is there and
    has frames, ValueError unless the bins agree everywhere and the
    channels of each device."""
    array_ids = sorted({m for (m, _) in readers})
    source_ids = sorted({k for (_, k) in readers})
    for m in array_ids:
        for k in source_ids:
            if (m, k) not in readers:
                raise ConfigError(f"missing training images for ({m!r}, {k!r})")
    for m in array_ids:
        for k in source_ids:
            if sum(r.n_frames for r in readers[(m, k)]) < 1:
                raise ConfigError(f"{(m, k)!r}: no frames to train on")
    if len({r.n_bins for rs in readers.values() for r in rs}) > 1:
        raise ValueError("inconsistent bin counts across arrays")
    for m in array_ids:
        if len({r.channels for k in source_ids for r in readers[(m, k)]}) > 1:
            raise ValueError(f"array {m!r}: training images differ in "
                             f"channel count")
    return array_ids, source_ids


def _groups(readers, array_ids, source_ids, merged: bool):
    """The entries of every group training reads (`_Sums`), and the parts
    of each of its sources: one group per device, or with the merged
    entry, one group of every device, whose images must then be of as
    many parts, each of the same frame count on every device (ConfigError
    if not)."""
    channels = {m: readers[(m, source_ids[0])][0].channels for m in array_ids}
    if not merged:
        return [([(m, slice(0, channels[m]))],
                 {k: [[r] for r in readers[(m, k)]] for k in source_ids})
                for m in array_ids]
    entries, lo = [], 0
    for m in array_ids:
        entries.append((m, slice(lo, lo + channels[m])))
        lo += channels[m]
    entries.append((_merged_label(array_ids), slice(0, lo)))
    parts = {}
    for k in source_ids:
        counts = [[r.n_frames for r in readers[(m, k)]] for m in array_ids]
        if any(c != counts[0] for c in counts):
            raise ConfigError(f"source {k!r}: cannot merge arrays "
                              f"{array_ids} of unequal frame counts {counts}")
        parts[k] = [list(p) for p in zip(*(readers[(m, k)]
                                           for m in array_ids))]
    return [(entries, parts)]


def _train(readers, noise_gain: float, include_pooled: bool, names=None
           ) -> tuple[SpatialModel, StateSpectrumModel]:
    """The training core: both models from frame readers.

    readers: (device id, source id) -> a list of frame readers of that
    image (`dsp._Reader`, `dsp._TensorReader`), whose frames are pooled
    in order.  Each (group, source) is one task on the pool
    (`_sum_frames`), which runs two passes over its blocks of frames: the
    first sums every bin's energy, which sets the silence gate and, of a
    device's entry, the long-term spectrum; the second sums the gated
    outer products.  The merged entry reads its devices' frames side by
    side.  See `train_models` for the rules and the errors; an image of
    non-finite energy is named names[key], or "device/source", the first
    in (group, source) order.
    """
    if not (math.isfinite(noise_gain) and noise_gain >= 0.0):
        raise ConfigError(f"noise gain must be finite and non-negative, "
                          f"got {noise_gain}")
    if not readers:
        raise ConfigError("no training images given")
    for m, k in readers:
        SpatialModel.check_id(m, "device")
        SpatialModel.check_id(k, "source")
    array_ids, source_ids = _pairs(readers)
    groups = _groups(readers, array_ids, source_ids,
                     include_pooled and len(array_ids) > 1)
    F = next(iter(readers.values()))[0].n_bins
    all_sums = [_Sums(k, parts[k], entries, F)
                for entries, parts in groups for k in source_ids]
    _pool.run(all_sums, lambda sums, ws: _sum_frames(sums, ws, names),
              lambda: _Scratch(all_sums))

    K, M = len(source_ids), len(array_ids)
    covariances, fallback = {}, {}
    power = np.empty((M, K, F))
    counts = np.empty((M, K), dtype=np.int64)
    for sums in all_sums:
        k = source_ids.index(sums.source)
        for e, (m, ch) in enumerate(sums.entries):
            C = ch.stop - ch.start
            if m not in covariances:
                covariances[m] = np.empty((K, F, C, C), dtype=np.complex128)
                fallback[m] = np.empty((K, F), dtype=bool)
            _covariances(sums.products[e], sums.counts[e], C,
                         covariances[m][k], fallback[m][k])
            if m in array_ids:
                i = array_ids.index(m)
                power[i, k] = sums.energy[e]
                counts[i, k] = sums.n_frames * C
    fallback_bins = {(m, k): np.flatnonzero(fell[k_idx])
                     for m, fell in fallback.items()
                     for k_idx, k in enumerate(source_ids)
                     if fell[k_idx].any()}
    by_device = {m: covariances.pop(m) for m in array_ids}  # rest: merged
    return (SpatialModel(by_device, source_ids, fallback_bins,
                         covariances.get(_merged_label(array_ids))),
            _state_model(source_ids, power, counts, noise_gain))


def train_models(training_images: dict[tuple[str, str], SpectrogramTensor],
                 noise_gain: float = 1.0, include_pooled: bool = False,
                 ) -> tuple[SpatialModel, StateSpectrumModel]:
    """Estimate spatial covariances and the state model.

    training_images maps (device id, source id) to a SpectrogramTensor, or
    to a sequence of tensors whose frames are pooled (useful for covering
    motion by training on several perturbed variants of a scene).  The
    covariances are unit-trace; the long-term average spectrum of each
    source is pooled over every device's images, and the diffuse-noise
    spectrum is the across-source mean scaled by noise_gain.

    With include_pooled=True the merged array over two or more devices
    is trained from the images side by side, channel-wise, for use by
    the static-pooled filter variant; a device's sequence must then hold
    as many tensors as every other's, each of the same frame count.
    Every id must pass `SpatialModel.check_id`, and noise_gain must be
    finite and not negative; ConfigError if not.  A tensor holding a
    non-finite value raises NumericalError.  The tensors are read a block
    of frames at a time (`_train`), so nothing of their size is copied.
    """
    return _train({key: [dsp._TensorReader(t.coeffs) for t in (
        [v] if isinstance(v, SpectrogramTensor) else v)]
        for key, v in training_images.items()}, noise_gain, include_pooled)


def _train_sources(sources: dict, window: WindowSpec, noise_gain: float = 1.0,
                   include_pooled: bool = False, names=None
                   ) -> tuple[SpatialModel, StateSpectrumModel]:
    """`train_models` of the images' `dsp.stft`s, bit for bit, with no
    spectrogram held.

    sources: (device id, source id) -> the image's (n, C) samples, a
    sample source (`dsp._ArraySource`, `audio.WavSource`,
    `scene._ImageSource`) of at least one window; ValueError if shorter.
    names: as `_train` takes them.
    """
    for key, source in sources.items():
        if source.n_samples < window.length:
            raise ValueError(f"training image {key!r} ({source.n_samples} "
                             f"samples) shorter than one frame "
                             f"({window.length} samples)")
    return _train({key: [dsp._Reader(source, window)]
                   for key, source in sources.items()},
                  noise_gain, include_pooled, names)


# ---------------------------------------------------------------------------
# versioned binary container
# ---------------------------------------------------------------------------

def _write_str(fh, s: str):
    raw = s.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)


def _read_exact(fh, n: int) -> bytes:
    at = fh.tell()
    left = len(fh.getbuffer()) - at
    if n > left:
        raise ConfigError(f"model container truncated: {n} bytes expected "
                          f"at offset {at}, {left} left")
    return fh.read(n)


def _unpack(fh, fmt: str) -> tuple:
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt)))


def _read_str(fh) -> str:
    (n,) = _unpack(fh, "<I")
    try:
        return _read_exact(fh, n).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"model container holds a malformed id: {exc}") from None


def _write_array(fh, arr: np.ndarray):
    arr = np.ascontiguousarray(arr)
    fh.write(struct.pack("<B", 1 if arr.dtype == np.complex128 else 0))
    fh.write(struct.pack("<B", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.tobytes())


def _read_array(fh) -> np.ndarray:
    is_complex, ndim = _unpack(fh, "<BB")
    if not 1 <= ndim <= _MAX_NDIM:
        raise ConfigError(f"model container holds an array of {ndim} "
                          f"dimensions at offset {fh.tell() - 1}")
    shape = _unpack(fh, f"<{ndim}I")
    dtype = np.dtype(np.complex128 if is_complex else np.float64)
    raw = _read_exact(fh, math.prod(shape) * dtype.itemsize)
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def save_models(path, spatial: SpatialModel, states: StateSpectrumModel,
                window: WindowSpec, rate_hz: float = 0.0) -> None:
    """Write both models to the versioned binary container.

    Layout (little-endian): magic, u32 version, u32 M, u32 K, u32 F,
    u32 window length, u32 hop, f64 rate; per array, each device and
    the merged array if trained, a length-prefixed id (`_merged_label`),
    u32 channel count and the (K, F, C, C) complex128 covariances
    row-major; then the source ids, the (K, F) float64 ltas and the (F,)
    float64 noise spectrum; finally the u32 CRC-32 of all the bytes
    before it.  The state variances are derived from ltas and are not
    stored.  Ids outside `SpatialModel.check_id` raise ConfigError before
    anything is written.
    """
    _check_ids(spatial.covariances, spatial.source_ids)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with io.BytesIO() as fh:
        fh.write(_MAGIC)
        entries = list(_entries(spatial))
        fh.write(struct.pack("<III", _FORMAT_VERSION, len(entries),
                             spatial.n_sources))
        fh.write(struct.pack("<III", spatial.n_bins, window.length,
                             window.hop))
        fh.write(struct.pack("<d", rate_hz))
        for m, cov in entries:
            _write_str(fh, m)
            fh.write(struct.pack("<I", cov.shape[2]))
            _write_array(fh, cov)
        for k in spatial.source_ids:
            _write_str(fh, k)
        _write_array(fh, states.ltas)
        _write_array(fh, states.noise_spectrum)
        body = fh.getvalue()
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _psd(cov: np.ndarray) -> bool:
    """No eigenvalue of a Hermitian (..., C, C) stack is below -_UNIT_TOL."""
    try:
        np.linalg.cholesky(cov + _UNIT_TOL * np.eye(cov.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def _check_container(path, intact, K, F, win_len, hop, rate_hz, devices,
                     channels, covariances, ltas, noise):
    """Check a parsed container; ConfigError naming the file if it fails.

    First the structure against the header, so a cut or a broken shape is
    reported as such; an array that is not one of `devices` must be their
    `_merged_label` and hold their channels.  The window is built last of
    these: F is then bounded by the arrays read, so a corrupt length
    cannot size an allocation.  Then the checksum (`intact`).  Last the
    values, as a container written with bad values has a valid checksum:
    the spectra and the rate must be finite and not negative, and
    covariances Hermitian with unit trace and positive semi-definite, to
    within _UNIT_TOL.
    """
    if F != win_len // 2 + 1:
        raise ConfigError(f"{path}: {F} bins do not match window length "
                          f"{win_len}")
    expected = []
    for m, C in channels.items():
        if C < 1 or m not in devices and (
                m != _merged_label(devices)
                or C != sum(channels[d] for d in devices)):
            raise ConfigError(f"{path}: array {m!r} of {C} channels is "
                              f"neither a device nor the merge of every "
                              f"stored device in id order")
        expected.append((f"array {m!r} covariances", covariances[m],
                         (K, F, C, C)))
    expected += [("ltas", ltas, (K, F)), ("noise spectrum", noise, (F,))]
    for what, arr, shape in expected:
        dtype = np.dtype(np.complex128 if len(shape) == 4 else np.float64)
        if arr.shape != shape or arr.dtype != dtype:
            raise ConfigError(f"{path}: {what}: {arr.dtype} of shape "
                              f"{arr.shape}, the header implies {dtype} of "
                              f"shape {shape}")
    try:
        WindowSpec(win_len, hop)
    except ValueError as exc:
        raise ConfigError(f"{path} records an unusable STFT window "
                          f"(length {win_len}, hop {hop}): {exc}") from None
    if not intact:
        raise ConfigError(f"{path}: checksum mismatch, the model container "
                          f"is damaged")
    for what, arr, shape in expected + [("sample rate", np.array(rate_hz), ())]:
        if not np.isfinite(arr).all():
            rule = "finite"
        elif len(shape) == 4:
            herm = np.abs(arr - arr.conj().swapaxes(2, 3)).max(initial=0.0)
            trace = np.abs(np.trace(arr, axis1=2, axis2=3) - 1.0)
            worst = max(herm, trace.max(initial=0.0))
            rule = ("Hermitian with unit trace" if worst > _UNIT_TOL
                    else None if _psd(arr) else "positive semi-definite")
        else:
            rule = "non-negative" if (arr < 0.0).any() else None
        if rule:
            raise ConfigError(f"{path}: {what} must be {rule}")


def load_models(path) -> tuple[SpatialModel, StateSpectrumModel, dict]:
    """Read a model container; returns (spatial, states, meta).

    meta carries the STFT provenance: window length, hop and sample rate.
    Any damage to the file, any value training cannot produce and any
    other container version raise ConfigError (see `_check_container`).
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"model file not found: {path}")
    raw = path.read_bytes()
    body, trailer = raw[:-4], raw[-4:]
    # parsed from memory, so a corrupt length cannot ask for a huge read;
    # the parse errors do not know the path, so it is added here
    try:
        with io.BytesIO(body) as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise ConfigError("not a model container")
            version, n_arrays, n_src = _unpack(fh, "<III")
            if version != _FORMAT_VERSION:
                raise ConfigError(
                    f"unsupported model container version {version}")
            n_bins, win_len, hop = _unpack(fh, "<III")
            (rate_hz,) = _unpack(fh, "<d")
            covariances = {}
            channels = {}
            for _ in range(n_arrays):
                m = _read_str(fh)
                if m in covariances:
                    raise ConfigError(f"array {m!r} is stored twice")
                (channels[m],) = _unpack(fh, "<I")
                covariances[m] = _read_array(fh)
            source_ids = [_read_str(fh) for _ in range(n_src)]
            ltas, noise = _read_array(fh), _read_array(fh)
            if fh.tell() != len(body):
                raise ConfigError(f"{len(body) - fh.tell()} unexpected bytes "
                                  f"after the model")
        devices = [m for m in covariances if "+" not in m]  # the rest merge
        _check_ids(devices, source_ids)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    intact = struct.pack("<I", zlib.crc32(body)) == trailer
    _check_container(path, intact, n_src, n_bins, win_len, hop, rate_hz,
                     devices, channels, covariances, ltas, noise)
    by_device = {m: covariances.pop(m) for m in devices}  # rest: merged
    spatial = SpatialModel(by_device, source_ids,
                           merged=covariances.get(_merged_label(devices)))
    states = StateSpectrumModel(source_ids, ltas, noise)
    meta = {"window_length": win_len, "hop": hop, "rate_hz": rate_hz,
            "n_bins": n_bins}
    return spatial, states, meta


def model_summary(spatial: SpatialModel, states: StateSpectrumModel) -> str:
    """Human-readable description of a trained model pair."""
    lines = ["trained separation model",
             f"  arrays:  {', '.join(spatial.covariances)}",
             f"  sources: {', '.join(spatial.source_ids)}",
             f"  bins:    {spatial.n_bins}"]
    for m, cov in _entries(spatial):
        lines.append(f"  array {m}: {cov.shape[2]} channels")
    for k_idx, k in enumerate(states.source_ids):
        lt = states.ltas[k_idx]
        lines.append(
            f"  source {k}: mean long-term power {lt.mean():.3e}, "
            f"peak {lt.max():.3e}")
    lines.append(f"  noise spectrum mean {states.noise_spectrum.mean():.3e}")
    n_fallback = sum(len(v) for v in spatial.fallback_bins.values())
    if n_fallback:
        per = {f"{m}/{k}": int(len(v))
               for (m, k), v in spatial.fallback_bins.items()}
        lines.append(f"  silent-bin fallbacks: {json.dumps(per)}")
    else:
        lines.append("  silent-bin fallbacks: none")
    return "\n".join(lines) + "\n"
