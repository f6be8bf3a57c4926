"""Spatial covariance estimation and the two-level state spectrum model.

Per (array, source, frequency) the trainer accumulates unit-trace Hermitian
spatial covariances from training source images.  The state model holds
the long-term average spectrum of every source, from which the high/low
variance pair (10 dB above / 10 dB below the average) is derived, and one
diffuse-noise spectrum that is identical in every state and drives every
array's diagonal loading.  Each trained quantity is stored once.

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

from . import _pool
from .dsp import SpectrogramTensor, WindowSpec
from .errors import ConfigError

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
_BIN_BLOCK = 256  # bins of one training task, at most


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


class _Scratch:
    """One thread's scratch for `_entry_bins` tasks of up to `frames`
    frames, `bins` bins and `channels` channels."""

    def __init__(self, frames: int, bins: int, channels: int):
        tiles = frames * bins
        self.power = np.empty(tiles * channels)
        self.imag = np.empty(tiles * channels)
        self.conj = np.empty(tiles * channels, dtype=np.complex128)
        self.energy = np.empty(tiles)
        self.weight = np.empty(tiles)
        self.keep = np.empty(tiles, dtype=bool)
        self.herm = np.empty(bins * channels * channels, dtype=np.complex128)
        self.trace = np.empty(bins, dtype=np.complex128)
        self.r = np.empty((3, bins))
        self.mask = np.empty((2, bins), dtype=bool)


def _gated_mean_covariance(x, power, cov, fallback, identity, ws) -> None:
    """Average per-frame outer products per bin, skipping silent frames.

    x: (N, b, C) coefficients of b bins and power: their |x|^2.  Frames
    whose energy at a bin falls below the silence gate relative to that
    bin's average are excluded.  Writes the (b, C, C) unit-trace
    Hermitian covariances to cov and marks in fallback, (b,) bool, the
    bins that had no usable frames and fell back to identity (the (C, C)
    identity / C).  Its temporaries are slices of ws, a `_Scratch`.
    """
    N, b, C = x.shape
    energy = ws.energy[:N * b].reshape(N, b)
    np.sum(power, axis=2, out=energy)
    mean_energy, gate, counts = ws.r[:, :b]
    np.sum(energy, axis=0, out=mean_energy)
    mean_energy /= N
    np.multiply(mean_energy, SILENCE_GATE, out=gate)
    keep = ws.keep[:N * b].reshape(N, b)
    np.greater_equal(energy, gate, out=keep)
    flag = ws.mask[0, :b]
    np.greater(mean_energy, 0.0, out=flag)
    keep &= flag

    w = ws.weight[:N * b].reshape(N, b)
    np.copyto(w, keep)
    conj = ws.conj[:N * b * C].reshape(N, b, C)
    np.conjugate(x, out=conj)
    np.einsum("nf,nfc,nfd->fcd", w, x, conj, out=cov)
    np.sum(w, axis=0, out=counts)

    np.equal(counts, 0.0, out=fallback)
    np.logical_not(fallback, out=flag)
    np.divide(cov, counts[:, None, None], out=cov, where=flag[:, None, None])
    np.copyto(cov, identity, where=fallback[:, None, None])

    herm = ws.herm[:b * C * C].reshape(b, C, C)
    np.conjugate(cov.transpose(0, 2, 1), out=herm)
    np.add(cov, herm, out=herm)
    np.multiply(0.5, herm, out=cov)
    trace = ws.trace[:b]
    np.einsum("fcc->f", cov, out=trace)
    np.greater(trace.real, 0.0, out=flag)
    np.divide(cov, trace.real[:, None, None], out=cov,
              where=flag[:, None, None])
    np.logical_not(flag, out=flag)
    np.copyto(cov, identity, where=flag[:, None, None])
    fallback |= flag


def _entry_bins(job, f0: int, f1: int, ws) -> None:
    """Bins f0:f1 of one (entry, source) job of `_statistics`."""
    coeffs, cov, fallback, power, identity = job
    x = coeffs[:, f0:f1]
    N, b, C = x.shape
    p = ws.power[:N * b * C].reshape(N, b, C)
    q = ws.imag[:N * b * C].reshape(N, b, C)
    np.square(x.real, out=p)
    np.square(x.imag, out=q)
    p += q
    if power is not None:
        np.sum(p, axis=(0, 2), out=power[f0:f1])
    _gated_mean_covariance(x, p, cov[f0:f1], fallback[f0:f1], identity, ws)


def _bin_blocks(n_bins: int) -> list[tuple[int, int]]:
    """Near-equal blocks of about _BIN_BLOCK bins, and of two or more.

    numpy sums the frames of a bin in frame order while a block holds
    several bins, but pairwise in a block of one, which rounds
    differently; only a single bin is its own block.
    """
    n = max(1, min(-(-n_bins // _BIN_BLOCK), n_bins // 2))
    bounds = [n_bins * i // n for i in range(n + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _statistics(jobs) -> None:
    """Fill the outputs of every job on the pool (`_pool`).

    A job is (coeffs, cov, fallback, power, identity): the (N, F, C)
    C-contiguous training frames of one (entry, source); the (F, C, C)
    complex covariances and (F,) bool fallback mask to write; an (F,)
    float that receives |coefficient|^2 summed over frames and channels,
    or None; and the (C, C) fallback covariance.
    Each job and block of bins is one task, which writes its bins only,
    so the outputs do not depend on the thread count.
    """
    if not jobs:
        return
    blocks = _bin_blocks(jobs[0][0].shape[1])
    tasks = [(job, f0, f1) for job in jobs for f0, f1 in blocks]
    frames = max(job[0].shape[0] for job in jobs)
    channels = max(job[0].shape[2] for job in jobs)
    width = max(f1 - f0 for f0, f1 in blocks)
    _pool.run(tasks, lambda task, ws: _entry_bins(*task, ws),
              lambda: _Scratch(frames, width, channels))


def _coefficients(tensors, where) -> np.ndarray:
    """C-contiguous (N, F, C) frames of one tensor, or of a sequence of
    tensors one after another; ConfigError naming `where` when there are
    none."""
    if isinstance(tensors, SpectrogramTensor):
        coeffs = np.ascontiguousarray(tensors.coeffs)
    else:
        coeffs = np.concatenate([t.coeffs for t in tensors], axis=0)
    if coeffs.shape[0] < 1:
        raise ConfigError(f"{where!r}: no frames to train on")
    return coeffs


def _device_frames(training_images):
    """Sorted device and source ids, and the frames of every pair."""
    array_ids = sorted({m for (m, _) in training_images})
    source_ids = sorted({k for (_, k) in training_images})
    for m in array_ids:
        for k in source_ids:
            if (m, k) not in training_images:
                raise ConfigError(f"missing training images for ({m!r}, {k!r})")
    frames = {(m, k): _coefficients(training_images[(m, k)], (m, k))
              for m in array_ids for k in source_ids}
    if len({c.shape[1] for c in frames.values()}) > 1:
        raise ValueError("inconsistent bin counts across arrays")
    for m in array_ids:
        if len({frames[(m, k)].shape[2] for k in source_ids}) > 1:
            raise ValueError(f"array {m!r}: training images differ in "
                             f"channel count")
    return array_ids, source_ids, frames


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


def _merged_frames(training_images, frames, devices: list[str],
                   source_id: str) -> np.ndarray:
    """One source's (N, F, C) merged-array training frames: the devices'
    `frames` side by side; ConfigError unless the devices hold as many
    tensors, each of the same frame count."""
    seqs = [training_images[(m, source_id)] for m in devices]
    counts = [[s.n_frames] if isinstance(s, SpectrogramTensor)
              else [t.n_frames for t in s] for s in seqs]
    if any(c != counts[0] for c in counts):
        raise ConfigError(f"source {source_id!r}: cannot merge arrays "
                          f"{devices} of unequal frame counts {counts}")
    return np.concatenate([frames[(m, source_id)] for m in devices], axis=2)


def train_models(training_images: dict[tuple[str, str], SpectrogramTensor],
                 noise_gain: float = 1.0, include_pooled: bool = False,
                 ) -> tuple[SpatialModel, StateSpectrumModel]:
    """Estimate spatial covariances and the state model in one pass.

    training_images maps (device id, source id) to a SpectrogramTensor, or
    to a sequence of tensors whose frames are pooled (useful for covering
    motion by training on several perturbed variants of a scene).  The
    covariances are unit-trace; the long-term average spectrum of each
    source is pooled over every device's images, and the diffuse-noise
    spectrum is the across-source mean scaled by noise_gain.

    With include_pooled=True the merged array over two or more devices
    is trained from the images concatenated channel-wise, for use by the
    static-pooled filter variant.  Every id must pass
    `SpatialModel.check_id`, and noise_gain must be finite and not
    negative; ConfigError if not.
    """
    if not (math.isfinite(noise_gain) and noise_gain >= 0.0):
        raise ConfigError(f"noise gain must be finite and non-negative, "
                          f"got {noise_gain}")
    if not training_images:
        raise ConfigError("no training images given")
    for m, k in training_images:
        SpatialModel.check_id(m, "device")
        SpatialModel.check_id(k, "source")
    array_ids, source_ids, frames = _device_frames(training_images)
    entries = {m: [frames[(m, k)] for k in source_ids] for m in array_ids}
    if include_pooled and len(array_ids) > 1:  # one device is its own merge
        entries[_merged_label(array_ids)] = [
            _merged_frames(training_images, frames, array_ids, k)
            for k in source_ids]

    # one `_statistics` pass forms every entry's covariances and each
    # device's (K, F) summed power
    K, F = len(source_ids), frames[(array_ids[0], source_ids[0])].shape[1]
    covariances, fallback, jobs = {}, {}, []
    power = np.empty((len(array_ids), K, F))
    for i, (m, coeffs) in enumerate(entries.items()):
        C = coeffs[0].shape[2]
        covariances[m] = np.empty((K, F, C, C), dtype=np.complex128)
        fallback[m] = np.zeros((K, F), dtype=bool)
        identity = np.eye(C) / C
        for k in range(K):
            jobs.append((coeffs[k], covariances[m][k], fallback[m][k],
                         power[i, k] if i < len(array_ids) else None,
                         identity))
    _statistics(jobs)
    fallback_bins = {(m, k): np.flatnonzero(fell[k_idx])
                     for m, fell in fallback.items()
                     for k_idx, k in enumerate(source_ids)
                     if fell[k_idx].any()}
    counts = [[frames[(m, k)].shape[0] * frames[(m, k)].shape[2]
               for k in source_ids] for m in array_ids]
    by_device = {m: covariances.pop(m) for m in array_ids}  # rest: merged
    return (SpatialModel(by_device, source_ids, fallback_bins,
                         covariances.get(_merged_label(array_ids))),
            _state_model(source_ids, power, counts, noise_gain))


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
