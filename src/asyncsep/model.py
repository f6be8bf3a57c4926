"""Spatial covariance estimation and the two-level state spectrum model.

Per (array, source, frequency) the trainer accumulates unit-trace Hermitian
spatial covariances from training source images.  The state model turns the
long-term average spectrum of every source into a high/low variance pair
(10 dB above / 10 dB below the average) plus a diffuse-noise spectrum that
is identical in every state.

A spatial model entry is a device, or a merged array holding the channels
of its member devices; its id joins their sorted ids with "+" ("a+b"), so
device ids may not contain "+".  Only `SpatialModel.members` splits ids.
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

from .dsp import SpectrogramTensor, WindowSpec
from .errors import ConfigError

__all__ = [
    "SpatialModel",
    "StateSpectrumModel",
    "estimate_spatial_covariance",
    "build_state_model",
    "train_models",
    "pooled_tensor",
    "save_models",
    "load_models",
    "model_summary",
    "NOISE_ID",
]

NOISE_ID = "noise"

SILENCE_GATE = 1e-6     # -60 dB relative to the per-bin average energy
VARIANCE_FLOOR = 1e-12  # relative clamp keeping state variances positive

_MAGIC = b"ASEPMODL"
_FORMAT_VERSION = 3  # 2: CRC-32 trailer; 3: merged arrays are entries
_MAX_NDIM = 4  # the container stores (F,), (K, F) and (K, F, C, C) arrays
_UNIT_TOL = 1e-9  # Hermitian and unit-trace deviation a container may hold


@dataclass
class SpatialModel:
    """Trained spatial parameters of every array.

    covariances: array id -> (K, F, C, C) complex, unit trace, Hermitian PSD
    noise_floor: array id -> (F,) diffuse-noise power used as diagonal loading
    fallback_bins: (array id, source id) -> bins where training was silent
                   and the covariance fell back to identity/channels
    An array id names a device or a merged array (see the module docstring).
    """

    covariances: dict[str, np.ndarray]
    source_ids: list[str]
    noise_floor: dict[str, np.ndarray] = field(default_factory=dict)
    fallback_bins: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for aid, cov in self.covariances.items():
            if cov.ndim != 4 or cov.shape[0] != len(self.source_ids):
                raise ValueError(
                    f"array {aid!r}: covariances must be (K, F, C, C) with "
                    f"K={len(self.source_ids)}")
        f_counts = {c.shape[1] for c in self.covariances.values()}
        if len(f_counts) > 1:
            raise ValueError("inconsistent bin counts across arrays")

    @property
    def n_sources(self) -> int:
        return len(self.source_ids)

    @property
    def n_bins(self) -> int:
        return next(iter(self.covariances.values())).shape[1]

    @staticmethod
    def members(array_id: str) -> list[str]:
        """The devices whose channels an entry holds, in channel order."""
        return array_id.split("+")

    def array_ids(self) -> list[str]:
        """The devices: every entry that is not a merged array."""
        return [a for a in self.covariances if self.members(a) == [a]]

    def merged_id(self) -> str:
        """Id of the merged array over every device; one device is its own."""
        return "+".join(sorted(self.array_ids()))

    def channels(self, array_id: str) -> int:
        return self.covariances[array_id].shape[2]


@dataclass
class StateSpectrumModel:
    """State-conditional source variances built from long-term spectra.

    States are one per directional source, in source order, plus one final
    noise-only state.  The diffuse noise source keeps noise_spectrum in
    every state.
    """

    source_ids: list[str]
    ltas: np.ndarray            # (K, F) long-term average spectrum per source
    sigma_high: np.ndarray      # (K, F)
    sigma_low: np.ndarray       # (K, F)
    noise_spectrum: np.ndarray  # (F,)

    @property
    def n_states(self) -> int:
        return len(self.source_ids) + 1

    @property
    def n_bins(self) -> int:
        return self.noise_spectrum.shape[0]

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


def _gated_mean_covariance(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average per-frame outer products per bin, skipping silent frames.

    coeffs: (N, F, C).  Frames whose energy at a bin falls below the
    silence gate relative to that bin's average are excluded.  Returns
    ((F, C, C) covariances, (F,) bool mask of bins that had no usable
    frames and fell back to identity/channels).
    """
    N, F, C = coeffs.shape
    energy = (coeffs.real ** 2 + coeffs.imag ** 2).sum(axis=2)  # (N, F)
    mean_energy = energy.mean(axis=0)  # (F,)
    keep = energy >= SILENCE_GATE * mean_energy[None, :]
    keep &= mean_energy[None, :] > 0.0

    w = keep.astype(np.float64)
    cov = np.einsum("nf,nfc,nfd->fcd", w, coeffs, coeffs.conj())
    counts = w.sum(axis=0)

    fallback = counts == 0
    good = ~fallback
    cov[good] /= counts[good, None, None]
    cov[fallback] = np.eye(C) / C

    cov = 0.5 * (cov + cov.conj().transpose(0, 2, 1))
    tr = np.einsum("fcc->f", cov).real
    pos = tr > 0
    cov[pos] /= tr[pos, None, None]
    cov[~pos] = np.eye(C) / C
    fallback |= ~pos
    return cov, fallback


def _frames_of(tensors) -> np.ndarray:
    """Concatenate the frames of one or more tensors into (N, F, C)."""
    if isinstance(tensors, SpectrogramTensor):
        return tensors.coeffs
    parts = [t.coeffs for t in tensors]
    return np.concatenate(parts, axis=0)


def estimate_spatial_covariance(
        training_images: dict[tuple[str, str], SpectrogramTensor]) -> SpatialModel:
    """Estimate unit-trace spatial covariances from training source images.

    training_images maps (device id, source id) to a SpectrogramTensor, or
    to a sequence of tensors whose frames are pooled (useful for covering
    motion by training on several perturbed variants of a scene).  A
    device id may not contain "+", which joins merged-array ids.
    """
    if not training_images:
        raise ConfigError("no training images given")
    for m, _ in training_images:
        if SpatialModel.members(m) != [m]:
            raise ConfigError(f"device id {m!r} contains '+', which joins "
                              f"the device ids of a merged array")
    return _estimate(training_images)


def _estimate(training_images) -> SpatialModel:
    """The covariances of every (array, source) entry, with zero floors."""
    array_ids = sorted({m for (m, _) in training_images})
    source_ids = sorted({k for (_, k) in training_images})
    for m in array_ids:
        for k in source_ids:
            if (m, k) not in training_images:
                raise ConfigError(f"missing training images for ({m!r}, {k!r})")

    covariances = {}
    fallback_bins = {}
    for m in array_ids:
        per_source = []
        for k in source_ids:
            coeffs = _frames_of(training_images[(m, k)])
            if coeffs.shape[0] < 1:
                raise ConfigError(f"({m!r}, {k!r}): no frames to train on")
            cov, fell = _gated_mean_covariance(coeffs)
            per_source.append(cov)
            if fell.any():
                fallback_bins[(m, k)] = np.flatnonzero(fell)
        covariances[m] = np.stack(per_source)

    floors = {m: np.zeros(cov.shape[1]) for m, cov in covariances.items()}
    return SpatialModel(covariances, source_ids, floors, fallback_bins)


def build_state_model(training_images, spatial: SpatialModel,
                      noise_gain: float = 1.0) -> StateSpectrumModel:
    """Build the high/low state variances from pooled long-term spectra.

    The long-term average spectrum of each source is pooled over all
    arrays' images; the diffuse-noise spectrum is the across-source mean
    scaled by noise_gain.
    """
    K = spatial.n_sources
    F = spatial.n_bins
    ltas = np.zeros((K, F))
    for k_idx, k in enumerate(spatial.source_ids):
        total = np.zeros(F)
        count = 0
        for m in spatial.array_ids():
            coeffs = _frames_of(training_images[(m, k)])
            total += (coeffs.real ** 2 + coeffs.imag ** 2).sum(axis=(0, 2))
            count += coeffs.shape[0] * coeffs.shape[2]
        ltas[k_idx] = total / count

    floor = VARIANCE_FLOOR * ltas.max(axis=1, keepdims=True)
    ltas = np.maximum(ltas, floor)

    noise = noise_gain * ltas.mean(axis=0)
    return StateSpectrumModel(
        source_ids=list(spatial.source_ids),
        ltas=ltas,
        sigma_high=10.0 * ltas,
        sigma_low=ltas / 10.0,
        noise_spectrum=noise,
    )


def pooled_tensor(tensors: dict[str, SpectrogramTensor],
                  order: list[str]) -> SpectrogramTensor:
    """Concatenate several arrays' tensors channel-wise (merged-array view).

    The tensors must hold the same number of frames; ConfigError if not.
    """
    parts = [tensors[m] for m in order]
    if len({t.n_frames for t in parts}) > 1:
        raise ConfigError(f"cannot merge arrays {order} of unequal frame "
                          f"counts {[t.n_frames for t in parts]}")
    coeffs = np.concatenate([t.coeffs for t in parts], axis=2)
    first = parts[0]
    return SpectrogramTensor(coeffs, first.window, first.rate_hz, first.n_samples)


def _merged_images(training_images, devices: list[str], source_id: str):
    """One source's merged-array training images, element by element."""
    seqs = [training_images[(m, source_id)] for m in devices]
    seqs = [[t] if isinstance(t, SpectrogramTensor) else list(t) for t in seqs]
    if len({len(s) for s in seqs}) > 1:
        raise ConfigError(f"source {source_id!r}: the devices hold different "
                          f"numbers of training tensors, so they cannot merge")
    merged = [pooled_tensor(dict(zip(devices, parts)), devices)
              for parts in zip(*seqs)]
    return merged[0] if len(merged) == 1 else merged


def train_models(training_images: dict[tuple[str, str], SpectrogramTensor],
                 noise_gain: float = 1.0, include_pooled: bool = False,
                 ) -> tuple[SpatialModel, StateSpectrumModel]:
    """Estimate spatial covariances and the state model in one pass.

    With include_pooled=True the merged array over every device is trained
    as one more entry, from the channel-concatenated images, for use by
    the static-pooled filter variant.  noise_gain must be finite and not
    negative; ConfigError if not.
    """
    if not (math.isfinite(noise_gain) and noise_gain >= 0.0):
        raise ConfigError(f"noise gain must be finite and non-negative, "
                          f"got {noise_gain}")
    spatial = estimate_spatial_covariance(training_images)
    states = build_state_model(training_images, spatial, noise_gain=noise_gain)
    devices, mid = spatial.array_ids(), spatial.merged_id()
    if include_pooled and len(devices) > 1:  # one device is its own merge
        merged = _estimate({(mid, k): _merged_images(training_images, devices, k)
                            for k in spatial.source_ids})
        spatial.covariances.update(merged.covariances)
        spatial.fallback_bins.update(merged.fallback_bins)
    spatial.noise_floor = {m: states.noise_spectrum.copy()
                           for m in spatial.covariances}
    return spatial, states


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
    u32 window length, u32 hop, f64 rate; per array, devices and merged
    arrays alike, a length-prefixed id, u32 channel count, the
    (K, F, C, C) complex128 covariances row-major and the (F,) float64
    noise floor; then the source ids and the state model arrays (ltas,
    sigma_high, sigma_low: (K, F); noise: (F,)); finally the u32 CRC-32
    of all the bytes before it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with io.BytesIO() as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _FORMAT_VERSION, len(spatial.covariances),
                             spatial.n_sources))
        fh.write(struct.pack("<III", spatial.n_bins, window.length,
                             window.hop))
        fh.write(struct.pack("<d", rate_hz))
        for m, cov in spatial.covariances.items():
            _write_str(fh, m)
            fh.write(struct.pack("<I", spatial.channels(m)))
            _write_array(fh, cov)
            _write_array(fh, spatial.noise_floor.get(
                m, np.zeros(spatial.n_bins)))
        for k in spatial.source_ids:
            _write_str(fh, k)
        for arr in (states.ltas, states.sigma_high, states.sigma_low,
                    states.noise_spectrum):
            _write_array(fh, arr)
        body = fh.getvalue()
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _check_container(path, intact, K, F, win_len, hop, rate_hz, channels,
                     covariances, noise_floor, state_arrays):
    """Check a parsed container; ConfigError naming the file if it fails.

    First the structure against the header, so a cut or a broken shape is
    reported as such; a merged array must merge stored devices in sorted
    order and hold their channels.  The window is built last of these: F
    is then bounded by the arrays read, so a corrupt length cannot size an
    allocation.  Then the checksum (`intact`).  Last the values, as a
    container written with bad values has a valid checksum: spectra, noise
    floors and the rate must be finite and not negative, and covariances
    Hermitian with unit trace to within _UNIT_TOL.
    """
    if F != win_len // 2 + 1:
        raise ConfigError(f"{path}: {F} bins do not match window length "
                          f"{win_len}")
    expected = []
    for m, C in channels.items():
        members = SpatialModel.members(m)
        if C < 1 or len(members) > 1 and (
                members != sorted(set(members) & set(channels))
                or C != sum(channels[d] for d in members)):
            raise ConfigError(f"{path}: array {m!r} of {C} channels is "
                              f"neither a device nor the merge of stored "
                              f"devices in id order")
        expected += [(f"array {m!r} covariances", covariances[m], (K, F, C, C)),
                     (f"array {m!r} noise floor", noise_floor[m], (F,))]
    names = ("ltas", "sigma_high", "sigma_low", "noise spectrum")
    expected += zip(names, state_arrays, ((K, F), (K, F), (K, F), (F,)))
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
            rule = "Hermitian with unit trace" if worst > _UNIT_TOL else None
        else:
            rule = "non-negative" if (arr < 0.0).any() else None
        if rule:
            raise ConfigError(f"{path}: {what} must be {rule}")


def load_models(path) -> tuple[SpatialModel, StateSpectrumModel, dict]:
    """Read a model container; returns (spatial, states, meta).

    meta carries the STFT provenance: window length, hop and sample rate.
    Any damage to the file, and any value training cannot produce, raises
    ConfigError (see `_check_container`).
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
            noise_floor = {}
            channels = {}
            for _ in range(n_arrays):
                m = _read_str(fh)
                (channels[m],) = _unpack(fh, "<I")
                covariances[m] = _read_array(fh)
                noise_floor[m] = _read_array(fh)
            source_ids = [_read_str(fh) for _ in range(n_src)]
            state_arrays = [_read_array(fh) for _ in range(4)]
            if fh.tell() != len(body):
                raise ConfigError(f"{len(body) - fh.tell()} unexpected bytes "
                                  f"after the model")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    intact = struct.pack("<I", zlib.crc32(body)) == trailer
    _check_container(path, intact, n_src, n_bins, win_len, hop, rate_hz,
                     channels, covariances, noise_floor, state_arrays)
    spatial = SpatialModel(covariances, source_ids, noise_floor=noise_floor)
    states = StateSpectrumModel(source_ids, *state_arrays)
    meta = {"window_length": win_len, "hop": hop, "rate_hz": rate_hz,
            "n_bins": n_bins}
    return spatial, states, meta


def model_summary(spatial: SpatialModel, states: StateSpectrumModel) -> str:
    """Human-readable description of a trained model pair."""
    lines = ["trained separation model",
             f"  arrays:  {', '.join(spatial.array_ids())}",
             f"  sources: {', '.join(spatial.source_ids)}",
             f"  bins:    {spatial.n_bins}"]
    for m in spatial.covariances:
        lines.append(f"  array {m}: {spatial.channels(m)} channels")
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
