"""Tests for spatial covariance estimation and the state spectrum model."""

import contextlib
import io
import re
import struct
import sys
import tempfile
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asyncsep import dsp, model
from asyncsep.audio import WavSource, read_header, write_wav
from asyncsep.dsp import (SampledSignal, SpectrogramTensor, WindowSpec,
                          _ArraySource, stft)
from asyncsep.errors import ConfigError, NumericalError
from asyncsep.model import (
    SILENCE_GATE,
    SpatialModel,
    StateSpectrumModel,
    load_models,
    model_summary,
    save_models,
    train_models,
)

from conftest import (pool_run_peaks, pool_workers, rand_unit_psd,
                      regularized_sum)

WIN = WindowSpec(16, 4)  # 9 bins, keeps model tests cheap
F = WIN.length // 2 + 1


def tensor(coeffs):
    return SpectrogramTensor(np.asarray(coeffs, complex), WIN, 16000.0)


def usable_device_id(s):
    """The id rule for devices, written out independently of the library."""
    try:
        s.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return (s != "" and s.isprintable() and "__" not in s
            and not s.endswith("_") and not set(s) & set("/\\\0+"))


def gated_covariance_oracle(coeffs):
    """Brute-force reimplementation of the documented estimation rule."""
    N, nF, C = coeffs.shape
    out = np.zeros((nF, C, C), complex)
    for f in range(nF):
        energies = [sum(abs(coeffs[t, f, c]) ** 2 for c in range(C))
                    for t in range(N)]
        mean_e = sum(energies) / N
        acc = np.zeros((C, C), complex)
        count = 0
        for t in range(N):
            if mean_e > 0 and energies[t] >= SILENCE_GATE * mean_e:
                acc += np.outer(coeffs[t, f], coeffs[t, f].conj())
                count += 1
        if count == 0:
            out[f] = np.eye(C) / C
        else:
            acc /= count
            out[f] = acc / np.trace(acc).real
    return out


class TestEstimateSpatialCovariance:
    def test_single_frame_is_normalized_outer_product(self, rng):
        x = rng.standard_normal((1, F, 2)) + 1j * rng.standard_normal((1, F, 2))
        model = train_models({("a", "s"): tensor(x)})[0]
        for f in range(F):
            v = x[0, f]
            expected = np.outer(v, v.conj()) / np.vdot(v, v).real
            assert np.allclose(model.covariances["a"][0, f], expected,
                               atol=1e-12)

    def test_white_noise_converges_to_scaled_identity(self, rng):
        n_frames = 2500
        x = (rng.standard_normal((n_frames, F, 2))
             + 1j * rng.standard_normal((n_frames, F, 2))) / np.sqrt(2)
        model = train_models({("a", "s"): tensor(x)})[0]
        for f in range(F):
            dist = np.linalg.norm(model.covariances["a"][0, f] - np.eye(2) / 2)
            assert dist <= 0.1

    def test_rank_one_source_recovers_steering_vector(self, rng):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        amps = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        x = amps[:, None, None] * a[None, None, :]
        x = np.broadcast_to(x, (50, F, 3)).copy()
        model = train_models({("a", "s"): tensor(x)})[0]
        expected = np.outer(a, a.conj()) / np.vdot(a, a).real
        for f in range(F):
            assert np.abs(model.covariances["a"][0, f] - expected).max() <= 1e-6

    def test_matches_brute_force_gated_oracle(self, rng):
        x = rng.standard_normal((12, F, 2)) + 1j * rng.standard_normal((12, F, 2))
        x[3:7] *= 1e-7  # frames far below the -60 dB gate
        model = train_models({("a", "s"): tensor(x)})[0]
        oracle = gated_covariance_oracle(x)
        assert np.abs(model.covariances["a"][0] - oracle).max() <= 1e-12

    def test_all_silent_bin_falls_back_to_identity_and_is_flagged(self, rng):
        x = rng.standard_normal((6, F, 2)) + 1j * rng.standard_normal((6, F, 2))
        x[:, 4, :] = 0.0
        model, states = train_models({("a", "s"): tensor(x)})
        assert np.allclose(model.covariances["a"][0, 4], np.eye(2) / 2)
        assert list(model.fallback_bins[("a", "s")]) == [4]
        assert "fallbacks" in model_summary(model, states)

    def test_estimated_matrices_are_hermitian_psd_unit_trace(self, rng):
        imgs = {}
        for m in ("a", "b"):
            for k in ("s1", "s2"):
                x = rng.standard_normal((20, F, 2)) \
                    + 1j * rng.standard_normal((20, F, 2))
                imgs[(m, k)] = tensor(x)
        model = train_models(imgs)[0]
        for m in ("a", "b"):
            cov = model.covariances[m]
            herm = np.abs(cov - cov.conj().transpose(0, 1, 3, 2)).max()
            assert herm <= 1e-12
            for k in range(2):
                for f in range(F):
                    eig = np.linalg.eigvalsh(cov[k, f])
                    tr = np.trace(cov[k, f]).real
                    assert eig.min() >= -1e-10 * tr
                    assert abs(tr - 1.0) <= 1e-9

    def test_frame_pooling_across_training_variants(self, rng):
        x1 = rng.standard_normal((8, F, 2)) + 1j * rng.standard_normal((8, F, 2))
        x2 = rng.standard_normal((8, F, 2)) + 1j * rng.standard_normal((8, F, 2))
        pooled = train_models({("a", "s"): [tensor(x1), tensor(x2)]})[0]
        merged = train_models(
            {("a", "s"): tensor(np.concatenate([x1, x2]))})[0]
        assert np.allclose(pooled.covariances["a"], merged.covariances["a"],
                           atol=1e-14)

    def test_missing_pair_rejected(self, rng):
        x = rng.standard_normal((4, F, 2)) + 1j * rng.standard_normal((4, F, 2))
        with pytest.raises(ConfigError, match="missing training images"):
            train_models({("a", "s1"): tensor(x), ("b", "s2"): tensor(x)})

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError, match="no training images"):
            train_models({})

    def test_device_id_with_merge_separator_rejected(self, rng):
        # "a+b" names the merged array over devices a and b
        x = rng.standard_normal((4, F, 2)) + 1j * rng.standard_normal((4, F, 2))
        with pytest.raises(ConfigError, match="'a\\+b' contains '\\+'"):
            train_models({("a+b", "s"): tensor(x)})

    @pytest.mark.parametrize("device, source", [("ü_", " "),
                                                ("_", "s0")])
    def test_device_id_ending_in_underscore_rejected(self, rng, device,
                                                     source):
        # <device>__<source>.wav would read back as another pair:
        # "ü___ .wav" as ("ü", "_ "), "___s0.wav" as ("", "_s0")
        x = rng.standard_normal((4, F, 2)) + 1j * rng.standard_normal((4, F, 2))
        with pytest.raises(ConfigError, match=re.escape(
                f"device id {device!r} contains '__' or ends in '_'")):
            train_models({(device, source): tensor(x)})


class TestBuildStateModel:
    def _states_for(self, coeffs_by_source):
        return train_models({("a", k): tensor(v)
                             for k, v in coeffs_by_source.items()})[1]

    def test_unit_spectrum_gives_ten_and_tenth(self, rng):
        x = np.full((5, F, 1), 1.0 + 0.0j)
        states = self._states_for({"s": x})
        assert np.allclose(states.sigma_high[0], 10.0)
        assert np.allclose(states.sigma_low[0], 0.1)

    def test_high_low_ratio_is_hundred(self, rng):
        x = rng.standard_normal((10, F, 2)) + 1j * rng.standard_normal((10, F, 2))
        states = self._states_for({"s": x})
        ratio = states.sigma_high / states.sigma_low
        assert np.allclose(ratio, 100.0, rtol=1e-12)

    def test_noise_spectrum_is_mean_of_source_spectra(self, rng):
        imgs = {("a", "s1"): tensor(np.full((4, F, 1), 2.0 + 0.0j)),
                ("a", "s2"): tensor(np.full((4, F, 1), 4.0 + 0.0j))}
        states = train_models(imgs)[1]
        assert np.allclose(states.ltas[0], 4.0)
        assert np.allclose(states.ltas[1], 16.0)
        assert np.allclose(states.noise_spectrum, 10.0)
        half = train_models(imgs, noise_gain=0.5)[1]
        assert np.allclose(half.noise_spectrum, 5.0)

    def test_zero_bins_clamped_to_relative_floor(self, rng):
        x = np.zeros((4, F, 1), complex)
        x[:, 0, 0] = 1.0  # single active bin fixes the clamp scale
        states = self._states_for({"s": x})
        assert states.ltas[0, 0] == pytest.approx(1.0)
        assert np.all(states.ltas[0, 1:] == 1e-12 * states.ltas[0].max())

    def test_all_zero_source_still_yields_valid_model(self, rng):
        states = self._states_for({"s": np.zeros((4, F, 1), complex)})
        assert np.isfinite(states.conditional_variances()).all()
        assert (states.ltas >= 0).all()

    def test_pooling_across_arrays(self, rng):
        # lambda pools frames and channels of every array's image
        imgs = {("a", "s"): tensor(np.full((4, F, 1), 1.0 + 0.0j)),
                ("b", "s"): tensor(np.full((4, F, 1), 3.0 + 0.0j))}
        states = train_models(imgs)[1]
        assert np.allclose(states.ltas[0], (1.0 + 9.0) / 2)

    def test_image_scaling_moves_spectra_not_covariances(self, rng):
        x = rng.standard_normal((15, F, 2)) + 1j * rng.standard_normal((15, F, 2))
        i1 = {("a", "s"): tensor(x)}
        i2 = {("a", "s"): tensor(3.0 * x)}
        m1, s1 = train_models(i1)
        m2, s2 = train_models(i2)
        assert np.allclose(m1.covariances["a"], m2.covariances["a"], atol=1e-12)
        assert np.allclose(s2.ltas, 9.0 * s1.ltas, rtol=1e-12)


class TestRegularizedSum:
    def _spatial(self, cov_by_source):
        cov = np.stack([np.broadcast_to(c, (F,) + c.shape).copy()
                        for c in cov_by_source])
        return SpatialModel({"a": cov},
                            [f"s{i}" for i in range(len(cov_by_source))])

    def test_single_source_identity_over_two(self):
        spatial = self._spatial([np.eye(2) / 2])
        S = regularized_sum(spatial, [1.0], "a", 0, noise_power=0.0)
        assert np.allclose(S, np.eye(2) / 2 + 1e-9 * np.eye(2), atol=1e-15)

    def test_zero_powers_noise_only(self):
        spatial = self._spatial([np.eye(2) / 2])
        p = 0.8
        S = regularized_sum(spatial, [0.0], "a", 0, noise_power=p)
        assert np.allclose(S, (p / 2 + 1e-9 * p) * np.eye(2), atol=1e-15)

    def test_matches_brute_force_and_is_positive_definite(self, rng):
        mats = [rand_unit_psd(rng, 3) for _ in range(4)]
        spatial = self._spatial(mats)
        powers = rng.uniform(0.0, 2.0, 4)
        noise = 0.3
        S = regularized_sum(spatial, powers, "a", 2, noise_power=noise)
        expected = sum(p * m for p, m in zip(powers, mats))
        trace = np.trace(expected).real + noise
        expected = expected + (noise / 3 + 1e-9 * trace) * np.eye(3)
        assert np.abs(S - expected).max() <= 1e-12
        assert np.linalg.eigvalsh(S).min() > 0
        np.linalg.cholesky(S)  # must succeed

    def test_fully_degenerate_input_still_invertible(self):
        spatial = self._spatial([np.eye(2) / 2])
        S = regularized_sum(spatial, [0.0], "a", 0, noise_power=0.0)
        np.linalg.cholesky(S)

    def test_random_nonnegative_powers_always_cholesky_safe(self, rng):
        mats = [rand_unit_psd(rng, 2) for _ in range(3)]
        spatial = self._spatial(mats)
        for _ in range(50):
            powers = np.exp(rng.uniform(-20, 5, 3)) * rng.integers(0, 2, 3)
            S = regularized_sum(spatial, powers, "a", 1,
                                noise_power=float(np.exp(rng.uniform(-20, 2))))
            np.linalg.cholesky(S)


class TestPersistence:
    def _trained(self, rng, pooled=False, devices=("a", "b")):
        imgs = {}
        for m in devices:
            for k in ("s1", "s2"):
                x = rng.standard_normal((10, F, 2)) \
                    + 1j * rng.standard_normal((10, F, 2))
                imgs[(m, k)] = tensor(x)
        return train_models(imgs, include_pooled=pooled)

    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        spatial, states = self._trained(rng, pooled=True)
        path = tmp_path / "model.bin"
        save_models(path, spatial, states, window=WIN, rate_hz=16000.0)
        spatial2, states2, meta = load_models(path)
        assert meta["window_length"] == WIN.length and meta["hop"] == WIN.hop
        assert meta["rate_hz"] == 16000.0
        assert spatial2.source_ids == spatial.source_ids
        assert list(spatial2.covariances) == ["a", "b"]
        for m in spatial.covariances:
            assert np.array_equal(spatial.covariances[m],
                                  spatial2.covariances[m])
        assert np.array_equal(spatial.merged, spatial2.merged)
        for attr in ("ltas", "sigma_high", "sigma_low", "noise_spectrum"):
            assert np.array_equal(getattr(states, attr), getattr(states2, attr))

    def test_rank_deficient_covariances_load(self, rng, tmp_path):
        # one frame of two channels: every covariance is rank one, so its
        # smallest eigenvalue is zero up to rounding
        imgs = {("a", k): tensor(rng.standard_normal((1, F, 2))
                                 + 1j * rng.standard_normal((1, F, 2)))
                for k in ("s1", "s2")}
        spatial, states = train_models(imgs)
        assert np.abs(np.linalg.det(spatial.covariances["a"])).max() < 1e-12
        save_models(tmp_path / "model.bin", spatial, states, window=WIN)
        spatial2, _, _ = load_models(tmp_path / "model.bin")
        assert np.array_equal(spatial2.covariances["a"],
                              spatial.covariances["a"])

    @pytest.mark.parametrize("eigenvalue, refused", [(-1e-10, False),
                                                     (-1e-8, True)])
    def test_covariances_psd_to_within_tolerance(self, rng, tmp_path,
                                                 eigenvalue, refused):
        spatial, states = self._trained(rng)
        spatial.covariances["b"][1, 3] = np.diag([1.0 - eigenvalue,
                                                  eigenvalue])
        path = tmp_path / "model.bin"
        save_models(path, spatial, states, window=WIN)
        if refused:
            with pytest.raises(ConfigError, match=re.escape(
                    f"{path}: array 'b' covariances must be positive "
                    f"semi-definite")):
                load_models(path)
        else:
            load_models(path)

    def test_garbage_file_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"not a model at all")
        with pytest.raises(ConfigError, match="not a model container"):
            load_models(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_models(tmp_path / "absent.bin")

    def test_summary_mentions_arrays_and_sources(self, rng):
        spatial, states = self._trained(rng)
        text = model_summary(spatial, states)
        for token in ("a, b", "s1, s2", "noise spectrum"):
            assert token in text

    def test_summary_lists_the_merged_entry_as_an_array(self, rng):
        spatial, states = self._trained(rng, pooled=True)
        text = model_summary(spatial, states)
        assert "arrays:  a, b\n" in text
        assert "array a+b: 4 channels" in text

    @settings(max_examples=60, deadline=None)
    @given(n_src=st.integers(1, 4), hop=st.integers(1, 8),
           channels=st.dictionaries(
               st.text(st.characters(exclude_characters="+"), max_size=6),
               st.integers(1, 4), min_size=1, max_size=3),
           merged=st.booleans(), rate=st.floats(0.0, 1e6),
           seed=st.integers(0, 2**32 - 1))
    @example(n_src=1, hop=1, channels={"\ud800": 1}, merged=False, rate=0.0,
             seed=0)
    def test_round_trip_of_random_layouts_is_bit_exact(
            self, n_src, hop, channels, merged, rate, seed):
        rng = np.random.default_rng(seed)
        window = WindowSpec(4 * hop, hop)
        n_bins = 2 * hop + 1
        usable = all(map(usable_device_id, channels))

        def unit_psd(C):
            shape = (n_src, n_bins, C, C)
            A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            R = A @ A.conj().swapaxes(2, 3)
            return R / np.trace(R, axis1=2, axis2=3)[..., None, None]

        covariances = {m: unit_psd(C) for m, C in channels.items()}
        # one device is its own merged array
        merged = (unit_psd(sum(channels.values()))
                  if merged and len(channels) > 1 else None)
        source_ids = [f"s{k}" for k in range(n_src)]
        if not usable:
            # ids outside the rule are refused, never written
            with pytest.raises(ConfigError, match="device id"):
                SpatialModel(covariances, source_ids, merged=merged)
            bad = next(m for m in channels if not usable_device_id(m))
            x = np.ones((2, n_bins, 1), complex)
            with pytest.raises(ConfigError, match="device id"):
                train_models({(bad, "s0"): SpectrogramTensor(x, window, 1.0)})
            return
        spatial = SpatialModel(covariances, source_ids, merged=merged)
        states = StateSpectrumModel(source_ids,
                                    rng.uniform(0.0, 1.0, (n_src, n_bins)),
                                    rng.uniform(0.0, 1.0, n_bins))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.bin"
            save_models(path, spatial, states, window=window, rate_hz=rate)
            spatial2, states2, meta = load_models(path)
        assert meta == {"window_length": 4 * hop, "hop": hop,
                        "rate_hz": rate, "n_bins": n_bins}
        assert spatial2.source_ids == source_ids
        assert list(spatial2.covariances) == list(channels)
        for m in channels:
            assert spatial2.covariances[m].dtype == np.complex128
            assert np.array_equal(spatial2.covariances[m], covariances[m])
        if merged is None:
            assert spatial2.merged is None
        else:
            assert spatial2.merged.dtype == np.complex128
            assert np.array_equal(spatial2.merged, merged)
        for attr in ("ltas", "sigma_high", "sigma_low", "noise_spectrum"):
            assert np.array_equal(getattr(states2, attr),
                                  getattr(states, attr))

    @pytest.mark.parametrize("merged_id, channels, devices", [
        ("a+c", 4, "ab"),   # c is not stored
        ("b+a", 4, "ab"),   # not in sorted id order
        ("a+a", 4, "ab"),   # a device twice
        ("a+b", 3, "ab"),   # a and b hold 4 channels
        ("a+b", 4, "abc"),  # c is stored but not merged
    ], ids=["a+c-4", "b+a-4", "a+a-4", "a+b-3", "a+b-4-abc"])
    def test_merged_entry_must_merge_stored_devices(self, rng, tmp_path,
                                                    merged_id, channels,
                                                    devices):
        spatial, states = self._trained(rng, devices=tuple(devices))
        cov = np.broadcast_to(np.eye(channels) / channels,
                              (2, F, channels, channels))
        path = tmp_path / "model.bin"
        save_models(path, spatial, states, window=WIN)
        path.write_bytes(_with_entry(path.read_bytes(), merged_id,
                                     cov.astype(complex)))
        with pytest.raises(ConfigError, match=re.escape(
                f"array {merged_id!r} of {channels} channels is neither")):
            load_models(path)


    @pytest.mark.parametrize("devices, channels", [
        ("ab", 3),  # a and b hold 4 channels
        ("ab", 5),
        ("a", 2),   # one device is its own merged array
    ])
    def test_merged_covariances_must_hold_the_devices_channels(
            self, rng, devices, channels):
        spatial, _ = self._trained(rng, devices=tuple(devices))
        merged = np.broadcast_to(np.eye(channels) / channels,
                                 (2, F, channels, channels)).astype(complex)
        C = 2 * len(devices)
        with pytest.raises(ValueError, match=re.escape(
                f"merged covariances must be (K, F, {C}, {C}) over two or "
                f"more devices")):
            SpatialModel(spatial.covariances, spatial.source_ids,
                         merged=merged)

    def test_array_stored_twice_rejected(self, rng, tmp_path):
        # a second "a" entry replaced the first one's covariances
        spatial, states = self._trained(rng)
        path = tmp_path / "model.bin"
        save_models(path, spatial, states, window=WIN)
        path.write_bytes(_with_entry(path.read_bytes(), "a",
                                     spatial.covariances["b"]))
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: array 'a' is stored twice")):
            load_models(path)


def _with_entry(raw: bytes, entry_id: str, cov: np.ndarray) -> bytes:
    """A container with one more array, `entry_id` holding `cov`, after
    the others, and its CRC-32 recomputed; the sources must be s1, s2."""
    body = raw[:-4]
    at = body.index(struct.pack("<I", 2) + b"s1")  # the first source id
    (n_arrays,) = struct.unpack("<I", body[12:16])
    with io.BytesIO() as fh:
        model._write_str(fh, entry_id)
        fh.write(struct.pack("<I", cov.shape[2]))
        model._write_array(fh, cov)
        entry = fh.getvalue()
    body = (body[:12] + struct.pack("<I", n_arrays + 1) + body[16:at] + entry
            + body[at:])
    return body + struct.pack("<I", zlib.crc32(body))


class TestPooled:
    def test_pooled_covariance_equals_merged_channel_training(self, rng):
        imgs = {}
        raw = {}
        for m in ("a", "b"):
            x = rng.standard_normal((10, F, 2)) \
                + 1j * rng.standard_normal((10, F, 2))
            raw[m] = x
            imgs[(m, "s")] = tensor(x)
        spatial, _ = train_models(imgs, include_pooled=True)
        merged = np.concatenate([raw["a"], raw["b"]], axis=2)
        direct = train_models({("p", "s"): tensor(merged)})[0]
        assert np.allclose(spatial.merged,
                           direct.covariances["p"], atol=1e-12)

    def test_pooled_tensor_refuses_unequal_frame_counts(self, rng):
        ta = tensor(rng.standard_normal((4, F, 2)) * (1 + 0j))
        tb = tensor(rng.standard_normal((5, F, 1)) * (1 + 0j))
        with pytest.raises(ConfigError, match="unequal frame counts"):
            train_models({("a", "s"): ta, ("b", "s"): tb}, include_pooled=True)

    def test_sequences_merge_element_by_element(self, rng):
        # every element of a device's sequence trains the merged entry
        def x(n):
            return rng.standard_normal((n, F, 2)) \
                + 1j * rng.standard_normal((n, F, 2))

        raw = {m: [x(6), x(9)] for m in ("a", "b")}
        imgs = {(m, "s"): [tensor(v) for v in vs] for m, vs in raw.items()}
        spatial, _ = train_models(imgs, include_pooled=True)
        direct = train_models({("p", "s"): [
            tensor(np.concatenate([raw["a"][i], raw["b"][i]], axis=2))
            for i in range(2)]})[0]
        assert np.allclose(spatial.merged,
                           direct.covariances["p"], atol=1e-12)

    def test_sequences_of_unequal_length_refused(self, rng):
        x = rng.standard_normal((4, F, 2)) + 1j * rng.standard_normal((4, F, 2))
        imgs = {("a", "s"): [tensor(x), tensor(x)], ("b", "s"): tensor(x)}
        with pytest.raises(ConfigError, match="cannot merge"):
            train_models(imgs, include_pooled=True)


class TestTrainingTasks:
    """One task per (group, source) on the pool, each of two passes over
    its blocks of frames, from tensors, arrays or WAV files."""

    WIN = WindowSpec(256, 64)  # 129 bins
    N = 2000  # samples: 37 frames, three blocks of 16

    def _signals(self, seed):
        """float32-exact images, so a float32 WAV file holds them."""
        rng = np.random.default_rng(seed)
        signals = {}
        for m, C in (("a", 1), ("b", 2), ("c", 3)):
            for k in ("s1", "s2"):
                x = rng.standard_normal((self.N, C))
                x[700:1300] *= 1e-7  # frames below the gate
                signals[(m, k)] = x.astype(np.float32).astype(float)
        signals[("c", "s2")][:] = 0.0  # every bin falls back
        return signals

    def _train(self, path, signals, tmp_path, workers, pooled, block):
        with pool_workers(workers), pytest.MonkeyPatch.context() as mp, \
                contextlib.ExitStack() as stack:
            if block is not None:
                mp.setattr(model, "_FRAME_BLOCK", block)
            kwargs = dict(noise_gain=0.5, include_pooled=pooled)
            if path == "tensor":
                return train_models({
                    key: stft(SampledSignal(x, 16000.0), self.WIN)
                    for key, x in signals.items()}, **kwargs)
            if path == "array":
                sources = {key: _ArraySource(x) for key, x in signals.items()}
            else:
                sources = {}
                for key, x in signals.items():
                    wav = tmp_path / f"{key[0]}__{key[1]}.wav"
                    write_wav(wav, SampledSignal(x, 16000.0))
                    sources[key] = stack.enter_context(
                        WavSource(read_header(wav)))
            return model._train_sources(sources, self.WIN, **kwargs)

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("path", ["tensor", "array"])
    def test_non_finite_image_refused(self, tmp_path, path, pooled):
        # one NaN sample gave non-finite spectra, and every bin of its
        # image fell back, with no error; the merged entry names the
        # device.  Of two, the first in (group, source) order is named:
        # b/s2 before c/s1 by device, and c/s1 first in the merged group
        signals = self._signals(0)
        signals[("b", "s2")][100, 1] = np.nan
        signals[("c", "s1")][1500, 2] = np.nan
        first = "c/s1" if pooled else "b/s2"
        for workers in (1, 3):
            with pytest.raises(NumericalError,
                               match=f"training image {first}$"):
                self._train(path, signals, tmp_path, workers, pooled, None)

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equal_for_any_worker_count_and_block(self, seed, pooled,
                                                  tmp_path):
        signals = self._signals(seed)
        want_s, want_t = self._train("tensor", signals, tmp_path, 1, pooled,
                                     None)
        assert list(want_s.covariances) == ["a", "b", "c"]
        assert (want_s.merged is not None) == pooled
        assert list(want_s.fallback_bins) == [("c", "s2")]
        for path in ("tensor", "array", "wav"):
            # 7 workers: more than the (group, source) pairs
            for workers, block in ((1, None), (3, None), (7, None), (1, 1),
                                   (3, 1), (1, 2), (3, 2), (7, 2),
                                   (1, 10**6), (3, 10**6)):
                got_s, got_t = self._train(path, signals, tmp_path,
                                           workers, pooled, block)
                assert list(got_s.covariances) == list(want_s.covariances)
                for m, cov in want_s.covariances.items():
                    assert np.array_equal(got_s.covariances[m], cov)
                if pooled:
                    assert np.array_equal(got_s.merged, want_s.merged)
                assert list(got_s.fallback_bins) == \
                    list(want_s.fallback_bins)
                for key, bins in want_s.fallback_bins.items():
                    assert np.array_equal(got_s.fallback_bins[key], bins)
                assert np.array_equal(got_t.ltas, want_t.ltas)
                assert np.array_equal(got_t.noise_spectrum,
                                      want_t.noise_spectrum)

    def test_on_more_threads_than_cores(self, tmp_path):
        # each (group, source)'s sums are its task's alone; a lost or
        # reordered add changes the bits
        signals = self._signals(3)
        want_s, want_t = self._train("array", signals, tmp_path, 1, True, 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got_s, got_t = self._train("array", signals, tmp_path, 8, True,
                                       2)
        finally:
            sys.setswitchinterval(interval)
        for m, cov in want_s.covariances.items():
            assert np.array_equal(got_s.covariances[m], cov)
        assert np.array_equal(got_s.merged, want_s.merged)
        assert np.array_equal(got_t.ltas, want_t.ltas)

    def test_a_failed_task_releases_the_tasks_that_wait(self, monkeypatch):
        # a read that fails ends its (group, source)'s task; the other
        # tasks return, and its error is raised
        real, calls, errors = dsp._TensorReader.read, [], []

        def failing(self, *args):
            calls.append(1)
            if len(calls) == 7:
                raise RuntimeError("injected")
            return real(self, *args)

        monkeypatch.setattr(dsp._TensorReader, "read", failing)
        monkeypatch.setattr(model, "_FRAME_BLOCK", 1)
        imgs = {key: stft(SampledSignal(x, 16000.0), self.WIN)
                for key, x in self._signals(4).items()}

        def run():
            try:
                with pool_workers(3):
                    train_models(imgs, include_pooled=True)
            except RuntimeError as exc:
                errors.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(60)
        assert not thread.is_alive()
        assert [str(e) for e in errors] == ["injected"]

    @pytest.mark.parametrize("pooled", [False, True])
    def test_tasks_allocate_no_arrays(self, rng, monkeypatch, pooled):
        window = WindowSpec(4096, 1024)  # 45 frames of 2049 bins
        sources = {(m, k): _ArraySource(rng.standard_normal((40 * 1024, C)))
                   for m, C in (("a", 1), ("b", 2), ("c", 3))
                   for k in ("s1", "s2")}
        peaks = pool_run_peaks(monkeypatch, lambda: model._train_sources(
            sources, window, include_pooled=pooled))
        assert len(peaks) == 1  # one task per (group, source)
        # the smallest array a task could allocate: one (8, F) bool plane
        assert max(peaks) < 8 * 2049, peaks

    @pytest.mark.parametrize("pooled", [False, True])
    def test_sequences_equal_for_any_worker_count_and_block(self, rng,
                                                            pooled):
        # the parts of a sequence are pooled in order, whatever the blocks
        def x(n, C):
            return rng.standard_normal((n, F, C)) \
                + 1j * rng.standard_normal((n, F, C))

        imgs = {(m, k): [tensor(x(n, C)) for n in (5, 0, 19)]
                for m, C in (("a", 1), ("b", 2)) for k in ("s1", "s2")}
        results = []
        for workers, block in ((1, None), (3, 1), (1, 2), (3, 10**6)):
            with pool_workers(workers), pytest.MonkeyPatch.context() as mp:
                if block is not None:
                    mp.setattr(model, "_FRAME_BLOCK", block)
                results.append(train_models(imgs, include_pooled=pooled))
        for spatial, states in results[1:]:
            for m, cov in results[0][0].covariances.items():
                assert np.array_equal(spatial.covariances[m], cov)
            if pooled:
                assert np.array_equal(spatial.merged, results[0][0].merged)
            assert np.array_equal(states.ltas, results[0][1].ltas)

    def test_unequal_bins_or_channels_refused(self, rng):
        x = rng.standard_normal((4, F, 2)) + 1j * rng.standard_normal((4, F, 2))
        wide = SpectrogramTensor(np.ones((4, 9, 3), complex), WIN, 16000.0)
        with pytest.raises(ValueError, match="channel count"):
            train_models({("a", "s1"): tensor(x), ("a", "s2"): wide})
        other = SpectrogramTensor(np.ones((4, 17, 2), complex),
                                  WindowSpec(32, 8), 16000.0)
        with pytest.raises(ValueError, match="bin counts"):
            train_models({("a", "s"): tensor(x), ("b", "s"): other})


@pytest.mark.parametrize("gain", [np.nan, np.inf, -1.0])
def test_train_models_refuses_bad_noise_gain(rng, gain):
    x = rng.standard_normal((4, F, 2)) + 1j * rng.standard_normal((4, F, 2))
    with pytest.raises(ConfigError, match="noise gain"):
        train_models({("a", "s"): tensor(x)}, noise_gain=gain)
