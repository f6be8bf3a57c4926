"""Tests for spatial covariance estimation and the state spectrum model."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsep.dsp import SpectrogramTensor, WindowSpec
from asyncsep.errors import ConfigError
from asyncsep.model import (
    SILENCE_GATE,
    SpatialModel,
    StateSpectrumModel,
    build_state_model,
    estimate_spatial_covariance,
    load_models,
    model_summary,
    pooled_tensor,
    save_models,
    train_models,
)

from conftest import rand_unit_psd, regularized_sum

WIN = WindowSpec(16, 4)  # 9 bins, keeps model tests cheap
F = WIN.length // 2 + 1


def tensor(coeffs):
    return SpectrogramTensor(np.asarray(coeffs, complex), WIN, 16000.0)


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
        model = estimate_spatial_covariance({("a", "s"): tensor(x)})
        for f in range(F):
            v = x[0, f]
            expected = np.outer(v, v.conj()) / np.vdot(v, v).real
            assert np.allclose(model.covariances["a"][0, f], expected,
                               atol=1e-12)

    def test_white_noise_converges_to_scaled_identity(self, rng):
        n_frames = 2500
        x = (rng.standard_normal((n_frames, F, 2))
             + 1j * rng.standard_normal((n_frames, F, 2))) / np.sqrt(2)
        model = estimate_spatial_covariance({("a", "s"): tensor(x)})
        for f in range(F):
            dist = np.linalg.norm(model.covariances["a"][0, f] - np.eye(2) / 2)
            assert dist <= 0.1

    def test_rank_one_source_recovers_steering_vector(self, rng):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        amps = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        x = amps[:, None, None] * a[None, None, :]
        x = np.broadcast_to(x, (50, F, 3)).copy()
        model = estimate_spatial_covariance({("a", "s"): tensor(x)})
        expected = np.outer(a, a.conj()) / np.vdot(a, a).real
        for f in range(F):
            assert np.abs(model.covariances["a"][0, f] - expected).max() <= 1e-6

    def test_matches_brute_force_gated_oracle(self, rng):
        x = rng.standard_normal((12, F, 2)) + 1j * rng.standard_normal((12, F, 2))
        x[3:7] *= 1e-7  # frames far below the -60 dB gate
        model = estimate_spatial_covariance({("a", "s"): tensor(x)})
        oracle = gated_covariance_oracle(x)
        assert np.abs(model.covariances["a"][0] - oracle).max() <= 1e-12

    def test_all_silent_bin_falls_back_to_identity_and_is_flagged(self, rng):
        x = rng.standard_normal((6, F, 2)) + 1j * rng.standard_normal((6, F, 2))
        x[:, 4, :] = 0.0
        model = estimate_spatial_covariance({("a", "s"): tensor(x)})
        assert np.allclose(model.covariances["a"][0, 4], np.eye(2) / 2)
        assert list(model.fallback_bins[("a", "s")]) == [4]
        assert "fallbacks" in model_summary(
            model, build_state_model({("a", "s"): tensor(x)}, model))

    def test_estimated_matrices_are_hermitian_psd_unit_trace(self, rng):
        imgs = {}
        for m in ("a", "b"):
            for k in ("s1", "s2"):
                x = rng.standard_normal((20, F, 2)) \
                    + 1j * rng.standard_normal((20, F, 2))
                imgs[(m, k)] = tensor(x)
        model = estimate_spatial_covariance(imgs)
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
        pooled = estimate_spatial_covariance(
            {("a", "s"): [tensor(x1), tensor(x2)]})
        merged = estimate_spatial_covariance(
            {("a", "s"): tensor(np.concatenate([x1, x2]))})
        assert np.allclose(pooled.covariances["a"], merged.covariances["a"],
                           atol=1e-14)

    def test_missing_pair_rejected(self, rng):
        x = rng.standard_normal((4, F, 2)) + 1j * rng.standard_normal((4, F, 2))
        with pytest.raises(ConfigError, match="missing training images"):
            estimate_spatial_covariance({("a", "s1"): tensor(x),
                                         ("b", "s2"): tensor(x)})

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError, match="no training images"):
            estimate_spatial_covariance({})

    def test_device_id_with_merge_separator_rejected(self, rng):
        # "a+b" names the merged array over devices a and b
        x = rng.standard_normal((4, F, 2)) + 1j * rng.standard_normal((4, F, 2))
        with pytest.raises(ConfigError, match="'a\\+b' contains '\\+'"):
            estimate_spatial_covariance({("a+b", "s"): tensor(x)})


class TestBuildStateModel:
    def _model_for(self, coeffs_by_source, rng):
        imgs = {("a", k): tensor(v) for k, v in coeffs_by_source.items()}
        spatial = estimate_spatial_covariance(imgs)
        return imgs, spatial

    def test_unit_spectrum_gives_ten_and_tenth(self, rng):
        x = np.full((5, F, 1), 1.0 + 0.0j)
        imgs, spatial = self._model_for({"s": x}, rng)
        states = build_state_model(imgs, spatial)
        assert np.allclose(states.sigma_high[0], 10.0)
        assert np.allclose(states.sigma_low[0], 0.1)

    def test_high_low_ratio_is_hundred(self, rng):
        x = rng.standard_normal((10, F, 2)) + 1j * rng.standard_normal((10, F, 2))
        imgs, spatial = self._model_for({"s": x}, rng)
        states = build_state_model(imgs, spatial)
        ratio = states.sigma_high / states.sigma_low
        assert np.allclose(ratio, 100.0, rtol=1e-12)

    def test_noise_spectrum_is_mean_of_source_spectra(self, rng):
        imgs = {("a", "s1"): tensor(np.full((4, F, 1), 2.0 + 0.0j)),
                ("a", "s2"): tensor(np.full((4, F, 1), 4.0 + 0.0j))}
        spatial = estimate_spatial_covariance(imgs)
        states = build_state_model(imgs, spatial)
        assert np.allclose(states.ltas[0], 4.0)
        assert np.allclose(states.ltas[1], 16.0)
        assert np.allclose(states.noise_spectrum, 10.0)
        half = build_state_model(imgs, spatial, noise_gain=0.5)
        assert np.allclose(half.noise_spectrum, 5.0)

    def test_zero_bins_clamped_to_relative_floor(self, rng):
        x = np.zeros((4, F, 1), complex)
        x[:, 0, 0] = 1.0  # single active bin fixes the clamp scale
        imgs, spatial = self._model_for({"s": x}, rng)
        states = build_state_model(imgs, spatial)
        assert states.ltas[0, 0] == pytest.approx(1.0)
        assert np.all(states.ltas[0, 1:] == 1e-12 * states.ltas[0].max())

    def test_all_zero_source_still_yields_valid_model(self, rng):
        imgs, spatial = self._model_for({"s": np.zeros((4, F, 1), complex)}, rng)
        states = build_state_model(imgs, spatial)
        assert np.isfinite(states.conditional_variances()).all()
        assert (states.ltas >= 0).all()

    def test_pooling_across_arrays(self, rng):
        # lambda pools frames and channels of every array's image
        imgs = {("a", "s"): tensor(np.full((4, F, 1), 1.0 + 0.0j)),
                ("b", "s"): tensor(np.full((4, F, 1), 3.0 + 0.0j))}
        spatial = estimate_spatial_covariance(imgs)
        states = build_state_model(imgs, spatial)
        assert np.allclose(states.ltas[0], (1.0 + 9.0) / 2)

    def test_image_scaling_moves_spectra_not_covariances(self, rng):
        x = rng.standard_normal((15, F, 2)) + 1j * rng.standard_normal((15, F, 2))
        i1 = {("a", "s"): tensor(x)}
        i2 = {("a", "s"): tensor(3.0 * x)}
        m1 = estimate_spatial_covariance(i1)
        m2 = estimate_spatial_covariance(i2)
        assert np.allclose(m1.covariances["a"], m2.covariances["a"], atol=1e-12)
        s1 = build_state_model(i1, m1)
        s2 = build_state_model(i2, m2)
        assert np.allclose(s2.ltas, 9.0 * s1.ltas, rtol=1e-12)


class TestRegularizedSum:
    def _spatial(self, cov_by_source, noise=None):
        cov = np.stack([np.broadcast_to(c, (F,) + c.shape).copy()
                        for c in cov_by_source])
        spatial = SpatialModel({"a": cov},
                               [f"s{i}" for i in range(len(cov_by_source))])
        C = cov.shape[2]
        spatial.noise_floor = {"a": np.zeros(F) if noise is None
                               else np.full(F, noise)}
        return spatial

    def test_single_source_identity_over_two(self):
        spatial = self._spatial([np.eye(2) / 2])
        S = regularized_sum(spatial, [1.0], "a", 0, noise_power=0.0)
        assert np.allclose(S, np.eye(2) / 2 + 1e-9 * np.eye(2), atol=1e-15)

    def test_zero_powers_noise_only(self):
        spatial = self._spatial([np.eye(2) / 2])
        p = 0.8
        S = regularized_sum(spatial, [0.0], "a", 0, noise_power=p)
        assert np.allclose(S, (p / 2 + 1e-9 * p) * np.eye(2), atol=1e-15)

    def test_noise_power_defaults_to_model_floor(self):
        spatial = self._spatial([np.eye(2) / 2], noise=0.5)
        S = regularized_sum(spatial, [0.0], "a", 3)
        assert np.allclose(np.diag(S).real, 0.5 / 2 + 1e-9 * 0.5)

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
    def _trained(self, rng, pooled=False):
        imgs = {}
        for m in ("a", "b"):
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
        assert spatial2.members(spatial2.merged_id()) == ["a", "b"]
        for m in spatial.covariances:
            assert np.array_equal(spatial.covariances[m],
                                  spatial2.covariances[m])
            assert np.array_equal(spatial.noise_floor[m],
                                  spatial2.noise_floor[m])
        for attr in ("ltas", "sigma_high", "sigma_low", "noise_spectrum"):
            assert np.array_equal(getattr(states, attr), getattr(states2, attr))

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
    def test_round_trip_of_random_layouts_is_bit_exact(
            self, n_src, hop, channels, merged, rate, seed):
        rng = np.random.default_rng(seed)
        window = WindowSpec(4 * hop, hop)
        n_bins = 2 * hop + 1
        if merged:  # one device is its own merged array
            channels["+".join(sorted(channels))] = sum(channels.values())
        covariances, floors = {}, {}
        for m, C in channels.items():
            shape = (n_src, n_bins, C, C)
            A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            R = A @ A.conj().swapaxes(2, 3)
            covariances[m] = R / np.trace(R, axis1=2, axis2=3)[..., None, None]
            floors[m] = rng.uniform(0.0, 1.0, n_bins)
        source_ids = [f"s{k}" for k in range(n_src)]
        spatial = SpatialModel(covariances, source_ids, floors)
        states = StateSpectrumModel(
            source_ids, *rng.uniform(0.0, 1.0, (3, n_src, n_bins)),
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
            assert np.array_equal(spatial2.noise_floor[m], floors[m])
        for attr in ("ltas", "sigma_high", "sigma_low", "noise_spectrum"):
            assert np.array_equal(getattr(states2, attr),
                                  getattr(states, attr))

    @pytest.mark.parametrize("merged_id, channels", [
        ("a+c", 4),  # c is not stored
        ("b+a", 4),  # not in sorted id order
        ("a+a", 4),  # a device twice
        ("a+b", 3),  # a and b hold 4 channels
    ])
    def test_merged_entry_must_merge_stored_devices(self, rng, tmp_path,
                                                    merged_id, channels):
        spatial, states = self._trained(rng)
        cov = np.broadcast_to(np.eye(channels) / channels,
                              (2, F, channels, channels))
        spatial.covariances[merged_id] = cov.astype(complex)
        spatial.noise_floor[merged_id] = np.zeros(F)
        path = tmp_path / "model.bin"
        save_models(path, spatial, states, window=WIN)
        with pytest.raises(ConfigError, match=re.escape(
                f"array {merged_id!r} of {channels} channels is neither")):
            load_models(path)


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
        direct = estimate_spatial_covariance({("p", "s"): tensor(merged)})
        assert np.allclose(spatial.covariances["a+b"],
                           direct.covariances["p"], atol=1e-12)

    def test_pooled_tensor_respects_order(self, rng):
        ta = tensor(rng.standard_normal((4, F, 2)) * (1 + 0j))
        tb = tensor(rng.standard_normal((4, F, 1)) * (1 + 0j))
        merged = pooled_tensor({"a": ta, "b": tb}, ["b", "a"])
        assert merged.channels == 3
        assert np.array_equal(merged.coeffs[:, :, 0], tb.coeffs[:, :, 0])

    def test_pooled_tensor_refuses_unequal_frame_counts(self, rng):
        ta = tensor(rng.standard_normal((4, F, 2)) * (1 + 0j))
        tb = tensor(rng.standard_normal((5, F, 1)) * (1 + 0j))
        with pytest.raises(ConfigError, match="unequal frame counts"):
            pooled_tensor({"a": ta, "b": tb}, ["a", "b"])

    def test_sequences_merge_element_by_element(self, rng):
        # every element of a device's sequence trains the merged entry
        def x(n):
            return rng.standard_normal((n, F, 2)) \
                + 1j * rng.standard_normal((n, F, 2))

        raw = {m: [x(6), x(9)] for m in ("a", "b")}
        imgs = {(m, "s"): [tensor(v) for v in vs] for m, vs in raw.items()}
        spatial, _ = train_models(imgs, include_pooled=True)
        direct = estimate_spatial_covariance({("p", "s"): [
            tensor(np.concatenate([raw["a"][i], raw["b"][i]], axis=2))
            for i in range(2)]})
        assert np.allclose(spatial.covariances["a+b"],
                           direct.covariances["p"], atol=1e-12)

    def test_sequences_of_unequal_length_refused(self, rng):
        x = rng.standard_normal((4, F, 2)) + 1j * rng.standard_normal((4, F, 2))
        imgs = {("a", "s"): [tensor(x), tensor(x)], ("b", "s"): tensor(x)}
        with pytest.raises(ConfigError, match="cannot merge"):
            train_models(imgs, include_pooled=True)


@pytest.mark.parametrize("gain", [np.nan, np.inf, -1.0])
def test_train_models_refuses_bad_noise_gain(rng, gain):
    x = rng.standard_normal((4, F, 2)) + 1j * rng.standard_normal((4, F, 2))
    with pytest.raises(ConfigError, match="noise gain"):
        train_models({("a", "s"): tensor(x)}, noise_gain=gain)
