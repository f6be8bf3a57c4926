"""Tests for the per-array multichannel Wiener filter bank."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsep import separator
from asyncsep.classifier import classify, source_power_estimates
from asyncsep.dsp import SpectrogramTensor, WindowSpec
from asyncsep.model import NOISE_ID, SpatialModel, StateSpectrumModel
from asyncsep.separator import MODES, filter_array, separate

from conftest import (
    consistency_oracle,
    make_planted_tiles,
    make_synthetic_models,
    mwf_apply,
    rand_unit_psd,
)

WIN = WindowSpec(16, 4)
F = WIN.length // 2 + 1


def spatial_for(mats_by_source, noise=0.0):
    cov = np.stack([np.broadcast_to(c, (F,) + c.shape).copy()
                    for c in mats_by_source])
    spatial = SpatialModel({"a": cov},
                           [f"s{i}" for i in range(len(mats_by_source))])
    spatial.noise_floor = {"a": np.full(F, noise)}
    return spatial


class TestMwfApply:
    def test_single_source_zero_noise_is_identity_filter(self, rng):
        R = rand_unit_psd(rng, 3)
        spatial = spatial_for([R])
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        out = mwf_apply(x, spatial, "a", 0, [1.0], noise_power=0.0)
        assert np.abs(out[0] - x).max() <= 1e-6 * np.abs(x).max()
        assert np.abs(out[1]).max() <= 1e-6 * np.abs(x).max()

    def test_scalar_wiener_ratio(self, rng):
        spatial = spatial_for([np.ones((1, 1)), np.ones((1, 1))])
        x = np.array([1.0 + 2.0j])
        p1, p2 = 3.0, 1.0
        out = mwf_apply(x, spatial, "a", 0, [p1, p2], noise_power=0.0)
        assert np.allclose(out[0], p1 / (p1 + p2) * x, rtol=1e-6)
        assert np.allclose(out[1], p2 / (p1 + p2) * x, rtol=1e-6)

    def test_matches_dense_inverse_oracle(self, rng):
        mats = [rand_unit_psd(rng, 4) for _ in range(3)]
        spatial = spatial_for(mats)
        powers = rng.uniform(0.1, 2.0, 3)
        noise = 0.4
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out = mwf_apply(x, spatial, "a", 2, powers, noise_power=noise)
        S = sum(p * m for p, m in zip(powers, mats))
        trace = np.trace(S).real + noise
        S = S + (noise / 4 + 1e-9 * trace) * np.eye(4)
        Sinv = np.linalg.inv(S)
        for k in range(3):
            ref = powers[k] * mats[k] @ Sinv @ x
            assert np.abs(out[k] - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_images_sum_to_observation(self, rng):
        mats = [rand_unit_psd(rng, 2) for _ in range(3)]
        spatial = spatial_for(mats)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        out = mwf_apply(x, spatial, "a", 0, rng.uniform(0, 2, 3),
                        noise_power=0.3)
        assert np.abs(out.sum(axis=0) - x).max() <= 1e-12 * np.abs(x).max()

    def test_linear_in_observation(self, rng):
        mats = [rand_unit_psd(rng, 2) for _ in range(2)]
        spatial = spatial_for(mats)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        powers = [0.5, 1.5]
        a = mwf_apply(x, spatial, "a", 0, powers, noise_power=0.1)
        b = mwf_apply((2.0 - 1.0j) * x, spatial, "a", 0, powers,
                      noise_power=0.1)
        assert np.allclose(b, (2.0 - 1.0j) * a, rtol=1e-12)


class TestSeparate:
    def _obs(self, rng, spatial, n_frames=6):
        out = {}
        for m in spatial.array_ids():
            C = spatial.channels(m)
            x = rng.standard_normal((n_frames, F, C)) \
                + 1j * rng.standard_normal((n_frames, F, C))
            out[m] = SpectrogramTensor(x, WIN, 16000.0)
        return out

    def test_single_array_distributed_equals_local(self, rng):
        spatial, states, _ = make_synthetic_models(
            rng, arrays=("solo",), window=WIN)
        obs = self._obs(rng, spatial)
        a = separate(obs, spatial, states, "tv-distributed")
        b = separate(obs, spatial, states, "tv-local")
        for key in a.images:
            assert np.array_equal(a.images[key].coeffs, b.images[key].coeffs)

    @pytest.mark.parametrize("mode", ["static-local", "tv-local",
                                      "tv-distributed"])
    def test_images_reconstruct_mixture(self, rng, mode):
        spatial, states, _ = make_synthetic_models(
            rng, arrays=("a", "b"), window=WIN)
        obs = self._obs(rng, spatial)
        result = separate(obs, spatial, states, mode)
        for m in ("a", "b"):
            total = sum(result.images[(m, k)].coeffs
                        for k in states.source_ids + [NOISE_ID])
            err = np.abs(total - obs[m].coeffs)
            norm = np.abs(obs[m].coeffs) + 1e-300
            assert (err / norm.max()).max() <= 1e-6
            assert result.metadata["consistency_rel_max"][m] <= 1e-6

    def test_locality_of_tv_filtering(self, rng):
        # with the posteriors fixed, array a's output ignores array b's data
        spatial, states, _ = make_synthetic_models(
            rng, arrays=("a", "b"), window=WIN)
        obs = self._obs(rng, spatial)
        gamma = classify(obs, spatial, states)
        powers = source_power_estimates(gamma, states)
        ref = filter_array(obs["a"], spatial, "a", powers, states)
        scrambled = dict(obs)
        scrambled["b"] = SpectrogramTensor(
            obs["b"].coeffs[::-1].copy(), WIN, 16000.0)
        again = filter_array(scrambled["a"], spatial, "a", powers, states)
        assert np.array_equal(ref, again)

    def test_planted_scene_dominant_tiles_match(self, rng):
        spatial, states, win = make_synthetic_models(rng, noise_power=0.01)
        obs, planted, top = make_planted_tiles(rng, spatial, states, win,
                                               n_frames=40)
        result = separate(obs, spatial, states, "tv-distributed")
        m = spatial.array_ids()[0]
        norms = np.stack([np.abs(result.images[(m, k)].coeffs).sum(axis=2)
                          for k in states.source_ids])
        dom = norms.argmax(axis=0)
        assert (dom[top] == planted[top]).mean() >= 0.90

    def test_unknown_mode_rejected(self, rng):
        spatial, states, _ = make_synthetic_models(rng, arrays=("a",),
                                                   window=WIN)
        with pytest.raises(ValueError, match="unknown mode"):
            separate(self._obs(rng, spatial), spatial, states, "vivid")

    def test_modes_tuple_is_stable(self):
        assert MODES == ("static-local", "static-pooled", "tv-local",
                         "tv-distributed")


class TestStaticPooled:
    def _trained(self, rng):
        from asyncsep.dsp import stft
        from asyncsep.model import train_models
        from asyncsep.scene import (ArraySpec, ChannelCoupling, SceneSpec,
                                    SourceSpec, synthesize_scene)

        def taps(d0, d1, g):
            return [ChannelCoupling(d0, g), ChannelCoupling(d1, 0.9 * g)]

        sources = [
            SourceSpec("s1", {"type": "speech_noise", "level": 0.1},
                       {"a": taps(0.0, 2.5, 1.0), "b": taps(8.0, 6.0, 0.5)}),
            SourceSpec("s2", {"type": "speech_noise", "level": 0.1},
                       {"a": taps(7.0, 9.0, 0.5), "b": taps(0.0, 3.0, 1.0)}),
        ]
        arrays = [ArraySpec("a", 2, 0.0), ArraySpec("b", 2, 0.0)]
        spec = SceneSpec(rate_hz=16000.0, duration_s=1.2, sources=sources,
                         arrays=arrays, noise_level=0.001)
        win = WindowSpec(512, 128)
        images, recordings = synthesize_scene(spec, 11)
        tensors = {key: stft(sig, win) for key, sig in images.images.items()}
        spatial, states = train_models(tensors, include_pooled=True)
        obs = {m: stft(r.signal, win) for m, r in recordings.items()}
        return spatial, states, obs

    def test_requires_pooled_model(self, rng):
        spatial, states, _ = make_synthetic_models(rng, arrays=("a",),
                                                   window=WIN)
        obs = {"a": SpectrogramTensor(np.zeros((3, F, 2), complex), WIN,
                                      16000.0)}
        with pytest.raises(ValueError, match="include_pooled"):
            separate(obs, spatial, states, "static-pooled")

    def test_pooled_outputs_reconstruct_and_split(self, rng):
        spatial, states, obs = self._trained(rng)
        result = separate(obs, spatial, states, "static-pooled")
        for m in ("a", "b"):
            total = sum(result.images[(m, k)].coeffs
                        for k in states.source_ids + [NOISE_ID])
            rel = np.abs(total - obs[m].coeffs).max() / np.abs(obs[m].coeffs).max()
            assert rel <= 1e-6
            assert result.images[(m, "s1")].channels == 2


def _planar_result(rng, n_src, C, N, n_bins):
    """Random images as the filter returns them: a (K+1, N, F, C) view."""
    shape = (n_src + 1, C, N, n_bins)
    planes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return planes.transpose(0, 2, 3, 1)


class TestConsistency:
    @settings(max_examples=150, deadline=None)
    @given(n_src=st.integers(1, 4), C=st.integers(1, 4), N=st.integers(1, 40),
           n_bins=st.integers(1, 9), log_scale=st.floats(-16.0, 0.0),
           silent=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
    def test_matches_reduction_formula(self, n_src, C, N, n_bins, log_scale,
                                       silent, seed):
        rng = np.random.default_rng(seed)
        est = _planar_result(rng, n_src, C, N, n_bins)
        noise = rng.standard_normal((N, n_bins, C)) * 10.0 ** log_scale
        coeffs = est.sum(axis=0) + noise
        coeffs[rng.uniform(size=(N, n_bins)) < silent] = 0.0
        want = consistency_oracle(est, coeffs)
        got = separator._consistency(est, coeffs)
        assert abs(got - want) <= 1e-12 * want

    def test_silent_mixture_tiles_count_as_zero(self, rng):
        est = _planar_result(rng, 3, 2, 40, 5)
        coeffs = np.zeros((40, 5, 2), complex)
        assert separator._consistency(est, coeffs) == 0.0
        coeffs = np.ascontiguousarray(est.sum(axis=0))
        coeffs[17, 3] = 0.0  # the images there do not sum to zero
        assert separator._consistency(est, coeffs) == 0.0


def _perturbing_filter(monkeypatch, tile, delta):
    """Make filter_array add delta to source 0 of one tile, channel 0."""
    real = separator.filter_array

    def perturbed(obs, spatial, array_id, powers, states):
        est = real(obs, spatial, array_id, powers, states)
        est[(0,) + tile + (0,)] += delta
        return est

    monkeypatch.setattr(separator, "filter_array", perturbed)


class TestConsistencyFlagsPerturbedTile:
    def test_per_array_path(self, rng, monkeypatch):
        spatial, states, _ = make_synthetic_models(
            rng, arrays=("a", "b"), window=WIN)
        obs = TestSeparate()._obs(rng, spatial, n_frames=40)
        tile, delta = (33, 4), 1e-3
        _perturbing_filter(monkeypatch, tile, delta)
        worst = separate(obs, spatial, states, "tv-local").metadata[
            "consistency_rel_max"]
        for m in ("a", "b"):
            expected = delta / np.linalg.norm(obs[m].coeffs[tile])
            assert worst[m] == pytest.approx(expected, rel=1e-9)

    def test_pooled_path(self, rng, monkeypatch):
        spatial, states, obs = TestStaticPooled()._trained(rng)
        merged = np.concatenate([obs[m].coeffs for m in spatial.pooled_order],
                                axis=2)
        tile, delta = (90, 40), 1e-6
        _perturbing_filter(monkeypatch, tile, delta)
        worst = separate(obs, spatial, states, "static-pooled").metadata[
            "consistency_rel_max"]
        expected = delta / np.linalg.norm(merged[tile])
        assert worst[SpatialModel.POOLED] == pytest.approx(expected, rel=1e-9)
