"""Tests for the per-array multichannel Wiener filter bank."""

import sys
import threading
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asyncsep import _kernels, _pool, separator
from asyncsep.classifier import source_power_estimates
from asyncsep.dsp import (SampledSignal, SpectrogramTensor, WindowSpec,
                          istft, stft, stft_frame_count)
from asyncsep.errors import ConfigError, NumericalError
from asyncsep.model import NOISE_ID, SpatialModel
from asyncsep.separator import MODES, separate, separate_recordings

from conftest import (
    block_consistency,
    consistency_oracle,
    make_planted_tiles,
    make_synthetic_models,
    mwf_apply,
    pool_run_peaks,
    rand_unit_psd,
    serial_classify,
)

WIN = WindowSpec(16, 4)
F = WIN.length // 2 + 1
STREAM_WIN = WindowSpec(512, 128)


def spatial_for(mats_by_source):
    cov = np.stack([np.broadcast_to(c, (F,) + c.shape).copy()
                    for c in mats_by_source])
    return SpatialModel({"a": cov},
                        [f"s{i}" for i in range(len(mats_by_source))])


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
        for m in spatial.covariances:
            C = spatial.channels(m)
            x = rng.standard_normal((n_frames, F, C)) \
                + 1j * rng.standard_normal((n_frames, F, C))
            out[m] = SpectrogramTensor(x, WIN, 16000.0)
        return out

    def test_observations_of_an_array_not_in_the_model_rejected(self, rng):
        spatial, states, _ = make_synthetic_models(
            rng, arrays=("a", "b"), window=WIN)
        obs = self._obs(rng, spatial)
        obs["zz"] = obs["a"]
        with pytest.raises(ValueError,
                           match="array 'zz' is not in the model"):
            separate(obs, spatial, states)

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
        # array b's data reaches array a's images only through the joint
        # posteriors: not at all in tv-local, only through the powers in
        # tv-distributed
        spatial, states, _ = make_synthetic_models(
            rng, arrays=("a", "b"), window=WIN)
        obs = self._obs(rng, spatial, n_frames=20)
        scrambled = dict(obs, b=SpectrogramTensor(
            obs["b"].coeffs[::-1].copy(), WIN, 16000.0))
        sources = states.source_ids + [NOISE_ID]
        local = separate(obs, spatial, states, "tv-local")
        again = separate(scrambled, spatial, states, "tv-local")
        for k in sources:
            assert np.array_equal(local.images[("a", k)].coeffs,
                                  again.images[("a", k)].coeffs)
        joint = separate(scrambled, spatial, states, "tv-distributed")
        powers = source_power_estimates(
            serial_classify(scrambled, spatial, states), states)
        want = _kernels.mwf_filter(obs["a"].coeffs, spatial.covariances["a"],
                                   powers[:, :, :-1],
                                   states.noise_spectrum)
        for i, k in enumerate(sources):
            assert np.array_equal(joint.images[("a", k)].coeffs, want[i])
        # the scrambling reaches a through the joint powers
        before = separate(obs, spatial, states, "tv-distributed")
        assert not np.array_equal(before.images[("a", sources[0])].coeffs,
                                  joint.images[("a", sources[0])].coeffs)

    def test_planted_scene_dominant_tiles_match(self, rng):
        spatial, states, win = make_synthetic_models(rng, noise_power=0.01)
        obs, planted, top = make_planted_tiles(rng, spatial, states, win,
                                               n_frames=40)
        result = separate(obs, spatial, states, "tv-distributed")
        m = next(iter(spatial.covariances))
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
    def _trained(self, rng, ids=("a", "b")):
        from asyncsep.dsp import stft
        from asyncsep.model import train_models
        from asyncsep.scene import (ArraySpec, ChannelCoupling, SceneSpec,
                                    SourceSpec, synthesize_scene)

        def taps(d0, d1, g):
            return [ChannelCoupling(d0, g), ChannelCoupling(d1, 0.9 * g)]

        a, b = ids
        sources = [
            SourceSpec("s1", {"type": "speech_noise", "level": 0.1},
                       {a: taps(0.0, 2.5, 1.0), b: taps(8.0, 6.0, 0.5)}),
            SourceSpec("s2", {"type": "speech_noise", "level": 0.1},
                       {a: taps(7.0, 9.0, 0.5), b: taps(0.0, 3.0, 1.0)}),
        ]
        arrays = [ArraySpec(a, 2, 0.0), ArraySpec(b, 2, 0.0)]
        spec = SceneSpec(rate_hz=16000.0, duration_s=1.2, sources=sources,
                         arrays=arrays, noise_level=0.001)
        win = WindowSpec(512, 128)
        images, recordings = synthesize_scene(spec, 11)
        tensors = {key: stft(sig, win) for key, sig in images.images.items()}
        spatial, states = train_models(tensors, include_pooled=True)
        obs = {m: stft(r.signal, win) for m, r in recordings.items()}
        return spatial, states, obs

    def test_requires_pooled_model(self, rng):
        # one device is its own merged array, so the model has two
        spatial, states, _ = make_synthetic_models(rng, arrays=("a", "b"),
                                                   window=WIN)
        obs = {m: SpectrogramTensor(np.zeros((3, F, 2), complex), WIN,
                                    16000.0) for m in ("a", "b")}
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

    def test_device_named_pooled_round_trips_and_separates(self, rng,
                                                           tmp_path):
        # "pooled" is an ordinary device id; the merged array is "a+pooled"
        from asyncsep.model import load_models, save_models
        spatial, states, obs = self._trained(rng, ids=("a", "pooled"))
        assert list(spatial.covariances) == ["a", "pooled"]
        assert spatial.merged is not None
        save_models(tmp_path / "m.bin", spatial, states, WindowSpec(512, 128),
                    16000.0)
        spatial, states, _ = load_models(tmp_path / "m.bin")
        assert list(spatial.covariances) == ["a", "pooled"]
        for mode in MODES:
            result = separate(obs, spatial, states, mode)
            assert set(result.images) == {
                (m, k) for m in ("a", "pooled")
                for k in states.source_ids + [NOISE_ID]}
            for m in ("a", "pooled"):
                total = sum(result.images[(m, k)].coeffs
                            for k in states.source_ids + [NOISE_ID])
                rel = (np.abs(total - obs[m].coeffs).max()
                       / np.abs(obs[m].coeffs).max())
                assert rel <= 1e-6


    def test_one_device_is_its_own_merged_array(self, rng, tmp_path):
        # with or without include_pooled: static-pooled is static-local,
        # and the container is the same
        from asyncsep.model import save_models, train_models

        def frames(n):
            x = rng.standard_normal((n, F, 2)) + 1j * rng.standard_normal(
                (n, F, 2))
            return SpectrogramTensor(x, WIN, 16000.0)

        imgs = {("a", k): frames(12) for k in ("s1", "s2")}
        obs = {"a": frames(6)}
        for pooled in (False, True):
            spatial, states = train_models(imgs, include_pooled=pooled)
            assert spatial.merged is None
            local = separate(obs, spatial, states, "static-local")
            merged = separate(obs, spatial, states, "static-pooled")
            assert list(merged.images) == list(local.images)
            for key, image in local.images.items():
                assert np.array_equal(merged.images[key].coeffs, image.coeffs)
            assert merged.metadata == local.metadata
            save_models(tmp_path / f"{pooled}.bin", spatial, states, WIN)
        assert (tmp_path / "True.bin").read_bytes() == \
            (tmp_path / "False.bin").read_bytes()


def _planar_result(rng, n_src, C, N, n_bins):
    """Random images as the filter returns them: a (K+1, N, F, C) view."""
    shape = (n_src + 1, C, N, n_bins)
    planes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return planes.transpose(0, 2, 3, 1)


def _summation_bound(est, coeffs, want):
    """A-priori bound on |block_consistency - exact| for one input.

    Per tile and channel, each real or imaginary component of the image
    sum minus the mixture is a recursive sum of K+2 terms, so its rounding
    error is at most gamma(K+1) times the sum of the terms' magnitudes
    (Higham, Accuracy and Stability of Numerical Algorithms, 4.2); the
    deviation norm moves by at most the norm of those errors.  Squaring,
    summing over channels, dividing and the square root add a relative
    error of at most gamma(2C+8), which also covers the oracle's own
    rounding.  The bound on the worst tile is the worst tile's bound.
    """
    u = 2.0 ** -53

    def gamma(n):
        return n * u / (1.0 - n * u)

    n_terms, C = est.shape[0] + 1, est.shape[-1]
    mag = [np.abs(part(est)).sum(axis=0) + np.abs(part(coeffs))
           for part in (np.real, np.imag)]
    err = gamma(n_terms - 1) * np.sqrt((mag[0] ** 2 + mag[1] ** 2).sum(-1))
    den = np.sqrt((np.abs(coeffs) ** 2).sum(axis=-1))
    active = den > 0.0
    worst = float((err[active] / den[active]).max()) if active.any() else 0.0
    return worst * (1.0 + gamma(2 * C + 8)) + gamma(2 * C + 8) * want


class TestConsistency:
    @settings(max_examples=150, deadline=None)
    @given(n_src=st.integers(1, 4), C=st.integers(1, 4), N=st.integers(1, 40),
           n_bins=st.integers(1, 9), log_scale=st.floats(-16.0, 0.0),
           silent=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
    @example(n_src=3, C=2, N=1, n_bins=1, log_scale=-4.0, silent=0.0, seed=1)
    def test_matches_reduction_formula(self, n_src, C, N, n_bins, log_scale,
                                       silent, seed):
        rng = np.random.default_rng(seed)
        est = _planar_result(rng, n_src, C, N, n_bins)
        noise = rng.standard_normal((N, n_bins, C)) * 10.0 ** log_scale
        coeffs = est.sum(axis=0) + noise
        coeffs[rng.uniform(size=(N, n_bins)) < silent] = 0.0
        want = consistency_oracle(est, coeffs)
        got = block_consistency(est, coeffs)
        assert abs(got - want) <= _summation_bound(est, coeffs, want)

    def test_silent_mixture_tiles_count_as_zero(self, rng):
        est = _planar_result(rng, 3, 2, 40, 5)
        coeffs = np.zeros((40, 5, 2), complex)
        assert block_consistency(est, coeffs) == 0.0
        coeffs = np.ascontiguousarray(est.sum(axis=0))
        coeffs[17, 3] = 0.0  # the images there do not sum to zero
        assert block_consistency(est, coeffs) == 0.0


def _perturbing_filter(monkeypatch, tile, delta):
    """Make the block pass add delta to source 0 of one tile, channel 0."""
    real = separator._filter_block

    def perturbed(f, x, n0, n1, ws):
        real(f, x, n0, n1, ws)
        n, k = tile
        if n0 <= n < n1:
            f.sink.planes(n0, n1, ws)[0, 0, n - n0, k] += delta

    monkeypatch.setattr(separator, "_filter_block", perturbed)


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

    def test_streamed_path(self, rng, monkeypatch):
        spatial, states, _ = make_synthetic_models(
            rng, arrays=("a", "b"), window=STREAM_WIN)
        recs = {m: SampledSignal(rng.standard_normal((3000, 2)), 16000.0)
                for m in ("a", "b")}
        obs = {m: stft(r, STREAM_WIN) for m, r in recs.items()}
        tile, delta = (13, 40), 1e-3
        _perturbing_filter(monkeypatch, tile, delta)
        worst = separate_recordings(recs, STREAM_WIN, spatial, states,
                                    "tv-local").metadata["consistency_rel_max"]
        for m in ("a", "b"):
            expected = delta / np.linalg.norm(obs[m].coeffs[tile])
            assert worst[m] == pytest.approx(expected, rel=1e-9)

    def test_pooled_path(self, rng, monkeypatch):
        spatial, states, obs = TestStaticPooled()._trained(rng)
        merged = np.concatenate([obs[m].coeffs for m in ("a", "b")], axis=2)
        tile, delta = (90, 40), 1e-6
        _perturbing_filter(monkeypatch, tile, delta)
        worst = separate(obs, spatial, states, "static-pooled").metadata[
            "consistency_rel_max"]
        expected = delta / np.linalg.norm(merged[tile])
        assert worst["a+b"] == pytest.approx(expected, rel=1e-9)


def _with_pooled(rng, spatial, n_src):
    """The model with random merged covariances over every array; one
    array is its own merged array, and its model is returned as it is."""
    if len(spatial.covariances) == 1:
        return spatial
    C = sum(map(spatial.channels, spatial.covariances))
    F = spatial.n_bins
    merged = np.stack(
        [np.broadcast_to(rand_unit_psd(rng, C), (F, C, C)).copy()
         for _ in range(n_src)])
    return SpatialModel(spatial.covariances, spatial.source_ids,
                        merged=merged)


def _serial_separate(obs, spatial, states, mode):
    """The serial stages one array at a time: log-likelihoods and
    posteriors (`serial_classify`), `source_power_estimates`, then
    `mwf_filter`.

    Returns the images by (array, source) and the worst image-sum
    deviation by filter, as `separate` reports them.
    """
    ids = sorted(obs)
    static = np.concatenate([states.ltas.T, states.noise_spectrum[:, None]],
                            axis=1)[None]
    sources = states.source_ids + [NOISE_ID]
    images, worst = {}, {}
    if mode == "static-pooled":
        merged = np.concatenate([obs[m].coeffs for m in ids], axis=2)
        est = _kernels.mwf_filter(merged, spatial.merged_covariances(),
                                  static[:, :, :-1],
                                  states.noise_spectrum)
        worst["+".join(ids)] = block_consistency(est, merged)
        lo = 0
        for m in ids:
            c = obs[m].channels
            for k, sid in enumerate(sources):
                images[(m, sid)] = est[k, :, :, lo:lo + c]
            lo += c
        return images, worst
    if mode == "tv-distributed":
        shared = source_power_estimates(serial_classify(obs, spatial, states),
                                        states)
    for m in ids:
        if mode == "static-local":
            powers = static
        elif mode == "tv-local":
            powers = source_power_estimates(
                serial_classify({m: obs[m]}, spatial, states), states)
        else:
            powers = shared
        est = _kernels.mwf_filter(obs[m].coeffs, spatial.covariances[m],
                                  powers[:, :, :-1],
                                  states.noise_spectrum)
        worst[m] = block_consistency(est, obs[m].coeffs)
        for k, sid in enumerate(sources):
            images[(m, sid)] = est[k]
    return images, worst


def _random_case(seed, n_arrays, n_ch, n_src, n_frames):
    rng = np.random.default_rng(seed)
    spatial, states, _ = make_synthetic_models(
        rng, arrays=[f"a{i}" for i in range(n_arrays)], n_ch=n_ch,
        n_src=n_src, window=WIN)
    spatial = _with_pooled(rng, spatial, n_src)
    obs = {}
    for m in spatial.covariances:
        x = (rng.standard_normal((n_frames, F, n_ch))
             + 1j * rng.standard_normal((n_frames, F, n_ch)))
        obs[m] = SpectrogramTensor(x * rng.uniform(0.01, 10.0), WIN, 16000.0)
    return obs, spatial, states


class TestFusedPassEqualsSerialStages:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_arrays=st.integers(1, 3),
           n_ch=st.integers(1, 3), n_src=st.integers(1, 3),
           n_frames=st.integers(1, 30), mode=st.sampled_from(MODES))
    def test_images_and_consistency(self, seed, n_arrays, n_ch, n_src,
                                    n_frames, mode):
        obs, spatial, states = _random_case(seed, n_arrays, n_ch, n_src,
                                            n_frames)
        result = separate(obs, spatial, states, mode)
        images, worst = _serial_separate(obs, spatial, states, mode)
        assert set(result.images) == set(images)
        for key, want in images.items():
            assert np.array_equal(result.images[key].coeffs, want)
        assert result.metadata["consistency_rel_max"] == worst


class TestPosteriorDump:
    """The joint posteriors written by the fused pass, in every mode."""

    @pytest.mark.parametrize("mode", MODES)
    def test_equals_classify_and_leaves_images(self, mode):
        obs, spatial, states = _random_case(7, 3, 2, 3, 21)
        gamma = np.full((21, F, states.n_states), np.nan)
        dumped = separate(obs, spatial, states, mode, posteriors=gamma)
        assert np.array_equal(gamma,
                              serial_classify(obs, spatial, states).gamma)
        plain = separate(obs, spatial, states, mode)
        assert dumped.metadata == plain.metadata
        assert set(dumped.images) == set(plain.images)
        for key, t in plain.images.items():
            assert np.array_equal(dumped.images[key].coeffs, t.coeffs)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_arrays=st.integers(1, 3),
           n_ch=st.integers(1, 3), n_src=st.integers(1, 3),
           n_frames=st.integers(1, 30), mode=st.sampled_from(MODES),
           workers=st.sampled_from([1, 3]))
    def test_any_shape_and_worker_count(self, seed, n_arrays, n_ch, n_src,
                                        n_frames, mode, workers):
        obs, spatial, states = _random_case(seed, n_arrays, n_ch, n_src,
                                            n_frames)
        gamma = np.empty((n_frames, F, states.n_states))
        real = _pool.worker_count
        _pool.worker_count = lambda: workers
        try:
            separate(obs, spatial, states, mode, posteriors=gamma)
        finally:
            _pool.worker_count = real
        assert np.array_equal(gamma,
                              serial_classify(obs, spatial, states).gamma)

    @pytest.mark.parametrize("shape, dtype", [
        ((20, F, 2), np.float64), ((20, F + 1, 3), np.float64),
        ((19, F, 3), np.float64), ((20, F, 3), np.float32)])
    def test_wrong_buffer_rejected(self, shape, dtype):
        obs, spatial, states = _random_case(5, 2, 2, 2, 20)
        with pytest.raises(ValueError, match="posteriors must be"):
            separate(obs, spatial, states, "static-local",
                     posteriors=np.empty(shape, dtype=dtype))


def _corrupt(obs, value):
    bad = obs["a1"].coeffs.copy()
    bad[13, 4, 1] = value
    return dict(obs, a1=SpectrogramTensor(bad, WIN, 16000.0))


# a position at either end, or anywhere (taken modulo the length)
_POSITIONS = st.one_of(st.just(0), st.just(-1), st.integers(0, 2**20))
_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


class TestNonFiniteInput:
    """One non-finite value anywhere is refused in every mode, naming its
    device, on one worker and on several, without a warning."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(device=st.sampled_from(["a0", "a1"]), frame=_POSITIONS,
           bin=st.integers(0, F - 1), channel=st.integers(0, 1),
           value=_NON_FINITE, mode=st.sampled_from(MODES),
           workers=st.sampled_from([1, 3]))
    def test_any_coefficient(self, device, frame, bin, channel, value, mode,
                             workers):
        obs, spatial, states = _random_case(5, 2, 2, 2, 20)
        bad = obs[device].coeffs.copy()
        bad[frame % len(bad), bin, channel] = value
        obs[device] = SpectrogramTensor(bad, WIN, 16000.0)
        with mock.patch.object(_pool, "worker_count", lambda: workers), \
                pytest.raises(NumericalError, match=f"^non-finite STFT "
                              f"coefficients in array '{device}'$"):
            separate(obs, spatial, states, mode)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(device=st.sampled_from(["a", "b", "c"]), at=_POSITIONS,
           channel=st.integers(0, 1), value=_NON_FINITE,
           mode=st.sampled_from(MODES), workers=st.sampled_from([1, 3]))
    def test_any_sample(self, device, at, channel, value, mode, workers):
        # 19 frames: two whole blocks and a part block
        spatial, states, recs = _stream_case(0, 19)
        x = recs[device].samples
        x[at % len(x), channel] = value
        with mock.patch.object(_pool, "worker_count", lambda: workers), \
                pytest.raises(NumericalError, match=f"^non-finite samples "
                              f"in array '{device}'$"):
            separate_recordings(recs, STREAM_WIN, spatial, states, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_observations(self, mode, value):
        obs, spatial, states = _random_case(5, 2, 2, 2, 20)
        with pytest.raises(NumericalError, match="non-finite STFT"):
            separate(_corrupt(obs, value), spatial, states, mode)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("mode", ["tv-local", "tv-distributed"])
    def test_log_likelihoods_in_a_block(self, mode):
        # finite, but its quadratic forms overflow in one block
        obs, spatial, states = _random_case(5, 2, 2, 2, 20)
        with pytest.raises(NumericalError, match="log-likelihoods"):
            separate(_corrupt(obs, 1e160), spatial, states, mode)


def _separate_bounded(*args, timeout=120.0, run=separate, **kwargs):
    box = {}

    def target():
        try:
            box["r"] = run(*args, **kwargs)
        except BaseException as exc:  # re-raised on the calling thread
            box["e"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), f"{run.__name__} did not finish"
    if "e" in box:
        raise box["e"]
    return box["r"]


class TestWorkerCount:
    """Outputs do not depend on how many threads run the blocks."""

    def test_one_and_three_workers_agree_in_every_mode(self, rng,
                                                       monkeypatch):
        spatial, states, obs = TestStaticPooled()._trained(rng)
        calls = Counter()
        lock = threading.Lock()
        real_block = separator._run_block

        def counted(unit, n0, *rest):
            with lock:
                calls[(id(unit), n0)] += 1
            real_block(unit, n0, *rest)

        monkeypatch.setattr(separator, "_run_block", counted)
        for mode in MODES:
            runs = []
            for workers in (1, 3):
                monkeypatch.setattr(_pool, "worker_count", lambda: workers)
                calls.clear()
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-5)
                try:
                    result = _separate_bounded(obs, spatial, states, mode)
                    signals = {key: istft(t).samples
                               for key, t in result.images.items()}
                finally:
                    sys.setswitchinterval(interval)
                # every block of every unit ran exactly once
                n_frames = obs["a"].n_frames
                blocks = -(-n_frames // 8)
                units = 2 if mode in ("static-local", "tv-local") else 1
                assert sorted(calls.values()) == [1] * (blocks * units)
                runs.append((result, signals))
            (a, sig_a), (b, sig_b) = runs
            assert a.metadata == b.metadata
            assert set(a.images) == set(b.images)
            for key in a.images:
                assert np.array_equal(a.images[key].coeffs,
                                      b.images[key].coeffs)
                assert np.array_equal(sig_a[key], sig_b[key])


class TestBlockPassAllocatesNoArrays:
    """The block kernels work in the workspaces made before the pass."""

    @pytest.mark.parametrize("mode", MODES)
    def test_peak_traced_memory_of_the_pass(self, monkeypatch, mode):
        self._check_peak(monkeypatch, mode, dump=False)

    @pytest.mark.parametrize("mode", MODES)
    def test_peak_traced_memory_with_posteriors(self, monkeypatch, mode):
        self._check_peak(monkeypatch, mode, dump=True)

    def _check_peak(self, monkeypatch, mode, dump):
        # numpy's iterator buffers are not arrays: shrink them, and run
        # every block on the calling thread, where the setting holds
        win = WindowSpec(4096, 1024)
        n_bins = win.length // 2 + 1
        rng = np.random.default_rng(3)
        spatial, states, _ = make_synthetic_models(
            rng, arrays=("a", "b"), window=win)
        spatial = _with_pooled(rng, spatial, 3)
        obs = {m: SpectrogramTensor(
            rng.standard_normal((40, n_bins, 2))
            + 1j * rng.standard_normal((40, n_bins, 2)), win, 16000.0)
            for m in ("a", "b")}
        gamma = np.empty((40, n_bins, 4)) if dump else None
        peaks = pool_run_peaks(monkeypatch, lambda: istft(separate(
            obs, spatial, states, mode, posteriors=gamma
        ).images[("a", "s0")]))
        # the smallest array a block could allocate: one (8, F) bool plane
        assert len(peaks) == 2
        assert max(peaks) < 8 * n_bins


class TestWorkspaceSizes:
    """The solves are sized by the widest filter, not the widest unit."""

    @pytest.mark.parametrize("mode, solve_channels", [
        ("static-local", 2), ("static-pooled", 6), ("tv-local", 2),
        ("tv-distributed", 2)])
    @pytest.mark.parametrize("streamed", [False, True])
    def test_solves_hold_the_filter_channels(self, monkeypatch, mode,
                                             solve_channels, streamed):
        spatial, states, recs = _stream_case(0, 16)
        shapes = []
        real = _kernels.Workspace

        def recording(*args, **kwargs):
            ws = real(*args, **kwargs)
            shapes.append((ws.x.shape[0], ws.y.shape[0]))
            return ws

        monkeypatch.setattr(_kernels, "Workspace", recording)
        window = STREAM_WIN
        gamma = np.empty((16, spatial.n_bins, states.n_states))
        if streamed:
            separate_recordings(recs, window, spatial, states, mode,
                                posteriors=gamma)
        else:
            separate({m: stft(r, window) for m, r in recs.items()}, spatial,
                     states, mode, posteriors=gamma)
        # every pass classifies all 6 channels into the posteriors
        pass_ws = [s for s in shapes if s[0]]
        assert pass_ws and set(pass_ws) == {(6, solve_channels)}


def _length_for(window, n_frames, spare):
    """A recording length of n_frames STFT frames that keeps them when cut
    by `spare` samples."""
    return next(n for n in range(window.length, 100 * window.length)
                if stft_frame_count(n, window) == n_frames
                and stft_frame_count(n - spare, window) == n_frames)


def _stream_case(seed, n_frames, window=STREAM_WIN, spare=5):
    """Three 2-channel devices with a merged entry, and recordings of
    n_frames frames; c's recording is `spare` samples shorter than a's
    and b's."""
    rng = np.random.default_rng(seed)
    spatial, states, _ = make_synthetic_models(
        rng, arrays=("a", "b", "c"), window=window)
    spatial = _with_pooled(rng, spatial, 3)
    n = _length_for(window, n_frames, spare)
    recs = {m: SampledSignal(rng.standard_normal((n - spare * (m == "c"), 2))
                             * rng.uniform(0.01, 10.0), 16000.0)
            for m in ("a", "b", "c")}
    return spatial, states, recs


class TestSeparateRecordings:
    """The streamed pass equals STFT -> separate -> iSTFT bit for bit."""

    # 7 frames, the fewest a 3x overlap gives one window; 16, whole
    # blocks; 19, a part block
    @pytest.mark.parametrize("window, n_frames, spare", [
        (WindowSpec(384, 128), 7, 0), (STREAM_WIN, 16, 5),
        (STREAM_WIN, 19, 5)], ids=["7", "16", "19"])
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_equals_istft_of_separate(self, monkeypatch, mode, workers,
                                      window, n_frames, spare):
        spatial, states, recs = _stream_case(n_frames, n_frames, window,
                                             spare)
        monkeypatch.setattr(_pool, "worker_count", lambda: workers)
        obs = {m: stft(r, window) for m, r in recs.items()}
        shape = (n_frames, spatial.n_bins, states.n_states)
        gamma_batch, gamma_stream = np.empty(shape), np.empty(shape)
        batch = separate(obs, spatial, states, mode, posteriors=gamma_batch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            stream = _separate_bounded(recs, window, spatial, states,
                                       mode, run=separate_recordings,
                                       posteriors=gamma_stream)
        finally:
            sys.setswitchinterval(interval)
        assert stream.mode == mode
        assert stream.metadata == batch.metadata
        assert list(stream.images) == list(batch.images)
        for (m, k), tensor in batch.images.items():
            want = istft(tensor, length=recs[m].n_samples)
            got = stream.images[(m, k)]
            assert got.rate_hz == want.rate_hz
            assert np.array_equal(got.samples, want.samples)
        assert np.array_equal(gamma_stream, gamma_batch)

    def test_unaligned_devices_rejected_where_filtered_jointly(self):
        spatial, states, recs = _stream_case(0, 16)
        recs["c"] = SampledSignal(recs["c"].samples[:-300], 16000.0)
        with pytest.raises(ValueError, match="not aligned"):
            separate_recordings(recs, STREAM_WIN, spatial, states,
                                "tv-distributed")

    @pytest.mark.parametrize("edit, error, match", [
        (lambda r: r.update(a=SampledSignal(r["a"].samples[:, :1], 16000.0)),
         ValueError, "1 channels"),
        (lambda r: r.update(a=SampledSignal(r["a"].samples[:500], 16000.0)),
         ValueError, "fewer than one frame"),
        (lambda r: r["b"].samples.__setitem__((7, 1), np.nan),
         NumericalError, "non-finite samples in array 'b'"),
        (lambda r: r.update({"x/y": r.pop("c")}), ConfigError, "'x/y'"),
        (lambda r: r.clear(), ValueError, "no observations"),
        (lambda r: r.update(zz=r["a"]), ValueError,
         "array 'zz' is not in the model"),
    ], ids=["channels", "short", "nan", "id", "none", "unknown"])
    def test_bad_recordings_rejected(self, edit, error, match):
        spatial, states, recs = _stream_case(0, 16)
        edit(recs)
        with pytest.raises(error, match=match):
            separate_recordings(recs, STREAM_WIN, spatial, states)

    def test_window_must_match_the_model(self):
        spatial, states, recs = _stream_case(0, 16)
        with pytest.raises(ValueError, match="model expects 257"):
            separate_recordings(recs, WindowSpec(256, 64), spatial, states)

    @pytest.mark.parametrize("failing_block", [0, 8, 16])
    def test_a_failing_block_releases_the_blocks_after_it(
            self, monkeypatch, failing_block):
        # the blocks after it wait for its overlap-add; they must return
        spatial, states, recs = _stream_case(1, 40)
        real = separator._filter_block

        def failing(f, x, n0, n1, ws):
            if n0 == failing_block:
                raise NumericalError(f"block {n0} failed")
            real(f, x, n0, n1, ws)

        monkeypatch.setattr(separator, "_filter_block", failing)
        monkeypatch.setattr(_pool, "worker_count", lambda: 3)
        with pytest.raises(NumericalError, match=f"block {failing_block} "):
            _separate_bounded(recs, STREAM_WIN, spatial, states,
                              "tv-distributed", run=separate_recordings,
                              timeout=60.0)

    def test_peak_traced_memory_below_the_image_spectrograms(self,
                                                             monkeypatch):
        # the demo geometry at 15 s: three 2-channel devices, 3 sources
        win = WindowSpec()
        rng = np.random.default_rng(5)
        spatial, states, _ = make_synthetic_models(
            rng, arrays=("a1", "a2", "a3"), window=win)
        n = 15 * 16000
        recs = {m: SampledSignal(0.1 * rng.standard_normal((n, 2)), 16000.0)
                for m in ("a1", "a2", "a3")}
        # what separate allocates for its (K+1, C, N, F) image buffers
        images_bytes = (4 * 6 * stft_frame_count(n, win) * spatial.n_bins
                        * 16)
        monkeypatch.setattr(_pool, "worker_count", lambda: 2)
        tracemalloc.start()
        try:
            result = separate_recordings(recs, win, spatial, states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.images[("a1", "s0")].n_samples == n
        assert peak <= 0.6 * images_bytes
