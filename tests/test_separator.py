"""Tests for the per-array multichannel Wiener filter bank."""

import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asyncsep import _pool, separator
from asyncsep.classifier import (PowerEstimate, classify,
                                 source_power_estimates)
from asyncsep.dsp import SpectrogramTensor, WindowSpec, istft
from asyncsep.errors import NumericalError
from asyncsep.model import (NOISE_ID, SpatialModel, StateSpectrumModel,
                            pooled_tensor)
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
        assert list(spatial.covariances) == ["a", "pooled", "a+pooled"]
        save_models(tmp_path / "m.bin", spatial, states, WindowSpec(512, 128),
                    16000.0)
        spatial, states, _ = load_models(tmp_path / "m.bin")
        assert spatial.array_ids() == ["a", "pooled"]
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


def _planar_result(rng, n_src, C, N, n_bins):
    """Random images as the filter returns them: a (K+1, N, F, C) view."""
    shape = (n_src + 1, C, N, n_bins)
    planes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return planes.transpose(0, 2, 3, 1)


def _summation_bound(est, coeffs, want):
    """A-priori bound on |_consistency - exact| for one input.

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
        got = separator._consistency(est, coeffs)
        assert abs(got - want) <= _summation_bound(est, coeffs, want)

    def test_silent_mixture_tiles_count_as_zero(self, rng):
        est = _planar_result(rng, 3, 2, 40, 5)
        coeffs = np.zeros((40, 5, 2), complex)
        assert separator._consistency(est, coeffs) == 0.0
        coeffs = np.ascontiguousarray(est.sum(axis=0))
        coeffs[17, 3] = 0.0  # the images there do not sum to zero
        assert separator._consistency(est, coeffs) == 0.0


def _perturbing_filter(monkeypatch, tile, delta):
    """Make the block pass add delta to source 0 of one tile, channel 0."""
    real = separator._filter_block

    def perturbed(f, x, n0, n1, ws):
        real(f, x, n0, n1, ws)
        n, k = tile
        if n0 <= n < n1:
            f.out[0, 0, n, k] += delta

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

    def test_pooled_path(self, rng, monkeypatch):
        spatial, states, obs = TestStaticPooled()._trained(rng)
        members = spatial.members(spatial.merged_id())
        merged = np.concatenate([obs[m].coeffs for m in members], axis=2)
        tile, delta = (90, 40), 1e-6
        _perturbing_filter(monkeypatch, tile, delta)
        worst = separate(obs, spatial, states, "static-pooled").metadata[
            "consistency_rel_max"]
        expected = delta / np.linalg.norm(merged[tile])
        assert worst["a+b"] == pytest.approx(expected, rel=1e-9)


def _with_pooled(rng, spatial, n_src):
    """Set the merged-array entry over every array, id "a0+a1+..." (a0 alone
    for one array: a device is its own merged array)."""
    order = sorted(spatial.array_ids())
    C = sum(spatial.channels(m) for m in order)
    F = spatial.n_bins
    cov = dict(spatial.covariances)
    cov["+".join(order)] = np.stack(
        [np.broadcast_to(rand_unit_psd(rng, C), (F, C, C)).copy()
         for _ in range(n_src)])
    return SpatialModel(cov, spatial.source_ids,
                        noise_floor=spatial.noise_floor)


def _serial_separate(obs, spatial, states, mode):
    """classify -> source_power_estimates -> filter_array, one array at a time.

    Returns the images by (array, source) and the worst image-sum
    deviation by filter, as `separate` reports them.
    """
    ids = sorted(obs)
    static = PowerEstimate(
        np.concatenate([states.ltas.T, states.noise_spectrum[:, None]],
                       axis=1)[None], states.source_ids + [NOISE_ID])
    sources = states.source_ids + [NOISE_ID]
    images, worst = {}, {}
    if mode == "static-pooled":
        merged_id = spatial.merged_id()
        merged = pooled_tensor(obs, spatial.members(merged_id))
        est = filter_array(merged, spatial, merged_id, static, states)
        worst[merged_id] = separator._consistency(est, merged.coeffs)
        lo = 0
        for m in spatial.members(merged_id):
            c = obs[m].channels
            for k, sid in enumerate(sources):
                images[(m, sid)] = est[k, :, :, lo:lo + c]
            lo += c
        return images, worst
    if mode == "tv-distributed":
        shared = source_power_estimates(classify(obs, spatial, states, ids),
                                        states)
    for m in ids:
        if mode == "static-local":
            powers = static
        elif mode == "tv-local":
            powers = source_power_estimates(
                classify(obs, spatial, states, [m]), states)
        else:
            powers = shared
        est = filter_array(obs[m], spatial, m, powers, states)
        worst[m] = separator._consistency(est, obs[m].coeffs)
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
    for m in spatial.array_ids():
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


def _corrupt(obs, value):
    bad = obs["a1"].coeffs.copy()
    bad[13, 4, 1] = value
    return dict(obs, a1=SpectrogramTensor(bad, WIN, 16000.0))


class TestNonFiniteInput:
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


def _separate_bounded(*args, timeout=120.0):
    box = {}
    t = threading.Thread(target=lambda: box.update(r=separate(*args)),
                         daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "separate did not finish"
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
        peaks = []
        real_run = _pool.run

        def measured(tasks, work, workspaces):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                real_run(tasks, work, workspaces)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(_pool, "run", measured)
        monkeypatch.setattr(_pool, "worker_count", lambda: 1)
        bufsize = np.getbufsize()
        np.setbufsize(16)
        try:
            result = separate(obs, spatial, states, mode)
            istft(result.images[("a", "s0")])
        finally:
            np.setbufsize(bufsize)
        # the smallest array a block could allocate: one (8, F) bool plane
        assert len(peaks) == 2
        assert max(peaks) < 8 * n_bins
