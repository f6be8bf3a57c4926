"""Tests for the joint state classifier and power estimation."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsep.classifier import (
    classify,
    source_power_estimates,
    state_factors,
)
from asyncsep.dsp import SpectrogramTensor, WindowSpec
from asyncsep.errors import ConfigError, NumericalError
from asyncsep.model import SpatialModel, StateSpectrumModel

from conftest import (
    make_planted_tiles,
    make_synthetic_models,
    pool_workers,
    posterior_histogram,
    rand_unit_psd,
    save_posteriors,
    serial_classify,
    serial_log_likelihoods,
    serial_posteriors,
    softmax_oracle,
    state_log_likelihood,
)

WIN = WindowSpec(16, 4)
F = WIN.length // 2 + 1


def scalar_models(var_high, noise=0.0):
    """1 array, 1 channel, 1 source; state 0 has source variance var_high."""
    cov = np.ones((1, F, 1, 1), complex)
    spatial = SpatialModel({"a": cov}, ["s0"])
    lt = np.full((1, F), var_high / 10.0)
    states = StateSpectrumModel(["s0"], lt, np.full(F, noise))
    return spatial, states


def obs_from(x_by_array):
    return {m: SpectrogramTensor(np.asarray(x, complex), WIN, 16000.0)
            for m, x in x_by_array.items()}


class TestStateLogLikelihood:
    def test_scalar_zero_observation_unit_variance(self):
        spatial, states = scalar_models(1.0)
        obs = obs_from({"a": np.zeros((1, F, 1))})
        got = state_log_likelihood(obs, spatial, states, 0, 0, 0)
        assert got == pytest.approx(-math.log(math.pi), abs=1e-6)

    def test_scalar_closed_form(self):
        # S = 2, |x|^2 = 2 -> -1 - log(2 pi)
        spatial, states = scalar_models(2.0)
        x = np.zeros((1, F, 1), complex)
        x[0, 0, 0] = math.sqrt(2.0)
        obs = obs_from({"a": x})
        got = state_log_likelihood(obs, spatial, states, 0, 0, 0)
        assert got == pytest.approx(-1.0 - math.log(2.0 * math.pi), abs=1e-6)

    def test_matches_dense_inverse_oracle(self, rng):
        spatial, states, win = make_synthetic_models(
            rng, arrays=("a", "b"), n_ch=2, n_src=3, window=WIN)
        obs = obs_from({
            "a": rng.standard_normal((3, F, 2)) + 1j * rng.standard_normal((3, F, 2)),
            "b": rng.standard_normal((3, F, 2)) + 1j * rng.standard_normal((3, F, 2)),
        })
        var = states.conditional_variances()
        for (n, f, s) in [(0, 0, 0), (1, 3, 2), (2, 7, 3)]:
            got = state_log_likelihood(obs, spatial, states, n, f, s)
            expected = 0.0
            for m in ("a", "b"):
                cov = spatial.covariances[m]
                S = sum(var[s, k, f] * cov[k, f] for k in range(3))
                noise = states.noise_spectrum[f]
                trace = np.trace(S).real + noise
                S = S + (noise / 2 + 1e-9 * trace) * np.eye(2)
                x = obs[m].coeffs[n, f]
                quad = (x.conj() @ np.linalg.inv(S) @ x).real
                logdet = math.log(np.linalg.det(math.pi * S).real)
                expected += -quad - logdet
            rel = abs(got - expected) / abs(expected)
            assert rel <= 1e-9

    def test_batched_path_matches_scalar_op(self, rng):
        spatial, states, _ = make_synthetic_models(
            rng, arrays=("a", "b"), n_ch=2, n_src=2, window=WIN)
        obs = obs_from({
            "a": rng.standard_normal((4, F, 2)) + 1j * rng.standard_normal((4, F, 2)),
            "b": rng.standard_normal((4, F, 2)) + 1j * rng.standard_normal((4, F, 2)),
        })
        ll = serial_log_likelihoods(obs, spatial, states)
        for (n, f, s) in [(0, 0, 0), (3, 8, 2), (2, 5, 1)]:
            ref = state_log_likelihood(obs, spatial, states, n, f, s)
            assert abs(ll[n, f, s] - ref) <= 1e-9 * abs(ref)

    def test_cross_array_additivity(self, rng):
        spatial, states, _ = make_synthetic_models(
            rng, arrays=("a", "b", "c"), n_ch=2, n_src=2, window=WIN)
        obs = obs_from({m: rng.standard_normal((3, F, 2))
                        + 1j * rng.standard_normal((3, F, 2))
                        for m in ("a", "b", "c")})
        joint = serial_log_likelihoods(obs, spatial, states)
        parts = sum(serial_log_likelihoods({m: obs[m]}, spatial, states)
                    for m in ("a", "b", "c"))
        assert np.allclose(joint, parts, rtol=1e-12, atol=1e-9)

    def test_per_tile_phase_invariance(self, rng):
        # a global phase on one array's tile leaves the likelihood unchanged
        spatial, states, _ = make_synthetic_models(
            rng, arrays=("a", "b"), n_ch=2, n_src=2, window=WIN)
        x = {m: rng.standard_normal((2, F, 2)) + 1j * rng.standard_normal((2, F, 2))
             for m in ("a", "b")}
        base = serial_log_likelihoods(obs_from(x), spatial, states)
        x["a"] = x["a"] * np.exp(1j * rng.uniform(0, 2 * np.pi, (2, F, 1)))
        rotated = serial_log_likelihoods(obs_from(x), spatial, states)
        assert np.abs(base - rotated).max() <= 1e-9 * np.abs(base).max()

    def test_non_finite_observations_rejected(self, rng):
        spatial, states, _ = make_synthetic_models(
            rng, arrays=("a",), n_ch=2, n_src=2, window=WIN)
        x = np.full((2, F, 2), np.nan, complex)
        with pytest.raises(NumericalError, match="non-finite"):
            classify(obs_from({"a": x}), spatial, states)

    def test_observations_of_an_array_not_in_the_model_rejected(self, rng):
        spatial, states, _ = make_synthetic_models(
            rng, arrays=("a",), n_ch=2, n_src=2, window=WIN)
        obs = obs_from({m: np.zeros((3, F, 2)) for m in ("a", "zz")})
        with pytest.raises(ValueError,
                           match="array 'zz' is not in the model"):
            classify(obs, spatial, states)
        with pytest.raises(ValueError, match="no observations given"):
            classify({}, spatial, states)
        with pytest.raises(ConfigError, match="'a/b'"):
            classify(obs_from({"a/b": np.zeros((3, F, 2))}), spatial, states)

    def test_misaligned_observations_rejected(self, rng):
        spatial, states, _ = make_synthetic_models(
            rng, arrays=("a", "b"), n_ch=2, n_src=2, window=WIN)
        obs = obs_from({
            "a": np.zeros((3, F, 2)),
            "b": np.zeros((4, F, 2)),
        })
        with pytest.raises(ValueError, match="not aligned"):
            classify(obs, spatial, states)


class TestPosteriors:
    def test_uniform_for_equal_likelihoods(self):
        pm = serial_posteriors(np.zeros((2, 3, 5)))
        assert np.allclose(pm.gamma, 0.2)

    def test_dominant_state_wins(self):
        pm = serial_posteriors(np.array([[[0.0, -1e30]]]))
        assert pm.gamma[0, 0, 0] == pytest.approx(1.0)
        assert pm.gamma[0, 0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_matches_high_precision_softmax(self, rng):
        L = rng.uniform(-800.0, 800.0, (4, 3, 5))
        pm = serial_posteriors(L)
        mpmath.mp.dps = 60
        for n in range(4):
            for f in range(3):
                exps = [mpmath.exp(mpmath.mpf(float(v))) for v in L[n, f]]
                total = sum(exps)
                for s in range(5):
                    ref = float(exps[s] / total)
                    assert abs(pm.gamma[n, f, s] - ref) <= 1e-12

    def test_normalization_within_tolerance(self, rng):
        pm = serial_posteriors(rng.uniform(-100, 100, (10, 8, 4)))
        assert np.abs(pm.gamma.sum(axis=2) - 1.0).max() <= 1e-12

    def test_shift_invariance(self, rng):
        L = rng.uniform(-5, 5, (3, 4, 4))
        a = serial_posteriors(L).gamma
        b = serial_posteriors(L + 123.456).gamma
        assert np.allclose(a, b, atol=1e-15)

    def test_permutation_equivariance(self, rng):
        # equal up to the reordered normalization sum
        L = rng.uniform(-5, 5, (3, 4, 4))
        perm = np.array([2, 0, 3, 1])
        a = serial_posteriors(L).gamma[:, :, perm]
        b = serial_posteriors(L[:, :, perm]).gamma
        assert np.allclose(a, b, rtol=0, atol=1e-15)

    def test_monotonicity(self):
        L = np.array([[[0.0, 1.0, 2.0]]])
        g0 = serial_posteriors(L).gamma[0, 0, 0]
        L2 = L.copy()
        L2[0, 0, 0] += 0.5
        assert serial_posteriors(L2).gamma[0, 0, 0] > g0

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalError):
            serial_posteriors(np.array([[[np.inf, 0.0]]]))


def _log_likelihoods(seed, n_states, spread, ties):
    """(3, 5, n_states) log-likelihoods spanning `spread`, some tied."""
    rng = np.random.default_rng(seed)
    ll = rng.uniform(-0.5, 0.5, (3, 5, n_states)) * spread
    if ties and n_states > 1:
        ll[:, :2, -1] = ll[:, :2, 0]
    return ll


spreads = st.floats(0.0, 1e300, allow_nan=False)


class TestPlaneByPlaneSoftmax:
    @settings(max_examples=200, deadline=None)
    @given(n_states=st.integers(1, 7), spread=spreads, ties=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_reduction_softmax(self, n_states, spread, ties, seed):
        ll = _log_likelihoods(seed, n_states, spread, ties)
        pm = serial_posteriors(ll)
        assert np.array_equal(pm.gamma, softmax_oracle(ll))
        assert np.abs(pm.gamma.sum(axis=2) - 1.0).max() <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(n_states=st.integers(8, 16), spread=spreads, ties=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_many_states_agree_to_rounding(self, n_states, spread, ties, seed):
        # numpy sums 8 or more terms pairwise, the planes add in state order
        ll = _log_likelihoods(seed, n_states, spread, ties)
        gamma = serial_posteriors(ll).gamma
        assert np.allclose(gamma, softmax_oracle(ll), rtol=1e-14, atol=0.0)
        assert np.abs(gamma.sum(axis=2) - 1.0).max() <= 1e-12

    def test_input_left_untouched(self, rng):
        ll = rng.uniform(-50.0, 50.0, (4, 6, 4))
        kept = ll.copy()
        serial_posteriors(ll)
        assert np.array_equal(ll, kept)


class TestSourcePowerEstimates:
    def _states(self):
        lt = np.ones((2, F))
        return StateSpectrumModel(["s0", "s1"], lt, np.full(F, 0.7))

    def _pm(self, gamma):
        g = np.asarray(gamma, float)[None, None, :] * np.ones((2, F, 1))
        return serial_posteriors(np.log(np.maximum(g, 1e-300)),
                                 state_ids=["s0", "s1", "noise"])

    def test_one_hot_recovers_state_variances(self):
        states = self._states()
        est = source_power_estimates(self._pm([1.0, 0.0, 0.0]), states)
        assert np.allclose(est[:, :, 0], 10.0)
        assert np.allclose(est[:, :, 1], 0.1)
        assert np.allclose(est[:, :, 2], 0.7)

    def test_uniform_two_state_average(self):
        # equal posterior over the two directional states only
        states = self._states()
        est = source_power_estimates(self._pm([0.5, 0.5, 0.0]), states)
        assert np.allclose(est[:, :, 0], (10.0 + 0.1) / 2)
        assert np.allclose(est[:, :, 1], (10.0 + 0.1) / 2)

    def test_matches_dot_product_oracle(self, rng):
        states = self._states()
        raw = rng.uniform(0.1, 1.0, (3, F, 3))
        raw /= raw.sum(axis=2, keepdims=True)
        pm = serial_posteriors(np.log(raw),
                               state_ids=["s0", "s1", "noise"])
        est = source_power_estimates(pm, states)
        var = states.conditional_variances()
        for n in range(3):
            for f in range(F):
                for k in range(2):
                    ref = sum(pm.gamma[n, f, s] * var[s, k, f] for s in range(3))
                    assert abs(est[n, f, k] - ref) <= 1e-12

    def test_convex_combination_bounds(self, rng):
        states = self._states()
        raw = rng.uniform(0.0, 1.0, (5, F, 3)) + 1e-9
        raw /= raw.sum(axis=2, keepdims=True)
        pm = serial_posteriors(np.log(raw),
                               state_ids=["s0", "s1", "noise"])
        est = source_power_estimates(pm, states)
        for k in range(2):
            assert (est[:, :, k] >= 0.1 - 1e-12).all()
            assert (est[:, :, k] <= 10.0 + 1e-12).all()

    def test_noise_power_is_pinned_to_spectrum(self, rng):
        states = self._states()
        raw = rng.uniform(0.1, 1.0, (3, F, 3))
        raw /= raw.sum(axis=2, keepdims=True)
        pm = serial_posteriors(np.log(raw),
                               state_ids=["s0", "s1", "noise"])
        est = source_power_estimates(pm, states)
        assert np.array_equal(est[:, :, 2],
                              np.broadcast_to(states.noise_spectrum, (3, F)))


class TestOracleRecovery:
    def test_planted_wdisjoint_recovery(self, rng):
        spatial, states, win = make_synthetic_models(rng, noise_power=0.01)
        obs, planted, top = make_planted_tiles(rng, spatial, states, win,
                                               n_frames=40)
        pm = classify(obs, spatial, states)
        assert np.abs(pm.gamma.sum(axis=2) - 1.0).max() <= 1e-12
        pred = pm.gamma.argmax(axis=2)
        accuracy = (pred[top] == planted[top]).mean()
        assert accuracy >= 0.95

    def test_joint_beats_single_array(self, rng):
        spatial, states, win = make_synthetic_models(rng, noise_power=0.01)
        obs, planted, top = make_planted_tiles(rng, spatial, states, win,
                                               n_frames=40)
        joint = classify(obs, spatial, states).gamma.argmax(axis=2)
        m = next(iter(spatial.covariances))
        single = classify({m: obs[m]}, spatial, states).gamma.argmax(axis=2)
        assert (joint[top] == planted[top]).mean() >= \
            (single[top] == planted[top]).mean()


def _random_case(seed, n_arrays, n_ch, n_src, n_frames):
    rng = np.random.default_rng(seed)
    spatial, states, _ = make_synthetic_models(
        rng, arrays=[f"a{i}" for i in range(n_arrays)], n_ch=n_ch,
        n_src=n_src, window=WIN)
    obs = obs_from({m: (rng.standard_normal((n_frames, F, n_ch))
                        + 1j * rng.standard_normal((n_frames, F, n_ch)))
                    * rng.uniform(0.01, 10.0) for m in spatial.covariances})
    return obs, spatial, states


class TestClassifyRunsTheFusedPass:
    """`classify` runs the separation pass on a unit without filters; the
    serial kernels are its reference."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_arrays=st.integers(1, 3),
           n_ch=st.integers(1, 3), n_src=st.integers(1, 3),
           n_frames=st.integers(1, 30), workers=st.sampled_from([1, 3]))
    def test_equals_serial_reference(self, seed, n_arrays, n_ch, n_src,
                                     n_frames, workers):
        obs, spatial, states = _random_case(seed, n_arrays, n_ch, n_src,
                                            n_frames)
        with pool_workers(workers):
            pm = classify(obs, spatial, states)
        assert np.array_equal(pm.gamma,
                              serial_classify(obs, spatial, states).gamma)
        assert pm.state_ids == states.state_ids

    def test_one_array_equals_serial_reference(self):
        obs, spatial, states = _random_case(11, 3, 2, 3, 21)
        for m in obs:
            one = {m: obs[m]}
            assert np.array_equal(classify(one, spatial, states).gamma,
                                  serial_classify(one, spatial, states).gamma)

    def test_peak_traced_memory_holds_one_posterior_tensor(self):
        # the posteriors are the one (N, F, S) array it keeps: no
        # log-likelihood tensor beside them
        win = WindowSpec(1024, 256)
        n_bins = win.length // 2 + 1
        rng = np.random.default_rng(3)
        spatial, states, _ = make_synthetic_models(
            rng, arrays=("a", "b"), window=win)
        obs = {m: SpectrogramTensor(
            rng.standard_normal((400, n_bins, 2))
            + 1j * rng.standard_normal((400, n_bins, 2)), win, 16000.0)
            for m in ("a", "b")}
        tensor = 400 * n_bins * states.n_states * 8
        with pool_workers(1):
            tracemalloc.start()
            try:
                pm = classify(obs, spatial, states)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert pm.gamma.nbytes == tensor
        assert peak < 1.5 * tensor


class TestDiagnostics:
    def test_save_and_histogram(self, rng, tmp_path):
        pm = serial_posteriors(rng.uniform(-3, 3, (6, F, 3)),
                               state_ids=["s0", "s1", "noise"])
        out = tmp_path / "gamma.npy"
        save_posteriors(pm, out)
        assert np.array_equal(np.load(out), pm.gamma)
        text = posterior_histogram(pm)
        assert "noise" in text and "%" in text
