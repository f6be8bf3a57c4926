"""The per-tile kernels: image sums, static powers and the loading rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from asyncsep import _kernels as kn
from asyncsep.classifier import classify
from asyncsep.dsp import SpectrogramTensor, WindowSpec
from asyncsep.model import SpatialModel, StateSpectrumModel

from conftest import rand_unit_psd, state_log_likelihood


def _state_setup(rng, N, F, C, K, S):
    X = rng.standard_normal((N, F, C)) + 1j * rng.standard_normal((N, F, C))
    Rbar = np.stack([np.stack([rand_unit_psd(rng, C) for _ in range(F)])
                     for _ in range(K)])
    var = rng.uniform(0.1, 2.0, (S, K, F))
    noise = rng.uniform(0.05, 1.0, F)
    Smat = np.einsum("skf,kfij->sfij", var, Rbar)
    tr = np.einsum("sfii->sf", Smat).real + noise[None, :]
    diag_add = noise[None, :] / C + 1e-9 * tr
    idx = np.arange(C)
    Smat[:, :, idx, idx] += diag_add[:, :, None]
    L = np.linalg.cholesky(Smat)
    logdets = C * np.log(np.pi) + \
        2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1).real).sum(axis=-1)
    return X, Rbar, noise, L, logdets


def test_mwf_images_sum_to_mixture(rng):
    N, F, C, K = 6, 15, 3, 3
    X, Rbar, noise, _, _ = _state_setup(rng, N, F, C, K, 2)
    powers = rng.uniform(0.0, 2.0, (N, F, K))
    out = kn.mwf_filter(X, Rbar, powers, noise)
    total = out.sum(axis=0)
    assert np.abs(total - X).max() <= 1e-12 * np.abs(X).max()


def test_fallback_blocks_are_seamless(rng):
    # block-wise processing must not change results at block boundaries
    N, F, C, K = 10, 8, 2, 2
    X, Rbar, noise, _, _ = _state_setup(rng, N, F, C, K, 2)
    powers = rng.uniform(0.0, 2.0, (N, F, K))
    a = kn.mwf_filter(X, Rbar, powers, noise, block=3)
    b = kn.mwf_filter(X, Rbar, powers, noise, block=64)
    assert np.array_equal(a, b)


def test_ridge_scale_is_positive_even_for_degenerate_trace():
    S = np.zeros((2, 2, 2), complex)
    S[1] = np.eye(2)
    added = kn._load_diagonal(S, np.zeros(2))
    assert added[0] > 0.0
    assert added[1] == pytest.approx(2e-9)
    np.linalg.cholesky(S)


# ---------------------------------------------------------------------------
# property-based cases: C 1-6 channels, K 1-5 sources, nonnegative powers
# and noise that include exact zeros
# ---------------------------------------------------------------------------

_power = st.one_of(st.just(0.0), st.floats(1e-6, 1e3))


@st.composite
def _filter_case(draw, bins=st.integers(1, 4)):
    C = draw(st.integers(1, 6))
    K = draw(st.integers(1, 5))
    N = draw(st.integers(1, 7))
    F = draw(bins)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((N, F, C)) + 1j * rng.standard_normal((N, F, C))
    Rbar = np.stack([np.stack([rand_unit_psd(rng, C) for _ in range(F)])
                     for _ in range(K)])
    powers = draw(hnp.arrays(np.float64, (N, F, K), elements=_power))
    noise = draw(hnp.arrays(np.float64, (F,), elements=_power))
    return X, Rbar, powers, noise


class TestKernelProperties:
    @settings(max_examples=80, deadline=None)
    @given(case=_filter_case())
    def test_images_sum_to_mixture(self, case):
        X, Rbar, powers, noise = case
        out = kn.mwf_filter(X, Rbar, powers, noise)
        assert np.abs(out.sum(axis=0) - X).max() <= 1e-12 * np.abs(X).max()

    @settings(max_examples=80, deadline=None)
    @given(case=_filter_case())
    def test_one_frame_of_powers_equals_tiled_powers(self, case):
        X, Rbar, powers, noise = case
        static = powers[:1]
        tiled = np.repeat(static, X.shape[0], axis=0)
        a = kn.mwf_filter(X, Rbar, static, noise, block=2)
        b = kn.mwf_filter(X, Rbar, tiled, noise)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @settings(max_examples=60, deadline=None)
    @given(case=_filter_case(bins=st.sampled_from([3, 5])))
    def test_classify_matches_oracle(self, case):
        X, Rbar, powers, noise = case
        N, F, C = X.shape
        K = Rbar.shape[0]
        ids = [f"s{k}" for k in range(K)]
        ltas = powers[0].T  # (K, F)
        spatial = SpatialModel({"a": Rbar}, ids)
        states = StateSpectrumModel(ids, ltas, 10.0 * ltas, ltas / 10.0,
                                    noise)
        window = WindowSpec(2 * (F - 1), (F - 1) // 2)  # 75% overlap
        obs = {"a": SpectrogramTensor(X, window, 16000.0)}
        ll = classify(obs, spatial, states).log_likelihoods
        for n in range(N):
            for f in range(F):
                for s in range(K + 1):
                    ref = state_log_likelihood(obs, spatial, states, n, f, s)
                    assert abs(ll[n, f, s] - ref) <= 1e-10 * abs(ref)
