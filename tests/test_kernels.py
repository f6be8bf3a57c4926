"""The per-tile kernels: image sums, static powers, the loading rule and
the channel-planar layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from asyncsep import _kernels as kn
from asyncsep.dsp import SpectrogramTensor, WindowSpec
from asyncsep.model import SpatialModel, StateSpectrumModel

from conftest import (mwf_apply, rand_unit_psd, serial_log_likelihoods,
                      state_log_likelihood)


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
        states = StateSpectrumModel(ids, ltas, noise)
        window = WindowSpec(2 * (F - 1), (F - 1) // 2)  # 75% overlap
        obs = {"a": SpectrogramTensor(X, window, 16000.0)}
        ll = serial_log_likelihoods(obs, spatial, states)
        for n in range(N):
            for f in range(F):
                for s in range(K + 1):
                    ref = state_log_likelihood(obs, spatial, states, n, f, s)
                    assert abs(ll[n, f, s] - ref) <= 1e-10 * abs(ref)


# ---------------------------------------------------------------------------
# channel-planar layout: per-tile oracle agreement for every power layout,
# and inputs passed as non-contiguous views
# ---------------------------------------------------------------------------

def _as_view(X, layout):
    """X with the same values as a non-contiguous (N, F, C) view."""
    N, F, C = X.shape
    if layout == "channel-slice":
        wide = np.zeros((N, F, C + 2), dtype=complex)
        wide[..., 1:C + 1] = X
        return wide[..., 1:C + 1]
    # one slot of a (K+1, N, F, C) view of a (K+1, C, N, F) buffer, the
    # layout of mwf_filter's own result
    planes = np.zeros((2, C, N, F), dtype=complex).transpose(0, 2, 3, 1)
    planes[1] = X
    return planes[1]


@st.composite
def _planar_case(draw):
    X, Rbar, powers, noise = draw(_filter_case())
    if draw(st.booleans()):
        powers = powers[:1]  # static: one frame of powers for every frame
    return X, Rbar, powers, noise


def _assert_matches_oracle(out, X, Rbar, powers, noise):
    N, F, _ = X.shape
    K = Rbar.shape[0]
    spatial = SpatialModel({"a": Rbar}, [f"s{k}" for k in range(K)])
    for n in range(N):
        for f in range(F):
            p = powers[n if powers.shape[0] > 1 else 0, f]
            ref = mwf_apply(X[n, f], spatial, "a", f, p, noise[f])[:K]
            err = np.abs(out[:K, n, f] - ref).max()
            assert err <= 1e-10 * np.abs(ref).max()


class TestPlanarLayout:
    @settings(max_examples=80, deadline=None)
    @given(case=_planar_case(), block=st.integers(1, 4))
    def test_source_images_match_oracle(self, case, block):
        X, Rbar, powers, noise = case
        out = kn.mwf_filter(X, Rbar, powers, noise, block=block)
        assert out.shape == (Rbar.shape[0] + 1,) + X.shape
        _assert_matches_oracle(out, X, Rbar, powers, noise)

    @settings(max_examples=60, deadline=None)
    @given(case=_planar_case(),
           layout=st.sampled_from(["channel-slice", "result-slot"]))
    def test_non_contiguous_mixture(self, case, layout):
        X, Rbar, powers, noise = case
        view = _as_view(X, layout)
        out = kn.mwf_filter(view, Rbar, powers, noise)
        _assert_matches_oracle(out, X, Rbar, powers, noise)
        assert np.array_equal(out, kn.mwf_filter(X, Rbar, powers, noise))
        assert np.array_equal(view, X)  # the input is left untouched

    @settings(max_examples=60, deadline=None)
    @given(case=_planar_case(),
           layout=st.sampled_from(["channel-slice", "result-slot"]))
    def test_loglik_of_a_view_equals_contiguous(self, case, layout):
        X, Rbar, powers, noise = case
        view = _as_view(X, layout)
        var = np.stack([powers[0].T, 10.0 * powers[0].T])  # (2, K, F)
        Smat = np.einsum("skf,kfij->sfij", var, Rbar)
        kn._load_diagonal(Smat, noise[None, :])
        L = np.linalg.cholesky(Smat)
        logdets = 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1).real).sum(-1)
        a = kn.loglik_accumulate(view, L, logdets, np.zeros(X.shape[:2] + (2,)))
        b = kn.loglik_accumulate(np.ascontiguousarray(view), L, logdets,
                                 np.zeros(X.shape[:2] + (2,)))
        assert np.isfinite(a).all()
        assert np.array_equal(a, b)
