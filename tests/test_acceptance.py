"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The demo-scene criteria
share a single experiment run (module-scoped fixture).
"""

import time

import numpy as np
import pytest

from asyncsep import _kernels
from asyncsep.classifier import classify
from asyncsep.demo import DEMO_SEED, demo_scene, demo_train_scene
from asyncsep.dsp import (
    SampledSignal,
    SpectrogramTensor,
    WindowSpec,
    istft,
    lagrange_resample,
    stft,
)
from asyncsep.experiment import run_experiment
from asyncsep.model import SpatialModel, StateSpectrumModel

from conftest import (
    bandlimited_noise,
    correlation_peak_lag,
    make_planted_tiles,
    make_synthetic_models,
    mwf_apply,
    rand_unit_psd,
    serial_log_likelihoods,
    state_log_likelihood,
)

ALL_MODES = ("static-local", "static-pooled", "tv-local", "tv-distributed")


def _report(name, ok, detail):
    print(f"\n[{name}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def demo_run():
    t0 = time.perf_counter()
    report = run_experiment(demo_scene(), demo_train_scene(),
                            modes=ALL_MODES, seed=DEMO_SEED)
    return report, time.perf_counter() - t0


def test_a1_stft_perfect_reconstruction():
    rng = np.random.default_rng(11)
    win = WindowSpec(4096, 1024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(20000, 50000))
        x = rng.standard_normal((n, 2))
        out = istft(stft(SampledSignal(x, 16000.0), win))
        worst = max(worst, np.abs(out.samples - x).max() / np.abs(x).max())
    elapsed = time.perf_counter() - t0
    _report("A1", worst <= 1e-6 and elapsed < 5.0,
            f"round-trip rel err {worst:.2e} (≤1e-6), {elapsed:.2f}s (<5s)")


def test_a2_likelihood_and_filter_match_dense_oracles():
    rng = np.random.default_rng(22)
    win = WindowSpec(124, 31)  # 63 bins, one independent random tile each
    t0 = time.perf_counter()
    tiles_per_combo = win.length // 2 + 1
    worst_ll = 0.0
    worst_filt = 0.0
    n_tiles = 0
    for C in range(1, 5):
        for K in range(1, 5):
            nf = tiles_per_combo
            n_tiles += nf
            cov = np.empty((K, nf, C, C), complex)
            for k in range(K):
                for f in range(nf):
                    cov[k, f] = rand_unit_psd(rng, C)
            spatial = SpatialModel({"a": cov}, [f"s{k}" for k in range(K)])
            lt = rng.uniform(0.2, 2.0, (K, nf))
            states = StateSpectrumModel(
                [f"s{k}" for k in range(K)], lt, rng.uniform(0.05, 1.0, nf))
            x = rng.standard_normal((1, nf, C)) \
                + 1j * rng.standard_normal((1, nf, C))
            obs = {"a": SpectrogramTensor(x, win, 16000.0)}

            # likelihood: the block kernel over the tensor (Cholesky factors)
            ll = serial_log_likelihoods(obs, spatial, states)
            var = states.conditional_variances()
            powers = rng.uniform(0.0, 2.0, (1, nf, K))
            est = _kernels.mwf_filter(x, cov, powers, states.noise_spectrum)
            for f in range(nf):
                noise = states.noise_spectrum[f]
                for s in range(K + 1):
                    S = sum(var[s, k, f] * cov[k, f] for k in range(K))
                    trace = np.trace(S).real + noise
                    S = S + (noise / C + 1e-9 * trace) * np.eye(C)
                    Sinv = np.linalg.inv(S)
                    quad = (x[0, f].conj() @ Sinv @ x[0, f]).real
                    logdet = np.log(np.linalg.det(np.pi * S).real)
                    ref = -quad - logdet
                    rel = abs(ll[0, f, s] - ref) / abs(ref)
                    worst_ll = max(worst_ll, rel)
                Sf = sum(powers[0, f, k] * cov[k, f] for k in range(K))
                trace = np.trace(Sf).real + noise
                Sf = Sf + (noise / C + 1e-9 * trace) * np.eye(C)
                y = np.linalg.inv(Sf) @ x[0, f]
                for k in range(K):
                    ref = powers[0, f, k] * cov[k, f] @ y
                    err = np.abs(est[k, 0, f] - ref).max()
                    scale = max(np.abs(ref).max(), np.abs(x[0, f]).max() * 1e-6)
                    worst_filt = max(worst_filt, err / scale)

    # the scalar reference ops ride the same contract on a subsample
    rng2 = np.random.default_rng(23)
    small = WindowSpec(16, 4)  # 9 bins
    spatial, states, _ = make_synthetic_models(rng2, arrays=("a",), n_ch=3,
                                               n_src=2, window=small)
    x = rng2.standard_normal((1, 9, 3)) + 1j * rng2.standard_normal((1, 9, 3))
    obs = {"a": SpectrogramTensor(x, small, 16000.0)}
    for f in range(9):
        ll = state_log_likelihood(obs, spatial, states, 0, f, 0)
        assert np.isfinite(ll)
        out = mwf_apply(x[0, f], spatial, "a", f, [1.0, 0.5],
                        noise_power=float(states.noise_spectrum[f]))
        assert np.abs(out.sum(axis=0) - x[0, f]).max() <= \
            1e-9 * np.abs(x[0, f]).max()

    elapsed = time.perf_counter() - t0
    ok = worst_ll <= 1e-9 and worst_filt <= 1e-9 and elapsed < 10.0
    _report("A2", ok,
            f"{n_tiles} tiles: loglik rel {worst_ll:.2e}, filter rel "
            f"{worst_filt:.2e} (≤1e-9), {elapsed:.2f}s (<10s)")


def test_a3_sro_invariance_of_distributed_filter(demo_run):
    report, elapsed = demo_run
    with_sro = report.mode_means["sro"]["tv-distributed"]
    without = report.mode_means["synced"]["tv-distributed"]
    diff = abs(with_sro - without)
    _report("A3", diff < 0.5 and elapsed < 120.0,
            f"tv-distributed {with_sro:.2f} dB with SRO vs {without:.2f} dB "
            f"synced (Δ={diff:.3f} dB < 0.5), demo run {elapsed:.1f}s (<120s)")


def test_a4_mode_ordering(demo_run):
    report, _ = demo_run
    means = report.mode_means["sro"]
    tv_d = means["tv-distributed"]
    margin_static = tv_d - means["static-local"]
    margin_unproc = tv_d - means["unprocessed"]
    margin_local = tv_d - means["tv-local"]
    ok = margin_static >= 2.0 and margin_unproc >= 5.0 and margin_local >= 0.0
    _report("A4", ok,
            f"tv-distributed {tv_d:.2f} dB: +{margin_static:.2f} over "
            f"static-local (≥2), +{margin_unproc:.2f} over unprocessed (≥5), "
            f"+{margin_local:.2f} over tv-local (≥0)")


def test_a5_mixture_consistency_every_mode(demo_run):
    report, _ = demo_run
    worst = max(max(per.values()) for per in report.consistency.values())
    _report("A5", worst <= 1e-6,
            f"worst per-tile image-sum deviation {worst:.2e} (≤1e-6) across "
            f"{sum(len(p) for p in report.consistency.values())} mode runs")


def test_a6_posterior_normalization_and_oracle_recovery():
    rng = np.random.default_rng(66)
    t0 = time.perf_counter()
    spatial, states, win = make_synthetic_models(rng, noise_power=0.01)
    obs, planted, top = make_planted_tiles(rng, spatial, states, win,
                                           n_frames=60)
    pm = classify(obs, spatial, states)
    norm_err = np.abs(pm.gamma.sum(axis=2) - 1.0).max()
    accuracy = (pm.gamma.argmax(axis=2)[top] == planted[top]).mean()
    elapsed = time.perf_counter() - t0
    ok = norm_err <= 1e-12 and accuracy >= 0.95 and elapsed < 60.0
    _report("A6", ok,
            f"posterior sum err {norm_err:.2e} (≤1e-12), top-quartile "
            f"accuracy {accuracy * 100:.1f}% (≥95%), {elapsed:.1f}s (<60s)")


def test_a7_resampler_drift_sanity():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    n, rate = 240000, 16000.0
    x = bandlimited_noise(rng, n, 0.3)
    r = lagrange_resample(SampledSignal(x, rate), 0.3)
    tail = slice(n - 2048, n)
    lag = abs(correlation_peak_lag(r.samples[tail, 0], x[tail], max_lag=20))
    elapsed = time.perf_counter() - t0
    _report("A7", abs(lag - 4.5) <= 0.1 and elapsed < 5.0,
            f"terminal drift {lag:.3f} samples (4.5±0.1), {elapsed:.2f}s (<5s)")


def test_a8_end_to_end_runtime_envelope():
    t0 = time.perf_counter()
    run_experiment(demo_scene(), demo_train_scene(),
                   modes=("tv-distributed",), seed=DEMO_SEED,
                   variants=("sro",))
    elapsed = time.perf_counter() - t0
    _report("A8", elapsed < 60.0,
            f"full tv-distributed pipeline (15s, 16kHz, 3 arrays × 2ch, "
            f"3 sources + noise) in {elapsed:.1f}s (<60s)")
