"""Tests for the end-to-end experiment harness."""

import json

import numpy as np
import pytest

import asyncsep.experiment as experiment
from asyncsep.demo import demo_scene, demo_train_scene
from asyncsep.dsp import WindowSpec, istft, lagrange_resample, stft
from asyncsep.errors import ConfigError
from asyncsep.experiment import _zero_sro, format_report, run_experiment
from asyncsep.separator import (MODES, SeparationResult, separate,
                                separate_recordings)
from asyncsep.scene import (
    ArraySpec,
    ChannelCoupling,
    SceneSpec,
    SourceSpec,
    scene_to_dict,
    synthesize_scene,
)

from conftest import pool_workers


def taps(d0, d1, gain):
    return [ChannelCoupling(d0, gain), ChannelCoupling(d1, 0.9 * gain)]


def tiny_scene(duration=1.5, sro=(0.25, -0.25)):
    sources = [
        SourceSpec("s1", {"type": "speech_noise", "level": 0.1, "activity": 0.5},
                   {"a": taps(0.0, 3.5, 1.0), "b": taps(9.0, 6.5, 0.5)}),
        SourceSpec("s2", {"type": "speech_noise", "level": 0.1, "activity": 0.5},
                   {"a": taps(8.0, 10.5, 0.5), "b": taps(0.0, 4.0, 1.0)}),
    ]
    arrays = [ArraySpec("a", 2, sro[0]), ArraySpec("b", 2, sro[1])]
    return SceneSpec(rate_hz=16000.0, duration_s=duration, sources=sources,
                     arrays=arrays, noise_level=0.002)


WIN = WindowSpec(1024, 256)


def test_report_is_deterministic():
    scene = tiny_scene()
    train = tiny_scene(duration=1.0)
    kwargs = dict(modes=("static-local", "tv-distributed"), seed=5,
                  window=WIN, variants=("sro",))
    a = run_experiment(scene, train, **kwargs)
    b = run_experiment(scene, train, **kwargs)
    da, db = a.to_dict(), b.to_dict()
    da.pop("runtime_s")
    db.pop("runtime_s")
    assert da == db
    assert a.config_digest == b.config_digest


def test_report_serializes_and_formats():
    scene = tiny_scene()
    rep = run_experiment(scene, tiny_scene(duration=1.0),
                         modes=("tv-local",), seed=1, window=WIN,
                         variants=("synced",))
    text = format_report(rep)
    assert "tv-local" in text and "unprocessed" in text
    blob = json.dumps(rep.to_dict())
    assert "sdr_db" in blob


def test_single_source_identity_limit():
    # one source, no mixture noise, negligible model noise: every filter
    # variant collapses to a pass-through and the estimate is near-perfect
    src = SourceSpec("s1", {"type": "speech_noise", "level": 0.1},
                     {"a": taps(0.0, 2.5, 1.0)})
    scene = SceneSpec(rate_hz=16000.0, duration_s=1.5, sources=[src],
                      arrays=[ArraySpec("a", 2, 0.0)], noise_level=0.0)
    train = SceneSpec(rate_hz=16000.0, duration_s=1.0, sources=[src],
                      arrays=[ArraySpec("a", 2, 0.0)], noise_level=0.0)
    rep = run_experiment(scene, train,
                         modes=("static-local", "static-pooled",
                                "tv-local", "tv-distributed"),
                         seed=3, window=WIN, noise_gain=1e-6,
                         variants=("synced",))
    for mode in ("static-local", "static-pooled", "tv-local",
                 "tv-distributed"):
        assert rep.mode_means["synced"][mode] >= 40.0


def test_unprocessed_mixture_is_reported():
    rep = run_experiment(tiny_scene(), tiny_scene(duration=1.0),
                         modes=("tv-distributed",), seed=2, window=WIN,
                         variants=("sro",))
    scores = rep.sdr_db["sro"]["unprocessed"]
    assert set(scores) == {"a/s1", "a/s2", "b/s1", "b/s2"}
    # a mixture of two comparably loud sources cannot be a perfect estimate
    assert rep.mode_means["sro"]["unprocessed"] < 6.0


def test_consistency_recorded_for_each_mode():
    rep = run_experiment(tiny_scene(), tiny_scene(duration=1.0),
                         modes=("static-local", "tv-distributed"), seed=2,
                         window=WIN, variants=("synced",))
    for mode in ("static-local", "tv-distributed"):
        assert rep.consistency["synced"][mode] <= 1e-6


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown mode"):
        run_experiment(tiny_scene(), tiny_scene(), modes=("fancy",), seed=0)


def test_each_scene_is_rendered_once(monkeypatch):
    import asyncsep.experiment as experiment

    renders = []

    def counting(spec, seed, *args, **kwargs):
        renders.append((json.dumps(scene_to_dict(spec), sort_keys=True), seed))
        return synthesize_scene(spec, seed, *args, **kwargs)

    monkeypatch.setattr(experiment, "synthesize_scene", counting)
    run_experiment(tiny_scene(), tiny_scene(duration=1.0),
                   modes=("tv-distributed",), seed=3, window=WIN,
                   variants=("sro", "synced"))
    assert len(renders) == 2
    assert len(set(renders)) == 2


def test_negative_seed_rejected(monkeypatch):
    # refused before the training scene, valid at seed + 1, is drawn
    import asyncsep.experiment as experiment

    def never(*args, **kwargs):
        raise AssertionError("ran before the seed was checked")

    monkeypatch.setattr(experiment, "synthesize_scene", never)
    monkeypatch.setattr(experiment, "train_models", never)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        run_experiment(tiny_scene(), tiny_scene(duration=1.0), seed=-1,
                       window=WIN)


def test_resampled_synced_render_equals_direct_render():
    scene = tiny_scene()
    _, direct = synthesize_scene(scene, 11)
    _, synced = synthesize_scene(_zero_sro(scene), 11)
    for arr in scene.arrays:
        resampled = lagrange_resample(synced[arr.id].signal, arr.sro_hz)
        assert direct[arr.id].sro_hz == arr.sro_hz
        assert np.array_equal(resampled.samples,
                              direct[arr.id].signal.samples)


def _batch_separation(signals, window, spatial, states, mode):
    """STFT -> separate -> iSTFT of every image: the path run_experiment
    took before it streamed."""
    result = separate({m: stft(sig, window) for m, sig in signals.items()},
                      spatial, states, mode)
    images = {key: istft(t, length=signals[key[0]].n_samples)
              for key, t in result.images.items()}
    return SeparationResult(images, mode, result.metadata)


@pytest.mark.parametrize("seed", [2024, 2025])
def test_report_equals_the_batch_path(monkeypatch, seed):
    scene, train = demo_scene(), demo_train_scene()
    scene.duration_s = train.duration_s = 3.0
    streamed = run_experiment(scene, train, modes=MODES, seed=seed).to_dict()
    monkeypatch.setattr(experiment, "separate_recordings", _batch_separation)
    batched = run_experiment(scene, train, modes=MODES, seed=seed).to_dict()
    streamed.pop("runtime_s")
    batched.pop("runtime_s")
    assert streamed == batched


def test_report_equal_for_any_worker_count():
    scene, train = demo_scene(), demo_train_scene()
    scene.duration_s = train.duration_s = 2.0
    reports = []
    for workers in (1, 3):
        with pool_workers(workers):
            rep = run_experiment(scene, train, modes=MODES, seed=2024)
        reports.append(rep.to_dict())
        reports[-1].pop("runtime_s")
    assert reports[0] == reports[1]
    assert set(reports[0]["sdr_db"]) == {"sro", "synced"}


def test_training_data_is_released_before_the_test_scene(monkeypatch):
    # the training images and tensors are not held through test synthesis
    # and separation
    import weakref

    held = []

    def tracked_stft(signal, window):
        spec = stft(signal, window)
        held.append(weakref.ref(signal))
        held.append(weakref.ref(spec))
        return spec

    def checked_synthesis(spec, seed):
        if held:  # the test scene: training is over
            assert all(ref() is None for ref in held)
        return synthesize_scene(spec, seed)

    monkeypatch.setattr(experiment, "stft", tracked_stft)
    monkeypatch.setattr(experiment, "synthesize_scene", checked_synthesis)
    run_experiment(tiny_scene(), tiny_scene(duration=1.0),
                   modes=("tv-distributed",), seed=3, window=WIN,
                   variants=("sro",))
    assert len(held) == 8  # 2 arrays x 2 sources, a signal and a tensor each


def test_each_result_is_released_before_the_next_separation(monkeypatch):
    import weakref

    held = []

    def tracked(signals, *args, **kwargs):
        assert all(ref() is None for ref in held)
        result = separate_recordings(signals, *args, **kwargs)
        held.extend(weakref.ref(img) for img in result.images.values())
        return result

    monkeypatch.setattr(experiment, "separate_recordings", tracked)
    run_experiment(tiny_scene(), tiny_scene(duration=1.0),
                   modes=("static-local", "tv-distributed"), seed=3,
                   window=WIN, variants=("sro", "synced"))
    assert len(held) == 4 * 6  # 2 arrays x (2 sources + noise) per pass
