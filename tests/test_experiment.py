"""Tests for the end-to-end experiment harness."""

import copy
import json

import numpy as np
import pytest

import asyncsep.experiment as experiment
from asyncsep import _pool
from asyncsep.demo import demo_scene, demo_train_scene
from asyncsep.dsp import WindowSpec, istft, lagrange_resample, stft
from asyncsep.errors import ConfigError
from asyncsep.experiment import format_report, run_experiment
from asyncsep.metrics import _Scores, at_device_clock, score_images
from asyncsep.model import _train_sources, train_models
from asyncsep.separator import MODES, _separate_sources, separate
from asyncsep.scene import (
    ArraySpec,
    ChannelCoupling,
    SceneSpec,
    SourceSpec,
    _image_sources,
    _recordings,
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


def _zero_sro(spec: SceneSpec) -> SceneSpec:
    """spec with every clock offset 0."""
    out = copy.deepcopy(spec)
    for arr in out.arrays:
        arr.sro_hz = 0.0
    return out


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


def test_unprocessed_without_a_mode_equals_the_pass_scores():
    # the first mode's pass scores the recordings too; with no mode they
    # are fed alone
    scene, train = tiny_scene(), tiny_scene(duration=1.0)
    kwargs = dict(seed=2, window=WIN, variants=("sro", "synced"))
    alone = run_experiment(scene, train, modes=(), **kwargs)
    in_pass = run_experiment(scene, train, modes=("tv-local",), **kwargs)
    for variant in ("sro", "synced"):
        assert list(alone.sdr_db[variant]) == ["unprocessed"]
        assert alone.sdr_db[variant]["unprocessed"] == \
            in_pass.sdr_db[variant]["unprocessed"]
        assert alone.mode_means[variant]["unprocessed"] == \
            in_pass.mode_means[variant]["unprocessed"]


def test_consistency_recorded_for_each_mode():
    rep = run_experiment(tiny_scene(), tiny_scene(duration=1.0),
                         modes=("static-local", "tv-distributed"), seed=2,
                         window=WIN, variants=("synced",))
    for mode in ("static-local", "tv-distributed"):
        assert rep.consistency["synced"][mode] <= 1e-6


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown mode"):
        run_experiment(tiny_scene(), tiny_scene(), modes=("fancy",), seed=0)


def test_unknown_variant_rejected_before_training(monkeypatch):
    # "sync" was run as the synced variant, under its own key
    import asyncsep.experiment as experiment

    monkeypatch.setattr(experiment, "_image_sources", None)  # not reached
    with pytest.raises(ValueError, match="unknown variant 'sync'"):
        run_experiment(tiny_scene(), tiny_scene(), variants=("sync",), seed=0)


@pytest.mark.parametrize("kwargs, match", [
    ({"modes": ("tv-local", "tv-local")},
     "modes repeated: tv-local, tv-local"),
    ({"modes": MODES + ("static-local",)}, "modes repeated"),
    ({"variants": ("sro", "synced", "sro")}, "variants repeated"),
], ids=["mode", "mode-among-others", "variant"])
def test_repeated_mode_or_variant_rejected_before_training(monkeypatch,
                                                           kwargs, match):
    # a repeated mode ran its whole pass twice and kept the second result;
    # in the one pass of every mode two filters would write one destination
    import asyncsep.experiment as experiment

    monkeypatch.setattr(experiment, "_image_sources", None)  # not reached
    with pytest.raises(ValueError, match=match):
        run_experiment(tiny_scene(), tiny_scene(), seed=0, **kwargs)


def _edited(spec: SceneSpec, edit) -> SceneSpec:
    """A copy of spec after edit(copy), checked again."""
    out = copy.deepcopy(spec)
    edit(out)
    out.validate()
    return out


def _rename_array(spec: SceneSpec, old: str, new: str) -> None:
    spec.array(old).id = new
    for src in spec.sources:
        src.coupling[new] = src.coupling.pop(old)


@pytest.mark.parametrize("edit, modes, match", [
    (lambda s: setattr(s, "rate_hz", 8000.0), ("tv-distributed",),
     "test scene at 8000.0 Hz, training scene at 16000.0 Hz"),
    (lambda s: _rename_array(s, "b", "zz"), ("tv-local",),
     "array 'zz' is not in the training scene, which holds a, b"),
    (lambda s: (setattr(s.array("a"), "channels", 1),
                [src.coupling["a"].pop() for src in s.sources]),
     ("static-local",), "array 'a': 1 channels, 2 in the training scene"),
    (lambda s: s.arrays.pop(), ("tv-local", "static-pooled"),
     "static-pooled filters every training array; the test scene lacks b"),
    (lambda s: setattr(s.sources[1], "id", "zz"), ("tv-distributed",),
     "source 'zz' is not in the training scene, which holds s1, s2"),
], ids=["rate", "array", "channels", "pooled", "source"])
def test_incompatible_scenes_refused_before_rendering(monkeypatch, edit,
                                                      modes, match):
    # each pair failed late, after training and a pass, or ran silently
    calls = []
    monkeypatch.setattr(experiment, "_image_sources",
                        lambda *args: calls.append(args))
    scene = _edited(tiny_scene(), edit)
    with pytest.raises(ValueError, match=match):
        run_experiment(scene, tiny_scene(duration=1.0), modes=modes, seed=0,
                       window=WIN)
    assert calls == []


def test_subsets_of_the_training_arrays_and_sources_run():
    # the model's other images go nowhere; every mode but static-pooled
    scene = _edited(tiny_scene(), lambda s: (s.arrays.pop(),
                                             s.sources.pop(0)))
    rep = run_experiment(scene, tiny_scene(duration=1.0),
                         modes=("static-local", "tv-local", "tv-distributed"),
                         seed=2, window=WIN, variants=("sro",))
    for scores in rep.sdr_db["sro"].values():
        assert list(scores) == ["a/s2"]
        assert np.isfinite(list(scores.values())).all()


def test_each_scene_is_rendered_once(monkeypatch):
    # and only the test scene is mixed, once for both variants
    import asyncsep.experiment as experiment

    renders, mixes = [], []

    def counting(spec, seed):
        renders.append((json.dumps(scene_to_dict(spec), sort_keys=True), seed))
        return _image_sources(spec, seed)

    def mixing(spec, seed, images):
        mixes.append(seed)
        return _recordings(spec, seed, images)

    monkeypatch.setattr(experiment, "_image_sources", counting)
    monkeypatch.setattr(experiment, "_recordings", mixing)
    run_experiment(tiny_scene(), tiny_scene(duration=1.0),
                   modes=("tv-distributed",), seed=3, window=WIN,
                   variants=("sro", "synced"))
    assert len(renders) == 2
    assert len(set(renders)) == 2
    assert mixes == [3]


def test_negative_seed_rejected(monkeypatch):
    # refused before the training scene, valid at seed + 1, is drawn
    import asyncsep.experiment as experiment

    def never(*args, **kwargs):
        raise AssertionError("ran before the seed was checked")

    monkeypatch.setattr(experiment, "_image_sources", never)
    monkeypatch.setattr(experiment, "_train_sources", never)
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


def _batch_report(scene, train, seed, modes):
    """sdr_db and consistency of `run_experiment` the batch way: whole
    truth images at the device clock (`at_device_clock`), scored by
    `score_images` against `istft(separate(stft(...)))`."""
    window = WindowSpec()
    train_images = synthesize_scene(_zero_sro(train), seed + 1)[0]
    spatial, states = train_models(
        {key: stft(sig, window) for key, sig in train_images.images.items()},
        include_pooled="static-pooled" in modes)
    images, synced = synthesize_scene(_zero_sro(scene), seed)
    truth = {key: img for arr in scene.arrays
             for key, img in images.images.items() if key[0] == arr.id}
    sdr_db, consistency = {}, {}
    for variant in ("sro", "synced"):
        sro = {arr.id: arr.sro_hz if variant == "sro" else 0.0
               for arr in scene.arrays}
        signals = {m: lagrange_resample(synced[m].signal, hz) if hz
                   else synced[m].signal for m, hz in sro.items()}
        refs = at_device_clock(truth, sro)
        sdr_db[variant] = {"unprocessed": score_images(
            refs, {key: signals[key[0]] for key in refs})}
        consistency[variant] = {}
        for mode in modes:
            result = separate({m: stft(sig, window)
                               for m, sig in signals.items()},
                              spatial, states, mode)
            sdr_db[variant][mode] = score_images(refs, {
                key: istft(result.images[key],
                           length=signals[key[0]].n_samples)
                for key in refs})
            consistency[variant][mode] = max(
                result.metadata["consistency_rel_max"].values())
    return sdr_db, consistency


@pytest.mark.parametrize("seed", [2024, 2025])
def test_report_equals_the_batch_path(seed):
    scene, train = demo_scene(), demo_train_scene()
    scene.duration_s = train.duration_s = 3.0
    streamed = run_experiment(scene, train, modes=MODES, seed=seed)
    sdr_db, consistency = _batch_report(scene, train, seed, MODES)
    assert streamed.sdr_db == sdr_db
    assert list(streamed.sdr_db["sro"]) == ["unprocessed", *MODES]
    assert list(streamed.sdr_db["sro"]["tv-local"]) == \
        list(sdr_db["sro"]["tv-local"])
    assert streamed.consistency == consistency


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
    # the training image sources, and the source signals they hold, are
    # not held through test synthesis and separation
    import weakref

    held = []

    def tracked_training(sources, *args, **kwargs):
        held.extend(weakref.ref(source) for source in sources.values())
        return _train_sources(sources, *args, **kwargs)

    def checked_synthesis(spec, seed):
        if held:  # the test scene: training is over
            assert all(ref() is None for ref in held)
            return _image_sources(spec, seed)
        sources = _image_sources(spec, seed)
        held.append(weakref.ref(next(iter(sources.values())).signal.base))
        return sources

    monkeypatch.setattr(experiment, "_train_sources", tracked_training)
    monkeypatch.setattr(experiment, "_image_sources", checked_synthesis)
    run_experiment(tiny_scene(), tiny_scene(duration=1.0),
                   modes=("tv-distributed",), seed=3, window=WIN,
                   variants=("sro",))
    assert len(held) == 5  # the signals, and 2 arrays x 2 sources


def test_each_result_is_released_before_the_next_separation(monkeypatch):
    # no destination of a variant's pass, nor what it scored, is held
    # through the next variant's pass, which runs every mode
    import weakref

    held, nowhere, calls = [], [], []

    def tracked(sources, window, spatial, states, modes, posteriors, image,
                truth):
        assert all(ref() is None for ref in held)
        calls.append(list(modes))

        def kept(mode, m, sid):
            dest = image(mode, m, sid)
            if dest is None:  # a noise image, not scored
                nowhere.append((m, sid))
            else:
                held.append(weakref.ref(dest))
            return dest

        return _separate_sources(sources, window, spatial, states, modes,
                                 posteriors, kept, truth)

    monkeypatch.setattr(experiment, "_separate_sources", tracked)
    run_experiment(tiny_scene(), tiny_scene(duration=1.0),
                   modes=("static-local", "tv-distributed"), seed=3,
                   window=WIN, variants=("sro", "synced"))
    assert calls == 2 * [["static-local", "tv-distributed"]]
    assert len(held) == 4 * 4  # 2 arrays x 2 sources per mode and variant
    assert nowhere == 4 * [("a", "noise"), ("b", "noise")]


def test_discarded_noise_images_are_not_synthesized(monkeypatch):
    # each filter's writer synthesizes the K source images it scores, not
    # the noise image; separate_recordings still writes K + 1
    import asyncsep.separator as separator

    rows = []

    class Recorded(separator._ImageWriter):
        def __init__(self, *args):
            super().__init__(*args)
            rows.append(self.rows)

    monkeypatch.setattr(separator, "_ImageWriter", Recorded)
    run_experiment(tiny_scene(), tiny_scene(duration=1.0),
                   modes=("static-pooled", "tv-local"), seed=3, window=WIN,
                   variants=("sro",))
    # K = 2; pooled a and b, then tv-local a and b
    assert rows == [(2, 2), (2, 2), (2, 2), (2, 2)]
    rows.clear()
    images, recordings = synthesize_scene(tiny_scene(), 3)
    spatial, states = train_models(
        {key: stft(sig, WIN) for key, sig in images.images.items()})
    result = separator.separate_recordings(
        {m: rec.signal for m, rec in recordings.items()}, WIN, spatial,
        states, "tv-local")
    assert rows == [(3, 2), (3, 2)]
    assert len(result.images) == 6


def test_mode_loop_memory_does_not_grow_with_length(monkeypatch):
    # the traced peak of the one pass of every mode, from its scorer's
    # construction to its end, above what run_experiment holds then, on
    # the demo at 2 s and 8 s; one image signal of the 6 s between them
    # is 1.5 MB, where holding the (K+1) x 6 image signals grew it by 18 MB
    import tracemalloc

    monkeypatch.setattr(_pool, "worker_count", lambda: 1)
    bases, peaks = [], []

    def scores(*args):
        tracemalloc.reset_peak()
        bases.append(tracemalloc.get_traced_memory()[0])
        return _Scores(*args)

    def measured(*args):
        consistency = _separate_sources(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - bases[-1])
        return consistency

    monkeypatch.setattr(experiment, "_Scores", scores)
    monkeypatch.setattr(experiment, "_separate_sources", measured)
    worst = {}
    for seconds in (2.0, 8.0):
        scene, train = demo_scene(), demo_train_scene()
        scene.duration_s, train.duration_s = seconds, 2.0
        peaks.clear()
        tracemalloc.start()
        try:
            run_experiment(scene, train, modes=MODES, seed=2024,
                           variants=("sro",))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1  # one pass for every mode
        worst[seconds] = max(peaks)
    image = 6.0 * scene.rate_hz * 2 * 8  # 6 s of a 2-channel image
    assert abs(worst[8.0] - worst[2.0]) < image, worst


def test_run_memory_grows_by_what_it_holds():
    # the traced peak of a whole run, on the demo with its test scene at
    # 2 s and at 8 s: the 6 s between them may add at most what the run
    # holds per sample (the experiment module's docstring), 8 bytes for
    # each source and the 26 of one worker's render scratch, with 10% to
    # spare; holding the test scene's images and their channel-major
    # copies added about 3.6 MB per second, and its mixtures and their
    # resampled copies 1.3 MB
    import tracemalloc

    peaks = {}
    for seconds in (2.0, 8.0):
        scene, train = demo_scene(), demo_train_scene()
        scene.duration_s, train.duration_s = seconds, 2.0
        with pool_workers(1):
            tracemalloc.start()
            try:
                run_experiment(scene, train, seed=2024)
                peaks[seconds] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    per_sample = 8 * len(scene.sources) + 26
    assert per_sample == 50
    held = 6.0 * scene.rate_hz * per_sample
    assert peaks[8.0] - peaks[2.0] <= 1.1 * held, peaks
