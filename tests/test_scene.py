"""Tests for scene synthesis, clock-offset injection and the config schema."""

import re
from unittest import mock

import numpy as np
import pytest
import yaml

from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsep import dsp, scene
from asyncsep.demo import demo_scene
from asyncsep.dsp import SampledSignal, _ArraySource, _Clock, fractional_delay
from asyncsep.errors import ConfigError
from asyncsep.metrics import at_device_clock
from asyncsep.scene import (
    ArraySpec,
    ChannelCoupling,
    EchoTap,
    SceneSpec,
    SourceImageSet,
    SourceSpec,
    _ImageSource,
    _mix_into,
    _mix_scratch,
    load_scene,
    scene_from_dict,
    scene_to_dict,
    synthesize_scene,
)

from conftest import (correlation_peak_lag, pool_run_peaks, pool_workers,
                      render_source_signal, whole_mix)


def tap(delay, gain, echoes=()):
    return ChannelCoupling(delay, gain, [EchoTap(d, g) for d, g in echoes])


def simple_scene(signal, arrays, coupling, duration=0.5, noise=0.0):
    sources = [SourceSpec("s0", signal, coupling)]
    return SceneSpec(rate_hz=16000.0, duration_s=duration, sources=sources,
                     arrays=arrays, noise_level=noise)


class TestSynthesize:
    def test_zero_sources_zero_noise_gives_silence(self):
        spec = SceneSpec(rate_hz=16000.0, duration_s=0.25, sources=[],
                         arrays=[ArraySpec("a", 2, 0.0)], noise_level=0.0)
        images, recs = synthesize_scene(spec, 0)
        assert not images.images
        assert not recs["a"].signal.samples.any()

    def test_unit_gain_zero_delay_recording_equals_source(self):
        spec = simple_scene({"type": "white", "level": 0.2},
                            [ArraySpec("a", 2, 0.0)],
                            {"a": [tap(0.0, 1.0), tap(0.0, 1.0)]})
        images, recs = synthesize_scene(spec, 3)
        img = images.images[("a", "s0")].samples
        rec = recs["a"].signal.samples
        assert np.array_equal(img, rec)
        assert np.array_equal(img[:, 0], img[:, 1])

    def test_impulse_with_fractional_channel_delay(self):
        spec = simple_scene({"type": "impulse", "position": 1000},
                            [ArraySpec("a", 1, 0.0)],
                            {"a": [tap(10.5, 1.0)]}, duration=0.25)
        _, recs = synthesize_scene(spec, 0)
        src = np.zeros(spec.n_samples)
        src[1000] = 1.0
        lag = correlation_peak_lag(recs["a"].signal.samples[:, 0], src, 50)
        assert abs(lag - 10.5) <= 0.05

    def test_echo_taps_add_scaled_delayed_copies(self):
        spec = simple_scene({"type": "impulse", "position": 100},
                            [ArraySpec("a", 1, 0.0)],
                            {"a": [tap(0.0, 1.0, echoes=[(50.0, 0.5)])]},
                            duration=0.05)
        images, _ = synthesize_scene(spec, 0)
        y = images.images[("a", "s0")].samples[:, 0]
        assert y[100] == pytest.approx(1.0)
        assert y[150] == pytest.approx(0.5)

    def test_determinism_bit_identical(self):
        spec = simple_scene({"type": "speech_noise", "level": 0.1},
                            [ArraySpec("a", 2, 0.2)],
                            {"a": [tap(0.0, 1.0), tap(2.5, 0.8)]},
                            noise=0.01)
        i1, r1 = synthesize_scene(spec, 99)
        i2, r2 = synthesize_scene(spec, 99)
        assert np.array_equal(r1["a"].signal.samples, r2["a"].signal.samples)
        assert np.array_equal(i1.images[("a", "s0")].samples,
                              i2.images[("a", "s0")].samples)

    def test_mixture_equals_image_sum_without_noise_and_sro(self, rng):
        arrays = [ArraySpec("a", 2, 0.0)]
        sources = []
        for k in range(3):
            sources.append(SourceSpec(
                f"s{k}", {"type": "white", "level": 0.1},
                {"a": [tap(k + 0.5, 0.9), tap(2.0 * k, 0.7)]}))
        spec = SceneSpec(rate_hz=16000.0, duration_s=0.3, sources=sources,
                         arrays=arrays, noise_level=0.0)
        images, recs = synthesize_scene(spec, 5)
        total = sum(images.images[("a", f"s{k}")].samples for k in range(3))
        assert np.allclose(recs["a"].signal.samples, total, atol=0, rtol=0)


def short_demo(duration=0.5):
    """The demo geometry, clock offsets and noise included, shortened."""
    spec = demo_scene()
    spec.duration_s = duration
    return spec


def speech_noise_oracle(n, rate, rng, band=(120.0, 7200.0), tilt=500.0,
                        mod=3.0, activity=0.5, level=0.1):
    """The speech-like source written with numpy temporaries."""
    f = np.fft.rfftfreq(n, 1.0 / rate)
    shape = 1.0 / np.sqrt(1.0 + (f / tilt) ** 2)
    shape[(f < band[0]) | (f > band[1])] = 0.0
    carrier = np.fft.irfft(np.fft.rfft(rng.standard_normal(n)) * shape, n)
    carrier /= max(np.sqrt(np.mean(carrier ** 2)), 1e-30)
    W = np.fft.rfft(rng.standard_normal(n))
    W[f > mod] = 0.0
    raw = np.fft.irfft(W, n)
    env = np.maximum(raw - np.quantile(raw, 1.0 - activity), 0.0)
    if env.max() > 0:
        env /= env.max()
    sig = carrier * env
    if (env > 0).any():
        r = np.sqrt(np.mean(sig[env > 0] ** 2))
        if r > 0:
            sig *= level / r
    return sig


class TestSourceRendering:
    """Sources rendered through scratch equal the plain numpy formulas."""

    @pytest.mark.parametrize("n", [2, 7, 4000, 16001])
    @pytest.mark.parametrize("activity", [0.01, 0.45, 1.0])
    def test_speech_noise(self, n, activity):
        params = {"type": "speech_noise", "activity": activity,
                  "band_hz": [200, 3000], "tilt_hz": 700.0, "level": 0.3}
        got = render_source_signal(params, n, 16000.0,
                                   np.random.default_rng(n))
        want = speech_noise_oracle(n, 16000.0, np.random.default_rng(n),
                                   band=(200, 3000), tilt=700.0,
                                   activity=activity, level=0.3)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [0, 1, 5000])
    def test_white_and_tone(self, n):
        got = render_source_signal({"type": "white", "level": 0.2}, n,
                                   8000.0, np.random.default_rng(3))
        assert np.array_equal(
            got, 0.2 * np.random.default_rng(3).standard_normal(n))
        got = render_source_signal({"type": "tone", "freq_hz": 441.5,
                                    "level": 0.7}, n, 8000.0, None)
        t = np.arange(n) / 8000.0
        assert np.array_equal(got, 0.7 * np.sin(2.0 * np.pi * 441.5 * t))


class TestSynthesisTasks:
    """Sources, images and mixtures rendered on the pool."""

    @pytest.mark.parametrize("seed", [0, 2024])
    def test_equal_for_any_worker_count(self, seed):
        spec = short_demo()
        spec.sources[1].signal = {"type": "white", "level": 0.05}
        spec.sources[2].signal = {"type": "impulse", "position": 4000}
        out = {}
        for workers in (1, 3):
            with pool_workers(workers):
                out[workers] = synthesize_scene(spec, seed)
        (img1, rec1), (img3, rec3) = out[1], out[3]
        assert list(img1.images) == list(img3.images)
        assert len(img1.images) == 9
        for key, sig in img1.images.items():
            assert np.array_equal(sig.samples, img3.images[key].samples)
        assert list(rec1) == list(rec3) == ["a1", "a2", "a3"]
        for m, rec in rec1.items():
            assert rec.sro_hz == rec3[m].sro_hz
            assert np.array_equal(rec.signal.samples, rec3[m].signal.samples)

    def test_images_equal_the_delayed_taps(self):
        # each channel: gain times the delayed source plus each echo's
        spec = short_demo(0.25)
        spec.sources = spec.sources[:1]
        spec.noise_level = 0.0
        src = spec.sources[0]
        src.signal = {"type": "white", "level": 0.1}
        images, _ = synthesize_scene(spec, 5)
        rng = np.random.default_rng([5, 101, 0])
        x = 0.1 * rng.standard_normal(spec.n_samples)
        for arr in spec.arrays:
            got = images.images[(arr.id, src.id)].samples
            for c, t in enumerate(src.coupling[arr.id]):
                want = t.gain * fractional_delay(x, t.delay)
                for e in t.echoes:
                    want += e.gain * fractional_delay(x, e.delay)
                assert np.array_equal(got[:, c], want)

    def test_tasks_allocate_no_arrays(self, monkeypatch):
        spec = short_demo(1.0)
        spec.sources[1].signal = {"type": "tone", "freq_hz": 300.0}
        spec.sources[2].signal = {"type": "white"}
        for arr in spec.arrays:
            arr.sro_hz = 0.0  # the resampler's tasks are measured elsewhere
        peaks = pool_run_peaks(monkeypatch, lambda: synthesize_scene(spec, 1))
        # sources, images and mixtures, where the smallest array a task
        # could allocate is one bool per sample
        assert len(peaks) == 3
        assert max(peaks) < spec.n_samples
        # as `run_experiment` renders: the sources, then the mixtures of
        # their image sources, read a chunk at a time, noise included
        peaks = pool_run_peaks(monkeypatch, lambda: scene._mixtures(
            spec, 1, scene._image_sources(spec, 1)))
        assert len(peaks) == 2
        assert max(peaks) < spec.n_samples

    def test_first_failing_source_is_reported(self):
        spec = short_demo(0.25)
        spec.sources[1].signal = {"type": "warble"}
        spec.sources[2].signal = {"type": "impulse", "position": 10**9}
        for workers in (1, 3):
            with pool_workers(workers):
                with pytest.raises(ConfigError, match="unknown source signal"):
                    synthesize_scene(spec, 0)


_DELAYS = st.one_of(st.just(0.0), st.integers(0, 320).map(float),
                   st.floats(0.0, 320.0, allow_nan=False))
_GAINS = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def _image_sources(draw):
    """An `_ImageSource` of 1-4 channels over a white source signal of
    1-300 samples: integer, fractional and zero delays and echoes, some
    past the signal's end; and the whole image, (C, n)."""
    n, channels = draw(st.integers(1, 300)), draw(st.integers(1, 4))
    taps = [ChannelCoupling(draw(_DELAYS), draw(_GAINS), [
        EchoTap(draw(_DELAYS), draw(_GAINS))
        for _ in range(draw(st.integers(0, 2)))]) for _ in range(channels)]
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))
                              ).standard_normal(n)
    whole = np.empty((channels, n))
    _ImageSource(x, taps).read(0, n, np.empty(2 * n).view(np.uint8), whole)
    for c, t in enumerate(taps):  # as each channel was rendered whole
        want = t.gain * fractional_delay(x, t.delay)
        for e in t.echoes:
            want += e.gain * fractional_delay(x, e.delay)
        assert np.array_equal(whole[c], want)
    return _ImageSource(x, taps), whole


def _spans(n: int):
    """Spans a:b of n samples, 0 <= a <= b <= n."""
    return st.lists(st.tuples(st.integers(0, n), st.integers(0, n)).map(
        sorted), min_size=1, max_size=6)


class TestImageSources:
    """A span of an image source holds what the whole image holds there,
    bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(case=_image_sources(), data=st.data())
    def test_span_reads_equal_the_whole_image(self, case, data):
        # spans across the causal zeros and both ends, rendered in raw
        # scratch of any size, a piece at a time
        source, whole = case
        for a, b in data.draw(_spans(source.n_samples)):
            raw = np.empty(data.draw(st.integers(2, 2 * (b - a) + 3))
                           ).view(np.uint8)
            out = np.full((source.channels, b - a), np.nan)
            source.read(a, b, raw, out)
            assert np.array_equal(out, whole[:, a:b])

    @settings(max_examples=120, deadline=None)
    @given(case=_image_sources(), data=st.data(),
           sro=st.one_of(st.just(0.0), st.floats(-3000.0, 3000.0)))
    def test_read_through_a_clock_equals_the_moved_whole_image(
            self, case, data, sro):
        source, whole = case
        want = at_device_clock({("a", "s"): SampledSignal(whole.T, 16000.0)},
                               {"a": sro})[("a", "s")].samples.T
        clock = _Clock([source], 16000.0, sro)
        for a, b in data.draw(_spans(source.n_samples)):
            out = np.full((source.channels, b - a), np.nan)
            clock.read(a, b, clock.scratch(b - a), out)
            assert np.array_equal(out, want[:, a:b])


def _mixed(images: SourceImageSet, noise_level: float, seed: int):
    """The samples `_mix_into` makes of every image, as a scene mixes an
    array, (n, C)."""
    parts = [_ArraySource(sig.samples) for sig in images.images.values()]
    n, C = parts[0].samples.shape
    total = np.empty((C, n))
    _mix_into(total, parts, noise_level, np.random.default_rng(seed),
              _mix_scratch(C, n))
    return total.T


class TestMixImages:
    def _image_set(self, rng, k=3):
        images = {}
        for i in range(k):
            images[("a", f"s{i}")] = SampledSignal(
                rng.standard_normal((400, 2)), 16000.0)
        return SourceImageSet(images)

    def test_single_image_no_noise(self, rng):
        images = self._image_set(rng, k=1)
        mixed = _mixed(images, 0.0, 0)
        assert np.array_equal(mixed, images.images[("a", "s0")].samples)

    def test_opposite_images_cancel(self, rng):
        x = rng.standard_normal((300, 1))
        images = SourceImageSet({
            ("a", "p"): SampledSignal(x, 16000.0),
            ("a", "n"): SampledSignal(-x, 16000.0)})
        assert not _mixed(images, 0.0, 0).any()

    def test_matches_direct_summation_oracle(self, rng):
        images = self._image_set(rng, k=4)
        mixed = _mixed(images, 0.0, 0)
        expected = np.zeros((400, 2))
        for key, sig in images.images.items():
            expected += sig.samples
        assert np.allclose(mixed, expected, rtol=0, atol=1e-15)

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 400), channels=st.integers(1, 4),
           k=st.integers(1, 3), noise=st.sampled_from([0.0, 0.05]),
           chunk=st.integers(1, 450), seed=st.integers(0, 2**32 - 1),
           spans=st.booleans())
    def test_chunks_equal_the_whole_mix(self, n, channels, k, noise, chunk,
                                        seed, spans):
        # read from arrays or from image sources, the mixture of chunks
        # of any size equals the mixture of the whole images
        rng = np.random.default_rng(seed)
        images = [SampledSignal(rng.standard_normal((n, channels)), 16000.0)
                  for _ in range(k)]
        parts = [_ArraySource(sig.samples) for sig in images]
        if spans:
            x = rng.standard_normal(n)
            taps = [ChannelCoupling(float(c) + 0.3, 0.5, [EchoTap(7.0, 0.25)])
                    for c in range(channels)]
            parts.append(_ImageSource(x, taps))
            whole = np.empty((channels, n))
            parts[-1].read(0, n, np.empty(2 * n).view(np.uint8), whole)
            images.append(SampledSignal(whole.T, 16000.0))
        want = np.zeros((n, channels))
        whole_mix(want, [sig.samples for sig in images], noise,
                  np.random.default_rng(seed + 1), np.empty(want.size))
        got = np.full((channels, n), np.nan)
        with mock.patch.object(dsp, "_SPAN", chunk):
            _mix_into(got, parts, noise, np.random.default_rng(seed + 1),
                      _mix_scratch(channels, n))
        assert np.array_equal(got.T, want)

    def test_noise_is_seeded(self, rng):
        images = self._image_set(rng, k=1)
        a = _mixed(images, 0.1, 7)
        b = _mixed(images, 0.1, 7)
        c = _mixed(images, 0.1, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSceneConfig:
    def _dict(self):
        return {
            "version": 1,
            "rate_hz": 16000,
            "duration_s": 0.5,
            "noise_level": 0.01,
            "arrays": [{"id": "a1", "channels": 2, "sro_hz": 0.3}],
            "sources": [{
                "id": "s1",
                "signal": {"type": "white", "level": 0.1},
                "coupling": {"a1": [
                    {"delay": 0.0, "gain": 1.0,
                     "echoes": [{"delay": 30.0, "gain": 0.5}]},
                    {"delay": 1.5, "gain": 0.9},
                ]},
            }],
        }

    def test_round_trip_preserves_synthesis(self):
        spec1 = scene_from_dict(self._dict())
        spec2 = scene_from_dict(scene_to_dict(spec1))
        _, r1 = synthesize_scene(spec1, 4)
        _, r2 = synthesize_scene(spec2, 4)
        assert np.array_equal(r1["a1"].signal.samples, r2["a1"].signal.samples)

    def test_load_scene_from_file(self, tmp_path):
        p = tmp_path / "scene.yaml"
        p.write_text(yaml.safe_dump(self._dict()))
        spec = load_scene(p)
        assert spec.arrays[0].sro_hz == 0.3

    def test_missing_coupling_rejected(self):
        data = self._dict()
        data["arrays"].append({"id": "a2", "channels": 1})
        with pytest.raises(ConfigError, match="no coupling"):
            scene_from_dict(data)

    def test_wrong_channel_count_rejected(self):
        data = self._dict()
        data["sources"][0]["coupling"]["a1"].pop()
        with pytest.raises(ConfigError, match="channel couplings"):
            scene_from_dict(data)

    def test_negative_delay_rejected(self):
        data = self._dict()
        data["sources"][0]["coupling"]["a1"][0]["delay"] = -2.0
        with pytest.raises(ConfigError, match="nonnegative"):
            scene_from_dict(data)

    @pytest.mark.parametrize("path, value", [
        (("sources", 0, "coupling", "a1", 0, "delay"), float("nan")),
        (("sources", 0, "coupling", "a1", 1, "delay"), float("inf")),
        (("sources", 0, "coupling", "a1", 0, "gain"), float("nan")),
        (("sources", 0, "coupling", "a1", 0, "echoes", 0, "delay"), float("nan")),
        (("sources", 0, "coupling", "a1", 0, "echoes", 0, "gain"), float("-inf")),
        (("arrays", 0, "sro_hz"), float("nan")),
        (("arrays", 0, "sro_hz"), 16000.0),
        (("arrays", 0, "sro_hz"), -20000.0),
        (("duration_s",), float("nan")),
        (("duration_s",), float("inf")),
        (("noise_level",), float("nan")),
        (("noise_level",), float("inf")),
        (("rate_hz",), float("inf")),
        (("arrays", 0, "sro_hz"), "abc"),
        (("rate_hz",), "abc"),
        (("noise_level",), "abc"),
        (("sources", 0, "coupling", "a1", 0, "delay"), "abc"),
        (("arrays", 0, "channels"), "two"),
        (("arrays", 0, "channels"), 2.7),
        (("sources", 0, "coupling"), [1, 2]),
        (("sources", 0, "coupling", "a1", 0, "echoes"), 3),
        (("sources", 0, "signal"), {"type": "speech_noise", "level": "abc"}),
        (("sources", 0, "signal"), {"type": "speech_noise",
                                    "band_hz": [120.0]}),
        (("sources", 0, "signal"), {"type": "impulse", "position": 2.5}),
        (("sources", 0, "signal"), {"type": "tone", "freq_hz": float("nan")}),
    ], ids=["nan-delay", "inf-delay", "nan-gain", "nan-echo-delay",
            "inf-echo-gain", "nan-sro", "sro-at-rate", "sro-above-rate",
            "nan-duration", "inf-duration", "nan-noise", "inf-noise",
            "inf-rate", "text-sro", "text-rate", "text-noise", "text-delay",
            "text-channels", "fractional-channels", "coupling-list",
            "echoes-number", "text-signal-level", "one-band-edge",
            "fractional-position", "nan-tone-freq"])
    def test_unsynthesizable_values_rejected(self, path, value):
        data = self._dict()
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError):
            scene_from_dict(data)

    @pytest.mark.parametrize("value", [None, 12])
    def test_array_id_that_is_not_a_string_rejected(self, value):
        # an empty `id:` loads as None; `id: 12` as an integer
        data = self._dict()
        data["arrays"][0]["id"] = value
        data["sources"][0]["coupling"] = {
            value: data["sources"][0]["coupling"]["a1"]}
        with pytest.raises(ConfigError, match=f"array id must be a string, "
                                              f"got {value!r}"):
            scene_from_dict(data)

    @pytest.mark.parametrize("value", [None, 12])
    def test_source_id_that_is_not_a_string_rejected(self, value):
        data = self._dict()
        data["sources"][0]["id"] = value
        with pytest.raises(ConfigError, match=f"source id must be a string, "
                                              f"got {value!r}"):
            scene_from_dict(data)

    def test_integer_coupling_key_rejected(self):
        # the array is "12"; the coupling key 12 used to be coerced to it
        data = self._dict()
        data["arrays"][0]["id"] = "12"
        data["sources"][0]["coupling"] = {
            12: data["sources"][0]["coupling"]["a1"]}
        with pytest.raises(ConfigError, match="coupling key must be a string, "
                                              "got 12"):
            scene_from_dict(data)

    def test_unknown_signal_type_rejected_at_parse(self, tmp_path):
        # refused when parsed, before any source renders, naming the
        # source and, from a file, the file
        p = tmp_path / "scene.yaml"
        for signal in ({"type": "warble"}, {"level": 0.1}):
            data = self._dict()
            data["sources"][0]["signal"] = signal
            with pytest.raises(ConfigError, match="^source 's1': unknown "
                                                  "source signal type"):
                scene_from_dict(data)
            p.write_text(yaml.safe_dump(data))
            with pytest.raises(ConfigError, match=re.escape(
                    f"{p}: source 's1': unknown source signal type")):
                load_scene(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_scene(tmp_path / "nope.yaml")

    def test_bundled_demo_scenes_validate(self):
        from asyncsep.demo import demo_scene, demo_train_scene

        scene = demo_scene()
        train = demo_train_scene()
        assert scene.duration_s == 15.0 and train.duration_s == 5.0
        assert [a.sro_hz for a in scene.arrays] == [0.3, -0.3, 0.0]
        assert len(scene.sources) == 3
        assert {a.channels for a in scene.arrays} == {2}

    def test_wav_source_round_trip(self, tmp_path, rng):
        from asyncsep.audio import write_wav

        wav = tmp_path / "src.wav"
        mono = rng.standard_normal(8000) * 0.1
        write_wav(wav, SampledSignal(mono, 16000.0))
        data = self._dict()
        data["sources"][0]["signal"] = {"type": "wav", "path": "src.wav"}
        data["sources"][0]["coupling"]["a1"][0]["echoes"] = []
        p = tmp_path / "scene.yaml"
        p.write_text(yaml.safe_dump(data))
        spec = load_scene(p)  # relative path resolves against the YAML dir
        images, _ = synthesize_scene(spec, 0)
        got = images.images[("a1", "s1")].samples[:, 0]
        assert np.allclose(got, mono.astype(np.float32), atol=1e-6)

    def test_wav_rate_mismatch_rejected(self, tmp_path, rng):
        from asyncsep.audio import write_wav

        wav = tmp_path / "src.wav"
        write_wav(wav, SampledSignal(rng.standard_normal(4000), 8000.0))
        data = self._dict()
        data["sources"][0]["signal"] = {"type": "wav", "path": str(wav)}
        spec = scene_from_dict(data)
        with pytest.raises(ConfigError, match="does not match"):
            synthesize_scene(spec, 0)
