"""Tests for the command-line pipeline and its exit codes."""

import contextlib
import errno
import io
import json
import math
import os
import shutil
import struct
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile
from scipy.io.wavfile import WavFileWarning

from asyncsep import _kernels, _pool, cli, dsp, separator
from asyncsep import model as model_module
from asyncsep.audio import read_wav, write_wav
from asyncsep.classifier import PosteriorMap
from asyncsep.cli import main
from asyncsep.demo import demo_scene_path
from asyncsep.dsp import SampledSignal, WindowSpec, stft_frame_count
from asyncsep.errors import NumericalError
from asyncsep.metrics import _finite_mean, at_device_clock, score_images
from asyncsep.model import _MAGIC, SpatialModel, load_models, save_models
from asyncsep.separator import MODES, separate_recordings

from conftest import (make_synthetic_models, pool_run_peaks,
                      posterior_histogram, rand_unit_psd)
from test_model import _with_entry


SCENE = {
    "version": 1,
    "rate_hz": 16000,
    "duration_s": 1.5,
    "noise_level": 0.002,
    "arrays": [
        {"id": "a", "channels": 2, "sro_hz": 0.0},
        {"id": "b", "channels": 2, "sro_hz": 0.0},
    ],
    "sources": [
        {"id": "s1",
         "signal": {"type": "speech_noise", "level": 0.1, "activity": 0.5},
         "coupling": {
             "a": [{"delay": 0.0, "gain": 1.0}, {"delay": 3.5, "gain": 0.9}],
             "b": [{"delay": 9.0, "gain": 0.5}, {"delay": 6.5, "gain": 0.45}],
         }},
        {"id": "s2",
         "signal": {"type": "speech_noise", "level": 0.1, "activity": 0.5},
         "coupling": {
             "a": [{"delay": 8.0, "gain": 0.5}, {"delay": 10.5, "gain": 0.45}],
             "b": [{"delay": 0.0, "gain": 1.0}, {"delay": 4.0, "gain": 0.9}],
         }},
    ],
}


@pytest.fixture
def scene_file(tmp_path):
    p = tmp_path / "scene.yaml"
    p.write_text(yaml.safe_dump(SCENE))
    return p


def test_full_pipeline_round_trip(tmp_path, scene_file):
    sim = tmp_path / "sim"
    train_dir = tmp_path / "train"
    est = tmp_path / "est"
    model = tmp_path / "model.bin"
    report = tmp_path / "report.json"

    assert main(["simulate", str(scene_file), str(train_dir),
                 "--seed", "8"]) == 0
    assert main(["simulate", str(scene_file), str(sim), "--seed", "9"]) == 0
    assert (sim / "recordings" / "a.wav").is_file()
    assert (sim / "images" / "a__s1.wav").is_file()
    assert (sim / "manifest.json").is_file()

    assert main(["train", str(train_dir / "images"), str(model),
                 "--stft-len", "1024", "--overlap", "0.75"]) == 0
    assert model.is_file()
    assert model.with_suffix(".txt").is_file()

    assert main(["separate", str(model), str(sim / "recordings"), str(est),
                 "--mode", "tv-distributed",
                 "--dump-posteriors", str(tmp_path / "gamma.npy")]) == 0
    assert (est / "a__s1.wav").is_file()
    assert (est / "a__noise.wav").is_file()
    assert (tmp_path / "gamma.npy").is_file()

    assert main(["evaluate", str(est), str(sim / "images"),
                 str(report)]) == 0
    scores = json.loads(report.read_text())["sdr_db"]
    assert set(scores) == {"a/s1", "a/s2", "b/s1", "b/s2"}
    assert all(v > 0 for v in scores.values())


def test_evaluate_truth_against_itself_reports_infinity(tmp_path, scene_file):
    sim = tmp_path / "sim"
    report = tmp_path / "r.json"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "3"]) == 0
    assert main(["evaluate", str(sim / "images"), str(sim / "images"),
                 str(report)]) == 0
    scores = json.loads(report.read_text())["sdr_db"]
    assert all(v == math.inf for v in scores.values())


def test_train_on_empty_directory_fails_with_config_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["train", str(empty), str(tmp_path / "m.bin")]) == 2


def test_missing_scene_file_fails_with_config_error(tmp_path):
    assert main(["simulate", str(tmp_path / "no.yaml"),
                 str(tmp_path / "out")]) == 2


def test_malformed_scene_file_fails_with_config_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("rate_hz: [unclosed")
    assert main(["simulate", str(bad), str(tmp_path / "out")]) == 2


def test_bad_sro_override_fails_with_config_error(tmp_path, scene_file):
    assert main(["simulate", str(scene_file), str(tmp_path / "out"),
                 "--sro-override", "a0.3"]) == 2


def test_sro_override_changes_manifest(tmp_path, scene_file):
    out = tmp_path / "out"
    assert main(["simulate", str(scene_file), str(out),
                 "--sro-override", "a=0.4"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    sro = {a["id"]: a["sro_hz"] for a in manifest["scene"]["arrays"]}
    assert sro == {"a": 0.4, "b": 0.0}


def test_separate_with_missing_recording_fails(tmp_path, scene_file):
    sim = tmp_path / "sim"
    model = tmp_path / "model.bin"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "1"]) == 0
    assert main(["train", str(sim / "images"), str(model),
                 "--stft-len", "1024"]) == 0
    (sim / "recordings" / "b.wav").unlink()
    assert main(["separate", str(model), str(sim / "recordings"),
                 str(tmp_path / "est")]) == 2


def test_invalid_stft_config_fails_with_config_error(tmp_path, scene_file):
    sim = tmp_path / "sim"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "1"]) == 0
    assert main(["train", str(sim / "images"), str(tmp_path / "m.bin"),
                 "--stft-len", "1024", "--overlap", "0.5"]) == 2


def test_demo_shorthand_resolves(tmp_path):
    # the bundled 5 s training scene keeps this test quick
    out = tmp_path / "demo"
    assert main(["simulate", "demo-train", str(out), "--seed", "1"]) == 0
    assert (out / "recordings" / "a1.wav").is_file()


def _edited_scene(scene_file, edit):
    data = yaml.safe_load(scene_file.read_text())
    edit(data)
    scene_file.write_text(yaml.safe_dump(data))


def _no_channels(data):
    data["arrays"][0]["channels"] = 0
    for src in data["sources"]:
        src["coupling"]["a"] = []


@pytest.mark.parametrize("edit", [
    lambda d: d["sources"][0]["coupling"]["a"][1].update(delay=math.nan),
    lambda d: d["sources"][1]["coupling"]["b"][0].update(gain=math.inf),
    lambda d: d["arrays"][0].update(sro_hz=math.nan),
    lambda d: d["arrays"][1].update(sro_hz=-16000.0),
    lambda d: d.update(duration_s=math.nan),
    lambda d: d.update(noise_level=math.inf),
    lambda d: d.update(duration_s=1e-5),  # 0.16 samples round to none
    _no_channels,
    lambda d: d["arrays"][0].update(sro_hz="abc"),
    lambda d: d.update(rate_hz="abc"),
    lambda d: d.update(noise_level="abc"),
    lambda d: d["sources"][0]["coupling"]["a"][1].update(delay="abc"),
    lambda d: d["arrays"][0].update(channels="two"),
    lambda d: d["arrays"][0].update(channels=2.7),
    lambda d: d["sources"][0].update(coupling=[1, 2]),
    lambda d: d["sources"][0]["coupling"]["a"][0].update(echoes=3),
    lambda d: d["sources"][1]["signal"].update(level="abc"),
    lambda d: d["sources"][1]["signal"].update(type="warble"),
    lambda d: d["sources"][1]["signal"].pop("type"),
], ids=["nan-delay", "inf-gain", "nan-sro", "sro-at-rate", "nan-duration",
        "inf-noise", "shorter-than-a-sample", "no-channels", "text-sro",
        "text-rate", "text-noise", "text-delay", "text-channels",
        "fractional-channels", "coupling-list", "echoes-number",
        "text-speech-level", "unknown-signal-type", "no-signal-type"])
def test_non_finite_scene_values_fail_with_config_error(tmp_path, scene_file,
                                                        capsys, edit):
    # and the other values a scene cannot be rendered from
    _edited_scene(scene_file, edit)
    assert main(["simulate", str(scene_file), str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override", ["a=nan", "a=inf", "a=16000", "zz=0.3"])
def test_unusable_sro_override_fails_with_config_error(tmp_path, scene_file,
                                                       capsys, override):
    assert main(["simulate", str(scene_file), str(tmp_path / "out"),
                 "--sro-override", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.fixture
def trained_container(tmp_path, scene_file):
    sim = tmp_path / "sim"
    model = tmp_path / "model.bin"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "1"]) == 0
    assert main(["train", str(sim / "images"), str(model),
                 "--stft-len", "1024"]) == 0
    return model, sim / "recordings"


def _id_string_cut(raw):
    # one byte into the length-prefixed source id "s1"
    return raw.index(struct.pack("<I", 2) + b"s1") + 5


@pytest.mark.parametrize("cut", [lambda raw: 20, _id_string_cut,
                                 lambda raw: 3000],
                         ids=["header", "id-string", "array"])
def test_truncated_model_fails_with_config_error(tmp_path, trained_container,
                                                 capsys, cut):
    model, recordings = trained_container
    raw = model.read_bytes()
    n = cut(raw)
    assert 0 < n < len(raw)
    model.write_bytes(raw[:n])
    capsys.readouterr()
    assert main(["separate", str(model), str(recordings),
                 str(tmp_path / "est")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "truncated" in err


def _assert_clean_config_error(capsys, *parts):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    for part in parts:
        assert part in err


def test_unequal_length_recordings_fail_with_config_error(
        tmp_path, trained_container, capsys):
    # independent devices stop recording at different times
    model, recordings = trained_container
    wav = recordings / "b.wav"
    sig = read_wav(wav)
    write_wav(wav, SampledSignal(sig.samples[:-5000], sig.rate_hz))
    capsys.readouterr()
    assert main(["separate", str(model), str(recordings),
                 str(tmp_path / "est")]) == 2
    _assert_clean_config_error(capsys, "a=", "b=")


def _rewrite_cov_shape(raw):
    # the first covariance shape field, (K, F, C, C) = (2, 513, 2, 2), turned
    # into (1, 1026, 2, 2): the byte count is unchanged
    old = struct.pack("<4I", 2, 513, 2, 2)
    at = raw.index(old)
    return raw[:at] + struct.pack("<4I", 1, 1026, 2, 2) + raw[at + len(old):]


def _rewrite_window(length, hop):
    def edit(raw):
        at = len(_MAGIC) + 16  # after version, M, K and F
        return raw[:at] + struct.pack("<II", length, hop) + raw[at + 8:]
    return edit


@pytest.mark.parametrize("edit", [
    _rewrite_cov_shape,
    _rewrite_window(0, 0),
    _rewrite_window(1024, 0),
    _rewrite_window(0, 256),
    _rewrite_window(2048, 512),
], ids=["cov-shape", "no-window", "zero-hop", "zero-length", "bins-mismatch"])
def test_model_inconsistent_with_header_fails_with_config_error(
        tmp_path, trained_container, capsys, edit):
    model, recordings = trained_container
    raw = model.read_bytes()
    edited = edit(raw)
    assert len(edited) == len(raw) and edited != raw
    model.write_bytes(edited)
    capsys.readouterr()
    assert main(["separate", str(model), str(recordings),
                 str(tmp_path / "est")]) == 2
    _assert_clean_config_error(capsys, str(model))


def test_model_storing_an_array_twice_fails_with_config_error(
        tmp_path, trained_container, capsys):
    model, recordings = trained_container
    spatial, _, _ = load_models(model)
    model.write_bytes(_with_entry(model.read_bytes(), "a",
                                  spatial.covariances["b"]))
    capsys.readouterr()
    assert main(["separate", str(model), str(recordings),
                 str(tmp_path / "est")]) == 2
    _assert_clean_config_error(capsys, str(model), "'a' is stored twice")


def test_evaluate_non_finite_estimate_fails_with_numerical_error(
        tmp_path, scene_file, capsys):
    # one NaN made every score NaN and the mean +inf, written with exit 0
    sim, est, report = tmp_path / "sim", tmp_path / "est", tmp_path / "r.json"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "3"]) == 0
    shutil.copytree(sim / "images", est)
    sig = read_wav(est / "b__s2.wav")
    sig.samples[100, 1] = np.nan
    write_wav(est / "b__s2.wav", sig)
    capsys.readouterr()
    assert main(["evaluate", str(est), str(sim / "images"),
                 str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "b/s2" in err
    assert "Traceback" not in err
    assert not report.exists()


def test_train_on_a_non_finite_image_fails_with_numerical_error(
        tmp_path, scene_file, capsys):
    # one NaN gave a model of NaN spectra, written with exit 0, which
    # separate then refused
    sim, model = tmp_path / "sim", tmp_path / "model.bin"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "3"]) == 0
    wav = sim / "images" / "a__s1.wav"
    sig = read_wav(wav)
    sig.samples[100, 0] = np.nan
    write_wav(wav, sig)
    capsys.readouterr()
    assert main(["train", str(sim / "images"), str(model), "--pooled",
                 "--stft-len", "256"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and str(wav) in err
    assert "Traceback" not in err
    assert not model.exists() and not model.with_suffix(".txt").exists()


def test_evaluate_against_silent_truth_fails_with_config_error(
        tmp_path, scene_file, capsys):
    sim = tmp_path / "sim"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "3"]) == 0
    truth = sim / "images" / "a__s1.wav"
    sig = read_wav(truth)
    write_wav(truth, SampledSignal(np.zeros_like(sig.samples), sig.rate_hz))
    capsys.readouterr()
    assert main(["evaluate", str(sim / "images"), str(sim / "images"),
                 str(tmp_path / "r.json")]) == 2
    _assert_clean_config_error(capsys, "a__s1.wav")


@pytest.mark.parametrize("silent, nan, code, named", [
    ("a__s1", "b__s2", 2, "a__s1.wav"),
    ("b__s1", "a__s2", 3, "a/s2"),
], ids=["silent-first", "non-finite-first"])
def test_evaluate_reports_the_first_bad_image_in_key_order(
        tmp_path, scene_file, capsys, silent, nan, code, named):
    # a silent truth and a non-finite estimate on different devices, b's
    # truth on a clock offset: the first in key order is reported, and
    # neither the other nor a report is written
    sim, est, report = tmp_path / "sim", tmp_path / "est", tmp_path / "r.json"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "3"]) == 0
    shutil.copytree(sim / "images", est)
    truth = read_wav(sim / "images" / f"{silent}.wav")
    write_wav(sim / "images" / f"{silent}.wav",
              SampledSignal(np.zeros_like(truth.samples), truth.rate_hz))
    sig = read_wav(est / f"{nan}.wav")
    sig.samples[100, 1] = np.nan
    write_wav(est / f"{nan}.wav", sig)
    capsys.readouterr()
    assert main(["evaluate", str(est), str(sim / "images"), str(report),
                 "--sro-override", "b=0.5"]) == code
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    other = {2: "numerical failure", 3: "is silent"}[code]
    assert other not in err
    assert err.startswith("error: " if code == 2 else "numerical failure: ")
    assert not report.exists()


def _cut(n):
    return lambda raw: raw[:n]


def _set_byte(at, value):
    return lambda raw: raw[:at] + bytes([value]) + raw[at + 1:]


def _keep_frames(n):
    # the header up to the data chunk's size field, then n stereo float32,
    # with the RIFF and data sizes rewritten so the file is whole
    def edit(raw):
        at = raw.index(b"data")
        out = bytearray(raw[:at + 8 + 8 * n])
        out[4:8] = struct.pack("<I", len(out) - 8)
        out[at + 4:at + 8] = struct.pack("<I", 8 * n)
        return bytes(out)
    return edit


@pytest.mark.parametrize("edit, message", [
    (_cut(30), "cannot read"),
    (_cut(44), "cannot read"),
    (_cut(60), "cannot read"),
    (_set_byte(22, 0), "cannot read"),  # channel count
    (_keep_frames(4), "fewer than one STFT window"),
], ids=["cut-30", "cut-44", "cut-60", "no-channels", "shorter-than-window"])
def test_damaged_recording_fails_with_config_error(
        tmp_path, trained_container, capsys, edit, message):
    model, recordings = trained_container
    wav = recordings / "a.wav"
    wav.write_bytes(edit(wav.read_bytes()))
    capsys.readouterr()
    assert main(["separate", str(model), str(recordings),
                 str(tmp_path / "est")]) == 2
    _assert_clean_config_error(capsys, str(wav), message)


def _zero_rate(raw):
    return raw[:24] + bytes(4) + raw[28:]  # the header's sample rate


def test_training_image_with_rate_0_fails_with_config_error(
        tmp_path, scene_file, capsys):
    sim = tmp_path / "sim"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "1"]) == 0
    wav = sim / "images" / "b__s2.wav"
    wav.write_bytes(_zero_rate(wav.read_bytes()))
    capsys.readouterr()
    assert main(["train", str(sim / "images"), str(tmp_path / "m.bin"),
                 "--stft-len", "1024"]) == 2
    _assert_clean_config_error(capsys, str(wav), "rate 0 Hz is not positive")


@pytest.mark.parametrize("update", [
    {"rate_hz": 0.4},
    {"rate_hz": 16000.5},
    {"rate_hz": 1e9, "duration_s": 1e-8},  # 8e9 bytes per second
], ids=["0.4", "16000.5", "1e9"])
def test_scene_at_a_rate_no_wav_holds_fails_with_config_error(
        tmp_path, scene_file, capsys, monkeypatch, update):
    # a WAV header holds whole Hz, and 32-bit header fields: refused
    # before the scene is rendered or any directory is made
    import asyncsep.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("rendered before the rate was checked")

    monkeypatch.setattr(cli, "synthesize_scene", never)
    _edited_scene(scene_file, lambda d: d.update(update))
    out = tmp_path / "out"
    assert main(["simulate", str(scene_file), str(out)]) == 2
    _assert_clean_config_error(capsys, str(out / "recordings" / "a.wav"),
                               f"not {update['rate_hz']}")
    assert not out.exists()


def test_negative_seed_fails_with_config_error(tmp_path, scene_file, capsys):
    out = tmp_path / "out"
    assert main(["simulate", str(scene_file), str(out), "--seed", "-1"]) == 2
    _assert_clean_config_error(capsys, "seed must be nonnegative, got -1")
    assert not out.exists()


def test_recording_with_wrong_channel_count_fails_with_config_error(
        tmp_path, trained_container, capsys):
    model, recordings = trained_container
    wav = recordings / "a.wav"
    sig = read_wav(wav)
    write_wav(wav, SampledSignal(sig.samples[:, :1], sig.rate_hz))
    capsys.readouterr()
    assert main(["separate", str(model), str(recordings),
                 str(tmp_path / "est")]) == 2
    _assert_clean_config_error(capsys, str(wav), "1 channels")


def test_training_image_with_another_channel_count_fails_with_config_error(
        tmp_path, scene_file, capsys):
    # a device's images must hold its channel count, as its recording must
    sim = tmp_path / "sim"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "1"]) == 0
    wav = sim / "images" / "a__s2.wav"
    sig = read_wav(wav)
    write_wav(wav, SampledSignal(sig.samples[:, :1], sig.rate_hz))
    capsys.readouterr()
    assert main(["train", str(sim / "images"), str(tmp_path / "m.bin"),
                 "--stft-len", "1024"]) == 2
    _assert_clean_config_error(capsys, str(wav), "1 channels")
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda sig: SampledSignal(sig.samples[:, :1], sig.rate_hz), "1 channels"),
    (lambda sig: SampledSignal(sig.samples, sig.rate_hz / 2), "8000 Hz"),
    (lambda sig: SampledSignal(sig.samples[:100], sig.rate_hz), "100 samples"),
], ids=["mono", "half-rate", "truncated"])
def test_evaluate_estimate_unlike_its_truth_fails_with_config_error(
        tmp_path, scene_file, capsys, edit, message):
    sim = tmp_path / "sim"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "3"]) == 0
    est = tmp_path / "est"
    for wav in (sim / "images").glob("*.wav"):
        write_wav(est / wav.name, read_wav(wav))
    write_wav(est / "a__s1.wav", edit(read_wav(est / "a__s1.wav")))
    capsys.readouterr()
    assert main(["evaluate", str(est), str(sim / "images"),
                 str(tmp_path / "r.json")]) == 2
    _assert_clean_config_error(capsys, str(est / "a__s1.wav"),
                               str(sim / "images" / "a__s1.wav"), message)
    assert not (tmp_path / "r.json").exists()


def test_evaluate_with_missing_estimates_fails_with_config_error(
        tmp_path, scene_file, capsys, monkeypatch):
    # every missing estimate is named with its truth image, before any
    # WAV file is read
    sim = tmp_path / "sim"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "3"]) == 0
    est = tmp_path / "est"
    for wav in (sim / "images").glob("*.wav"):
        write_wav(est / wav.name, read_wav(wav))
    (est / "a__s1.wav").unlink()
    (est / "b__s2.wav").unlink()
    reads = []
    monkeypatch.setattr(cli, "WavSource", lambda *a, **k: reads.append(a))
    capsys.readouterr()
    assert main(["evaluate", str(est), str(sim / "images"),
                 str(tmp_path / "r.json")]) == 2
    _assert_clean_config_error(
        capsys, str(est / "a__s1.wav"), str(sim / "images" / "a__s1.wav"),
        str(est / "b__s2.wav"), str(sim / "images" / "b__s2.wav"))
    assert reads == []
    assert not (tmp_path / "r.json").exists()


def _container_field(raw, offset, value):
    return raw[:offset] + value + raw[offset + len(value):]


# offsets in a container of arrays "a" and "b": magic (8), version, M, K,
# F, window length, hop (u32 each), rate (f64), then array "a": its id
# (u32 length + 1 byte), channel count (u32), the covariances' complex
# flag and ndim bytes
_N_ARRAYS, _WIN_LEN_TOP, _COV_NDIM = 12, 27, 50


@pytest.mark.parametrize("edit, message", [
    (lambda raw: _container_field(raw, _N_ARRAYS, b"\xff\xff\xff\x7f"),
     "model container"),
    (lambda raw: _container_field(raw, _COV_NDIM, b"\xff"), "255 dimensions"),
    (lambda raw: _container_field(raw, _WIN_LEN_TOP, b"\xff"),
     "bins do not match window length"),
    (lambda raw: _container_field(raw, 3000, bytes([raw[3000] ^ 1])),
     "checksum"),
    (lambda raw: _container_field(raw, len(_MAGIC), struct.pack("<I", 2)),
     "unsupported model container version 2"),
], ids=["n-arrays", "ndim", "window-length", "covariance-value",
        "version-2"])
def test_corrupted_model_header_fails_with_config_error(
        tmp_path, trained_container, capsys, edit, message):
    model, recordings = trained_container
    raw = model.read_bytes()
    edited = edit(raw)
    assert len(edited) == len(raw) and edited != raw
    model.write_bytes(edited)
    capsys.readouterr()
    assert main(["separate", str(model), str(recordings),
                 str(tmp_path / "est")]) == 2
    _assert_clean_config_error(capsys, message)


def test_recordings_cut_on_a_sample_boundary_fail_with_config_error(
        tmp_path, trained_container, capsys):
    # both files end inside their data chunks, which claim the full length
    model, recordings = trained_container
    for m in ("a", "b"):
        wav = recordings / f"{m}.wav"
        raw = wav.read_bytes()
        assert len(raw) == 192058
        wav.write_bytes(raw[:120002])
    capsys.readouterr()
    assert main(["separate", str(model), str(recordings),
                 str(tmp_path / "est")]) == 2
    _assert_clean_config_error(capsys, str(recordings / "a.wav"),
                               "Reached EOF prematurely")


@pytest.mark.parametrize("edit, message", [
    (_cut(3000), "truncated"),
    (lambda raw: _container_field(raw, _COV_NDIM, b"\xff"), "255 dimensions"),
    # an older layout: retrain
    (lambda raw: _container_field(raw, len(_MAGIC), struct.pack("<I", 3)),
     "unsupported model container version 3"),
], ids=["truncated", "ndim", "version-3"])
def test_container_parse_errors_name_the_file(
        tmp_path, trained_container, capsys, edit, message):
    model, recordings = trained_container
    model.write_bytes(edit(model.read_bytes()))
    capsys.readouterr()
    assert main(["separate", str(model), str(recordings),
                 str(tmp_path / "est")]) == 2
    _assert_clean_config_error(capsys, f"error: {model}: ", message)


@pytest.fixture(scope="module")
def small_scene(tmp_path_factory):
    """A simulated scene and a container trained with a 256-sample window."""
    root = tmp_path_factory.mktemp("small")
    scene = root / "scene.yaml"
    scene.write_text(yaml.safe_dump(SCENE))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", str(scene), str(root / "sim"),
                     "--seed", "1"]) == 0
        assert main(["train", str(root / "sim" / "images"),
                     str(root / "model.bin"), "--stft-len", "256"]) == 0
    return root


def _separate_in_process(model, recordings, out):
    """Exit code and stderr of `asyncsep separate`; raises on a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["separate", str(model), str(recordings), str(out)])
    return code, err.getvalue()


def _damaged(raw, cut, at, flip):
    if cut:
        return raw[:at % len(raw)]
    at %= len(raw)
    return raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1:]


class TestDamagedFiles:
    """Cut or flipped bytes never end `separate` in a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(cut=st.booleans(), at=st.integers(0, 2**20),
           flip=st.integers(1, 255))
    def test_model_container(self, small_scene, cut, at, flip):
        damaged = small_scene / "damaged.bin"
        raw = (small_scene / "model.bin").read_bytes()
        damaged.write_bytes(_damaged(raw, cut, at, flip))
        code, err = _separate_in_process(damaged, small_scene / "sim" /
                                         "recordings", small_scene / "est")
        assert code in (2, 3)
        assert err.startswith(("error: ", "numerical failure: "))

    @settings(max_examples=60, deadline=None)
    @given(cut=st.booleans(), at=st.integers(0, 2**20),
           flip=st.integers(1, 255))
    def test_recording(self, small_scene, cut, at, flip):
        # a header byte for flips, anywhere in the file for cuts
        recordings = small_scene / "damaged-recordings"
        recordings.mkdir(exist_ok=True)
        for m in ("a", "b"):
            raw = (small_scene / "sim" / "recordings" / f"{m}.wav").read_bytes()
            if m == "a":
                raw = _damaged(raw, cut, at if cut else at % 64, flip)
            (recordings / f"{m}.wav").write_bytes(raw)
        # recorded here, a WAV warning that gets past read_wav shows even
        # where the suite's error filter would turn it into an exit 2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = _separate_in_process(small_scene / "model.bin",
                                             recordings, small_scene / "est")
        assert not [w for w in caught
                    if issubclass(w.category, WavFileWarning)]
        assert code in (0, 2, 3)
        if code:
            assert err.startswith(("error: ", "numerical failure: "))


def test_static_pooled_without_merged_entry_fails_with_config_error(
        tmp_path, trained_container, capsys):
    model, recordings = trained_container  # trained without --pooled
    capsys.readouterr()
    assert main(["separate", str(model), str(recordings),
                 str(tmp_path / "est"), "--mode", "static-pooled"]) == 2
    _assert_clean_config_error(capsys, str(model), "train --pooled")


@pytest.mark.parametrize("gain", ["nan", "inf", "-1"])
def test_bad_noise_gain_fails_with_config_error(tmp_path, scene_file, capsys,
                                                gain):
    sim = tmp_path / "sim"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "1"]) == 0
    capsys.readouterr()
    assert main(["train", str(sim / "images"), str(tmp_path / "m.bin"),
                 "--stft-len", "1024", "--noise-gain", gain]) == 2
    _assert_clean_config_error(capsys, "noise gain")
    assert not (tmp_path / "m.bin").exists()


def _rewritten(raw, old: np.ndarray, new: np.ndarray) -> bytes:
    """raw with the bytes of `old` replaced by `new`, its CRC-32 recomputed.

    The checksum is valid, so only the value checks can refuse the file.
    """
    at = raw.index(old.tobytes())
    body = raw[:at] + new.tobytes() + raw[at + old.nbytes:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def _edited(get, edit):
    def apply(raw, spatial, states):
        old = get(spatial, states)
        new = old.copy()
        edit(new)
        return _rewritten(raw, old, new)
    return apply


def _set(index, value):
    def edit(arr):
        arr[index] = value
    return edit


def _rate(value):
    # the f64 rate follows the magic and six u32 header fields
    return lambda raw, spatial, states: _rewritten(
        raw, np.frombuffer(raw[32:40]), np.array(value))


def _cov(spatial, states):
    return spatial.covariances["b"]


def _ltas(spatial, states):
    return states.ltas


def _noise(spatial, states):
    return states.noise_spectrum


@pytest.mark.parametrize("edit, message", [
    (_edited(_cov, _set((1, 7, 0, 1), np.nan)), "'b' covariances must be finite"),
    (_edited(_cov, _set((0, 3, 1, 1), np.inf)), "'b' covariances must be finite"),
    (_edited(_cov, _set((0, 7, 0, 1), 0.3 + 0.1j)), "must be Hermitian"),
    (_edited(_cov, _set((1, 2, 1, 1), 0.999)), "with unit trace"),
    (_edited(_cov, lambda c: np.multiply(c, 2.0, out=c)), "with unit trace"),
    # Hermitian with unit trace, but one eigenvalue is -0.5
    (_edited(_cov, _set((0, 4), np.diag([1.5, -0.5]))),
     "'b' covariances must be positive semi-definite"),
    (_edited(_ltas, _set((1, 0), -1.0)), "ltas must be non-negative"),
    (_edited(_ltas, _set((0, 9), np.inf)), "ltas must be finite"),
    (_edited(_noise, _set(0, -np.inf)), "noise spectrum must be finite"),
    (_rate(np.nan), "sample rate must be finite"),
    (_rate(-16000.0), "sample rate must be non-negative"),
], ids=["cov-nan", "cov-inf", "cov-not-hermitian", "cov-trace",
        "cov-scaled", "cov-not-psd", "ltas-negative", "ltas-inf",
        "noise-negative-inf", "rate-nan", "rate-negative"])
def test_container_with_bad_values_fails_with_config_error(
        tmp_path, trained_container, capsys, edit, message):
    model, recordings = trained_container
    spatial, states, _ = load_models(model)
    raw = model.read_bytes()
    edited = edit(raw, spatial, states)
    assert len(edited) == len(raw) and edited != raw
    model.write_bytes(edited)
    capsys.readouterr()
    assert main(["separate", str(model), str(recordings),
                 str(tmp_path / "est")]) == 2
    _assert_clean_config_error(capsys, str(model), message)


def test_device_named_pooled_separates_in_every_mode(tmp_path, capsys):
    # "pooled" is an ordinary device id; the merged array is "a+pooled"
    scene = yaml.safe_load(yaml.safe_dump(SCENE))
    scene["arrays"][1]["id"] = "pooled"
    for source in scene["sources"]:
        source["coupling"]["pooled"] = source["coupling"].pop("b")
    scene_file = tmp_path / "scene.yaml"
    scene_file.write_text(yaml.safe_dump(scene))
    sim, model = tmp_path / "sim", tmp_path / "model.bin"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "1"]) == 0
    assert main(["train", str(sim / "images"), str(model), "--pooled",
                 "--stft-len", "1024"]) == 0
    assert "array a+pooled: 4 channels" in model.with_suffix(".txt").read_text()
    for mode in ("static-local", "static-pooled", "tv-local",
                 "tv-distributed"):
        est = tmp_path / mode
        assert main(["separate", str(model), str(sim / "recordings"),
                     str(est), "--mode", mode]) == 0
        names = {p.name for p in est.glob("*.wav")}
        assert names == {f"{m}__{k}.wav" for m in ("a", "pooled")
                         for k in ("s1", "s2", "noise")}
        assert main(["evaluate", str(est), str(sim / "images"),
                     str(tmp_path / f"{mode}.json")]) == 0
        scores = json.loads((tmp_path / f"{mode}.json").read_text())["sdr_db"]
        assert set(scores) == {"a/s1", "a/s2", "pooled/s1", "pooled/s2"}


def test_source_id_starting_with_underscore_round_trips(tmp_path):
    # "a___b.wav" splits at its first "__": array a, source _b
    scene = yaml.safe_load(yaml.safe_dump(SCENE))
    scene["sources"][0]["id"] = "_b"
    scene_file = tmp_path / "scene.yaml"
    scene_file.write_text(yaml.safe_dump(scene))
    sim, est, model = tmp_path / "sim", tmp_path / "est", tmp_path / "m.bin"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "1"]) == 0
    assert main(["train", str(sim / "images"), str(model),
                 "--stft-len", "1024"]) == 0
    assert "sources: _b, s2\n" in model.with_suffix(".txt").read_text()
    assert main(["separate", str(model), str(sim / "recordings"),
                 str(est)]) == 0
    assert {p.name for p in est.glob("*.wav")} == {
        f"{m}__{k}.wav" for m in ("a", "b") for k in ("_b", "s2", "noise")}


def _with_chunk(raw: bytes, chunk: bytes) -> bytes:
    """A WAV file with `chunk` appended and its RIFF size rewritten."""
    out = bytearray(raw + chunk)
    out[4:8] = struct.pack("<I", len(out) - 8)
    return bytes(out)


@pytest.mark.parametrize("chunk", [
    b"abcd" + struct.pack("<I", 4) + b"\0\0\0\0",  # an unknown chunk
    b"ab",                                         # a chunk id cut short
], ids=["unknown-chunk", "incomplete-chunk-id"])
def test_recording_with_skipped_chunk_separates_without_warning(
        tmp_path, trained_container, capsys, chunk):
    model, recordings = trained_container
    wav = recordings / "a.wav"
    wav.write_bytes(_with_chunk(wav.read_bytes(), chunk))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["separate", str(model), str(recordings),
                     str(tmp_path / "est")]) == 0
    assert not [w for w in caught if issubclass(w.category, WavFileWarning)]
    assert "WavFileWarning" not in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"version": 1, "scene": {"arr',
                                  '{"version": 1}',
                                  '[1, 2]',
                                  '{"scene": {"arrays": [{"sro_hz": 0.1}]}}',
                                  '{"scene": {"arrays": [{"id": "a", '
                                  '"sro_hz": "fast"}]}}',
                                  '{"scene": {"arrays": [{"id": "a", '
                                  '"sro_hz": NaN}]}}'],
                         ids=["truncated", "no-scene", "list", "no-id",
                              "bad-offset", "nan-offset"])
def test_evaluate_with_damaged_manifest_fails_with_config_error(
        tmp_path, scene_file, capsys, text):
    sim = tmp_path / "sim"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "3"]) == 0
    (sim / "manifest.json").write_text(text)
    capsys.readouterr()
    assert main(["evaluate", str(sim / "images"), str(sim / "images"),
                 str(tmp_path / "r.json")]) == 2
    _assert_clean_config_error(capsys, "manifest.json")


@pytest.mark.parametrize("offset", [16000.0, -16000.0, 1e9])
def test_evaluate_offset_beyond_the_rate_fails_with_config_error(
        tmp_path, scene_file, capsys, offset):
    sim = tmp_path / "sim"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["evaluate", str(sim / "images"), str(sim / "images"),
                 str(tmp_path / "r.json"),
                 "--sro-override", f"a={offset}"]) == 2
    _assert_clean_config_error(capsys, "--sro-override", "'a'")

    manifest = json.loads((sim / "manifest.json").read_text())
    manifest["scene"]["arrays"][1]["sro_hz"] = offset
    (sim / "manifest.json").write_text(json.dumps(manifest))
    assert main(["evaluate", str(sim / "images"), str(sim / "images"),
                 str(tmp_path / "r.json")]) == 2
    _assert_clean_config_error(capsys, "manifest.json", "'b'")


def test_evaluate_override_of_an_array_without_truth_fails_with_config_error(
        tmp_path, scene_file, capsys):
    sim = tmp_path / "sim"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["evaluate", str(sim / "images"), str(sim / "images"),
                 str(tmp_path / "r.json"), "--sro-override", "a=0.2",
                 "--sro-override", "zz=0.5"]) == 2
    _assert_clean_config_error(capsys, "--sro-override", "'zz'")
    assert not (tmp_path / "r.json").exists()


def test_evaluate_report_equals_one_built_image_by_image(tmp_path,
                                                         scene_file):
    # the truth images of a device are resampled together, grouped by
    # length: a__s1 is cut short, so array a has two groups
    from asyncsep.dsp import lagrange_resample
    from asyncsep.metrics import sdr

    sim = tmp_path / "sim"
    assert main(["simulate", str(scene_file), str(sim), "--seed", "3"]) == 0
    images = sim / "images"
    cut = read_wav(images / "a__s1.wav")
    write_wav(images / "a__s1.wav",
              SampledSignal(cut.samples[:-300], cut.rate_hz))
    est = tmp_path / "est"
    for wav in images.glob("*.wav"):
        sig = read_wav(wav)
        noisy = sig.samples + 0.01 * np.random.default_rng(1).standard_normal(
            sig.samples.shape)
        write_wav(est / wav.name, SampledSignal(noisy, sig.rate_hz))
    offsets = {"a": 0.7, "b": -0.4}
    assert main(["evaluate", str(est), str(images), str(tmp_path / "r.json"),
                 *[f"--sro-override={m}={v}" for m, v in offsets.items()]]
                ) == 0
    report = json.loads((tmp_path / "r.json").read_text())

    want = {}
    for wav in sorted(images.glob("*__*.wav")):
        m, _, k = wav.stem.partition("__")
        ref = lagrange_resample(read_wav(wav), offsets[m])
        e = read_wav(est / wav.name)
        n = min(ref.n_samples, e.n_samples)
        want[f"{m}/{k}"] = sdr(SampledSignal(ref.samples[:n], ref.rate_hz),
                               SampledSignal(e.samples[:n], e.rate_hz))
    assert list(report["sdr_db"]) == list(want)
    assert report["sdr_db"] == want


def _renamed_array(data, old, new):
    for arr in data["arrays"]:
        if arr["id"] == old:
            arr["id"] = new
    for source in data["sources"]:
        source["coupling"][new] = source["coupling"].pop(old)


def _integer_coupling_keys(data):
    """Array "12", coupled under the YAML integer key 12."""
    _renamed_array(data, "a", "12")
    for source in data["sources"]:
        source["coupling"][12] = source["coupling"].pop("12")


@pytest.mark.parametrize("edit, bad_id", [
    (lambda d: _renamed_array(d, "a", None), "array id must be a string, "
                                             "got None"),
    (lambda d: _renamed_array(d, "a", 12), "array id must be a string, "
                                           "got 12"),
    (lambda d: d["sources"][1].update(id=None), "source id must be a string"),
    (_integer_coupling_keys, "coupling key must be a string, got 12"),
    (lambda d: _renamed_array(d, "a", "sub/dir"), "'sub/dir'"),
    (lambda d: _renamed_array(d, "a", "x__y"), "'x__y'"),
    (lambda d: _renamed_array(d, "a", ""), "''"),
    (lambda d: _renamed_array(d, "a", "a+b"), "'a+b'"),
    # "ü___ .wav" would read back as array ü and source "_ "
    (lambda d: (_renamed_array(d, "a", "ü_"),
                d["sources"][0].update(id=" ")), "'ü_'"),
    # "___s0.wav" would read back as array "" and source "_s0"
    (lambda d: (_renamed_array(d, "a", "_"),
                d["sources"][0].update(id="s0")), "'_'"),
    (lambda d: _renamed_array(d, "a", "tab\there"), "'tab\\there'"),
    (lambda d: d["sources"][1].update(id="noise"), "'noise'"),
    (lambda d: d["sources"][1].update(id="s/2"), "'s/2'"),
], ids=["empty-yaml-id", "integer-id", "empty-source-id",
        "integer-coupling-key", "slash", "double-underscore", "empty", "plus",
        "trailing-underscore", "underscore", "tab", "noise", "source-slash"])
def test_scene_with_a_bad_id_fails_with_config_error(tmp_path, scene_file,
                                                     capsys, edit, bad_id):
    _edited_scene(scene_file, edit)
    out = tmp_path / "out"
    assert main(["simulate", str(scene_file), str(out)]) == 2
    _assert_clean_config_error(capsys, str(scene_file), bad_id)
    assert not out.exists()


@pytest.mark.parametrize("name, bad_id", [
    ("__s1.wav", "device id ''"),
    ("a__noise.wav", "source id 'noise'"),
    ("a__s 1\x7f.wav", "source id 's 1\\x7f'"),
], ids=["empty-device", "noise-source", "unprintable"])
def test_image_file_with_a_bad_id_fails_with_config_error(
        tmp_path, capsys, name, bad_id):
    images = tmp_path / "images"
    write_wav(images / "a__s1.wav",
              SampledSignal(np.zeros((4096, 1)), 16000.0))
    write_wav(images / name, SampledSignal(np.zeros((4096, 1)), 16000.0))
    assert main(["train", str(images), str(tmp_path / "model.bin")]) == 2
    _assert_clean_config_error(capsys, str(images / name), bad_id)


def test_scene_too_large_for_memory_fails_with_config_error(
        tmp_path, scene_file, capsys):
    # refused from its size alone: nothing of it is allocated
    _edited_scene(scene_file, lambda d: d.update(duration_s=1e12))
    assert main(["simulate", str(scene_file), str(tmp_path / "out")]) == 2
    _assert_clean_config_error(capsys, "physical memory")


def test_memory_exhausted_exits_3_naming_the_command(tmp_path, scene_file,
                                                     capsys, monkeypatch):
    import asyncsep.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr(cli, "synthesize_scene", exhausted)
    assert main(["simulate", str(scene_file), str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "out of memory in asyncsep simulate" in err
    assert "Traceback" not in err


# `asyncsep separate` streams WAV files to WAV files, and `evaluate`
# scores one pair at a time

STREAM_WINDOW = WindowSpec(256, 64)


def _stream_models(rng, ids, channels, window=STREAM_WINDOW):
    """Synthetic models of 2 sources over `ids`, with a merged entry
    over two or more devices."""
    spatial, states, _ = make_synthetic_models(
        rng, arrays=ids, n_ch=channels, n_src=2, window=window)
    if len(ids) > 1:
        C, F = channels * len(ids), spatial.n_bins
        merged = np.stack([np.broadcast_to(rand_unit_psd(rng, C),
                                           (F, C, C)).copy()
                           for _ in range(2)])
        spatial = SpatialModel(spatial.covariances, spatial.source_ids,
                               merged=merged)
    return spatial, states


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(devices=st.integers(1, 3), channels=st.integers(1, 2),
       kind=st.sampled_from(["pcm16", "float32"]),
       frames=st.integers(0, 40), tail=st.integers(1, 63),
       seed=st.integers(0, 2**32 - 1))
def test_streamed_separate_equals_the_library_byte_for_byte(
        tmp_path, devices, channels, kind, frames, tail, seed):
    # each example rewrites every file it reads
    rng = np.random.default_rng(seed)
    ids = ["a", "b", "c"][:devices]
    model = tmp_path / "model.bin"
    save_models(model, *_stream_models(rng, ids, channels), STREAM_WINDOW,
                rate_hz=16000.0)
    spatial, states, _ = load_models(model)
    # a length that is no whole number of hops
    n = STREAM_WINDOW.length + frames * STREAM_WINDOW.hop + tail
    rec_dir = tmp_path / "recordings"
    rec_dir.mkdir(exist_ok=True)
    for m in ids:
        x = 0.2 * rng.standard_normal((n, channels))
        if kind == "pcm16":
            wavfile.write(rec_dir / f"{m}.wav", 16000,
                          np.clip(np.round(x * 32768), -32768,
                                  32767).astype(np.int16))
        else:
            write_wav(rec_dir / f"{m}.wav", SampledSignal(x, 16000.0))
    recordings = {m: read_wav(rec_dir / f"{m}.wav") for m in ids}
    for mode in MODES[1:] if devices == 1 else MODES:  # pooled needs two
        out, post, ref = (tmp_path / mode, tmp_path / f"{mode}-post",
                          tmp_path / f"{mode}-ref")
        for d in (out, ref):
            shutil.rmtree(d, ignore_errors=True)
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert main(["separate", str(model), str(rec_dir), str(out),
                         "--mode", mode, "--dump-posteriors", str(post)]) == 0
        gamma = np.empty((stft_frame_count(n, STREAM_WINDOW), spatial.n_bins,
                          states.n_states))
        result = separate_recordings(recordings, STREAM_WINDOW, spatial,
                                     states, mode, posteriors=gamma)
        for (m, k), signal in result.images.items():
            write_wav(ref / f"{m}__{k}.wav", signal)
        np.save(ref / "post", gamma)
        assert sorted(p.name for p in out.iterdir()) == sorted(
            p.name for p in ref.glob("*.wav"))
        for wav in ref.glob("*.wav"):
            assert (out / wav.name).read_bytes() == wav.read_bytes(), wav.name
        # np.save appends ".npy", and so does the dump
        assert (tmp_path / f"{mode}-post.npy").read_bytes() == \
            (ref / "post.npy").read_bytes()
        assert text.getvalue().startswith(posterior_histogram(
            PosteriorMap(gamma, states.state_ids)))


@pytest.mark.parametrize("offsets", [{}, {"a": 0.7, "b": -0.4}],
                         ids=["same-clocks", "offsets"])
def test_evaluate_report_equals_scoring_every_pair_at_once(
        tmp_path, small_scene, offsets):
    est = tmp_path / "est"
    assert _separate_in_process(small_scene / "model.bin",
                                small_scene / "sim" / "recordings",
                                est)[0] == 0
    images, report = small_scene / "sim" / "images", tmp_path / "r.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["evaluate", str(est), str(images), str(report),
                     *[f"--sro-override={m}={v}" for m, v in offsets.items()]
                     ]) == 0
    truth = {tuple(wav.stem.split("__")): read_wav(wav)
             for wav in sorted(images.glob("*__*.wav"))}
    scores = score_images(at_device_clock(truth, offsets),
                          {(m, k): read_wav(est / f"{m}__{k}.wav")
                           for m, k in truth})
    got = json.loads(report.read_text())
    assert list(got["sdr_db"]) == list(scores)
    assert got["sdr_db"] == scores
    assert got["mean_sdr_db"] == _finite_mean(scores.values())


def _traced_peak(argv) -> int:
    """Exit 0 of `asyncsep argv`, and its traced allocation peak."""
    with contextlib.redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0, argv
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()


def test_separate_and_evaluate_memory_does_not_grow_with_length(
        tmp_path, monkeypatch):
    # the same scene at 2 s and 8 s, separated with the posterior dump
    # and scored against clock-offset truth, on one thread
    monkeypatch.setattr(_pool, "worker_count", lambda: 1)
    workspaces = []
    real = _kernels.Workspace

    def recorded(*args, **kwargs):
        ws = real(*args, **kwargs)
        workspaces.append(sum(a.nbytes for a in vars(ws).values()))
        return ws

    monkeypatch.setattr(_kernels, "Workspace", recorded)
    scene = json.loads(json.dumps(SCENE))
    scene["arrays"][1]["sro_hz"] = 0.5
    peaks = {}
    for seconds in (2.0, 8.0):
        scene["duration_s"] = seconds
        path, sim = tmp_path / f"{seconds}.yaml", tmp_path / f"sim{seconds}"
        path.write_text(yaml.safe_dump(scene))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", str(path), str(sim), "--seed", "1"]) == 0
            if seconds == 2.0:
                assert main(["train", str(sim / "images"),
                             str(tmp_path / "model.bin"),
                             "--stft-len", "256"]) == 0
        est = tmp_path / f"est{seconds}"
        peaks[seconds] = (
            _traced_peak(["separate", str(tmp_path / "model.bin"),
                          str(sim / "recordings"), str(est),
                          "--dump-posteriors",
                          str(tmp_path / f"post{seconds}.npy")]),
            _traced_peak(["evaluate", str(est), str(sim / "images"),
                          str(tmp_path / f"r{seconds}.json")]))
    block = max(workspaces)  # the scratch of one thread's blocks
    assert peaks[8.0][0] - peaks[2.0][0] < block
    # evaluate holds one pair: a truth image, its resampled copy and the
    # estimate, each 6 s longer at 8 s; all 4 pairs would take 8 images
    image = 6 * 16000 * 2 * 8
    assert peaks[8.0][1] - peaks[2.0][1] < 5 * image


def test_evaluate_memory_does_not_grow_with_length(tmp_path, monkeypatch):
    # evaluate of the same scene at 2 s and 8 s, noisy truth as the
    # estimates, one device on a clock offset, on one thread: the truth
    # and the estimates are read a span at a time, so the peaks differ by
    # less than one clock's span scratch, where holding a pair grew them
    # by its 6 s of truth, resampled truth and estimate
    monkeypatch.setattr(_pool, "worker_count", lambda: 1)
    scene = json.loads(json.dumps(SCENE))
    scene["arrays"][1]["sro_hz"] = 0.5
    peaks = {}
    for seconds in (2.0, 8.0):
        scene["duration_s"] = seconds
        path, sim = tmp_path / f"{seconds}.yaml", tmp_path / f"sim{seconds}"
        path.write_text(yaml.safe_dump(scene))
        est = tmp_path / f"est{seconds}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", str(path), str(sim), "--seed", "1"]) == 0
        for wav in (sim / "images").glob("*.wav"):
            sig = read_wav(wav)
            write_wav(est / wav.name, SampledSignal(
                sig.samples + 0.01, sig.rate_hz))
        peaks[seconds] = _traced_peak(["evaluate", str(est),
                                       str(sim / "images"),
                                       str(tmp_path / f"r{seconds}.json")])
    # device b's clock over its two 2-channel images, and its span
    clock = dsp._Clock([dsp._ArraySource(np.empty((8 * 16000, 2)))] * 2,
                       16000.0, 0.5)
    span = clock.scratch(dsp._SPAN).nbytes + 8 * clock.channels * dsp._SPAN
    assert abs(peaks[8.0] - peaks[2.0]) < span, (peaks, span)


def test_train_memory_does_not_grow_with_length(tmp_path, monkeypatch):
    # train --pooled on demo-train at 2 s and 8 s, on one thread: the
    # images are read a block of frames at a time, where holding their
    # spectrograms and the merged copy grew it by 116 MB
    monkeypatch.setattr(_pool, "worker_count", lambda: 1)
    workspaces = []
    real = model_module._Scratch

    def recorded(*args, **kwargs):
        ws = real(*args, **kwargs)
        workspaces.append(sum(a.nbytes for a in vars(ws).values()))
        return ws

    monkeypatch.setattr(model_module, "_Scratch", recorded)
    scene = yaml.safe_load(Path(demo_scene_path(train=True)).read_text())
    peaks = {}
    for seconds in (2.0, 8.0):
        scene["duration_s"] = seconds
        path, sim = tmp_path / f"{seconds}.yaml", tmp_path / f"sim{seconds}"
        path.write_text(yaml.safe_dump(scene))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", str(path), str(sim), "--seed", "1"]) == 0
        peaks[seconds] = _traced_peak(["train", str(sim / "images"),
                                       str(tmp_path / f"m{seconds}.bin"),
                                       "--pooled"])
    assert abs(peaks[8.0] - peaks[2.0]) < max(workspaces), peaks


def test_non_finite_recording_exits_3_leaving_no_output(
        tmp_path, trained_container, capsys):
    model, recordings = trained_container
    sig = read_wav(recordings / "b.wav")
    sig.samples[700, 1] = np.nan
    write_wav(recordings / "b.wav", sig)
    est, post = tmp_path / "est", tmp_path / "post.npy"
    capsys.readouterr()
    assert main(["separate", str(model), str(recordings), str(est),
                 "--dump-posteriors", str(post)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "'b'" in err
    assert not est.exists() and not post.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["static-local", "tv-local",
                                  "tv-distributed"])
def test_infinity_at_the_last_sample_exits_3_leaving_no_output(
        tmp_path, trained_container, capsys, mode):
    # found by the pass, after the outputs are made; no log-likelihood
    # check runs in static-local (the model holds no merged entry)
    model, recordings = trained_container
    sig = read_wav(recordings / "b.wav")
    sig.samples[-1, 1] = np.inf
    write_wav(recordings / "b.wav", sig)
    est, post = tmp_path / "est", tmp_path / "post.npy"
    capsys.readouterr()
    assert main(["separate", str(model), str(recordings), str(est),
                 "--mode", mode, "--dump-posteriors", str(post)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: non-finite samples in array 'b'\n")
    assert not est.exists() and not post.exists()


def test_failure_in_the_pass_removes_every_output(
        tmp_path, trained_container, capsys, monkeypatch):
    # the estimates and posteriors of earlier blocks are on disk by then
    model, recordings = trained_container
    real, blocks = separator._deviation_block, []

    def failing(*args):
        blocks.append(1)
        if len(blocks) == 9:
            raise NumericalError("injected")
        return real(*args)

    monkeypatch.setattr(separator, "_deviation_block", failing)
    est, post = tmp_path / "est", tmp_path / "post.npy"
    capsys.readouterr()
    assert main(["separate", str(model), str(recordings), str(est),
                 "--dump-posteriors", str(post)]) == 3
    assert "injected" in capsys.readouterr().err
    assert not est.exists() and not post.exists()


def test_data_chunk_longer_than_the_file_exits_2_before_any_output(
        tmp_path, trained_container, capsys):
    # the RIFF size still matches the file: only the data chunk claims more
    model, recordings = trained_container
    wav = recordings / "b.wav"
    raw = wav.read_bytes()
    at = raw.index(b"data") + 4
    claim = 8 * (len(raw) // 8)  # whole stereo float32 frames
    wav.write_bytes(raw[:at] + struct.pack("<I", claim) + raw[at + 4:])
    est, post = tmp_path / "est", tmp_path / "post.npy"
    capsys.readouterr()
    assert main(["separate", str(model), str(recordings), str(est),
                 "--dump-posteriors", str(post)]) == 2
    _assert_clean_config_error(capsys, str(wav), "Reached EOF prematurely")
    assert not est.exists() and not post.exists()


@pytest.mark.parametrize("mode", MODES)
def test_streamed_pass_tasks_allocate_no_arrays(tmp_path, monkeypatch,
                                                mode):
    # PCM16 in, float32 out: the blocks convert in their scratch
    rng, window = np.random.default_rng(5), WindowSpec(4096, 1024)
    model, rec_dir = tmp_path / "model.bin", tmp_path / "recordings"
    spatial, states = _stream_models(rng, ["a", "b"], 2, window)
    save_models(model, spatial, states, window, rate_hz=16000.0)
    rec_dir.mkdir()
    for m in ("a", "b"):
        wavfile.write(rec_dir / f"{m}.wav", 16000, rng.integers(
            -3000, 3000, (40 * window.hop + 17, 2), dtype=np.int16))
    with contextlib.redirect_stdout(io.StringIO()):
        peaks = pool_run_peaks(monkeypatch, lambda: main([
            "separate", str(model), str(rec_dir), str(tmp_path / "est"),
            "--mode", mode, "--dump-posteriors", str(tmp_path / "p.npy")]))
    # the smallest array a block could allocate: one (8, F) bool plane
    assert len(peaks) == 1
    assert peaks[0] < 8 * spatial.n_bins


def test_streamed_separate_on_more_threads_than_cores(tmp_path, monkeypatch):
    # the threads share the winner counts, the worst deviations and the
    # writers' turns; a lost update changes the histogram, and close()
    # refuses counts that do not add up to every tile
    import sys

    rng = np.random.default_rng(9)
    model, rec_dir = tmp_path / "model.bin", tmp_path / "recordings"
    save_models(model, *_stream_models(rng, ["a", "b", "c"], 2),
                STREAM_WINDOW, rate_hz=16000.0)
    for m in ("a", "b", "c"):
        write_wav(rec_dir / f"{m}.wav", SampledSignal(
            0.2 * rng.standard_normal((300 * STREAM_WINDOW.hop + 5, 2)),
            16000.0))
    outputs = {}
    for workers in (1, 8):
        monkeypatch.setattr(_pool, "worker_count", lambda: workers)
        out, text = tmp_path / f"est{workers}", io.StringIO()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with contextlib.redirect_stdout(text):
                assert main(["separate", str(model), str(rec_dir), str(out),
                             "--dump-posteriors",
                             str(tmp_path / f"p{workers}.npy")]) == 0
        finally:
            sys.setswitchinterval(interval)
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        files["post"] = (tmp_path / f"p{workers}.npy").read_bytes()
        outputs[workers] = (text.getvalue().replace(str(out), "est"), files)
    assert outputs[8] == outputs[1]


def _refused(capsys, argv, path):
    """asyncsep argv exits 2 with a clean error naming path."""
    capsys.readouterr()
    assert main(argv) == 2
    _assert_clean_config_error(capsys, "cannot write", str(path))


def test_simulate_into_an_unmakeable_path_exits_2_leaving_no_output(
        tmp_path, scene_file, capsys):
    # the recordings are written before a file stands where the images go
    out = tmp_path / "sim"
    out.mkdir()
    (out / "images").write_text("")
    _refused(capsys, ["simulate", str(scene_file), str(out)], out / "images")
    assert sorted(p.name for p in out.iterdir()) == ["images"]


def test_train_into_an_unmakeable_path_exits_2_leaving_no_output(
        tmp_path, trained_container, capsys):
    # the model is written before its summary finds a directory in its way
    images = trained_container[1].parent / "images"
    model = tmp_path / "other.bin"
    (tmp_path / "other.txt").mkdir()
    _refused(capsys, ["train", str(images), str(model)],
             tmp_path / "other.txt")
    assert not model.exists()


def test_separate_into_an_unmakeable_path_exits_2_leaving_no_output(
        tmp_path, trained_container, capsys):
    model, recordings = trained_container
    afile, post = tmp_path / "afile", tmp_path / "post.npy"
    afile.write_text("")
    _refused(capsys, ["separate", str(model), str(recordings), str(afile),
                      "--dump-posteriors", str(post)], afile)
    assert not post.exists()
    # a's estimates are made before a directory stands where b's noise
    # image goes
    est = tmp_path / "est"
    (est / "b__noise.wav").mkdir(parents=True)
    _refused(capsys, ["separate", str(model), str(recordings), str(est),
                      "--dump-posteriors", str(post)], est / "b__noise.wav")
    assert [p.name for p in est.iterdir()] == ["b__noise.wav"]
    assert not post.exists()


def test_posteriors_into_an_unmakeable_path_exit_2_leaving_no_output(
        tmp_path, trained_container, capsys):
    model, recordings = trained_container
    afile, est = tmp_path / "afile", tmp_path / "est"
    afile.write_text("")
    _refused(capsys, ["separate", str(model), str(recordings), str(est),
                      "--dump-posteriors", str(afile / "p.npy")], afile)
    assert not est.exists()


def test_evaluate_into_an_unmakeable_path_exits_2_leaving_no_output(
        tmp_path, trained_container, capsys):
    model, recordings = trained_container
    est, afile = tmp_path / "est", tmp_path / "afile"
    assert _separate_in_process(model, recordings, est)[0] == 0
    afile.write_text("")
    _refused(capsys, ["evaluate", str(est), str(recordings.parent / "images"),
                      str(afile / "report.json")], afile)
    assert afile.read_text() == ""


def test_a_failing_input_is_not_reported_as_an_output(
        tmp_path, trained_container, monkeypatch, capsys):
    model, recordings = trained_container
    est, post = tmp_path / "est", tmp_path / "post.npy"
    argv = ["separate", str(model), str(recordings), str(est),
            "--dump-posteriors", str(post)]
    # a read that fails once the estimates are being written: the error
    # is left as it is, and every output made is removed
    preadv = os.preadv

    def failing(fd, buffers, offset):
        if any(est.glob("*.wav")):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", failing)
    with pytest.raises(OSError) as info:
        main(argv)
    assert info.value.errno == errno.EIO
    assert not est.exists() and not post.exists()
    monkeypatch.undo()
    # a recording removed after its header was checked
    checked = cli._check_analyzable

    def removing(wav, *args):
        header = checked(wav, *args)
        wav.unlink()
        return header

    monkeypatch.setattr(cli, "_check_analyzable", removing)
    with pytest.raises(FileNotFoundError) as info:
        main(argv)
    assert Path(info.value.filename) == recordings / "a.wav"
    assert not est.exists()
    assert not post.exists()
    assert "cannot write" not in capsys.readouterr().err
