"""Tests for the command-line pipeline and its exit codes."""

import contextlib
import io
import json
import math
import struct
import warnings
import zlib

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io.wavfile import WavFileWarning

from asyncsep import cli
from asyncsep.audio import read_wav, write_wav
from asyncsep.cli import main
from asyncsep.dsp import SampledSignal
from asyncsep.model import _MAGIC, load_models


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


@pytest.mark.parametrize("edit", [
    lambda d: d["sources"][0]["coupling"]["a"][1].update(delay=math.nan),
    lambda d: d["sources"][1]["coupling"]["b"][0].update(gain=math.inf),
    lambda d: d["arrays"][0].update(sro_hz=math.nan),
    lambda d: d["arrays"][1].update(sro_hz=-16000.0),
    lambda d: d.update(duration_s=math.nan),
    lambda d: d.update(noise_level=math.inf),
], ids=["nan-delay", "inf-gain", "nan-sro", "sro-at-rate", "nan-duration",
        "inf-noise"])
def test_non_finite_scene_values_fail_with_config_error(tmp_path, scene_file,
                                                        capsys, edit):
    _edited_scene(scene_file, edit)
    assert main(["simulate", str(scene_file), str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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
    monkeypatch.setattr(cli, "read_wav", lambda *a, **k: reads.append(a))
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
    (lambda d: _renamed_array(d, "a", "tab\there"), "'tab\\there'"),
    (lambda d: d["sources"][1].update(id="noise"), "'noise'"),
    (lambda d: d["sources"][1].update(id="s/2"), "'s/2'"),
], ids=["empty-yaml-id", "integer-id", "empty-source-id",
        "integer-coupling-key", "slash", "double-underscore", "empty", "plus",
        "tab", "noise", "source-slash"])
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
