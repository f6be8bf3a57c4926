"""Tests for the command-line pipeline and its exit codes."""

import json
import math
import struct

import numpy as np
import pytest
import yaml

from asyncsep.cli import main


@pytest.fixture
def scene_file(tmp_path):
    data = {
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
    p = tmp_path / "scene.yaml"
    p.write_text(yaml.safe_dump(data))
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
