"""Command-line pipeline: simulate | train | separate | evaluate.

Exit codes: 0 success, 2 configuration/path error, 3 numerical failure.

A typical round trip::

    asyncsep simulate demo out/ --seed 2024
    asyncsep simulate demo-train train/ --seed 2025
    asyncsep train train/images model.bin
    asyncsep separate model.bin out/recordings est/ --mode tv-distributed
    asyncsep evaluate est/ out/images report.json

Scene arguments accept a YAML path or the shorthands ``demo`` and
``demo-train`` for the bundled scene.  Estimate/truth WAV files pair up by
their ``<array>__<source>.wav`` names.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audio import read_wav, write_wav
from .classifier import classify, posterior_histogram, save_posteriors
from .demo import demo_scene_path
from .dsp import (SampledSignal, SpectrogramTensor, WindowSpec, istft,
                  lagrange_resample, stft)
from .errors import ConfigError, NumericalError
from .metrics import sdr
from .model import load_models, model_summary, save_models, train_models
from .scene import load_scene, scene_to_dict, synthesize_scene
from .separator import MODES, separate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _resolve_scene(arg: str):
    if arg == "demo":
        return load_scene(demo_scene_path())
    if arg == "demo-train":
        return load_scene(demo_scene_path(train=True))
    return load_scene(arg)


def _parse_sro_overrides(items) -> dict[str, float]:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(
                f"--sro-override expects ARRAY=HZ, got {item!r}")
        key, _, val = item.partition("=")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad SRO value in {item!r}") from exc
        if not math.isfinite(out[key]):
            raise ConfigError(f"SRO value must be finite in {item!r}")
    return out


def _window_from_args(args) -> WindowSpec:
    try:
        return WindowSpec.from_overlap(args.stft_len, args.overlap)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read_stft(wav: Path, window: WindowSpec, expected_rate=None,
               channels: int | None = None) -> SpectrogramTensor:
    """STFT of a WAV file; ConfigError naming it when it cannot be analyzed."""
    sig = read_wav(wav, expected_rate=expected_rate)
    if channels is not None and sig.channels != channels:
        raise ConfigError(f"{wav} has {sig.channels} channels, the model "
                          f"expects {channels}")
    if sig.n_samples < window.length:
        raise ConfigError(f"{wav} holds {sig.n_samples} samples, fewer than "
                          f"one STFT window ({window.length})")
    return stft(sig, window)


def _image_name(array_id: str, source_id: str) -> str:
    return f"{array_id}__{source_id}.wav"


def cmd_simulate(args) -> int:
    spec = _resolve_scene(args.scene)
    overrides = _parse_sro_overrides(args.sro_override)
    for aid, sro in overrides.items():
        try:
            spec.array(aid).sro_hz = sro
        except KeyError:
            raise ConfigError(f"--sro-override names unknown array {aid!r}") from None
    spec.validate()
    out = Path(args.out)
    images, recordings = synthesize_scene(spec, args.seed)
    for m, rec in recordings.items():
        write_wav(out / "recordings" / f"{m}.wav", rec.signal)
    for (m, k), img in images.images.items():
        write_wav(out / "images" / _image_name(m, k), img)
    manifest = {
        "version": 1,
        "seed": args.seed,
        "scene": scene_to_dict(spec),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"wrote {len(recordings)} recordings and {len(images.images)} "
          f"ground-truth images to {out}")
    return EXIT_OK


def _collect_images(images_dir: Path):
    pairs = {}
    for wav in sorted(images_dir.glob("*.wav")):
        name = wav.stem
        if "__" not in name:
            continue
        m, _, k = name.partition("__")
        pairs[(m, k)] = wav
    if not pairs:
        raise ConfigError(f"no <array>__<source>.wav files in {images_dir}")
    return pairs


def cmd_train(args) -> int:
    images_dir = Path(args.images)
    if not images_dir.is_dir():
        raise ConfigError(f"images directory not found: {images_dir}")
    pairs = _collect_images(images_dir)
    window = _window_from_args(args)
    tensors = {}
    rate = None
    for key, wav in pairs.items():
        tensors[key] = _read_stft(wav, window, expected_rate=rate)
        rate = tensors[key].rate_hz
    spatial, states = train_models(tensors, noise_gain=args.noise_gain,
                                   include_pooled=args.pooled)
    save_models(args.model, spatial, states, window=window, rate_hz=rate)
    summary = model_summary(spatial, states)
    Path(args.model).with_suffix(".txt").write_text(summary)
    print(summary, end="")
    print(f"model written to {args.model}")
    return EXIT_OK


def cmd_separate(args) -> int:
    spatial, states, meta = load_models(args.model)
    if args.mode == "static-pooled" and \
            spatial.merged_id() not in spatial.covariances:
        raise ConfigError(f"{args.model} holds no merged-array entry for "
                          f"static-pooled; train it with `asyncsep train "
                          f"--pooled`")
    rec_dir = Path(args.recordings)
    if not rec_dir.is_dir():
        raise ConfigError(f"recordings directory not found: {rec_dir}")
    window = WindowSpec(meta["window_length"], meta["hop"])
    observations = {}
    for m in spatial.array_ids():
        wav = rec_dir / f"{m}.wav"
        if not wav.is_file():
            raise ConfigError(f"missing recording for array {m!r}: {wav}")
        observations[m] = _read_stft(wav, window, meta["rate_hz"] or None,
                                     spatial.channels(m))
    frames = {m: obs.n_frames for m, obs in observations.items()}
    if len(set(frames.values())) > 1:
        raise ConfigError(
            "recordings differ in length; STFT frames per array: "
            + ", ".join(f"{m}={n}" for m, n in frames.items()))

    if args.mode not in MODES:
        raise ConfigError(f"unknown mode {args.mode!r}; choose from {MODES}")
    result = separate(observations, spatial, states, args.mode)

    out = Path(args.out)
    for (m, k), tensor in result.images.items():
        write_wav(out / _image_name(m, k), istft(tensor))
    if args.dump_posteriors:
        gamma = classify(observations, spatial, states)
        save_posteriors(gamma, args.dump_posteriors)
        print(posterior_histogram(gamma), end="")
    worst = max(result.metadata["consistency_rel_max"].values())
    print(f"separated {len(observations)} arrays in mode {args.mode} "
          f"(worst tile consistency {worst:.2e}); estimates in {out}")
    return EXIT_OK


def _load_manifest_sro(truth_dir: Path) -> dict[str, float]:
    for cand in (truth_dir / "manifest.json", truth_dir.parent / "manifest.json"):
        if cand.is_file():
            data = json.loads(cand.read_text())
            return {a["id"]: float(a.get("sro_hz", 0.0))
                    for a in data["scene"]["arrays"]}
    return {}


def cmd_evaluate(args) -> int:
    est_dir = Path(args.estimates)
    truth_dir = Path(args.truth)
    if not est_dir.is_dir():
        raise ConfigError(f"estimates directory not found: {est_dir}")
    if not truth_dir.is_dir():
        raise ConfigError(f"truth directory not found: {truth_dir}")
    truth = _collect_images(truth_dir)
    sro = _load_manifest_sro(truth_dir)
    sro.update(_parse_sro_overrides(args.sro_override))

    scores = {}
    for (m, k), wav in truth.items():
        est_path = est_dir / _image_name(m, k)
        if not est_path.is_file():
            continue
        ref = read_wav(wav)
        if sro.get(m, 0.0) != 0.0:
            ref = lagrange_resample(ref, sro[m])
        est = read_wav(est_path)
        n = min(ref.n_samples, est.n_samples)
        if not ref.samples[:n].any():
            raise ConfigError(f"truth image {wav} is silent over the scored "
                              f"span; SDR is undefined")
        scores[f"{m}/{k}"] = sdr(SampledSignal(ref.samples[:n], ref.rate_hz),
                                 SampledSignal(est.samples[:n], est.rate_hz))
    if not scores:
        raise ConfigError("no estimate/truth pairs found")

    finite = [v for v in scores.values() if math.isfinite(v)]
    report = {
        "version": 1,
        "sdr_db": scores,
        "mean_sdr_db": (sum(finite) / len(finite)) if finite else math.inf,
    }
    Path(args.report).parent.mkdir(parents=True, exist_ok=True)
    Path(args.report).write_text(json.dumps(report, indent=2))
    print(f"{'image':>16s}  {'SDR (dB)':>9s}")
    for key in sorted(scores):
        print(f"{key:>16s}  {scores[key]:9.2f}")
    print(f"{'mean':>16s}  {report['mean_sdr_db']:9.2f}")
    print(f"report written to {args.report}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asyncsep",
        description="separate speech recorded by asynchronous microphone arrays")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate",
                       help="render a scene to recordings and truth images")
    p.add_argument("scene", help="scene YAML path, or 'demo' / 'demo-train'")
    p.add_argument("out", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sro-override", action="append", metavar="ARRAY=HZ",
                   help="replace an array's clock offset (repeatable)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train models from ground-truth images")
    p.add_argument("images", help="directory of <array>__<source>.wav files")
    p.add_argument("model", help="output model path")
    p.add_argument("--stft-len", type=int, default=4096)
    p.add_argument("--overlap", type=float, default=0.75)
    p.add_argument("--noise-gain", type=float, default=1.0,
                   help="diffuse-noise power relative to the mean source power")
    p.add_argument("--pooled", action="store_true",
                   help="also train the merged-array entry for static-pooled")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("separate", help="separate recordings with a model")
    p.add_argument("model")
    p.add_argument("recordings", help="directory of <array>.wav recordings")
    p.add_argument("out", help="output directory for estimated images")
    p.add_argument("--mode", default="tv-distributed", choices=MODES)
    p.add_argument("--dump-posteriors", metavar="PATH",
                   help="also write the posterior tensor (.npy)")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("evaluate", help="score estimates against truth images")
    p.add_argument("estimates")
    p.add_argument("truth")
    p.add_argument("report", help="output report path (JSON)")
    p.add_argument("--sro-override", action="append", metavar="ARRAY=HZ",
                   help="clock offset used to align truth to the device")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
