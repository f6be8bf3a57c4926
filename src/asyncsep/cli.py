"""Command-line pipeline: simulate | train | separate | evaluate.

Exit codes: 0 success, 2 configuration/path error, 3 numerical failure
or memory exhausted.

A typical round trip::

    asyncsep simulate demo out/ --seed 2024
    asyncsep simulate demo-train train/ --seed 2025
    asyncsep train train/images model.bin
    asyncsep separate model.bin out/recordings est/ --mode tv-distributed
    asyncsep evaluate est/ out/images report.json

Scene arguments accept a YAML path or the shorthands ``demo`` and
``demo-train`` for the bundled scene.  Estimate/truth WAV files pair up by
their ``<array>__<source>.wav`` names; ``evaluate`` needs an estimate for
every truth image, of its length, channels and rate, and exits 2 without
a report otherwise.
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
from .classifier import PosteriorMap, posterior_histogram, save_posteriors
from .demo import demo_scene_path
from .dsp import (SampledSignal, WindowSpec, _resample_stacked, stft,
                  stft_frame_count)
from .errors import ConfigError, NumericalError
from .metrics import _sdr_pairs
from .model import (SpatialModel, load_models, model_summary, save_models,
                    train_models)
from .scene import load_scene, scene_to_dict, synthesize_scene
from .separator import MODES, separate_recordings

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


def _read_analyzable(wav: Path, window: WindowSpec, expected_rate=None,
                     channels: int | None = None) -> SampledSignal:
    """A WAV file that `window` can analyze, of `channels` channels when
    given; ConfigError naming it if not."""
    sig = read_wav(wav, expected_rate=expected_rate)
    if channels is not None and sig.channels != channels:
        raise ConfigError(f"{wav} has {sig.channels} channels, not the "
                          f"{channels} of its array")
    if sig.n_samples < window.length:
        raise ConfigError(f"{wav} holds {sig.n_samples} samples, fewer than "
                          f"one STFT window ({window.length})")
    return sig


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
        try:
            SpatialModel.check_id(m, "device")
            SpatialModel.check_id(k, "source")
        except ConfigError as exc:
            raise ConfigError(f"{wav}: {exc}") from None
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
    tensors, channels = {}, {}
    rate = None
    for (m, k), wav in pairs.items():
        # a device's first image sets its channel count
        sig = _read_analyzable(wav, window, expected_rate=rate,
                               channels=channels.get(m))
        tensors[(m, k)] = stft(sig, window)
        rate = sig.rate_hz
        channels[m] = sig.channels
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
    recordings = {}
    for m in spatial.array_ids():
        wav = rec_dir / f"{m}.wav"
        if not wav.is_file():
            raise ConfigError(f"missing recording for array {m!r}: {wav}")
        recordings[m] = _read_analyzable(wav, window, meta["rate_hz"] or None,
                                         spatial.channels(m))
    frames = {m: stft_frame_count(rec.n_samples, window)
              for m, rec in recordings.items()}
    if len(set(frames.values())) > 1:
        raise ConfigError(
            "recordings differ in length; STFT frames per array: "
            + ", ".join(f"{m}={n}" for m, n in frames.items()))

    gamma = None
    if args.dump_posteriors:
        n_frames = next(iter(frames.values()))
        gamma = np.empty((n_frames, spatial.n_bins, states.n_states))
    result = separate_recordings(recordings, window, spatial, states,
                                 args.mode, posteriors=gamma)

    out = Path(args.out)
    for (m, k), signal in result.images.items():
        write_wav(out / _image_name(m, k), signal)
    if gamma is not None:
        pmap = PosteriorMap(gamma, states.state_ids)
        save_posteriors(pmap, args.dump_posteriors)
        print(posterior_histogram(pmap), end="")
    worst = max(result.metadata["consistency_rel_max"].values())
    print(f"separated {len(recordings)} arrays in mode {args.mode} "
          f"(worst tile consistency {worst:.2e}); estimates in {out}")
    return EXIT_OK


def _load_manifest_sro(truth_dir: Path) -> tuple[Path | None, dict]:
    """The manifest next to the truth images and its clock offsets."""
    for cand in (truth_dir / "manifest.json", truth_dir.parent / "manifest.json"):
        if cand.is_file():
            try:
                data = json.loads(cand.read_text())
                sro = {a["id"]: float(a.get("sro_hz", 0.0))
                       for a in data["scene"]["arrays"]}
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ConfigError(f"{cand} is not a simulation manifest: "
                                  f"{type(exc).__name__}: {exc}") from None
            for m, v in sro.items():
                if not math.isfinite(v):
                    raise ConfigError(f"{cand}: clock offset of array {m!r} "
                                      f"must be finite, got {v}")
            return cand, sro
    return None, {}


def cmd_evaluate(args) -> int:
    est_dir = Path(args.estimates)
    truth_dir = Path(args.truth)
    if not est_dir.is_dir():
        raise ConfigError(f"estimates directory not found: {est_dir}")
    if not truth_dir.is_dir():
        raise ConfigError(f"truth directory not found: {truth_dir}")
    truth = _collect_images(truth_dir)
    manifest, sro = _load_manifest_sro(truth_dir)
    origin = dict.fromkeys(sro, str(manifest))
    overrides = _parse_sro_overrides(args.sro_override)
    sro.update(overrides)
    origin.update(dict.fromkeys(overrides, "--sro-override"))

    pairs = {key: (wav, est_dir / _image_name(*key))
             for key, wav in truth.items()}
    missing = [f"{est} (truth {wav})" for wav, est in pairs.values()
               if not est.is_file()]
    if missing:
        raise ConfigError("missing estimates: " + ", ".join(missing))
    refs = {key: read_wav(wav) for key, (wav, _) in pairs.items()}
    # truth at the device clock: the images of one device, length and rate
    # are resampled in one call
    groups = {}
    for (m, k), ref in refs.items():
        if sro.get(m, 0.0) == 0.0:
            continue
        if abs(sro[m]) >= ref.rate_hz:
            raise ConfigError(
                f"clock offset {sro[m]} Hz of array {m!r} ({origin[m]}) is "
                f"not below the sample rate of {pairs[(m, k)][0]} "
                f"({ref.rate_hz} Hz)")
        groups.setdefault((m, ref.n_samples, ref.rate_hz), []).append((m, k))
    for (m, _, _), keys in groups.items():
        refs.update(zip(keys, _resample_stacked([refs[key] for key in keys],
                                                sro[m])))

    scored = []
    for (m, k), (wav, est_path) in pairs.items():
        ref = refs[(m, k)]
        est = read_wav(est_path)
        shape = (est.n_samples, est.channels, est.rate_hz)
        if shape != (ref.n_samples, ref.channels, ref.rate_hz):
            raise ConfigError(
                f"estimate {est_path} holds {est.n_samples} samples of "
                f"{est.channels} channels at {est.rate_hz:g} Hz, its truth "
                f"image {wav} {ref.n_samples} of {ref.channels} at "
                f"{ref.rate_hz:g} Hz")
        if not ref.samples.any():
            raise ConfigError(f"truth image {wav} is silent; SDR is undefined")
        scored.append((ref, est))
    scores = dict(zip((f"{m}/{k}" for m, k in pairs), _sdr_pairs(scored)))

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
    except MemoryError as exc:
        print(f"out of memory in asyncsep {args.command}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
