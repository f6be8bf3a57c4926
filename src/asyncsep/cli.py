"""Command-line pipeline: simulate | train | separate | evaluate.

Exit codes: 0 success, 2 configuration/path error, 3 numerical failure
or memory exhausted, 130 interrupted (Ctrl-C).  A command writes its
outputs under temporary names and moves them over their targets once
all are complete; one that fails or is interrupted prints one line on
stderr, removes every output it made and leaves the files of an
earlier run as they were.

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
a report otherwise, or when ``--sro-override`` names an array with no
truth image.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audio import WavSink, WavSource, read_header, wav_rate, write_wav
from .classifier import PosteriorFile
from .demo import demo_scene_path
from .dsp import _SPAN, WindowSpec, stft_frame_count
from .errors import ConfigError, NumericalError
from .metrics import _finite_mean, _score, _Scores
from .model import (SpatialModel, _train_sources, load_models, model_summary,
                    save_models)
from .scene import (_number, load_scene, scene_from_dict, scene_to_dict,
                    synthesize_scene)
from .separator import MODES, _separate_sources

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERRUPTED = 130  # as a shell reports a command ended by SIGINT


def _resolve_scene(arg: str):
    if arg == "demo":
        return load_scene(demo_scene_path())
    if arg == "demo-train":
        return load_scene(demo_scene_path(train=True))
    return load_scene(arg)


def _parse_sro_overrides(items, arrays) -> dict[str, float]:
    """ARRAY=HZ flags as array -> Hz, each array one of arrays."""
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(
                f"--sro-override expects ARRAY=HZ, got {item!r}")
        key, _, val = item.partition("=")
        if key not in arrays:
            raise ConfigError(f"--sro-override names unknown array {key!r} "
                              f"(arrays: {', '.join(sorted(arrays))})")
        out[key] = _number(val, f"SRO value in {item!r}")
        if not math.isfinite(out[key]):
            raise ConfigError(f"SRO value must be finite in {item!r}")
    return out


def _window_from_args(args) -> WindowSpec:
    try:
        return WindowSpec.from_overlap(args.stft_len, args.overlap)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_analyzable(wav: Path, found, window: WindowSpec,
                      channels: int | None = None):
    """found, the samples or the header of wav, of `channels` channels
    when given and analyzable with `window`; ConfigError naming wav if
    not."""
    if channels is not None and found.channels != channels:
        raise ConfigError(f"{wav} has {found.channels} channels, not the "
                          f"{channels} of its array")
    if found.n_samples < window.length:
        raise ConfigError(f"{wav} holds {found.n_samples} samples, fewer "
                          f"than one STFT window ({window.length})")
    return found


def _image_name(array_id: str, source_id: str) -> str:
    return f"{array_id}__{source_id}.wav"


class _Outputs:
    """The outputs a command makes, each written under a temporary name
    in its target's directory (`_temporary`) and moved over its target
    (`os.replace`) by `commit`, once every output is complete and closed.

    If the command fails, `discard` removes the temporaries, so the
    files an earlier run left at the targets stay as they were, and then
    every directory that was missing when an output was made, deepest
    first, once it is empty.  Only a kill during `commit` can leave some
    targets new and others old.  An OSError from making an output, such
    as a directory that cannot be made where a file is or a directory
    standing at its target, becomes a ConfigError naming the path; an
    OSError from anything else, reading an input included, is left as it
    is.
    """

    def __init__(self):
        self._made = []  # what removes each thing made, in order
        self._moves = []  # (file written, its target)

    def file(self, path: Path, write) -> None:
        """Make the file at path with write(temporary)."""
        tmp = _temporary(path)
        try:
            self._make(path, tmp, lambda: write(tmp))
        finally:
            self._made.append(lambda: tmp.unlink(missing_ok=True))
        self._moves.append((tmp, path))

    def stream(self, path, open_):
        """open_(temporary), an output of path with close() and discard(),
        whose file is at its .path (`WavSink`, `PosteriorFile`),
        discarded if the command fails."""
        tmp = _temporary(path)
        out = self._make(path, tmp, lambda: open_(tmp))
        self._made.append(out.discard)
        self._moves.append((out.path, path))
        return out

    def _make(self, path, tmp: Path, make):
        # its missing directories, removed after it, deepest first
        missing = [d for d in Path(path).parents if not d.exists()]
        self._made += [d.rmdir for d in reversed(missing)]
        try:
            if Path(path).is_dir():  # no file can be moved over it
                raise IsADirectoryError(errno.EISDIR,
                                        os.strerror(errno.EISDIR), str(path))
            return make()
        except OSError as exc:
            where = exc.filename
            if where is None or str(where) == str(tmp):
                where = path
            raise ConfigError(f"cannot write {where}: "
                              f"{exc.strerror or exc}") from None

    def commit(self) -> None:
        """Move every output over its target, in the order made."""
        for done, path in self._moves:
            try:
                os.replace(done, path)
            except OSError as exc:
                raise ConfigError(f"cannot write {path}: "
                                  f"{exc.strerror or exc}") from None

    def discard(self) -> None:
        for remove in reversed(self._made):
            with contextlib.suppress(OSError):
                remove()


def _temporary(path) -> Path:
    """The name an output of path is written under until it is complete:
    hidden, in the same directory, and not matched by the patterns the
    commands read (`*.wav`)."""
    path = Path(path)
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


@contextlib.contextmanager
def _making():
    """The block that makes a command's outputs (`_Outputs`): they replace
    their targets once it ends, and if it fails, every output made is
    removed."""
    made = _Outputs()
    try:
        yield made
        made.commit()
    except BaseException:
        made.discard()
        raise


def cmd_simulate(args) -> int:
    spec = _resolve_scene(args.scene)
    overrides = _parse_sro_overrides(args.sro_override,
                                     {arr.id for arr in spec.arrays})
    for aid, sro in overrides.items():
        spec.array(aid).sro_hz = sro
    spec.validate()
    out = Path(args.out)
    for arr in spec.arrays:  # its images have its channels, too
        wav_rate(out / "recordings" / f"{arr.id}.wav", spec.rate_hz,
                 arr.channels)
    images, recordings = synthesize_scene(spec, args.seed)
    manifest = {
        "version": 1,
        "seed": args.seed,
        "scene": scene_to_dict(spec),
    }
    with _making() as made:
        for m, rec in recordings.items():
            made.file(out / "recordings" / f"{m}.wav",
                      lambda path: write_wav(path, rec.signal))
        for (m, k), img in images.images.items():
            made.file(out / "images" / _image_name(m, k),
                      lambda path: write_wav(path, img))
        made.file(out / "manifest.json",
                  lambda path: path.write_text(json.dumps(manifest, indent=2)))
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
    """Train both models from WAV images, streamed by frame block.

    The images are checked from their headers; training then reads
    blocks of frames from the files (`model._train_sources`), so memory
    does not grow with the images' length, and a non-finite sample is
    found in its first pass's energies (exit 3).  Nothing is written on
    failure.
    """
    images_dir = Path(args.images)
    if not images_dir.is_dir():
        raise ConfigError(f"images directory not found: {images_dir}")
    pairs = _collect_images(images_dir)
    window = _window_from_args(args)
    headers, channels = {}, {}
    rate = None
    for (m, k), wav in pairs.items():
        # the first image sets the rate, a device's first its channels
        headers[(m, k)] = _check_analyzable(
            wav, read_header(wav, expected_rate=rate), window,
            channels.get(m))
        rate = headers[(m, k)].rate
        channels[m] = headers[(m, k)].channels
    with contextlib.ExitStack() as stack:
        sources = {key: stack.enter_context(WavSource(h))
                   for key, h in headers.items()}
        spatial, states = _train_sources(sources, window,
                                         noise_gain=args.noise_gain,
                                         include_pooled=args.pooled,
                                         names=pairs)
    summary = model_summary(spatial, states)
    with _making() as made:
        made.file(Path(args.model), lambda path: save_models(
            path, spatial, states, window=window, rate_hz=rate))
        made.file(Path(args.model).with_suffix(".txt"),
                  lambda path: path.write_text(summary))
    print(summary, end="")
    print(f"model written to {args.model}")
    return EXIT_OK


def cmd_separate(args) -> int:
    """Separate WAV recordings into WAV estimates, streamed by frame block.

    The recordings are checked from their headers before any output is
    made; the pass then reads each block from the files, checks its
    samples (a non-finite one exits 3) and writes each finished span of
    the estimates, and each block of posteriors, to its file, so memory
    does not grow with the recordings' length.  A failure removes every
    output made, and the directories made for them (`_Outputs`).
    """
    spatial, states, meta = load_models(args.model)
    if args.mode == "static-pooled" and spatial.merged_covariances() is None:
        raise ConfigError(f"{args.model} holds no merged-array entry for "
                          f"static-pooled; train it with `asyncsep train "
                          f"--pooled`")
    rec_dir = Path(args.recordings)
    if not rec_dir.is_dir():
        raise ConfigError(f"recordings directory not found: {rec_dir}")
    window = WindowSpec(meta["window_length"], meta["hop"])
    headers = {}
    for m in spatial.covariances:
        wav = rec_dir / f"{m}.wav"
        if not wav.is_file():
            raise ConfigError(f"missing recording for array {m!r}: {wav}")
        headers[m] = _check_analyzable(
            wav, read_header(wav, meta["rate_hz"] or None), window,
            spatial.channels(m))
    frames = {m: stft_frame_count(h.n_samples, window)
              for m, h in headers.items()}
    if len(set(frames.values())) > 1:
        raise ConfigError(
            "recordings differ in length; STFT frames per array: "
            + ", ".join(f"{m}={n}" for m, n in frames.items()))

    out = Path(args.out)
    outputs = []  # every file made, closed once the pass is done

    def image(mode, m, sid):
        h = headers[m]
        outputs.append(made.stream(out / _image_name(m, sid),
                                   lambda tmp: WavSink(
                                       tmp, h.rate, h.channels, h.n_samples)))
        return outputs[-1]

    gamma = None
    with _making() as made, contextlib.ExitStack() as stack:
        sources = {m: stack.enter_context(WavSource(h))
                   for m, h in headers.items()}
        if args.dump_posteriors:
            gamma = made.stream(
                PosteriorFile.target(args.dump_posteriors),
                lambda tmp: PosteriorFile(
                    tmp, (next(iter(frames.values())), spatial.n_bins,
                          states.n_states), states.state_ids))
            outputs.append(gamma)
        consistency = _separate_sources(sources, window, spatial, states,
                                        [args.mode], gamma, image)[args.mode]
        for done in outputs:
            done.close()
    if gamma is not None:
        print(gamma.histogram(), end="")
    print(f"separated {len(headers)} arrays in mode {args.mode} "
          f"(worst tile consistency {max(consistency.values()):.2e}); "
          f"estimates in {out}")
    return EXIT_OK


def _load_manifest_sro(truth_dir: Path) -> tuple[Path | None, dict]:
    """The manifest next to the truth images and its clock offsets."""
    for cand in (truth_dir / "manifest.json", truth_dir.parent / "manifest.json"):
        if cand.is_file():
            try:
                scene = scene_from_dict(json.loads(cand.read_text())["scene"])
            except ConfigError as exc:
                raise ConfigError(f"{cand}: {exc}") from None
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"{cand} is not a simulation manifest: "
                                  f"{type(exc).__name__}: {exc}") from None
            return cand, {a.id: a.sro_hz for a in scene.arrays}
    return None, {}


def cmd_evaluate(args) -> int:
    """Score estimates against truth images, a span at a time.

    Every header and shape is checked before any sample is read; then
    each estimate is scored span by span against its truth read through
    its device's clock (`metrics._Scores`), so memory does not grow with
    the images' length.  The first image in key order whose truth is
    silent (exit 2) or whose score is not finite (exit 3) ends the command
    without a report.
    """
    est_dir = Path(args.estimates)
    truth_dir = Path(args.truth)
    if not est_dir.is_dir():
        raise ConfigError(f"estimates directory not found: {est_dir}")
    if not truth_dir.is_dir():
        raise ConfigError(f"truth directory not found: {truth_dir}")
    truth = _collect_images(truth_dir)
    manifest, sro = _load_manifest_sro(truth_dir)
    origin = dict.fromkeys(sro, str(manifest))
    overrides = _parse_sro_overrides(args.sro_override, {m for m, _ in truth})
    sro.update(overrides)
    origin.update(dict.fromkeys(overrides, "--sro-override"))

    pairs = {key: (wav, est_dir / _image_name(*key))
             for key, wav in truth.items()}
    missing = [f"{est} (truth {wav})" for wav, est in pairs.values()
               if not est.is_file()]
    if missing:
        raise ConfigError("missing estimates: " + ", ".join(missing))
    heads = {key: read_header(wav) for key, (wav, _) in pairs.items()}
    for (m, k), ref in heads.items():
        if abs(sro.get(m, 0.0)) >= ref.rate:
            raise ConfigError(
                f"clock offset {sro[m]} Hz of array {m!r} ({origin[m]}) is "
                f"not below the sample rate of {pairs[(m, k)][0]} "
                f"({float(ref.rate)} Hz)")
    est_heads = {key: read_header(est) for key, (_, est) in pairs.items()}
    for key, (wav, est_path) in pairs.items():
        ref, est = heads[key], est_heads[key]
        if (est.n_samples, est.channels, est.rate) != \
                (ref.n_samples, ref.channels, ref.rate):
            raise ConfigError(
                f"estimate {est_path} holds {est.n_samples} samples of "
                f"{est.channels} channels at {est.rate:g} Hz, its truth "
                f"image {wav} {ref.n_samples} of {ref.channels} at "
                f"{ref.rate:g} Hz")

    with contextlib.ExitStack() as stack:
        enter = stack.enter_context
        images = _Scores({key: (enter(WavSource(h)), float(h.rate))
                          for key, h in heads.items()}, sro, _SPAN)
        images.feed({key: enter(WavSource(h)) for key, h in est_heads.items()})
    scores = {}
    for (m, k), (wav, _) in pairs.items():
        ref, err = images.energies((m, k))
        if ref == 0.0:
            raise ConfigError(f"truth image {wav} is silent; SDR is undefined")
        scores[f"{m}/{k}"] = _score(f"{m}/{k}", ref, err)
    report = {
        "version": 1,
        "sdr_db": scores,
        "mean_sdr_db": _finite_mean(scores.values()),
    }
    with _making() as made:
        def write(path):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(report, indent=2))

        made.file(Path(args.report), write)
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
    except KeyboardInterrupt:
        print(f"interrupted: asyncsep {args.command} stopped, its outputs "
              f"removed", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
