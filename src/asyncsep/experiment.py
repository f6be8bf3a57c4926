"""End-to-end experiment harness: synthesize, train, separate, score.

A run renders a test and a training scene, trains the spatial and state
models on the training images, read a block of frames at a time
(`model._train_sources`), separates the test mixtures under the
requested filter variants both with and without the scene's clock
offsets, and scores every estimated image against the ground truth at
the device clock, without resampling any estimate.

Each scene is rendered once, on the nominal clock, and held as sample
sources: its source signals, whole, and one `scene._ImageSource` per
(array, source) image, which renders any span of that image from them.
Training reads the training scene's images through them; its mixtures
are never made.  Each test device's recording is a `dsp._Clock` over
its images and its noise: their spans added in source order, then the
noise, drawn again for any span from generator states saved by one
sweep, read at the device's clock for the variant.  No recording is
held.  Each variant runs one streamed pass for every mode
(`separator._separate_sources`): each block reads each device's span
of its recording through the scorer (`metrics._Scores.read`), which
renders the device's images once for it and, under the same stencils,
gathers the truth span the block finishes and keeps the recording's
part of it.  So images are rendered about 1.4 times per sample: a
block of 8 frames of the default window reads 11264 samples and
finishes 8192.  The block
is then classified once, and every mode's filters filter, synthesize
and score it.  The destinations score each finished span of an image
as the pass writes it (`metrics._Scores`) against that truth span, and
discard the noise images, which the pass then does not synthesize.  The
unprocessed scores are made span by span through the first mode's
destinations, fed the recording's part of the span with the
estimates'.

So a run holds, of the test scene, its source signals, 8 bytes per
sample for each source, and, while they are rendered, one render
scratch (`scene._RenderScratch`, 26 bytes per sample) per worker
(50 bytes per sample on the demo on one core).  No spectrogram, no
recording, no image signal and no resampled truth image is held.  The
scores equal `score_images(at_device_clock(truth, offsets), images)` of
whole image signals bit for bit.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from . import _kernels
from .dsp import WindowSpec, _span
from .metrics import _finite_mean, _Scores
from .model import _train_sources
from .scene import (SceneSpec, _image_sources, _recordings, check_seed,
                    scene_to_dict)
from .separator import MODES, _separate_sources

__all__ = ["ExperimentReport", "run_experiment", "format_report"]

REPORT_VERSION = 1

# variant keys: scene clock offsets as specified vs. forced to zero
VARIANTS = ("sro", "synced")


@dataclass
class ExperimentReport:
    """Per-(variant, mode, array, source) SDR plus summary statistics."""

    config_digest: str
    seed: int
    sdr_db: dict = field(default_factory=dict)       # variant -> mode -> "m/k" -> dB
    mode_means: dict = field(default_factory=dict)   # variant -> mode -> dB
    consistency: dict = field(default_factory=dict)  # variant -> mode -> worst rel
    # stage -> seconds; "synthesize" renders the test scene's sources
    # once and sweeps its noise, and "separate[variant]" is that
    # variant's one streamed pass of every mode, which renders and
    # analyzes each block, separates, synthesizes and scores it in every
    # mode, and scores the unprocessed recordings, span by span
    runtime_s: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "sdr_db": self.sdr_db,
            "mode_means": self.mode_means,
            "consistency": self.consistency,
            "runtime_s": self.runtime_s,
        }


def _digest(scene: SceneSpec, train_scene: SceneSpec, seed: int,
            window: WindowSpec, noise_gain: float) -> str:
    import hashlib  # here alone: OpenSSL's module is large when resident

    blob = json.dumps({
        "scene": scene_to_dict(scene),
        "train_scene": scene_to_dict(train_scene),
        "seed": seed,
        "window": [window.length, window.hop, "hann"],  # the only window shape
        "noise_gain": noise_gain,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _check_scenes(scene: SceneSpec, train_scene: SceneSpec, modes) -> None:
    """ValueError unless models trained on train_scene can separate and
    score scene: the same rate, arrays among the training arrays with
    their channels (every training array under static-pooled, whose
    filter spans them all) and sources among the training sources."""
    if scene.rate_hz != train_scene.rate_hz:
        raise ValueError(f"test scene at {scene.rate_hz} Hz, training scene "
                         f"at {train_scene.rate_hz} Hz")
    trained = {arr.id: arr.channels for arr in train_scene.arrays}
    for arr in scene.arrays:
        if arr.id not in trained:
            raise ValueError(f"array {arr.id!r} is not in the training "
                             f"scene, which holds {', '.join(trained)}")
        if arr.channels != trained[arr.id]:
            raise ValueError(f"array {arr.id!r}: {arr.channels} channels, "
                             f"{trained[arr.id]} in the training scene")
    tested = [arr.id for arr in scene.arrays]
    missing = [m for m in trained if m not in tested]
    if missing and "static-pooled" in modes:
        raise ValueError(f"static-pooled filters every training array; the "
                         f"test scene lacks {', '.join(missing)}")
    sources = [src.id for src in train_scene.sources]
    for src in scene.sources:
        if src.id not in sources:
            raise ValueError(f"source {src.id!r} is not in the training "
                             f"scene, which holds {', '.join(sources)}")


def run_experiment(scene: SceneSpec, train_scene: SceneSpec,
                   modes=("tv-distributed",), seed: int = 0,
                   window: WindowSpec | None = None,
                   noise_gain: float = 1.0,
                   variants=VARIANTS) -> ExperimentReport:
    """Run the full pipeline and report SDR per variant, mode and image.

    The test scene is drawn with `seed`, the training scene with
    `seed + 1`.  Fully deterministic for fixed inputs.  A mode outside
    `MODES`, a variant outside `VARIANTS`, either given twice, or a test
    scene that the training scene's models cannot separate
    (`_check_scenes`) raises ValueError before anything is rendered.
    """
    for kind, names, known in (("mode", modes, MODES),
                               ("variant", variants, VARIANTS)):
        for name in names:
            if name not in known:
                raise ValueError(f"unknown {kind} {name!r}")
        if len(set(names)) < len(names):
            raise ValueError(f"{kind}s repeated: {', '.join(names)}")
    _check_scenes(scene, train_scene, modes)
    check_seed(seed)  # before the training scene, drawn with seed + 1
    if window is None:
        window = WindowSpec()
    report = ExperimentReport(
        config_digest=_digest(scene, train_scene, seed, window, noise_gain),
        seed=seed)

    t0 = time.perf_counter()
    spatial, states = _train_sources(
        _image_sources(train_scene, seed + 1), window,
        noise_gain=noise_gain, include_pooled="static-pooled" in modes)
    report.runtime_s["train"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    images = _image_sources(scene, seed)
    recordings = _recordings(scene, seed, images)
    report.runtime_s["synthesize"] = time.perf_counter() - t0
    truth = {(arr.id, src.id): (images[(arr.id, src.id)], scene.rate_hz)
             for arr in scene.arrays for src in scene.sources}  # as scored

    rows = _span(window, _kernels._BLOCK)  # the longest write: a last block
    for variant in variants:
        sro_hz = {arr.id: arr.sro_hz if variant == "sro" else 0.0
                  for arr in scene.arrays}
        signals = {m: rec.at(sro_hz[m]) for m, rec in recordings.items()}
        sdr = report.sdr_db.setdefault(variant, {"unprocessed": None})
        report.consistency.setdefault(variant, {})
        # the recordings as the estimates of every source image: scored
        # by the first mode's destinations, against the same truth spans,
        # or alone when there is no mode
        if not modes:
            scores = _Scores(truth, sro_hz, rows)
            scores.feed({key: signals[key[0]] for key in truth})
            sdr["unprocessed"] = scores.scores()
        else:
            t0 = time.perf_counter()
            scores = _Scores(truth, sro_hz, rows, signals, modes)
            consistency = _separate_sources(
                signals, window, spatial, states, modes, None,
                scores.destination, scores)
            sdr["unprocessed"] = scores.scores(unprocessed=True)
            for mode in modes:
                sdr[mode] = scores.scores(mode)
                report.consistency[variant][mode] = max(
                    consistency[mode].values())
            report.runtime_s[f"separate[{variant}]"] = (
                time.perf_counter() - t0)
        report.mode_means[variant] = {
            name: _finite_mean(values.values()) for name, values in sdr.items()}
    return report


def format_report(report: ExperimentReport) -> str:
    """Human-readable table of a report."""
    lines = [f"experiment report (digest {report.config_digest}, "
             f"seed {report.seed})"]
    for variant, per_mode in report.sdr_db.items():
        label = "scene clock offsets" if variant == "sro" else "all clocks synced"
        lines.append(f"\n[{label}]")
        lines.append(f"  {'mode':>16s}  {'mean SDR':>9s}")
        for mode, scores in per_mode.items():
            mean = report.mode_means[variant][mode]
            lines.append(f"  {mode:>16s}  {mean:9.2f}")
            for key in sorted(scores):
                lines.append(f"    {key:>20s}  {scores[key]:9.2f}")
    lines.append("\nruntimes (s):")
    for stage, sec in report.runtime_s.items():
        lines.append(f"  {stage:>24s}  {sec:8.2f}")
    return "\n".join(lines) + "\n"
