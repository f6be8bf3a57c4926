"""End-to-end experiment harness: synthesize, train, separate, score.

A run synthesizes a test and a training scene, trains the spatial and
state models on the training images, separates the test mixtures under
the requested filter variants both with and without the scene's clock
offsets, and scores every estimated image against the ground truth at the
device clock: `metrics.at_device_clock` passes the truth images through
the same resampler as the mixture, so reference and estimate share a
clock, and `metrics.score_images` scores them.

Each scene is rendered once, on the nominal clock: the images and the
mixtures do not depend on the clock offsets, which are applied to the
synced mixtures per variant.  Each mode separates the recordings into
image signals in one streamed pass (`separate_recordings`), so no
spectrogram of a test recording or of its images is held.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from .dsp import WindowSpec, lagrange_resample, stft
from .metrics import _finite_mean, at_device_clock, score_images
from .model import train_models
from .scene import SceneSpec, check_seed, scene_to_dict, synthesize_scene
from .separator import MODES, separate_recordings

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
    # stage -> seconds; "synthesize" renders the test scene once,
    # "analyze[variant]" is that variant's clock-offset resampling and
    # "mode[variant]" its separation (with the STFT) and scoring
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
    blob = json.dumps({
        "scene": scene_to_dict(scene),
        "train_scene": scene_to_dict(train_scene),
        "seed": seed,
        "window": [window.length, window.hop, "hann"],  # the only window shape
        "noise_gain": noise_gain,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _zero_sro(spec: SceneSpec) -> SceneSpec:
    import copy

    out = copy.deepcopy(spec)
    for arr in out.arrays:
        arr.sro_hz = 0.0
    return out


def run_experiment(scene: SceneSpec, train_scene: SceneSpec,
                   modes=("tv-distributed",), seed: int = 0,
                   window: WindowSpec | None = None,
                   noise_gain: float = 1.0,
                   variants=VARIANTS) -> ExperimentReport:
    """Run the full pipeline and report SDR per variant, mode and image.

    The test scene is drawn with `seed`, the training scene with
    `seed + 1`.  Fully deterministic for fixed inputs.
    """
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
    check_seed(seed)  # before the training scene, drawn with seed + 1
    if window is None:
        window = WindowSpec()
    report = ExperimentReport(
        config_digest=_digest(scene, train_scene, seed, window, noise_gain),
        seed=seed)

    t0 = time.perf_counter()
    train_images = synthesize_scene(_zero_sro(train_scene), seed + 1)[0]
    train_tensors = {key: stft(sig, window)
                     for key, sig in train_images.images.items()}
    spatial, states = train_models(
        train_tensors, noise_gain=noise_gain,
        include_pooled="static-pooled" in modes)
    del train_images, train_tensors  # not held through the test scene
    report.runtime_s["train"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # the mixture noise seeds do not depend on the clock offsets, so each
    # variant's recordings are these synced mixtures resampled
    test_images, synced = synthesize_scene(_zero_sro(scene), seed)
    report.runtime_s["synthesize"] = time.perf_counter() - t0
    truth = {key: img for arr in scene.arrays  # array by array, as scored
             for key, img in test_images.images.items() if key[0] == arr.id}

    for variant in variants:
        sro_hz = {arr.id: arr.sro_hz if variant == "sro" else 0.0
                  for arr in scene.arrays}
        t0 = time.perf_counter()
        signals = {m: lagrange_resample(synced[m].signal, hz) if hz
                   else synced[m].signal for m, hz in sro_hz.items()}
        report.runtime_s[f"analyze[{variant}]"] = time.perf_counter() - t0

        refs = at_device_clock(truth, sro_hz)

        report.sdr_db.setdefault(variant, {})
        report.mode_means.setdefault(variant, {})
        report.consistency.setdefault(variant, {})

        # the raw mixture as the estimate of every source image
        report.sdr_db[variant]["unprocessed"] = score_images(
            refs, {key: signals[key[0]] for key in refs})
        report.mode_means[variant]["unprocessed"] = _finite_mean(
            report.sdr_db[variant]["unprocessed"].values())

        for mode in modes:
            t0 = time.perf_counter()
            result = separate_recordings(signals, window, spatial, states,
                                         mode)
            scores = score_images(refs, result.images)
            report.sdr_db[variant][mode] = scores
            report.mode_means[variant][mode] = _finite_mean(scores.values())
            report.consistency[variant][mode] = max(
                result.metadata["consistency_rel_max"].values())
            report.runtime_s[f"{mode}[{variant}]"] = time.perf_counter() - t0
            del result  # not held through the next mode's separation
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
