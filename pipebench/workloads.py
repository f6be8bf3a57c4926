"""The benchmark workloads: set-up, one timed iteration and its gates.

Each workload is chosen so that one planned optimisation does most of its
work there and none in another (see README.md in this directory):

  demo-e2e       the A8 run: run_experiment, tv-distributed, clock offsets
  long-separate  STFT -> separate -> iSTFT -> SDR on a long recording
  all-modes      run_experiment over all four filter modes
  cli-separate   `asyncsep separate --dump-posteriors` + `asyncsep evaluate`

`prepare` runs in a fresh process during set-up and writes what the
workload needs under its directory; `load` reads it back into the
measuring process; `run` is the timed iteration; `check` applies the
correctness gates to what `run` returned, outside the timed region.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import pickle
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

import asyncsep
import asyncsep.cli as cli
import asyncsep.experiment as experiment
from asyncsep.demo import DEMO_SEED, demo_scene, demo_train_scene

# 30 s, not 60 s: three set-ups of a 60 s scene take about 27 s per run,
# too much when a full pass of 92 runs has to stay under an hour on two
# cores; RSS growth with duration still shows against the 15 s workloads.
LONG_DURATION_S = 30.0
CONSISTENCY_MAX = 1e-6       # A5: worst per-tile |sum of images - mixture|
POSTERIOR_SUM_TOL = 1e-12    # the PosteriorMap normalisation tolerance
# README SDR table, "clocks offset" column, at its printed precision;
# `unprocessed` measures -3.65 dB where the README prints -3.6, so it is
# left out.
README_CLOCKS_OFFSET_DB = {
    "static-local": 2.7,
    "static-pooled": 4.3,
    "tv-local": 6.2,
    "tv-distributed": 7.3,
}
# long-separate mean SDR on the default seed at LONG_DURATION_S,
# recorded from this benchmark; checked to SDR_RECORD_TOL.
LONG_SEPARATE_SDR_DB = 6.680433
SDR_RECORD_TOL = 1e-4


@dataclass
class Outcome:
    """What one iteration produced, as the benchmark scores it."""

    audio_s: float          # scene audio per separated (variant, mode) pass
    sdr_db: list[float]     # every scored (mode, array, source) image
    failures: list[str] = field(default_factory=list)


def _scene_with_duration(spec, duration_s):
    if duration_s is None:
        return spec
    out = copy.deepcopy(spec)
    out.duration_s = float(duration_s)
    return out


def _consistency_failures(values: dict, where: str) -> list[str]:
    return [f"{where}: A5 consistency {v:.3e} on {key} exceeds "
            f"{CONSISTENCY_MAX:g}"
            for key, v in values.items() if not v <= CONSISTENCY_MAX]


def _mean(values) -> float:
    return float(np.mean(list(values)))


def readme_failures(mode_means: dict) -> list[str]:
    """Modes whose mean SDR differs from the README at printed precision."""
    return [f"{mode}: mean SDR {mode_means[mode]:.4f} dB does not print as "
            f"the README's {want:.1f} dB"
            for mode, want in README_CLOCKS_OFFSET_DB.items()
            if mode in mode_means
            and f"{mode_means[mode]:.1f}" != f"{want:.1f}"]


def beats_unprocessed_failures(sdr_db: float, unprocessed_db: float) -> list[str]:
    if sdr_db > unprocessed_db:
        return []
    return [f"tv-distributed mean SDR {sdr_db:.4f} dB does not beat "
            f"unprocessed {unprocessed_db:.4f} dB"]


def image_sum_failures(result, observations) -> list[str]:
    """A5 recomputed from the estimates, independent of the metadata."""
    failures = _consistency_failures(
        result.metadata["consistency_rel_max"], "separate metadata")
    for m, obs in observations.items():
        total = sum(t.coeffs for (a, _), t in result.images.items() if a == m)
        diff = np.sqrt((np.abs(total - obs.coeffs) ** 2).sum(axis=-1))
        den = np.sqrt((np.abs(obs.coeffs) ** 2).sum(axis=-1))
        rel = np.where(den > 0.0, diff / np.where(den > 0.0, den, 1.0), 0.0)
        failures += _consistency_failures({m: float(rel.max())}, "image sum")
    return failures


def posterior_failures(gamma: np.ndarray, n_states: int) -> list[str]:
    if gamma.ndim != 3 or gamma.shape[2] != n_states:
        return [f"posterior dump has shape {gamma.shape}, expected "
                f"(frames, bins, {n_states})"]
    if not np.isfinite(gamma).all() or gamma.min() < 0.0:
        return ["posterior dump holds negative or non-finite values"]
    worst = float(np.abs(gamma.sum(axis=2) - 1.0).max())
    if worst > POSTERIOR_SUM_TOL:
        return [f"posteriors sum to 1 only within {worst:.3e} per tile"]
    return []


class Workload:
    def warmup_state(self, state: dict) -> dict:
        """Input of the untimed warm-up iteration."""
        return state


class ExperimentWorkload(Workload):
    """run_experiment on the demo scene, clock-offset variant only."""

    def __init__(self, name: str, modes: tuple[str, ...], why: str):
        self.name = name
        self.modes = modes
        self.why = why

    def prepare(self, workdir: Path, seed: int, duration_s) -> None:
        # run_experiment synthesizes and trains itself; set-up is loading
        # the bundled scenes, which the measuring process repeats in load()
        self.load(workdir, seed, duration_s)

    def load(self, workdir: Path, seed: int, duration_s) -> dict:
        return {"scene": _scene_with_duration(demo_scene(), duration_s),
                "train": _scene_with_duration(demo_train_scene(), duration_s),
                "seed": seed, "full": duration_s is None}

    def warmup_state(self, state: dict) -> dict:
        # run_experiment draws its own inputs, so the warm-up runs the demo
        # seed and the README gate is checked whatever --seed is
        return dict(state, seed=DEMO_SEED)

    def run(self, state: dict):
        return experiment.run_experiment(
            state["scene"], state["train"], modes=self.modes,
            seed=state["seed"], variants=("sro",))

    def check(self, state: dict, report) -> Outcome:
        scores = report.sdr_db["sro"]
        means = report.mode_means["sro"]
        out = Outcome(
            audio_s=state["scene"].duration_s * len(self.modes),
            sdr_db=[v for mode in self.modes for v in scores[mode].values()])
        out.failures += _consistency_failures(report.consistency["sro"],
                                              "run_experiment")
        out.failures += beats_unprocessed_failures(
            means["tv-distributed"], means["unprocessed"])
        if state["full"] and state["seed"] == DEMO_SEED:
            out.failures += readme_failures(means)
        return out


class LongSeparateWorkload(Workload):
    """tv-distributed separation of a long recording; synthesis in set-up."""

    name = "long-separate"
    why = ("30 s recording, separation only: kernels and classifier "
           "dominate, synthesis is in set-up, memory grows with duration")
    mode = "tv-distributed"

    def prepare(self, workdir: Path, seed: int, duration_s) -> None:
        from asyncsep.model import train_models

        spec = _scene_with_duration(
            demo_scene(), LONG_DURATION_S if duration_s is None else duration_s)
        images, recordings = asyncsep.synthesize_scene(spec, seed)
        refs = {}
        for arr in spec.arrays:
            for (m, k), truth in images.images.items():
                if m == arr.id:
                    refs[(m, k)] = (asyncsep.lagrange_resample(truth, arr.sro_hz)
                                    if arr.sro_hz != 0.0 else truth)
        unprocessed = _mean(asyncsep.sdr(ref, recordings[m].signal)
                            for (m, _), ref in refs.items())
        window = asyncsep.WindowSpec()
        train_images, _ = asyncsep.synthesize_scene(
            _scene_with_duration(demo_train_scene(), duration_s), seed + 1)
        spatial, states = train_models(
            {key: asyncsep.stft(sig, window)
             for key, sig in train_images.images.items()})
        blob = {
            "rate_hz": spec.rate_hz,
            "duration_s": spec.duration_s,
            "recordings": {m: r.signal.samples for m, r in recordings.items()},
            "refs": {key: ref.samples for key, ref in refs.items()},
            "spatial": spatial,
            "states": states,
            "unprocessed_db": unprocessed,
        }
        with open(workdir / "long.pkl", "wb") as fh:
            pickle.dump(blob, fh, protocol=pickle.HIGHEST_PROTOCOL)

    def load(self, workdir: Path, seed: int, duration_s) -> dict:
        # the file was written by prepare() in a child of this benchmark
        with open(workdir / "long.pkl", "rb") as fh:
            blob = pickle.load(fh)
        rate = blob["rate_hz"]
        return {
            "duration_s": blob["duration_s"],
            "recordings": {m: asyncsep.SampledSignal(x, rate)
                           for m, x in blob["recordings"].items()},
            "refs": {key: asyncsep.SampledSignal(x, rate)
                     for key, x in blob["refs"].items()},
            "spatial": blob["spatial"],
            "states": blob["states"],
            "unprocessed_db": blob["unprocessed_db"],
            "seed": seed,
            "full": duration_s is None,
        }

    def run(self, state: dict):
        window = asyncsep.WindowSpec()
        observations = {m: asyncsep.stft(sig, window)
                        for m, sig in state["recordings"].items()}
        result = asyncsep.separate(observations, state["spatial"],
                                   state["states"], self.mode)
        return observations, result, self.score(state, result)

    def score(self, state: dict, result) -> list[float]:
        return [asyncsep.sdr(ref, asyncsep.istft(result.images[key],
                                                 length=ref.n_samples))
                for key, ref in state["refs"].items()]

    def check(self, state: dict, raw) -> Outcome:
        observations, result, scores = raw
        out = Outcome(audio_s=state["duration_s"], sdr_db=scores)
        out.failures += image_sum_failures(result, observations)
        mean = _mean(scores)
        out.failures += beats_unprocessed_failures(mean, state["unprocessed_db"])
        if state["full"] and state["seed"] == DEMO_SEED \
                and abs(mean - LONG_SEPARATE_SDR_DB) > SDR_RECORD_TOL:
            out.failures.append(
                f"mean SDR {mean:.6f} dB differs from the recorded "
                f"{LONG_SEPARATE_SDR_DB:.6f} dB")
        return out


class CliSeparateWorkload(Workload):
    """The CLI round trip on the demo WAVs: separate, then evaluate."""

    name = "cli-separate"
    why = ("the only user of audio, load_models and cli; the classifier "
           "runs twice on one input, so posterior reuse shows here")
    mode = "tv-distributed"
    _CONSISTENCY = re.compile(r"worst tile consistency ([0-9.eE+-]+)")

    def prepare(self, workdir: Path, seed: int, duration_s) -> None:
        test_arg, train_arg = "demo", "demo-train"
        if duration_s is not None:
            for name, spec in (("test", demo_scene()),
                               ("train", demo_train_scene())):
                path = workdir / f"{name}_scene.yaml"
                path.write_text(yaml.safe_dump(asyncsep.scene.scene_to_dict(
                    _scene_with_duration(spec, duration_s))))
            test_arg = str(workdir / "test_scene.yaml")
            train_arg = str(workdir / "train_scene.yaml")
        steps = [
            ["simulate", test_arg, str(workdir / "test"), "--seed", str(seed)],
            ["simulate", train_arg, str(workdir / "train"),
             "--seed", str(seed + 1)],
            ["train", str(workdir / "train" / "images"),
             str(workdir / "model.bin")],
        ]
        for argv in steps:
            rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"asyncsep {' '.join(argv)} exited {rc}")
        (workdir / "unprocessed.json").write_text(json.dumps(
            {"unprocessed_db": _unprocessed_from_wavs(workdir / "test")}))

    def load(self, workdir: Path, seed: int, duration_s) -> dict:
        unprocessed = json.loads(
            (workdir / "unprocessed.json").read_text())["unprocessed_db"]
        manifest = json.loads((workdir / "test" / "manifest.json").read_text())
        _, states, _ = asyncsep.model.load_models(workdir / "model.bin")
        return {"n_states": states.n_states, "data": workdir / "test",
                "model": workdir / "model.bin",
                "duration_s": float(manifest["scene"]["duration_s"]),
                "unprocessed_db": unprocessed, "seed": seed,
                "full": duration_s is None}

    def run(self, state: dict):
        out_dir = state["data"] / "estimates"
        post = state["data"] / "posteriors.npy"
        report = state["data"] / "report.json"
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            rc_sep = cli.main(["separate", str(state["model"]),
                               str(state["data"] / "recordings"), str(out_dir),
                               "--mode", self.mode,
                               "--dump-posteriors", str(post)])
            rc_eval = cli.main(["evaluate", str(out_dir),
                                str(state["data"] / "images"), str(report)])
        return rc_sep, rc_eval, text.getvalue(), post, report

    def check(self, state: dict, raw) -> Outcome:
        rc_sep, rc_eval, text, post, report = raw
        out = Outcome(audio_s=state["duration_s"], sdr_db=[])
        if rc_sep != 0 or rc_eval != 0:
            out.failures.append(
                f"exit codes: separate {rc_sep}, evaluate {rc_eval}")
            return out
        found = self._CONSISTENCY.search(text)
        if found is None:
            out.failures.append("separate printed no consistency figure")
        else:
            out.failures += _consistency_failures(
                {"all arrays": float(found.group(1))}, "asyncsep separate")
        out.failures += posterior_failures(np.load(post), state["n_states"])
        scores = json.loads(report.read_text())["sdr_db"]
        out.sdr_db = list(scores.values())
        mean = _mean(out.sdr_db)
        out.failures += beats_unprocessed_failures(mean, state["unprocessed_db"])
        if state["full"] and state["seed"] == DEMO_SEED:
            out.failures += readme_failures({self.mode: mean})
        return out


def _unprocessed_from_wavs(data: Path) -> float:
    """Mean SDR of the raw recordings as estimates, scored like evaluate."""
    from asyncsep.audio import read_wav

    manifest = json.loads((data / "manifest.json").read_text())
    sro = {a["id"]: float(a["sro_hz"]) for a in manifest["scene"]["arrays"]}
    scores = []
    for wav in sorted((data / "images").glob("*__*.wav")):
        m = wav.stem.partition("__")[0]
        ref = read_wav(wav)
        if sro[m] != 0.0:
            ref = asyncsep.lagrange_resample(ref, sro[m])
        rec = read_wav(data / "recordings" / f"{m}.wav")
        scores.append(asyncsep.sdr(ref, rec))
    return _mean(scores)


WORKLOADS = {
    w.name: w for w in (
        ExperimentWorkload(
            "demo-e2e", ("tv-distributed",),
            "the A8 run users time: synthesis is half of it, so render-once "
            "and fractional-delay changes show here"),
        LongSeparateWorkload(),
        ExperimentWorkload(
            "all-modes", asyncsep.MODES,
            "static, pooled and local filter paths and one classify per "
            "array; catches a tv-distributed specialisation that slows them"),
        CliSeparateWorkload(),
    )
}

