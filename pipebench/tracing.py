"""Span tracer around the public calls of each asyncsep layer.

The wrappers live in the benchmark, not in the library.  Modules bind
names at import (``from .dsp import stft`` copies the function object into
``experiment``), so a wrapper is installed under every asyncsep module
attribute that holds the original function, not only in the defining
module; otherwise calls made through the copied name would be missed.

Spans (name, start, end, parent) and counters are kept in memory, one
group per iteration, and written out as JSON when the run ends.  A
layer's busy time is its self time: the span minus its child spans.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

# (metric name, unit, better); every traced run prints all of them.
PER_LAYER = [
    ("scene.synthesize_scene_s", "s", "lower"),
    ("scene.synthesize_scene_calls", "count", "lower"),
    ("scene.useful_render_ratio", "ratio", "higher"),
    ("dsp.fractional_delay_s", "s", "lower"),
    ("dsp.fractional_delay_samples", "count", "lower"),
    ("dsp.lagrange_resample_s", "s", "lower"),
    ("dsp.lagrange_resample_samples", "count", "lower"),
    ("dsp.stft_s", "s", "lower"),
    ("dsp.stft_frames", "count", "lower"),
    ("dsp.istft_s", "s", "lower"),
    ("dsp.istft_frames", "count", "lower"),
    ("classifier.classify_s", "s", "lower"),
    ("classifier.classify_calls", "count", "lower"),
    ("classifier.useful_classify_ratio", "ratio", "higher"),
    ("classifier.source_power_estimates_s", "s", "lower"),
    ("kernels.loglik_accumulate_s", "s", "lower"),
    ("kernels.loglik_tile_states", "count", "lower"),
    ("kernels.loglik_tile_states_per_s", "1/s", "higher"),
    ("kernels.mwf_filter_s", "s", "lower"),
    ("kernels.mwf_tiles", "count", "lower"),
    ("kernels.mwf_tiles_per_s", "1/s", "higher"),
    ("kernels.mwf_bytes_computed", "B", "lower"),
    ("separator.separate_s", "s", "lower"),
    ("separator.peak_alloc_mb", "MB", "lower"),
    ("model.train_models_s", "s", "lower"),
    ("model.load_models_s", "s", "lower"),
    ("model.save_models_s", "s", "lower"),
    ("model.container_bytes", "B", "lower"),
    ("metrics.sdr_s", "s", "lower"),
    ("metrics.sdr_calls", "count", "lower"),
    ("audio.read_wav_s", "s", "lower"),
    ("audio.write_wav_s", "s", "lower"),
    ("audio.bytes_written", "B", "lower"),
    ("cli.separate_s", "s", "lower"),
    ("cli.evaluate_s", "s", "lower"),
    ("experiment.run_experiment_s", "s", "lower"),
    ("trace.audio_s_per_s", "s/s", "higher"),
    ("trace.overhead_audio_s_per_s", "s/s", "higher"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    iteration: int


class Tracer:
    """In-memory spans and counters of one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: list[dict] = []
        self.renders: list[set] = []
        self.classify_inputs: list[set] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    @property
    def iteration(self) -> int:
        return len(self.counters) - 1

    def begin_iteration(self) -> None:
        self.counters.append(defaultdict(float))
        self.renders.append(set())
        self.classify_inputs.append(set())

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[-1][key] += value

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer: str, fn, hook):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            measure_alloc = layer == "separator.separate" and \
                not tracemalloc.is_tracing()
            if measure_alloc:
                tracemalloc.start()
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(layer, 0.0, 0.0, parent, self.iteration)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    key = "separator.peak_alloc_mb"
                    self.counters[-1][key] = max(self.counters[-1][key],
                                                 peak / 2**20)
            if hook is not None:
                hook(self, bound, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Replace every asyncsep binding of each traced function."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None
                   and (name == "asyncsep" or name.startswith("asyncsep."))]
        for mod_name, fn_name, layer, hook in _TRACED:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(layer, original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> list[dict]:
        """Per iteration: layer -> summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out = [defaultdict(float) for _ in self.counters]
        for span, inner in zip(self.spans, child):
            out[span.iteration][span.name] += span.end - span.start - inner
        return out

    def layer_metrics(self) -> list[dict]:
        """Per-layer metric values of each traced iteration."""
        rows = []
        for it, busy in enumerate(self.self_times()):
            c = self.counters[it]
            row = {
                "scene.synthesize_scene_s": busy["scene.synthesize_scene"],
                "scene.synthesize_scene_calls": c["scene.synthesize_scene_calls"],
                "scene.useful_render_ratio": _ratio(
                    len(self.renders[it]), c["scene.synthesize_scene_calls"]),
                "dsp.fractional_delay_s": busy["dsp.fractional_delay"],
                "dsp.fractional_delay_samples": c["dsp.fractional_delay_samples"],
                "dsp.lagrange_resample_s": busy["dsp.lagrange_resample"],
                "dsp.lagrange_resample_samples": c["dsp.lagrange_resample_samples"],
                "dsp.stft_s": busy["dsp.stft"],
                "dsp.stft_frames": c["dsp.stft_frames"],
                "dsp.istft_s": busy["dsp.istft"],
                "dsp.istft_frames": c["dsp.istft_frames"],
                "classifier.classify_s": busy["classifier.classify"],
                "classifier.classify_calls": c["classifier.classify_calls"],
                "classifier.useful_classify_ratio": _ratio(
                    len(self.classify_inputs[it]),
                    c["classifier.classify_calls"]),
                "classifier.source_power_estimates_s":
                    busy["classifier.source_power_estimates"],
                "kernels.loglik_accumulate_s": busy["kernels.loglik_accumulate"],
                "kernels.loglik_tile_states": c["kernels.loglik_tile_states"],
                "kernels.loglik_tile_states_per_s": _ratio(
                    c["kernels.loglik_tile_states"],
                    busy["kernels.loglik_accumulate"]),
                "kernels.mwf_filter_s": busy["kernels.mwf_filter"],
                "kernels.mwf_tiles": c["kernels.mwf_tiles"],
                "kernels.mwf_tiles_per_s": _ratio(
                    c["kernels.mwf_tiles"], busy["kernels.mwf_filter"]),
                "kernels.mwf_bytes_computed": c["kernels.mwf_bytes_computed"],
                "separator.separate_s": busy["separator.separate"],
                "separator.peak_alloc_mb": c["separator.peak_alloc_mb"],
                "model.train_models_s": busy["model.train_models"],
                "model.load_models_s": busy["model.load_models"],
                "model.save_models_s": busy["model.save_models"],
                "model.container_bytes": c["model.container_bytes"],
                "metrics.sdr_s": busy["metrics.sdr"],
                "metrics.sdr_calls": c["metrics.sdr_calls"],
                "audio.read_wav_s": busy["audio.read_wav"],
                "audio.write_wav_s": busy["audio.write_wav"],
                "audio.bytes_written": c["audio.bytes_written"],
                "cli.separate_s": busy["cli.separate"],
                "cli.evaluate_s": busy["cli.evaluate"],
                "experiment.run_experiment_s": busy["experiment.run_experiment"],
            }
            rows.append(row)
        return rows

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header)
        doc["spans"] = [asdict(s) for s in self.spans]
        doc["counters"] = [dict(c) for c in self.counters]
        path.write_text(json.dumps(doc))


def median_metrics(rows: list[dict]) -> dict:
    """Median of each per-layer metric over the traced iterations."""
    return {key: statistics.median(row[key] for row in rows)
            for key in rows[0]}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work in the iteration."""
    return num / den if den else 0.0


# -- counter hooks: (tracer, bound arguments, result) -------------------------

def _on_synthesize(tr: Tracer, a: dict, result) -> None:
    from asyncsep.scene import scene_to_dict

    tr.count("scene.synthesize_scene_calls")
    blob = json.dumps([scene_to_dict(a["spec"]), a["seed"],
                       a.get("delay_order", 4)], sort_keys=True)
    tr.renders[-1].add(hashlib.sha1(blob.encode()).hexdigest())


def _on_fractional_delay(tr: Tracer, a: dict, result) -> None:
    tr.count("dsp.fractional_delay_samples", result.size)


def _on_resample(tr: Tracer, a: dict, result) -> None:
    tr.count("dsp.lagrange_resample_samples", result.samples.size)


def _on_stft(tr: Tracer, a: dict, result) -> None:
    tr.count("dsp.stft_frames", result.n_frames * result.channels)


def _on_istft(tr: Tracer, a: dict, result) -> None:
    spec = a["spec"]
    tr.count("dsp.istft_frames", spec.n_frames * spec.channels)


def _on_classify(tr: Tracer, a: dict, result) -> None:
    tr.count("classifier.classify_calls")
    obs = a["observations"]
    ids = a.get("array_ids")
    ids = sorted(obs) if ids is None else list(ids)
    digest = hashlib.sha1(repr(ids).encode())
    for m in ids:
        coeffs = obs[m].coeffs
        digest.update(repr(coeffs.shape).encode())
        # a strided sample tells distinct inputs apart at little cost
        digest.update(coeffs[::7, ::13].tobytes())
    tr.classify_inputs[-1].add(digest.hexdigest())


def _on_loglik(tr: Tracer, a: dict, result) -> None:
    tr.count("kernels.loglik_tile_states", a["out"].size)


def _on_mwf(tr: Tracer, a: dict, result) -> None:
    X, Rbar = a["X"], a["Rbar"]
    N, F, C = X.shape
    K = Rbar.shape[0]
    tr.count("kernels.mwf_tiles", N * F)
    # computed from array sizes: inputs read once, K+1 images written once
    moved = (X.size * 16 + Rbar.size * 16 + N * F * K * 8 + F * 8
             + (K + 1) * N * F * C * 16)
    tr.count("kernels.mwf_bytes_computed", moved)


def _on_container(tr: Tracer, a: dict, result) -> None:
    tr.count("model.container_bytes", Path(a["path"]).stat().st_size)


def _on_sdr(tr: Tracer, a: dict, result) -> None:
    tr.count("metrics.sdr_calls")


def _on_write_wav(tr: Tracer, a: dict, result) -> None:
    tr.count("audio.bytes_written", Path(a["path"]).stat().st_size)


# (defining module, function, layer span name, counter hook)
_TRACED = [
    ("asyncsep.scene", "synthesize_scene", "scene.synthesize_scene", _on_synthesize),
    ("asyncsep.dsp", "fractional_delay", "dsp.fractional_delay", _on_fractional_delay),
    ("asyncsep.dsp", "lagrange_resample", "dsp.lagrange_resample", _on_resample),
    ("asyncsep.dsp", "stft", "dsp.stft", _on_stft),
    ("asyncsep.dsp", "istft", "dsp.istft", _on_istft),
    ("asyncsep.classifier", "classify", "classifier.classify", _on_classify),
    ("asyncsep.classifier", "source_power_estimates",
     "classifier.source_power_estimates", None),
    ("asyncsep._kernels", "loglik_accumulate", "kernels.loglik_accumulate", _on_loglik),
    ("asyncsep._kernels", "mwf_filter", "kernels.mwf_filter", _on_mwf),
    ("asyncsep.separator", "separate", "separator.separate", None),
    ("asyncsep.model", "train_models", "model.train_models", None),
    ("asyncsep.model", "load_models", "model.load_models", _on_container),
    ("asyncsep.model", "save_models", "model.save_models", _on_container),
    ("asyncsep.metrics", "sdr", "metrics.sdr", _on_sdr),
    ("asyncsep.audio", "read_wav", "audio.read_wav", None),
    ("asyncsep.audio", "write_wav", "audio.write_wav", _on_write_wav),
    ("asyncsep.cli", "cmd_separate", "cli.separate", None),
    ("asyncsep.cli", "cmd_evaluate", "cli.evaluate", None),
    ("asyncsep.experiment", "run_experiment", "experiment.run_experiment", None),
]
