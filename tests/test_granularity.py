"""Streaming granularity is a contract: no output depends on how the
work is split.

The frame block of the separation pass (`_kernels._BLOCK`), the spans of
synthesis and resampling (`dsp._SPAN`), the frame runs of the STFT and
the iSTFT (`dsp._CHUNK`), the interval of a recording's saved noise
states (`scene._NOISE_SPAN`) and the worker count only split the work;
every recording, image, posterior, consistency value and report is the
same bit for bit.  (`metrics._CHUNK` is not among them: it fixes where
the SDR sums split.)
"""

import contextlib
import hashlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsep import _kernels, _pool, dsp, scene
from asyncsep.dsp import WindowSpec, istft, stft
from asyncsep.experiment import run_experiment
from asyncsep.model import _train_sources
from asyncsep.scene import (ArraySpec, ChannelCoupling, EchoTap, SceneSpec,
                            SourceSpec, _image_sources, synthesize_scene)
from asyncsep.separator import MODES, separate, separate_recordings

WIN = WindowSpec(256, 64)


def _scene(duration: float) -> SceneSpec:
    """Two devices of two channels, one of them with a clock offset, and
    two talker-like sources with echoes."""
    def taps(d0, d1, gain):
        return [ChannelCoupling(d0, gain, [EchoTap(d0 + 90.3, 0.3 * gain)]),
                ChannelCoupling(d1, 0.9 * gain)]

    speech = {"type": "speech_noise", "level": 0.1, "activity": 0.5}
    return SceneSpec(
        rate_hz=16000.0, duration_s=duration, noise_level=0.002,
        arrays=[ArraySpec("a", 2, 40.0), ArraySpec("b", 2, 0.0)],
        sources=[SourceSpec("s1", speech, {"a": taps(0.0, 3.5, 1.0),
                                           "b": taps(9.0, 6.5, 0.5)}),
                 SourceSpec("s2", dict(speech), {"a": taps(8.0, 10.5, 0.5),
                                                 "b": taps(0.0, 4.0, 1.0)})])


_MODELS = []  # the models, trained once


def _outputs() -> dict:
    """The bytes of every output of synthesis, of `separate_recordings` in
    each mode, of the tensor path in one, and of `run_experiment`, by
    name, as digests."""
    spec, train = _scene(0.5), _scene(0.4)
    if not _MODELS:
        _MODELS.extend(_train_sources(_image_sources(train, 4), WIN,
                                      include_pooled=True))
    spatial, states = _MODELS
    images, recordings = synthesize_scene(spec, 3)
    out = {f"image {key}": sig.samples for key, sig in images.images.items()}
    signals = {m: rec.signal for m, rec in recordings.items()}
    out.update({f"recording {m}": sig.samples for m, sig in signals.items()})
    frames = dsp.stft_frame_count(spec.n_samples, WIN)
    for mode in MODES:
        posteriors = np.empty((frames, spatial.n_bins, states.n_states))
        result = separate_recordings(signals, WIN, spatial, states, mode,
                                     posteriors=posteriors)
        out[f"posteriors {mode}"] = posteriors
        out[f"consistency {mode}"] = result.metadata["consistency_rel_max"]
        out.update({f"{mode} {key}": sig.samples
                    for key, sig in result.images.items()})
    tensors = separate({m: stft(sig, WIN) for m, sig in signals.items()},
                       spatial, states, "tv-local")
    out.update({f"istft {key}": istft(t, spec.n_samples).samples
                for key, t in tensors.images.items()})
    report = run_experiment(spec, train, modes=MODES, seed=3, window=WIN)
    out["report"] = {k: v for k, v in report.to_dict().items()
                     if k != "runtime_s"}
    return {name: hashlib.sha256(value.tobytes() if isinstance(
        value, np.ndarray) else repr(value).encode()).hexdigest()
        for name, value in out.items()}


_DEFAULT = []  # the outputs at the default granularity


@settings(max_examples=6, deadline=None)
@given(block=st.integers(1, 32), span=st.integers(50, 20000),
       chunk=st.integers(1, 200), every=st.integers(1, 6000),
       workers=st.sampled_from([1, 3]))
def test_outputs_do_not_depend_on_how_the_work_is_split(block, span, chunk,
                                                         every, workers):
    if not _DEFAULT:
        _DEFAULT.append(_outputs())
    with contextlib.ExitStack() as stack:
        for module, name, value in ((_kernels, "_BLOCK", block),
                                    (dsp, "_SPAN", span),
                                    (dsp, "_CHUNK", chunk),
                                    (scene, "_NOISE_SPAN", every),
                                    (_pool, "worker_count",
                                     lambda: workers)):
            stack.enter_context(mock.patch.object(module, name, value))
        got = _outputs()
    want, = _DEFAULT
    assert list(got) == list(want)
    assert [name for name in want if got[name] != want[name]] == []
