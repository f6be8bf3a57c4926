"""asyncsep: source separation for mutually asynchronous microphone arrays.

Devices with internally synchronous microphone arrays but independent
sample clocks are processed jointly: all devices contribute to a shared
per-tile source-activity classification, and each device then applies its
own time-varying multichannel Wiener filter.  No cross-device resampling
or clock-offset estimation is required.
"""

from .dsp import (
    SampledSignal,
    SpectrogramTensor,
    WindowSpec,
    fractional_delay,
    istft,
    lagrange_resample,
    stft,
)
from .errors import ConfigError, NumericalError
from .metrics import at_device_clock, score_images, sdr
from .scene import SceneSpec, load_scene, synthesize_scene
from .model import SpatialModel, StateSpectrumModel, train_models
from .classifier import PosteriorMap
from .separator import MODES, SeparationResult, separate, separate_recordings
from .experiment import ExperimentReport, format_report, run_experiment

__version__ = "0.1.0"

__all__ = [
    "SampledSignal",
    "SpectrogramTensor",
    "WindowSpec",
    "stft",
    "istft",
    "lagrange_resample",
    "fractional_delay",
    "SceneSpec",
    "synthesize_scene",
    "load_scene",
    "SpatialModel",
    "StateSpectrumModel",
    "train_models",
    "PosteriorMap",
    "MODES",
    "SeparationResult",
    "separate",
    "separate_recordings",
    "sdr",
    "at_device_clock",
    "score_images",
    "ExperimentReport",
    "run_experiment",
    "format_report",
    "ConfigError",
    "NumericalError",
    "__version__",
]
