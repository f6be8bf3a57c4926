"""WAV file input/output (PCM16 and float32)."""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .dsp import SampledSignal
from .errors import ConfigError

__all__ = ["read_wav", "write_wav"]


def read_wav(path, expected_rate: float | None = None) -> SampledSignal:
    """Read a PCM16 or float32 WAV file into a SampledSignal.

    Integer samples are scaled to [-1, 1).  If expected_rate is given,
    a mismatching file rate raises ConfigError.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"WAV file not found: {path}")
    # parsed from memory, so a corrupt chunk size cannot ask for a huge read;
    # scipy reports a malformed file through many exception types (struct,
    # ZeroDivision, UnboundLocal, Type and Value errors among them)
    try:
        rate, data = wavfile.read(io.BytesIO(path.read_bytes()))
    except Exception as exc:
        raise ConfigError(f"cannot read WAV file {path}: "
                          f"{type(exc).__name__}: {exc}") from None
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise ConfigError(
            f"unsupported WAV sample format {data.dtype} in {path}; "
            f"use 16-bit PCM or 32-bit float")
    if expected_rate is not None and rate != expected_rate:
        raise ConfigError(
            f"{path}: sample rate {rate} Hz does not match expected "
            f"{expected_rate} Hz")
    return SampledSignal(samples, float(rate))


def write_wav(path, signal: SampledSignal) -> None:
    """Write a SampledSignal as a 32-bit float WAV file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    wavfile.write(str(path), int(round(signal.rate_hz)),
                  signal.samples.astype(np.float32))
