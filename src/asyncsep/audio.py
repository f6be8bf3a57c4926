"""WAV file input/output (PCM16 and float32)."""

from __future__ import annotations

import io
import warnings
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .dsp import SampledSignal
from .errors import ConfigError

__all__ = ["read_wav", "write_wav"]


def read_wav(path, expected_rate: float | None = None) -> SampledSignal:
    """Read a PCM16 or float32 WAV file into a SampledSignal.

    Integer samples are scaled to [-1, 1).  If expected_rate is given,
    a mismatching file rate raises ConfigError, and so does a damaged
    file, including one that ends before its header says it does or
    whose header rate is 0.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"WAV file not found: {path}")
    # parsed from memory, so a corrupt chunk size cannot ask for a huge read;
    # scipy reports a malformed file through many exception types (struct,
    # ZeroDivision, UnboundLocal, Type and Value errors among them), and a
    # file that ends before its header says only through a warning.  The
    # warnings for a skipped unknown chunk and for a chunk id cut short
    # after the data are dropped: the samples are read in both cases
    try:
        with warnings.catch_warnings():
            for skipped in (r"Chunk \(non-data\) not understood",
                            "Incomplete chunk ID"):
                warnings.filterwarnings("ignore", skipped,
                                        wavfile.WavFileWarning)
            warnings.filterwarnings("error", "Reached EOF prematurely",
                                    wavfile.WavFileWarning)
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
    if not rate > 0:
        raise ConfigError(f"{path}: sample rate {rate} Hz is not positive")
    if expected_rate is not None and rate != expected_rate:
        raise ConfigError(
            f"{path}: sample rate {rate} Hz does not match expected "
            f"{expected_rate} Hz")
    return SampledSignal(samples, float(rate))


def write_wav(path, signal: SampledSignal) -> None:
    """Write a SampledSignal as a 32-bit float WAV file; ConfigError, before
    any directory is made, for a rate its header cannot hold exactly."""
    path = Path(path)
    rate = float(signal.rate_hz)
    top = 0xFFFFFFFF // (4 * max(signal.channels, 1))  # bytes per second
    if not (1 <= rate <= top and rate.is_integer()):
        raise ConfigError(
            f"cannot write {path}: the WAV header of {signal.channels} "
            f"channels holds a whole number of Hz from 1 to {top}, not "
            f"{rate}")
    path.parent.mkdir(parents=True, exist_ok=True)
    wavfile.write(str(path), int(rate), signal.samples.astype(np.float32))
