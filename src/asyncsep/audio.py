"""WAV file input/output (PCM16 and float32), whole or a span at a time.

One header parser, `read_header`, walks the chunk headers in front of a
file's samples and locates its data chunk; it reads no sample.  Both
readers go through it: `read_wav` reads the whole data chunk, and
`WavSource` any span of it, each converting the samples as the other
does.  One writer, `WavSink`, writes a float32 WAV file a span at a time
under the header scipy's `wavfile.write` gives the same samples, as the
sizes are known before the first sample; `write_wav` writes through it.
`wav_rate` is the rule of which rates such a header holds.  `read_wav`
and `WavSink` convert `dsp._SPAN` frames at a time.  No reader checks
the samples: a non-finite float sample is refused by the pass that
reads it (the separation pass, training's energies, the SDR sums).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import _SPAN, SampledSignal
from .errors import ConfigError

__all__ = ["read_wav", "write_wav"]

# (format tag, bits) -> sample type and the full scale of an integer type
_FORMATS = {(1, 16): ("i2", 32768.0), (1, 32): ("i4", 2147483648.0),
            (3, 32): ("f4", None), (3, 64): ("f8", None)}
_EXTENSIBLE = 0xFFFE
# the tail of the sub-format GUID of an extensible fmt chunk (RFC 2361),
# as stored in a little- and a big-endian file
_GUID_TAIL = {"<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
              ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71"}


@dataclass(frozen=True)
class WavHeader:
    """Where a WAV file holds its samples, and of what kind.

    dtype: one sample, with its byte order; scale: the full scale of an
    integer type, which the samples are divided by, or None for floats.
    The data chunk holds n_samples frames of `channels` samples from byte
    `offset` on.
    """

    path: Path
    rate: int
    channels: int
    n_samples: int
    dtype: np.dtype
    scale: float | None
    offset: int


def read_header(path, expected_rate: float | None = None) -> WavHeader:
    """Parse the header of a PCM16 or float32 WAV file.

    Reads the chunk headers up to the data chunk and no sample.
    ConfigError for a missing or damaged file, one whose RIFF size or
    data chunk claims more bytes than the file holds, a sample format
    other than 16- or 32-bit PCM or 32- or 64-bit float, a header rate
    of 0 and, if expected_rate is given, another rate.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"WAV file not found: {path}")
    try:
        with open(path, "rb") as fh:
            found = _parse(fh, os.fstat(fh.fileno()).st_size)
    except (OSError, ValueError, struct.error) as exc:
        raise ConfigError(f"cannot read WAV file {path}: "
                          f"{type(exc).__name__}: {exc}") from None
    rate, channels, key, n_samples, offset, order = found
    if key not in _FORMATS:
        raise ConfigError(
            f"unsupported WAV sample format (format tag {key[0]}, {key[1]} "
            f"bits) in {path}; use 16-bit PCM or 32-bit float")
    if not rate > 0:
        raise ConfigError(f"{path}: sample rate {rate} Hz is not positive")
    if expected_rate is not None and rate != expected_rate:
        raise ConfigError(
            f"{path}: sample rate {rate} Hz does not match expected "
            f"{expected_rate} Hz")
    kind, scale = _FORMATS[key]
    return WavHeader(path, rate, channels, n_samples,
                     np.dtype(order + kind), scale, offset)


def _parse(fh, size: int) -> tuple:
    """(rate, channels, (format tag, bits), frames, data offset, byte
    order) of the open WAV file fh of `size` bytes; ValueError if it is
    damaged."""
    riff = fh.read(12)
    if len(riff) < 12:
        raise ValueError(f"the file ends inside its RIFF header, at "
                         f"{len(riff)} bytes")
    order = {b"RIFF": "<", b"RIFX": ">", b"RF64": "<"}.get(riff[:4])
    if order is None or riff[8:] != b"WAVE":
        raise ValueError(f"not a RIFF WAVE file (it starts {riff!r})")
    riff_end = 8 + struct.unpack(order + "I", riff[4:8])[0]
    data_size = None  # of an RF64 file, from its ds64 chunk
    if riff[:4] == b"RF64":
        ds64 = fh.read(24)
        if len(ds64) < 24 or ds64[:4] != b"ds64":
            raise ValueError("an RF64 file without its ds64 chunk")
        ds64_size, riff_size, data_size = struct.unpack("<IQQ", ds64[4:])
        riff_end = 8 + riff_size
        fh.seek(12 + 8 + ds64_size + ds64_size % 2)
    if riff_end > size:
        raise ValueError(f"Reached EOF prematurely: the file holds {size} "
                         f"bytes, its header claims {riff_end}")
    fmt = None
    while True:
        head = fh.read(8)
        if len(head) < 8:
            raise ValueError("the file holds no data chunk")
        chunk, chunk_size = head[:4], struct.unpack(order + "I", head[4:])[0]
        start = fh.tell()
        if chunk == b"fmt ":
            fmt = _format(fh.read(min(chunk_size, 40)), chunk_size, order)
        elif chunk == b"data":
            break
        fh.seek(start + chunk_size + chunk_size % 2)
    if fmt is None:
        raise ValueError("no fmt chunk before the data chunk")
    if data_size is not None:
        chunk_size = data_size
    rate, channels, key, frame_bytes = fmt
    if chunk_size % frame_bytes:
        raise ValueError(f"the data chunk of {chunk_size} bytes is not a "
                         f"whole number of {frame_bytes}-byte frames")
    if start + chunk_size > size:
        raise ValueError(f"Reached EOF prematurely: the data chunk claims "
                         f"{chunk_size} bytes, the file holds "
                         f"{size - start} from its start")
    return rate, channels, key, chunk_size // frame_bytes, start, order


def _format(raw: bytes, chunk_size: int, order: str) -> tuple:
    """(rate, channels, (format tag, bits), bytes per frame) of a fmt
    chunk of chunk_size bytes, whose first bytes are raw."""
    if chunk_size < 16 or len(raw) < 16:
        raise ValueError(f"a fmt chunk of {min(chunk_size, len(raw))} bytes")
    tag, channels, rate, byte_rate, frame_bytes, bits = struct.unpack(
        order + "HHIIHH", raw[:16])
    if tag == _EXTENSIBLE and len(raw) >= 40 \
            and raw[24:40].endswith(_GUID_TAIL[order]):
        tag = struct.unpack(order + "I", raw[24:28])[0]
    if channels == 0:
        raise ValueError("the fmt chunk gives 0 channels")
    if frame_bytes != channels * (bits // 8) or bits % 8:
        raise ValueError(f"frames of {frame_bytes} bytes do not hold "
                         f"{channels} samples of {bits} bits")
    if tag == 1 and byte_rate != rate * frame_bytes:
        raise ValueError(f"{byte_rate} bytes per second is not {rate} Hz "
                         f"of {frame_bytes}-byte frames")
    return rate, channels, (tag, bits), frame_bytes


class WavSource:
    """The samples of a WAV file, read a span at a time.

    An (n, C) sample source (`dsp`) that reads a span's bytes into its
    raw scratch.  Holds the file open until `close`.
    """

    def __init__(self, header: WavHeader):
        self.header = header
        self.n_samples, self.channels = header.n_samples, header.channels
        self._fd = os.open(header.path, os.O_RDONLY)

    def scratch_floats(self, rows: int) -> int:
        """The bytes of `rows` frames, in floats."""
        return -(-rows * self.channels * self.header.dtype.itemsize // 8)

    def read(self, start: int, stop: int, raw, out) -> None:
        """Samples start:stop into out, (C, stop - start) float, converted
        as `read_wav` converts them: cast to float, then divided by the
        integer full scale.  Allocates no array.
        """
        h = self.header
        frame = h.channels * h.dtype.itemsize
        buf, at = raw[:(stop - start) * frame], h.offset + start * frame
        done = 0
        while done < buf.size:
            got = os.preadv(self._fd, [buf[done:]], at + done)
            if got == 0:
                raise ConfigError(f"cannot read WAV file {h.path}: it "
                                  f"ended while it was read")
            done += got
        np.copyto(out, buf.view(h.dtype).reshape(stop - start, h.channels).T)
        if h.scale is not None:
            out /= h.scale

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_wav(path, expected_rate: float | None = None) -> SampledSignal:
    """Read a PCM16 or float32 WAV file into a SampledSignal.

    Integer samples are scaled to [-1, 1).  If expected_rate is given,
    a mismatching file rate raises ConfigError, and so does a damaged
    file (`read_header`), including one that ends before its header says
    it does or whose header rate is 0.  Also reads 32-bit PCM and 64-bit
    float.
    """
    header = read_header(path, expected_rate)
    samples = np.empty((header.n_samples, header.channels))
    with WavSource(header) as source:
        raw = np.empty(source.scratch_floats(min(_SPAN, header.n_samples))
                       ).view(np.uint8)
        for s0 in range(0, header.n_samples, _SPAN):
            s1 = min(s0 + _SPAN, header.n_samples)
            source.read(s0, s1, raw, samples[s0:s1].T)
    return SampledSignal(samples, float(header.rate))


def wav_rate(path, rate: float, channels: int) -> int:
    """The header rate of a float32 WAV file at `path` of `channels`
    channels at `rate` Hz; ConfigError when the header cannot hold that
    rate exactly: a whole number of Hz from 1 to what its 32-bit bytes per
    second field holds."""
    rate = float(rate)
    top = 0xFFFFFFFF // (4 * max(channels, 1))  # bytes per second
    if not (1 <= rate <= top and rate.is_integer()):
        raise ConfigError(
            f"cannot write {path}: the WAV header of {channels} "
            f"channels holds a whole number of Hz from 1 to {top}, not "
            f"{rate}")
    return int(rate)


def _float32_header(rate: int, channels: int, n_samples: int) -> bytes:
    """The header scipy's `wavfile.write` writes in front of n_samples
    float32 frames of `channels` channels: RF64 once the RIFF size
    outgrows its 32-bit field.  (A few frames short of that, scipy still
    writes RIFF and fails on the field.)"""
    data = 4 * channels * n_samples
    fmt = struct.pack("<HHIIHHH", 3, channels, rate, 4 * channels * rate,
                      4 * channels, 32, 0)
    fmt = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    tail = (b"fact" + struct.pack("<II", 4, n_samples) + b"data"
            + struct.pack("<I", min(data, 0xFFFFFFFF)))
    if 4 + len(fmt) + len(tail) + data <= 0xFFFFFFFF:
        return (b"RIFF" + struct.pack("<I", 4 + len(fmt) + len(tail) + data)
                + b"WAVE" + fmt + tail)
    head = b"RF64\xff\xff\xff\xffWAVEds64" + struct.pack("<I", 28)
    total = len(head) + 28 + len(fmt) + len(tail) + data
    return (head + struct.pack("<QQQI", total - 8, data, n_samples, 0)
            + fmt + tail)


class WavSink:
    """A float32 WAV file of n_samples frames, written in order a span at
    a time.

    Creates the file and its directories and writes the header first;
    `close` checks that every frame was written, `discard` removes the
    file.  The bytes equal `wavfile.write` of the float32 samples.
    ConfigError, before anything is made, for a rate the header cannot
    hold (`wav_rate`).
    """

    def __init__(self, path, rate: float, channels: int, n_samples: int):
        self.path = Path(path)
        header = _float32_header(wav_rate(self.path, rate, channels),
                                 channels, n_samples)
        self.n_samples, self.written = n_samples, 0
        self._scratch = np.empty((min(_SPAN, n_samples), channels),
                                 dtype="<f4")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "wb")
        self._fh.write(header)

    def write(self, start: int, samples) -> None:
        """Samples start, start + 1, ..., (channels, k) float of any
        layout, rounded to float32; those past n_samples are dropped.
        The destination of a `dsp._Writer`: each span starts where the
        last ended.  Allocates no array."""
        k = min(samples.shape[-1], self.n_samples - start)
        if k <= 0:
            return
        if start != self.written:
            raise ValueError(f"{self.path}: samples from {start} on written "
                             f"after {self.written}")
        for s0 in range(0, k, _SPAN):
            part = self._scratch[:min(_SPAN, k - s0)]
            np.copyto(part, samples[:, s0:s0 + part.shape[0]].T,
                      casting="same_kind")
            self._fh.write(memoryview(part).cast("B"))
        self.written += k

    def close(self) -> None:
        """Close the file; ValueError unless every frame was written."""
        self._fh.close()
        if self.written != self.n_samples:
            raise ValueError(f"{self.path}: {self.written} of "
                             f"{self.n_samples} samples written")

    def discard(self) -> None:
        """Close and remove the file."""
        self._fh.close()
        self.path.unlink(missing_ok=True)


def write_wav(path, signal: SampledSignal) -> None:
    """Write a SampledSignal as a 32-bit float WAV file; ConfigError, before
    any directory is made, for a rate its header cannot hold exactly
    (`wav_rate`)."""
    sink = WavSink(path, signal.rate_hz, signal.channels, signal.n_samples)
    try:
        sink.write(0, signal.samples.T)
        sink.close()
    except BaseException:
        sink.discard()
        raise
