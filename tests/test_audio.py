"""Tests for the WAV header parser, readers and writer."""

import io
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from asyncsep import audio
from asyncsep.audio import (WavSink, WavSource, read_header, read_wav,
                            write_wav)
from asyncsep.dsp import SampledSignal
from asyncsep.errors import ConfigError

# every example rewrites the files it reads, so tmp_path may be shared
REUSED_TMP = [HealthCheck.function_scoped_fixture]
# (numpy sample type, WAV format tag, integer full scale)
KINDS = {"pcm16": ("i2", 1, 32768.0), "pcm32": ("i4", 1, 2147483648.0),
         "float32": ("f4", 3, None), "float64": ("f8", 3, None)}
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _samples(kind, n, channels, seed):
    """n frames of `kind`, spanning its range."""
    rng = np.random.default_rng(seed)
    dtype, _, scale = KINDS[kind]
    if scale is None:
        return rng.uniform(-1.5, 1.5, (n, channels)).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, (n, channels), endpoint=True,
                        dtype=dtype)


def _wav_bytes(data, rate, kind, layout):
    """A WAV file of data, (n, C), laid out as RIFF, RIFX, RF64 or
    WAVE_FORMAT_EXTENSIBLE, with a LIST chunk before the data."""
    dtype, tag, _ = KINDS[kind]
    order = ">" if layout == "rifx" else "<"
    n, C = data.shape
    width = np.dtype(dtype).itemsize
    raw = data.astype(order + dtype).tobytes()
    fmt = struct.pack(order + "HHIIHH", tag, C, rate, rate * C * width,
                      C * width, 8 * width)
    if layout == "extensible":
        fmt = (struct.pack("<HHIIHH", 0xFFFE, C, rate, rate * C * width,
                           C * width, 8 * width)
               + struct.pack("<HHI", 22, 8 * width, 0)
               + struct.pack("<I", tag) + _GUID_TAIL)
    size = (b"\xff" * 4 if layout == "rf64"  # in the ds64 chunk
            else struct.pack(order + "I", len(raw)))
    body = (b"fmt " + struct.pack(order + "I", len(fmt)) + fmt
            + b"LIST" + struct.pack(order + "I", 3) + b"abc\0"
            + b"data" + size + raw)
    if layout == "rf64":
        ds64 = b"ds64" + struct.pack("<IQQQI", 28, 4 + 36 + len(body),
                                     len(raw), n, 0)
        return b"RF64" + b"\xff" * 4 + b"WAVE" + ds64 + body
    head = b"RIFX" if layout == "rifx" else b"RIFF"
    return head + struct.pack(order + "I", 4 + len(body)) + b"WAVE" + body


class TestReadWav:
    """`read_wav` reads what scipy reads, converted as before: cast to
    float64, then divided by the integer full scale."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=REUSED_TMP)
    @given(kind=st.sampled_from(sorted(KINDS)),
           layout=st.sampled_from(["riff", "rifx", "rf64", "extensible"]),
           n=st.integers(0, 40000), channels=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_scipy(self, tmp_path, kind, layout, n, channels, seed):
        data = _samples(kind, n, channels, seed)
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(data, 16000, kind, layout))
        rate, want = wavfile.read(path)
        want = want.reshape(n, channels).astype(np.float64)
        if KINDS[kind][2] is not None:
            want = want / KINDS[kind][2]
        got = read_wav(path)
        assert rate == 16000 and got.rate_hz == 16000.0
        assert got.samples.shape == (n, channels)
        assert np.array_equal(got.samples, want, equal_nan=True)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=REUSED_TMP)
    @given(kind=st.sampled_from(["pcm16", "float32"]),
           n=st.integers(1, 3000), channels=st.integers(1, 3),
           spans=st.lists(st.tuples(st.integers(0, 3000),
                                    st.integers(0, 3000)), max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_source_reads_spans_of_read_wav(self, tmp_path, kind, n,
                                            channels, spans, seed):
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(_samples(kind, n, channels, seed), 8000,
                                    kind, "riff"))
        whole = read_wav(path).samples
        raw = np.empty(n * channels * 8, dtype=np.uint8)
        with WavSource(read_header(path)) as source:
            for a, b in spans:
                a, b = sorted((a % (n + 1), b % (n + 1)))
                out = np.full((channels, b - a), np.nan)
                source.read(a, b, raw, out)
                assert np.array_equal(out, whole[a:b].T)
            assert source.all_finite()

    def test_non_finite_float_samples_found(self, tmp_path):
        x = np.zeros((3 * audio._SPAN + 5, 2), dtype=np.float32)
        x[-1, 1] = np.inf
        path = tmp_path / "x.wav"
        wavfile.write(path, 16000, x)
        with WavSource(read_header(path)) as source:
            assert not source.all_finite()

    @pytest.mark.parametrize("edit, message", [
        # the data chunk claims 8 bytes more than the file holds
        (lambda raw: raw[:-8], "Reached EOF prematurely"),
        (lambda raw: raw[:-3] + b"\0" * 1, "Reached EOF prematurely"),
        # a data chunk of 3 bytes less: not whole frames
        (lambda raw: raw[:54] + struct.pack("<I", 8 * 10 - 3) + raw[58:],
         "whole number of 8-byte frames"),
        (lambda raw: raw[:20] + struct.pack("<H", 2) + raw[22:],
         "unsupported WAV sample format (format tag 2"),
        (lambda raw: raw[:34] + struct.pack("<H", 24) + raw[36:],
         "do not hold 2 samples of 24 bits"),
        (lambda raw: b"RIFF" + raw[4:8] + b"WAVX" + raw[12:],
         "not a RIFF WAVE file"),
        (lambda raw: raw[:12] + b"junk" + raw[16:], "no fmt chunk"),
    ], ids=["cut", "cut-inside-a-frame", "part-frame", "adpcm", "24-bit",
            "not-wave", "no-fmt"])
    def test_damaged_header_fails_with_config_error(self, tmp_path, edit,
                                                    message):
        path = tmp_path / "x.wav"
        wavfile.write(path, 16000, np.zeros((10, 2), dtype=np.float32))
        raw = path.read_bytes()
        assert raw[54:58] == struct.pack("<I", 80)  # the data chunk's size
        path.write_bytes(edit(raw))
        with pytest.raises(ConfigError, match=message.replace("(", r"\(")):
            read_wav(path)


class TestWavSink:
    """The writer's bytes are scipy's `wavfile.write` of float32 samples."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=REUSED_TMP)
    @given(n=st.integers(0, 40000), channels=st.integers(1, 4),
           rate=st.sampled_from([1, 8000, 16000, 48000]),
           seed=st.integers(0, 2**32 - 1),
           cuts=st.lists(st.integers(0, 40000), max_size=4))
    def test_equals_scipy_write(self, tmp_path, n, channels, rate, seed,
                                cuts):
        x = np.random.default_rng(seed).standard_normal((n, channels))
        want = io.BytesIO()
        wavfile.write(want, rate, x.astype(np.float32))
        write_wav(tmp_path / "whole.wav", SampledSignal(x, float(rate)))
        assert (tmp_path / "whole.wav").read_bytes() == want.getvalue()
        # written in spans, channel-major, with samples past the end
        sink = WavSink(tmp_path / "spans.wav", rate, channels, n)
        bounds = [0, *sorted(c % (n + 1) for c in cuts), n]
        planes = np.ascontiguousarray(np.pad(x, ((0, 9), (0, 0))).T)
        for a, b in zip(bounds, bounds[1:]):
            sink.write(a, planes[:, a:b + 9 * (b == n)])
        sink.close()
        assert (tmp_path / "spans.wav").read_bytes() == want.getvalue()

    # the most frames of one channel a RIFF size field holds, and the
    # fewest that scipy writes as RF64
    RIFF_MOST, RF64_FEWEST = 0xFFFFFFFF // 4 - 12, 0xFFFFFFFF // 4 - 8

    @pytest.mark.parametrize("n, channels", [
        (2**20, 6), (RIFF_MOST, 1), (RF64_FEWEST, 1), (2**30, 6),
        (2**31 + 3, 2)])
    def test_header_equals_scipy_at_any_size(self, monkeypatch, n,
                                             channels):
        # scipy writes the header of broadcast zeros and seeks past the
        # samples, so no size is allocated; RF64 past 4 GiB
        monkeypatch.setattr(wavfile, "_array_tofile",
                            lambda fid, data: fid.seek(data.nbytes, 1))
        want = io.BytesIO()
        wavfile.write(want, 16000,
                      np.broadcast_to(np.float32(0.0), (n, channels)))
        assert audio._float32_header(16000, channels, n) == want.getvalue()

    @pytest.mark.parametrize("n", [RIFF_MOST, RIFF_MOST + 1, RF64_FEWEST - 1,
                                   RF64_FEWEST, 2**31 + 3])
    def test_header_parses_back_at_any_size(self, tmp_path, n):
        # between RIFF_MOST and RF64_FEWEST scipy's RIFF size field
        # overflows and it raises; the sink writes RF64 there.  The files
        # are sparse: only the header is written
        header = audio._float32_header(16000, 1, n)
        path = tmp_path / "x.wav"
        with open(path, "wb") as fh:
            fh.write(header)
            fh.truncate(len(header) + 4 * n)
        got = read_header(path)
        assert (got.n_samples, got.channels, got.rate) == (n, 1, 16000)
        assert got.offset == len(header)
        assert header.startswith(b"RIFF" if n <= self.RIFF_MOST else b"RF64")

    def test_unfinished_file_is_refused_and_discarded(self, tmp_path):
        sink = WavSink(tmp_path / "d" / "x.wav", 16000, 2, 100)
        sink.write(0, np.zeros((2, 60)))
        with pytest.raises(ValueError, match="60 of 100 samples"):
            sink.close()
        sink.discard()
        assert not (tmp_path / "d" / "x.wav").exists()

    def test_span_out_of_order_is_refused(self, tmp_path):
        sink = WavSink(tmp_path / "x.wav", 16000, 1, 100)
        sink.write(0, np.zeros((1, 10)))
        with pytest.raises(ValueError, match="from 20 on written after 10"):
            sink.write(20, np.zeros((1, 10)))
        sink.discard()

    def test_writes_allocate_no_arrays(self, tmp_path):
        import tracemalloc

        x = np.random.default_rng(1).standard_normal((3, 5 * audio._SPAN))
        sink = WavSink(tmp_path / "x.wav", 16000, 3, x.shape[1])
        bufsize = np.setbufsize(16)  # numpy's casting buffers are not arrays
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for a in range(0, x.shape[1], 7000):
                sink.write(a, x[:, a:a + 7000])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        sink.close()
        # a float32 copy of one span would take 4 * 3 * 7000 bytes
        assert peak < 4 * 7000
