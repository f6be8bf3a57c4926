"""Tests for the time-frequency and resampling primitives."""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsep import _kernels, _pool, dsp
from asyncsep.dsp import (
    SampledSignal,
    SpectrogramTensor,
    WindowSpec,
    _analysis_padding,
    frame_count,
    fractional_delay,
    istft,
    lagrange_resample,
    stft,
)
from asyncsep.model import train_models

from conftest import (
    bandlimited_noise,
    correlation_peak_lag,
    istft_oracle,
    lagrange_interpolate_oracle,
    pool_run_peaks,
    pool_workers,
    sample_sources,
    serial_lagrange_resample,
)


class TestWindowSpec:
    def test_default_is_paper_configuration(self):
        w = WindowSpec()
        assert w.length == 4096 and w.hop == 1024

    def test_hop_must_divide_length(self):
        with pytest.raises(ValueError, match="divide"):
            WindowSpec(4096, 1000)

    def test_half_overlap_hann_is_not_wola_cola(self):
        # sum of squared hann windows at 50% overlap is not constant
        with pytest.raises(ValueError, match="COLA"):
            WindowSpec(4096, 2048)

    def test_quarter_hop_satisfies_cola(self):
        assert WindowSpec(1024, 256).cola_deviation() < 1e-12

    def test_from_overlap(self):
        w = WindowSpec.from_overlap(4096, 0.75)
        assert w.hop == 1024


class TestStft:
    def test_frame_count_matches_slicing_oracle(self, rng):
        # oracle: enumerate admissible frame start offsets
        for n, length, hop in [(4096, 1024, 256), (5000, 1024, 256),
                               (1024, 1024, 256), (9999, 512, 128)]:
            starts = [s for s in range(0, n, hop) if s + length <= n]
            assert frame_count(n, WindowSpec(length, hop)) == len(starts)
            assert frame_count(n, WindowSpec(length, hop)) == \
                (n - length) // hop + 1

    def test_stft_covers_padded_extent(self, rng):
        win = WindowSpec(1024, 256)
        n = 5000
        sig = SampledSignal(rng.standard_normal(n), 16000.0)
        spec = stft(sig, win)
        left, right = _analysis_padding(n, win)
        assert spec.n_frames == frame_count(n + left + right, win)
        assert spec.n_bins == win.length // 2 + 1

    def test_sinusoid_at_bin_center_dominates_that_bin(self):
        win = WindowSpec(1024, 256)
        rate = 16000.0
        bin_idx = 64
        freq = bin_idx * rate / win.length
        t = np.arange(8192) / rate
        sig = SampledSignal(np.sin(2 * np.pi * freq * t), rate)
        spec = stft(sig, win)
        interior = spec.coeffs[6:-6, :, 0]
        assert (np.abs(interior).argmax(axis=1) == bin_idx).all()

    def test_zero_input_gives_zero_tensor(self):
        win = WindowSpec(1024, 256)
        sig = SampledSignal(np.zeros(2048), 16000.0)
        spec = stft(sig, win)
        assert not spec.coeffs.any()

    def test_linearity(self, rng):
        win = WindowSpec(512, 128)
        x = rng.standard_normal((3000, 2))
        y = rng.standard_normal((3000, 2))
        a, b = 0.7, -1.3
        sx = stft(SampledSignal(x, 16000.0), win).coeffs
        sy = stft(SampledSignal(y, 16000.0), win).coeffs
        sxy = stft(SampledSignal(a * x + b * y, 16000.0), win).coeffs
        ref = a * sx + b * sy
        err = np.abs(sxy - ref).max() / np.abs(ref).max()
        assert err <= 1e-9

    def test_per_frame_parseval(self, rng):
        win = WindowSpec(512, 128)
        x = rng.standard_normal(4000)
        spec = stft(SampledSignal(x, 16000.0), win)
        w = win.window()
        left, right = _analysis_padding(4000, win)
        padded = np.pad(x, (left, right))
        for t in [0, 5, spec.n_frames - 1]:
            frame = padded[t * win.hop:t * win.hop + win.length] * w
            time_energy = np.sum(frame ** 2)
            mag2 = np.abs(spec.coeffs[t, :, 0]) ** 2
            spec_energy = (mag2[0] + 2 * mag2[1:-1].sum() + mag2[-1]) / win.length
            assert abs(time_energy - spec_energy) <= 1e-6 * max(time_energy, 1e-30)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            stft(SampledSignal(np.zeros(100), 16000.0), WindowSpec(1024, 256))


class TestIstft:
    def test_round_trip_white_noise_hann_4096(self, rng):
        win = WindowSpec(4096, 1024)
        x = rng.standard_normal((30000, 2))
        sig = SampledSignal(x, 16000.0)
        out = istft(stft(sig, win))
        assert out.samples.shape == x.shape
        err = np.abs(out.samples - x).max() / np.abs(x).max()
        assert err <= 1e-6

    def test_zero_tensor_gives_zero_signal(self):
        win = WindowSpec(1024, 256)
        spec = stft(SampledSignal(np.zeros(3000), 16000.0), win)
        out = istft(spec)
        assert not out.samples.any()
        assert out.n_samples == 3000

    def test_scaling_linearity(self, rng):
        win = WindowSpec(1024, 256)
        x = bandlimited_noise(rng, 6000, 0.8)
        c = 3.7
        a = istft(stft(SampledSignal(x, 16000.0), win)).samples
        b = istft(stft(SampledSignal(c * x, 16000.0), win)).samples
        assert np.allclose(b, c * a, rtol=0, atol=1e-12 * np.abs(a).max())

    def test_explicit_length_crops_and_pads(self, rng):
        win = WindowSpec(1024, 256)
        x = rng.standard_normal(3000)
        spec = stft(SampledSignal(x, 16000.0), win)
        assert istft(spec, length=2000).n_samples == 2000
        assert istft(spec, length=4000).n_samples == 4000


def _written(spec, n, block):
    """The n samples of spec synthesized by a `dsp._Writer` of
    `block`-frame blocks, put in frame order on this thread."""
    C, n_frames = spec.channels, spec.n_frames
    dest = dsp._Samples((C,), n)
    writer = dsp._Writer((C,), n_frames, spec.window, block, dest)
    planes = spec.coeffs.transpose(2, 0, 1)
    scratch = np.empty((C, block, spec.window.length))
    for n0 in range(0, n_frames, block):
        n1 = min(n0 + block, n_frames)
        writer.put(n0, n1, planes[:, n0:n1], scratch)
    return dest.out.T


class TestIstftMatchesFrameLoopOracle:
    # n_frames runs past R + 2 frames, R = length / hop, of every window;
    # a writer's blocks hold 1, 2, 3, a pass's or more than all frames
    @settings(max_examples=200, deadline=None)
    @given(channels=st.integers(1, 3), n_frames=st.integers(0, 40),
           window=st.sampled_from([(64, 16), (96, 32), (512, 128), (64, 8)]),
           length=st.sampled_from(["default", "shorter", "longer"]),
           block=st.sampled_from(["istft", 1, 2, 3, _kernels._BLOCK,
                                  "more"]),
           seed=st.integers(0, 2**32 - 1))
    def test_planar_view(self, channels, n_frames, window, length, block,
                         seed):
        # the filter's images are (N, F, C) views of (C, N, F) planes
        win = WindowSpec(*window)
        F = win.length // 2 + 1
        rng = np.random.default_rng(seed)
        planes = (rng.standard_normal((channels, n_frames, F))
                  + 1j * rng.standard_normal((channels, n_frames, F)))
        spec = SpectrogramTensor(planes.transpose(1, 2, 0), win, 16000.0)
        assert planes.size == 0 or np.shares_memory(spec.coeffs, planes)
        extent = max((n_frames - 1) * win.hop - win.length, 0)
        n = {"default": None, "shorter": extent // 2,
             "longer": extent + win.length + 7}[length]
        if block == "istft":
            got = istft(spec, n).samples
        else:
            got = _written(spec, extent if n is None else n,
                           n_frames + 1 if block == "more" else block)
        want = istft_oracle(spec, n).samples
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestIstftChunksAndWorkers:
    """More frames than one synthesis chunk, on one or more threads."""

    @settings(max_examples=40, deadline=None)
    @given(channels=st.integers(1, 4), n_frames=st.integers(0, 200),
           workers=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1))
    def test_equals_frame_loop_oracle(self, channels, n_frames, workers,
                                      seed):
        win = WindowSpec(64, 16)
        rng = np.random.default_rng(seed)
        shape = (n_frames, win.length // 2 + 1, channels)
        spec = SpectrogramTensor(rng.standard_normal(shape)
                                 + 1j * rng.standard_normal(shape),
                                 win, 16000.0)
        real = _pool.worker_count
        _pool.worker_count = lambda: workers
        try:
            got = istft(spec).samples
        finally:
            _pool.worker_count = real
        assert np.array_equal(got, istft_oracle(spec).samples)


class TestStftTasks:
    """Runs of frames of every channel on the pool, about `dsp._CHUNK`
    channel frames each (`dsp._chunk`), for `stft` and `istft`."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(16, 700), channels=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_equal_for_any_worker_count_and_chunking(self, n, channels,
                                                     seed):
        # (16, 4) windows give 9 to 184 frames: one chunk, a chunk and a
        # part, and several chunks
        win = WindowSpec(16, 4)
        sig = SampledSignal(
            np.random.default_rng(seed).standard_normal((n, channels)),
            16000.0)
        with pool_workers(1):
            one = stft(sig, win)
        with pool_workers(3):
            three = stft(sig, win)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(dsp, "_CHUNK", 10**6)  # every frame in one task
            whole = stft(sig, win)
            whole_back = istft(one).samples
        with pytest.MonkeyPatch.context() as m:
            m.setattr(dsp, "_CHUNK", 1)  # one frame per task
            single = stft(sig, win)
            single_back = istft(one).samples
        assert one.coeffs.shape == (dsp.stft_frame_count(n, win), 9,
                                    channels)
        for other in (three, whole, single):
            assert np.array_equal(one.coeffs, other.coeffs)
        with pool_workers(3):
            back = istft(one).samples
        assert np.array_equal(back, whole_back)
        assert np.array_equal(back, single_back)

    def test_tasks_allocate_no_arrays(self, monkeypatch):
        win = WindowSpec()
        x = np.random.default_rng(5).standard_normal((40 * win.hop, 3))
        peaks = pool_run_peaks(
            monkeypatch, lambda: stft(SampledSignal(x, 16000.0), win))
        # the smallest array a task could allocate: one windowed frame
        assert len(peaks) == 1
        assert peaks[0] < 8 * win.length

    def test_istft_tasks_allocate_no_arrays(self, monkeypatch):
        win = WindowSpec()
        x = np.random.default_rng(5).standard_normal((40 * win.hop, 3))
        spec = stft(SampledSignal(x, 16000.0), win)
        peaks = pool_run_peaks(monkeypatch, lambda: istft(spec))
        assert len(peaks) == 1
        assert peaks[0] < 8 * win.length


class TestLagrangeResample:
    def test_zero_offset_is_identity(self, rng):
        x = rng.standard_normal((500, 2))
        sig = SampledSignal(x, 16000.0)
        out = lagrange_resample(sig, 0.0)
        assert np.array_equal(out.samples, x)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("offset", [-7.0, 3.0, 40.0])
    def test_linear_ramp_is_exact(self, degree, offset):
        # Lagrange interpolation reproduces polynomials up to its order,
        # 4: the ramp and its powers up to the fourth
        n = 2000
        rate = 16000.0
        ramp = np.arange(n, dtype=float) / n
        out = lagrange_resample(SampledSignal(ramp ** degree, rate), offset)
        pos = np.arange(n) * (rate / (rate + offset)) / n
        valid = slice(dsp._ORDER + 1, n - dsp._ORDER - 1)
        assert np.abs(out.samples[valid, 0] - pos[valid] ** degree).max() \
            <= 1e-9

    def test_terminal_drift_of_positive_offset(self, rng):
        # +0.3 Hz at 16 kHz over 15 s accumulates 0.3 * 15 = 4.5 samples
        n, rate = 240000, 16000.0
        x = bandlimited_noise(rng, n, 0.3)
        r = lagrange_resample(SampledSignal(x, rate), 0.3)
        tail = slice(n - 2048, n)
        lag = correlation_peak_lag(r.samples[tail, 0], x[tail], max_lag=20)
        assert abs(abs(lag) - 4.5) <= 0.1

    def test_inverse_offset_round_trip(self, rng):
        # resampling by eps then by the ratio-inverting offset restores the
        # interior of a bandlimited signal
        n, rate, eps = 100000, 16000.0, 0.3
        x = bandlimited_noise(rng, n, 0.2)
        inv = -eps * rate / (rate + eps)
        back = lagrange_resample(
            lagrange_resample(SampledSignal(x, rate), eps), inv)
        interior = slice(16, n - 32)
        assert np.abs(back.samples[interior, 0] - x[interior]).max() <= 1e-3

    def test_offset_as_large_as_rate_rejected(self):
        sig = SampledSignal(np.zeros(100), 100.0)
        with pytest.raises(ValueError, match="below the"):
            lagrange_resample(sig, 100.0)

    @staticmethod
    def _two_channels(rng, n):
        # channel 1 is channel 0 three samples later
        base = bandlimited_noise(rng, n, 0.3)
        return np.stack([base, np.roll(base, 3)], axis=1)

    def test_channels_share_one_clock(self, rng):
        # the inter-channel lag survives resampling: one clock per device
        x = self._two_channels(rng, 240000)
        out = lagrange_resample(SampledSignal(x, 16000.0), 0.3).samples
        seg = slice(120000, 136384)
        before = correlation_peak_lag(x[seg, 1], x[seg, 0], 10)
        after = correlation_peak_lag(out[seg, 1], out[seg, 0], 10)
        assert abs(before - 3.0) <= 0.05
        assert abs(after - before) <= 0.05

    def test_commutes_with_channel_selection(self, rng):
        x = self._two_channels(rng, 20000)
        both = lagrange_resample(SampledSignal(x, 16000.0), 0.3).samples
        alone = lagrange_resample(SampledSignal(x[:, 1], 16000.0), 0.3).samples
        assert np.array_equal(both[:, 1], alone[:, 0])


class TestFractionalDelay:
    def test_integer_delay_shifts_exactly(self, rng):
        x = rng.standard_normal(200)
        y = fractional_delay(x, 3.0)
        assert np.allclose(y[3:], x[:-3], atol=1e-12)
        assert np.allclose(y[:3], 0.0)

    def test_zero_delay_is_identity(self, rng):
        x = rng.standard_normal(100)
        assert np.array_equal(fractional_delay(x, 0.0), x)

    def test_half_sample_delay_measured_by_correlation(self):
        x = np.zeros(4000)
        x[1000] = 1.0
        y = fractional_delay(x, 10.5)
        lag = correlation_peak_lag(y, x, max_lag=50)
        assert abs(lag - 10.5) <= 0.05

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fractional_delay(np.zeros(10), -1.0)


def long_term_average_spectrum(spec: SpectrogramTensor) -> np.ndarray:
    """The long-term average spectrum `train_models` forms of one source."""
    return train_models({("a", "s"): spec})[1].ltas[0]


class TestLongTermAverageSpectrum:
    def test_zero_tensor(self):
        win = WindowSpec(64, 16)
        spec = SpectrogramTensor(np.zeros((4, 33, 2), complex), win, 16000.0)
        assert not long_term_average_spectrum(spec).any()

    def test_constant_magnitude(self):
        win = WindowSpec(64, 16)
        coeffs = np.full((5, 33, 3), 2.0 + 0.0j)
        spec = SpectrogramTensor(coeffs, win, 16000.0)
        assert np.allclose(long_term_average_spectrum(spec), 4.0)

    def test_matches_double_loop_oracle(self, rng):
        win = WindowSpec(64, 16)
        coeffs = rng.standard_normal((6, 33, 2)) + 1j * rng.standard_normal((6, 33, 2))
        spec = SpectrogramTensor(coeffs, win, 16000.0)
        got = long_term_average_spectrum(spec)
        for f in range(33):
            total = 0.0
            for t in range(6):
                for c in range(2):
                    total += abs(coeffs[t, f, c]) ** 2
            assert abs(got[f] - total / 12.0) <= 1e-12 * max(total, 1.0)


class TestInterpolationArguments:
    @pytest.mark.parametrize("delay", [np.nan, np.inf])
    def test_fractional_delay_non_finite_delay_rejected(self, delay):
        with pytest.raises(ValueError, match="finite"):
            fractional_delay(np.ones(10), delay)

    @pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
    def test_resample_non_finite_offset_rejected(self, offset):
        sig = SampledSignal(np.zeros(100), 100.0)
        with pytest.raises(ValueError, match="finite"):
            lagrange_resample(sig, offset)

    @pytest.mark.parametrize("delay", [1000.0, 1000.5, 1e6])
    def test_delay_past_the_end_is_zero_without_padding(self, rng, delay):
        import tracemalloc

        x = rng.standard_normal((1000, 2))
        tracemalloc.start()
        try:
            y = fractional_delay(x, delay)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert y.shape == x.shape and not y.any()
        # a padded copy spanning the delay would take 8 bytes per sample
        assert peak < 4 * x.nbytes


rate_offsets = st.floats(-8000.0, 8000.0, exclude_min=True, exclude_max=True,
                         allow_nan=False)


class TestInterpolationMatchesPerSampleOracle:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4096), frac=st.floats(0.0, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_fractional_delay(self, n, frac, seed):
        x = np.random.default_rng(seed).standard_normal(n)
        delay = frac * n
        got = fractional_delay(x, delay)
        want = lagrange_interpolate_oracle(
            x[:, None], np.arange(n) - delay, dsp._ORDER)[:, 0]
        want[:int(np.floor(delay))] = 0.0  # the documented causal head
        assert got.shape == (n,)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(x).max()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3 * dsp._SPAN + 5),
           # rows past the input's end at +-7000 and -14000 Hz
           offset=st.one_of(rate_offsets,
                            st.sampled_from([7000.0, -7000.0, -14000.0])),
           channels=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["array", "float32", "pcm16"]),
           cuts=st.lists(st.floats(0.0, 1.0), max_size=6))
    def test_lagrange_resample(self, n, offset, channels, seed, kind, cuts):
        # runs of output rows are pool tasks: one and three threads agree
        rate = 16000.0
        x = np.random.default_rng(seed).standard_normal((n, channels))
        sig = SampledSignal(x, rate)
        got = _resample_with(1, sig, offset)
        assert np.array_equal(got, _resample_with(3, sig, offset))
        pos = np.arange(n, dtype=np.float64) * (rate / (rate + offset))
        want = lagrange_interpolate_oracle(x, pos, dsp._ORDER)
        assert got.shape == x.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(_bits(got), _bits(_serial(x, rate, offset)))
        # a clock over sources of any kind, the channels split among
        # them, read in any partition of spans
        bounds = sorted({0, n, *(int(c * n) for c in cuts)})
        spans = list(zip(bounds[:-1], bounds[1:]))
        parts = [x[:, :1], x[:, 1:]] if channels > 1 else [x]
        with tempfile.TemporaryDirectory() as tmp, \
                sample_sources(parts, kind, tmp) as (sources, samples):
            clock = dsp._Clock(sources, rate, offset)
            raw = clock.scratch(max(b - a for a, b in spans))
            out = np.empty((channels, n))
            for a, b in spans:
                clock.read(a, b, raw, out[:, a:b])
        assert np.array_equal(
            _bits(out.T),
            _bits(_serial(np.concatenate(samples, axis=1), rate, offset)))


def _bits(x):
    """The float64 samples of x as integers: equal bits compare equal."""
    return x.view(np.int64)


def _serial(x, rate, offset):
    """The resampled x as the one-pass reference forms it; without an
    offset, x itself."""
    return serial_lagrange_resample(x, rate, offset) if offset else x


def _resample_with(workers, signal, offset):
    real = _pool.worker_count
    _pool.worker_count = lambda: workers
    try:
        return lagrange_resample(signal, offset).samples
    finally:
        _pool.worker_count = real


class TestResamplingTasks:
    """The tasks' scratch."""

    def test_tasks_allocate_no_arrays(self, monkeypatch):
        x = np.random.default_rng(2).standard_normal((5 * dsp._SPAN, 8))
        # at -0.3 Hz the last rows reach past the input
        for offset in (0.3, -0.3):
            peaks = pool_run_peaks(
                monkeypatch, lambda: lagrange_resample(
                    SampledSignal(x, 16000.0), offset))
            monkeypatch.undo()  # the next call measures the real pool
            # the smallest array a task could allocate: one bool per row
            assert len(peaks) == 1
            assert peaks[0] < dsp._SPAN

    def test_padding_does_not_grow_with_the_reach_of_the_positions(
            self, monkeypatch):
        # at -15900 Hz the positions reach 160 times past the input; they
        # read zeros there without a zero-padded copy that long
        import tracemalloc

        monkeypatch.setattr(_pool, "worker_count", lambda: 1)
        x = SampledSignal(np.random.default_rng(4).standard_normal((1000, 1)),
                          16000.0)
        peaks = {}
        for offset in (0.3, -15900.0):
            tracemalloc.start()
            try:
                lagrange_resample(x, offset)
                peaks[offset] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[-15900.0] <= 1.5 * peaks[0.3]


class TestStftFrames:
    @pytest.mark.parametrize("n", [512, 513, 639, 640, 641, 3000])
    def test_frame_count_of_stft(self, rng, n):
        win = WindowSpec(512, 128)
        spec = stft(SampledSignal(rng.standard_normal((n, 1)), 1.0), win)
        assert dsp.stft_frame_count(n, win) == spec.n_frames
