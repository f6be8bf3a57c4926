"""Tests for the SDR metric."""

import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsep import dsp, metrics
from asyncsep.dsp import SampledSignal, _ArraySource, lagrange_resample
from asyncsep.errors import NumericalError
from asyncsep.metrics import (_finite_mean, _Scores, at_device_clock,
                              score_images, sdr)

from conftest import pool_workers, sample_sources, serial_lagrange_resample


def sig(x):
    return SampledSignal(np.asarray(x, float), 16000.0)


def test_exact_estimate_returns_infinity(rng):
    x = rng.standard_normal((100, 2))
    assert sdr(sig(x), sig(x.copy())) == math.inf


def test_zero_estimate_is_zero_db(rng):
    x = rng.standard_normal((100, 2))
    assert sdr(sig(x), sig(np.zeros_like(x))) == pytest.approx(0.0)


def test_double_estimate_is_zero_db(rng):
    x = rng.standard_normal(64)
    assert sdr(sig(x), sig(2.0 * x)) == pytest.approx(0.0)


def test_matches_two_pass_energy_oracle(rng):
    ref = rng.standard_normal((50, 2))
    est = ref + 0.1 * rng.standard_normal((50, 2))
    num = 0.0
    den = 0.0
    for t in range(50):
        for c in range(2):
            num += ref[t, c] ** 2
            den += (est[t, c] - ref[t, c]) ** 2
    assert sdr(sig(ref), sig(est)) == pytest.approx(10 * math.log10(num / den),
                                                    abs=1e-12)


def test_zero_reference_rejected():
    with pytest.raises(ValueError, match="all-zero reference"):
        sdr(sig(np.zeros(10)), sig(np.ones(10)))


def test_shape_mismatch_rejected(rng):
    with pytest.raises(ValueError, match="shapes differ"):
        sdr(sig(np.ones(10)), sig(np.ones(11)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["reference", "estimate"])
def test_non_finite_sample_rejected(rng, bad, where):
    # a NaN made every score NaN and an inf one a perfect score
    x = rng.standard_normal((100, 2))
    y = x + 0.1 * rng.standard_normal((100, 2))
    (x if where == "reference" else y)[37, 1] = bad
    with pytest.raises(NumericalError, match="SDR of the pair undefined"):
        sdr(sig(x), sig(y))


def _chunk_sums(x, order):
    """sum(x), x (n, C), over chunks of `metrics._CHUNK` samples: each
    chunk's channels summed by np.sum, in one contiguous temporary laid
    out in order "C" or "F", or one channel after another ("channels");
    the sums added in order."""
    total = 0.0
    for a in range(0, x.shape[0], metrics._CHUNK):
        chunk = x[a:a + metrics._CHUNK]
        parts = ([chunk[:, c] for c in range(x.shape[1])]
                 if order == "channels" else [chunk])
        for part in parts:
            total += float(np.sum(np.array(part, order="F" if order == "F"
                                           else "C")))
    return total


def _chunked(ref, est):
    """SDR as `_Energies` sums it, channel by channel in each chunk."""
    return 10.0 * math.log10(_chunk_sums(ref ** 2, "channels")
                             / _chunk_sums((est - ref) ** 2, "channels"))


def _layouts(x):
    """x in C order, in Fortran order, as a column slice and transposed
    out of a channel-major buffer, as the library hands signals around."""
    wide = np.concatenate([x, x[:, :1]], axis=1)
    padded = np.zeros((x.shape[1], x.shape[0] + 7))
    padded[:, 3:3 + x.shape[0]] = x.T
    return [x, np.asfortranarray(x), wide[:, :x.shape[1]],
            padded[:, 3:3 + x.shape[0]].T]


def _scored(pairs):
    """`score_images` of (reference, estimate) pairs spread over three
    devices, so over three tasks, as a list in pair order."""
    keys = [(f"d{i % 3}", f"s{i}") for i in range(len(pairs))]
    return list(score_images({key: r for key, (r, _) in zip(keys, pairs)},
                             {key: e for key, (_, e) in zip(keys, pairs)}
                             ).values())


class TestScoredPairs:
    """`score_images` of many pairs, scored on the pool by device."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_equals_the_chunked_sums_for_every_layout(self, workers):
        rng = np.random.default_rng(3)
        n = 2 * metrics._CHUNK + 808  # two whole chunks and a part
        ref = rng.standard_normal((n, 3))
        est = ref + 0.1 * rng.standard_normal((n, 3))
        # on these values a sum that followed the samples' layout, row-
        # or column-major, would round differently
        for x in (ref ** 2, (est - ref) ** 2):
            for order in ("C", "F"):
                assert _chunk_sums(x, order) != _chunk_sums(x, "channels")
        pairs = [(r, e) for r in _layouts(ref) for e in _layouts(est)]
        pairs.append((ref[:, :1], est[:, 1:2]))
        with pool_workers(workers):
            got = _scored([(sig(r), sig(e)) for r, e in pairs])
        assert got == [_chunked(r, e) for r, e in pairs]
        assert len(set(got[:-1])) == 1  # the layout does not matter
        assert got[0] == sdr(sig(ref), sig(est))

    def test_exact_estimate_and_empty_list(self, rng):
        x = rng.standard_normal((10, 2))
        assert _scored([(sig(x), sig(x))]) == [math.inf]
        assert _scored([]) == []

    def test_first_zero_reference_is_reported(self, rng):
        x = rng.standard_normal((10, 1))
        with pytest.raises(ValueError, match="all-zero reference"):
            _scored([(sig(x), sig(x)), (sig(0 * x), sig(x))])
        with pytest.raises(ValueError, match="shapes differ"):
            _scored([(sig(0 * x), sig(x)), (sig(x), sig(x[:5]))])


class TestAtDeviceClock:
    """Truth moved to each device's clock, one resampling per group."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 2 * dsp._SPAN),
           widths=st.lists(st.integers(1, 3), min_size=1, max_size=4),
           offset=st.floats(-8000.0, 8000.0, exclude_min=True,
                            exclude_max=True, allow_nan=False),
           seed=st.integers(0, 2**32 - 1))
    def test_stacked_equals_each_alone(self, n, widths, offset, seed):
        rng = np.random.default_rng(seed)
        signals = [SampledSignal(rng.standard_normal((n, c)), 16000.0)
                   for c in widths]
        got = at_device_clock({("a", f"s{i}"): s
                               for i, s in enumerate(signals)},
                              {"a": offset})
        assert len(got) == len(signals)
        for sig, res in zip(signals, got.values()):
            assert np.array_equal(res.samples,
                                  lagrange_resample(sig, offset).samples)

    def _truth(self, rng):
        """Devices interleaved, a of two lengths, c at another rate."""
        def image(n, channels, rate=16000.0):
            return SampledSignal(rng.standard_normal((n, channels)), rate)
        return {("b", "s1"): image(300, 2), ("a", "s1"): image(300, 2),
                ("a", "s2"): image(200, 1), ("z", "s1"): image(300, 2),
                ("b", "s2"): image(300, 3), ("a", "s3"): image(300, 2),
                ("c", "s1"): image(300, 1, 8000.0), ("zero", "s1"): image(9, 1)}

    def test_key_order_is_kept(self, rng):
        truth = self._truth(rng)
        got = at_device_clock(truth, {"a": 0.3, "b": -0.2, "c": 0.1,
                                      "zero": 0.0})
        assert list(got) == list(truth)

    def test_zero_offset_and_absent_devices_pass_through(self, rng):
        truth = self._truth(rng)
        got = at_device_clock(truth, {"a": 0.3, "zero": 0.0})
        for key, ref in truth.items():
            assert (got[key] is ref) == (key[0] != "a"), key
        assert at_device_clock(truth, {}) == truth

    def test_one_resampling_per_device_length_and_rate(self, rng,
                                                       monkeypatch):
        calls = []

        def counted(sources, rate, offset):
            clock = dsp._Clock(sources, rate, offset)
            calls.append((clock.n_samples, clock.channels, rate, offset))
            return clock

        monkeypatch.setattr(metrics, "_Clock", counted)
        truth = self._truth(rng)
        got = at_device_clock(truth, {"a": 0.3, "b": -0.2, "c": 0.1})
        assert calls == [(300, 5, 16000.0, -0.2), (300, 4, 16000.0, 0.3),
                         (200, 1, 16000.0, 0.3), (300, 1, 8000.0, 0.1)]
        for (m, k), ref in truth.items():
            offset = {"a": 0.3, "b": -0.2, "c": 0.1}.get(m, 0.0)
            want = lagrange_resample(ref, offset) if offset else ref
            assert np.array_equal(got[(m, k)].samples, want.samples)
            assert got[(m, k)].rate_hz == ref.rate_hz


class TestScoreImages:
    def test_scores_in_the_key_order_of_the_references(self, rng):
        keys = [("b", "s2"), ("a", "s1"), ("b", "s1")]
        refs = {key: sig(rng.standard_normal((50, 2))) for key in keys}
        estimates = {key: sig(ref.samples + 0.1 * rng.standard_normal((50, 2)))
                     for key, ref in reversed(list(refs.items()))}
        estimates[("a", "noise")] = sig(np.zeros((50, 2)))  # not scored
        got = score_images(refs, estimates)
        assert list(got) == ["b/s2", "a/s1", "b/s1"]
        assert list(got.values()) == [sdr(refs[key], estimates[key])
                                      for key in keys]

    def test_non_finite_pair_is_named_by_its_key(self, rng):
        refs = {(m, k): sig(rng.standard_normal((50, 2)))
                for m in ("a", "b") for k in ("s1", "s2")}
        estimates = {key: sig(ref.samples + 0.1) for key, ref in refs.items()}
        estimates[("b", "s1")].samples[7, 0] = np.nan
        with pytest.raises(NumericalError, match="SDR of b/s1 undefined"):
            score_images(refs, estimates)

    def test_missing_estimate_is_named_by_its_key(self, rng):
        refs = {(m, k): sig(rng.standard_normal((50, 2)))
                for m in ("a", "b") for k in ("s1", "s2")}
        estimates = {key: sig(ref.samples) for key, ref in refs.items()
                     if key != ("b", "s1")}
        estimates[("b", "s2")] = sig(np.zeros((40, 2)))  # checked later
        with pytest.raises(ValueError, match="no estimate of b/s1"):
            score_images(refs, estimates)

    def test_finite_mean_skips_infinite_scores(self):
        assert _finite_mean([1.0, math.inf, 2.0]) == 1.5
        assert _finite_mean([math.inf]) == math.inf
        assert _finite_mean([]) == math.inf


def _bits(x):
    """The float64 samples of x as integers: equal bits compare equal."""
    return x.view(np.int64)


def _sources(truth):
    """truth, (device, source) -> SampledSignal, as `_Scores` takes it."""
    return {key: (_ArraySource(ref.samples), ref.rate_hz)
            for key, ref in truth.items()}


def _read_truth(scores, m, start, stop, scratch):
    """Read device m's truth images at samples start:stop into scratch,
    as `_Scores.feed` reads each span of a group."""
    rows, raw, spans, _ = scratch
    for g in scores.by_device[m]:
        clock, _, r0 = scores.groups[g]
        scores._read_group(g, start, stop, rows[r0:r0 + clock.channels],
                           raw, spans)


class TestSpanScores:
    """`_Scores`: estimates scored span by span at the device clock."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 2 * metrics._CHUNK + 700),
           widths=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           offset=st.sampled_from([0.0, 0.3, -0.3, 7000.0, -7000.0,
                                   -14000.0]),
           cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
           seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["array", "float32", "pcm16"]))
    def test_spans_equal_the_whole_images(self, n, widths, offset, cuts,
                                          seed, kind):
        rng = np.random.default_rng(seed)
        signals = [rng.standard_normal((n, c)) for c in widths]
        signals[0][n // 2 + 1:] = 0.0  # a silent tail
        with tempfile.TemporaryDirectory() as tmp, \
                sample_sources(signals, kind, tmp) as (sources, samples):
            truth = {("a", f"s{i}"): sig(x) for i, x in enumerate(samples)}
            refs = at_device_clock(truth, {"a": offset})
            for key, x in zip(truth, samples):  # the one-pass reference
                assert np.array_equal(_bits(refs[key].samples), _bits(
                    serial_lagrange_resample(x, 16000.0, offset)
                    if offset else x))
            # the estimates channel-major, with 3 samples past the end, as
            # a writer hands them over
            ests = {key: rng.standard_normal((ref.channels, n + 3))
                    for key, ref in truth.items()}
            bounds = sorted({0, n, *(int(c * n) for c in cuts)})
            spans = list(zip(bounds[:-1], bounds[1:]))
            rows = max(b - a for a, b in spans)
            scores = _Scores({key: (source, 16000.0) for key, source in
                              zip(truth, sources)}, {"a": offset}, rows)
            assert scores.destination(None, "a", "noise") is None
            scratch = scores.scratch()
            for a, b in spans:
                stop = b + 3 if b == n else b
                _read_truth(scores, "a", a, stop, scratch)
                for key, est in ests.items():
                    image = scores.images[(None, key)]
                    at, read, _ = scratch[2][image.g]
                    assert at == a
                    assert np.array_equal(
                        _bits(read[image.c0:image.c1]),
                        _bits(refs[key].samples[a:b].T))
                    scores.destination(None, *key).write(a, est[:, a:stop])
        want = score_images(refs, {key: sig(est[:, :n].T)
                                   for key, est in ests.items()})
        assert scores.scores() == want
        assert list(want.values()) == [
            sdr(refs[key], sig(est[:, :n].T)) for key, est in ests.items()]

    def test_recordings_fed_as_every_estimate(self, rng):
        n = metrics._CHUNK + 10
        truth = {(m, k): sig(rng.standard_normal((n, 2)))
                 for m in ("b", "a") for k in ("s1", "s2")}
        recordings = {m: rng.standard_normal((n, 2)) for m in ("a", "b")}
        offsets = {"a": 0.3, "b": 0.0}
        scores = _Scores(_sources(truth), offsets, 1000)
        scores.feed({(m, k): _ArraySource(recordings[m]) for m, k in truth})
        assert scores.scores() == score_images(
            at_device_clock(truth, offsets),
            {(m, k): sig(recordings[m]) for m, k in truth})
        assert list(scores.scores()) == ["b/s1", "b/s2", "a/s1", "a/s2"]

    def test_spans_out_of_order_or_missing_are_refused(self, rng):
        truth = {("a", "s1"): sig(rng.standard_normal((100, 1)))}
        scores = _Scores(_sources(truth), {"a": 0.3}, 50)
        dest, scratch = scores.destination(None, "a", "s1"), scores.scratch()
        with pytest.raises(ValueError, match="more than the 50"):
            _read_truth(scores, "a", 0, 60, scratch)
        with pytest.raises(ValueError, match="0:50 was not read"):
            dest.write(0, np.ones((1, 50)))
        _read_truth(scores, "a", 0, 50, scratch)
        dest.write(0, np.ones((1, 50)))
        with pytest.raises(ValueError, match="from 60 on scored after 50"):
            dest.write(60, np.ones((1, 40)))
        with pytest.raises(ValueError, match="50:100 was not read"):
            dest.write(50, np.ones((1, 50)))
        with pytest.raises(ValueError, match="holds 50 of 100 samples"):
            scores.scores()
