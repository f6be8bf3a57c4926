"""Tests for the SDR metric."""

import math

import numpy as np
import pytest

from asyncsep.dsp import SampledSignal
from asyncsep.metrics import _sdr_pairs, sdr

from conftest import pool_workers


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


def _two_pass(ref, est):
    """SDR through the temporaries `ref ** 2` and `(est - ref) ** 2`."""
    ref_energy = float(np.sum(ref ** 2))
    err_energy = float(np.sum((est - ref) ** 2))
    return 10.0 * math.log10(ref_energy / err_energy)


def _layouts(x):
    """x in C order, in Fortran order, as a column slice and transposed
    out of a channel-major buffer, as the library hands signals around."""
    wide = np.concatenate([x, x[:, :1]], axis=1)
    padded = np.zeros((x.shape[1], x.shape[0] + 7))
    padded[:, 3:3 + x.shape[0]] = x.T
    return [x, np.asfortranarray(x), wide[:, :x.shape[1]],
            padded[:, 3:3 + x.shape[0]].T]


class TestScoredPairs:
    """`_sdr_pairs`: every pair one task on the pool."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_equals_the_temporaries_for_every_layout(self, workers):
        rng = np.random.default_rng(1)
        ref = rng.standard_normal((4000, 3))
        est = ref + 0.1 * rng.standard_normal((4000, 3))
        # on these values a sum in column-major order rounds differently
        for x in (ref ** 2, (est - ref) ** 2):
            assert np.sum(x) != np.sum(np.asfortranarray(x))
        pairs = [(r, e) for r in _layouts(ref) for e in _layouts(est)]
        pairs.append((ref[:, :1], est[:, 1:2]))
        with pool_workers(workers):
            got = _sdr_pairs([(sig(r), sig(e)) for r, e in pairs])
        assert got == [_two_pass(r, e) for r, e in pairs]
        assert got[0] == sdr(sig(ref), sig(est))

    def test_exact_estimate_and_empty_list(self, rng):
        x = rng.standard_normal((10, 2))
        assert _sdr_pairs([(sig(x), sig(x))]) == [math.inf]
        assert _sdr_pairs([]) == []

    def test_first_zero_reference_is_reported(self, rng):
        x = rng.standard_normal((10, 1))
        with pytest.raises(ValueError, match="all-zero reference"):
            _sdr_pairs([(sig(x), sig(x)), (sig(0 * x), sig(x))])
        with pytest.raises(ValueError, match="shapes differ"):
            _sdr_pairs([(sig(0 * x), sig(x)), (sig(x), sig(x[:5]))])
