"""Separation quality metrics."""

from __future__ import annotations

import math

import numpy as np

from . import _pool
from .dsp import SampledSignal

__all__ = ["sdr"]


def sdr(reference: SampledSignal, estimate: SampledSignal) -> float:
    """Signal-to-distortion ratio in dB.

    10 * log10 of reference energy over error energy, summed over all
    samples and channels.  Returns +inf when the estimate is exact;
    raises ValueError for an all-zero reference (the ratio is undefined).
    """
    return _sdr_pairs([(reference, estimate)])[0]


def _sdr_pairs(pairs) -> list[float]:
    """`sdr` of every (reference, estimate) pair, in order.

    Each pair is one task on the thread pool (`_pool`); it sums the
    squared reference and the squared error through its thread's
    scratch, laid out as numpy lays out `ref ** 2` and `est - ref`, so
    every sum adds in the same order as those temporaries would and the
    scores do not depend on the thread count.  Shapes are checked before
    any task runs; an all-zero reference raises ValueError after, for the
    first such pair.
    """
    refs, ests = [], []
    for reference, estimate in pairs:
        ref, est = reference.samples, estimate.samples
        if ref.shape != est.shape:
            raise ValueError(
                f"reference {ref.shape} and estimate {est.shape} shapes differ")
        refs.append(ref)
        ests.append(est)
    # (reference, error) energies; the layouts are read off 2 x 2 corners,
    # which have the strides of the whole
    energies = np.empty((len(refs), 2))
    layouts = [(_fortran(ref[:2, :2] ** 2),
                _fortran(est[:2, :2] - ref[:2, :2]))
               for ref, est in zip(refs, ests)]
    size = max((ref.size for ref in refs), default=0)
    _pool.run(range(len(refs)),
              lambda i, buf: _energies(refs[i], ests[i], layouts[i],
                                       energies[i], buf),
              lambda: np.empty(size))
    scores = []
    for ref_energy, err_energy in energies.tolist():
        if ref_energy == 0.0:
            raise ValueError("SDR undefined for an all-zero reference")
        scores.append(math.inf if err_energy == 0.0
                      else 10.0 * math.log10(ref_energy / err_energy))
    return scores


def _fortran(a: np.ndarray) -> bool:
    return a.flags.f_contiguous and not a.flags.c_contiguous


def _energies(ref, est, layouts, out, buf) -> None:
    """out[0] = sum(ref ** 2), out[1] = sum((est - ref) ** 2), through
    buf, float scratch of ref's size or more, laid out as `layouts`
    says (True: column-major)."""
    views = []
    for fortran in layouts:
        flat = buf[:ref.size]
        views.append(flat.reshape(ref.shape[::-1]).T if fortran
                     else flat.reshape(ref.shape))
    sq, err = views
    np.square(ref, out=sq)
    out[0] = np.sum(sq)
    np.subtract(est, ref, out=err)
    np.square(err, out=err)
    out[1] = np.sum(err)
