"""Separation quality metrics, scored at each device's clock.

Estimates stay on the clock of the device that recorded them, so
`at_device_clock` moves the truth images there and `score_images` scores
them; `run_experiment` and `asyncsep evaluate` both score through these.
"""

from __future__ import annotations

import math

import numpy as np

from . import _pool
from .dsp import SampledSignal, lagrange_resample
from .errors import NumericalError

__all__ = ["sdr", "at_device_clock", "score_images"]


def sdr(reference: SampledSignal, estimate: SampledSignal) -> float:
    """Signal-to-distortion ratio in dB.

    10 * log10 of reference energy over error energy, summed over all
    samples and channels.  Returns +inf when the estimate is exact;
    raises ValueError for an all-zero reference (the ratio is undefined)
    and NumericalError when either energy is not finite.
    """
    return _sdr_pairs([(reference, estimate)], ["the pair"])[0]


def at_device_clock(truth, sro_hz) -> dict:
    """The truth images on their devices' clocks, in the key order of truth.

    truth: (device, source) -> SampledSignal; sro_hz: device -> clock
    offset in Hz, where a device with none or 0 keeps its images, the same
    objects.  The images of one (device, length, rate) group are resampled
    in one `lagrange_resample` call, their channels side by side, so the
    weights are formed once; each equals resampling that image alone.
    """
    groups = {}
    for (m, k), ref in truth.items():
        if sro_hz.get(m, 0.0) != 0.0:
            groups.setdefault((m, ref.n_samples, ref.rate_hz), []).append(
                (m, k))
    out = dict(truth)
    for (m, _, rate), keys in groups.items():
        stacked = lagrange_resample(
            SampledSignal(np.concatenate([truth[key].samples for key in keys],
                                         axis=1), rate), sro_hz[m])
        bounds = np.cumsum([truth[key].channels for key in keys])[:-1]
        out.update((key, SampledSignal(part, rate)) for key, part in
                   zip(keys, np.split(stacked.samples, bounds, axis=1)))
    return out


def score_images(refs, estimates) -> dict[str, float]:
    """"m/k" -> SDR of estimates[(m, k)] against refs[(m, k)], in the key
    order of refs, scored on the pool (`_sdr_pairs`)."""
    names = [f"{m}/{k}" for m, k in refs]
    return dict(zip(names, _sdr_pairs(
        [(ref, estimates[key]) for key, ref in refs.items()], names)))


def _finite_mean(values) -> float:
    """Mean of the finite values; +inf when none is finite."""
    vals = [v for v in values if math.isfinite(v)]
    return sum(vals) / len(vals) if vals else math.inf


def _sdr_pairs(pairs, names=None) -> list[float]:
    """`sdr` of every (reference, estimate) pair, in order; names, by
    default "pair <index>", label the pairs in errors.

    Each pair is one task on the thread pool (`_pool`); it sums the
    squared reference and the squared error through its thread's
    scratch, laid out as numpy lays out `ref ** 2` and `est - ref`, so
    every sum adds in the same order as those temporaries would and the
    scores do not depend on the thread count.  Shapes are checked before
    any task runs; after, the first pair whose energies are not finite
    raises NumericalError, or whose reference is all zero ValueError.
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
    names = names or [f"pair {i}" for i in range(len(refs))]
    for name, (ref_energy, err_energy) in zip(names, energies.tolist()):
        if not (math.isfinite(ref_energy) and math.isfinite(err_energy)):
            raise NumericalError(
                f"SDR of {name} undefined: reference energy {ref_energy}, "
                f"error energy {err_energy}")
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
