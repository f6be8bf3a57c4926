"""Shared fixtures and independent measurement oracles for the test suite."""

import contextlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.io import wavfile

from asyncsep import _kernels, _pool, scene
from asyncsep.audio import WavSource, read_header, read_wav
from asyncsep.classifier import (PosteriorMap, _histogram, posterior_block,
                                 state_factors)
from asyncsep.dsp import (_ORDER, SampledSignal, SpectrogramTensor,
                          WindowSpec, _ArraySource)
from asyncsep.errors import NumericalError
from asyncsep.model import SpatialModel, StateSpectrumModel
from asyncsep.separator import _deviation_block


def render_source_signal(descriptor: dict, n: int, rate: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Render one mono source signal of n samples from its descriptor,
    as scene synthesis renders each source."""
    out = np.empty(n)
    scene._render_into(descriptor, n, rate, rng, scene._bin_freqs(n, rate),
                       out, scene._RenderScratch(n))
    return out


def whole_mix(total: np.ndarray, parts, noise_level: float, rng,
              noise) -> None:
    """Add the whole images, parts, and, at a positive level, seeded white
    noise to total, zeros of their shape; noise: float scratch of that
    size.  The reference for the span reads of `scene._Recording`."""
    for part in parts:
        total += part
    if noise_level > 0:
        z = noise[:total.size].reshape(total.shape)
        rng.standard_normal(out=z)
        z *= noise_level
        total += z


@contextlib.contextmanager
def pool_workers(n):
    """Run the block with `_pool.worker_count` patched to n."""
    real = _pool.worker_count
    _pool.worker_count = lambda: n
    try:
        yield
    finally:
        _pool.worker_count = real


def pool_run_peaks(monkeypatch, call):
    """Traced allocation peak of every `_pool.run` that call() makes.

    call() runs twice, on one worker thread: once untraced, so that
    numpy's one-time growth of its dispatch caches does not count, then
    measured.  Every task runs on the calling thread, where tracemalloc
    and numpy's buffer size hold; the iterator buffers, which are not
    arrays, shrink to 16 elements.  The one workspace is built before
    tracing starts, so a peak counts only what the tasks allocate.
    Returns the peaks of the measured call, in call order, in bytes.
    """
    peaks = []
    real_run = _pool.run

    def measured(tasks, work, scratch):
        tasks = list(tasks)
        workspace = scratch() if tasks else None
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            real_run(tasks, work, lambda: workspace)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(_pool, "worker_count", lambda: 1)
    bufsize = np.getbufsize()
    np.setbufsize(16)
    try:
        call()
        monkeypatch.setattr(_pool, "run", measured)
        call()
    finally:
        np.setbufsize(bufsize)
    return peaks


def save_posteriors(pmap: PosteriorMap, path) -> None:
    """Dump gamma as a binary tensor (.npy), the reference for the bytes
    of `classifier.PosteriorFile`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.save(path, pmap.gamma)


def posterior_histogram(pmap: PosteriorMap, width: int = 50) -> str:
    """Text histogram of which state wins each tile of a whole tensor, the
    reference for `classifier.PosteriorFile.histogram`."""
    winners = pmap.gamma.argmax(axis=2)
    return _histogram([int((winners == s).sum())
                       for s in range(len(pmap.state_ids))],
                      pmap.state_ids, width)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def correlation_peak_lag(sig, ref, max_lag, band=0.35, oversample=16):
    """Subsample lag of the cross-correlation peak between sig and ref.

    FFT cross-correlation, bandlimited to `band` of Nyquist, evaluated on
    an oversampled lag grid with a parabolic refinement of the peak.
    Positive lag means `sig` is delayed relative to `ref`.
    """
    n = len(sig) + len(ref) - 1
    nfft = 1 << int(np.ceil(np.log2(n)))
    X = np.fft.rfft(sig, nfft)
    Y = np.fft.rfft(ref, nfft)
    C = X * np.conj(Y)
    k = np.arange(len(C))
    C[k > band * (len(C) - 1)] = 0.0
    up = np.fft.irfft(C, nfft * oversample) * oversample
    lags = np.fft.fftfreq(nfft * oversample, 1.0 / nfft)
    keep = np.abs(lags) <= max_lag
    idx = np.flatnonzero(keep)
    j = idx[np.argmax(up[idx])]
    step = lags[1] - lags[0]
    c0, cm, cp = up[j], up[j - 1], up[j + 1]
    denom = cm - 2.0 * c0 + cp
    delta = 0.5 * (cm - cp) / denom if denom != 0 else 0.0
    return lags[j] + delta * step


def bandlimited_noise(rng, n, frac_nyquist):
    """White noise lowpassed to a fraction of Nyquist, unit peak."""
    w = rng.standard_normal(n)
    W = np.fft.rfft(w)
    f = np.fft.rfftfreq(n)  # cycles/sample, Nyquist at 0.5
    W[f > 0.5 * frac_nyquist] = 0.0
    x = np.fft.irfft(W, n)
    return x / np.abs(x).max()


def rand_unit_psd(rng, n_ch):
    """Random Hermitian PSD matrix with unit trace."""
    A = rng.standard_normal((n_ch, n_ch)) + 1j * rng.standard_normal((n_ch, n_ch))
    S = A @ A.conj().T
    return S / np.trace(S).real


def make_synthetic_models(rng, arrays=("a0", "a1", "a2"), n_ch=2, n_src=3,
                          window=None, noise_power=0.01):
    """Hand-built model pair with flat spectra and random spatial signatures."""
    if window is None:
        window = WindowSpec(512, 128)
    F = window.length // 2 + 1
    source_ids = [f"s{k}" for k in range(n_src)]
    cov = {}
    for m in arrays:
        per = [np.broadcast_to(rand_unit_psd(rng, n_ch), (F, n_ch, n_ch)).copy()
               for _ in range(n_src)]
        cov[m] = np.stack(per)
    spatial = SpatialModel(cov, source_ids)
    lt = np.ones((n_src, F))
    states = StateSpectrumModel(source_ids, lt, np.full(F, noise_power))
    return spatial, states, window


def make_planted_tiles(rng, spatial, states, window, n_frames=48, rate=16000.0):
    """Observations drawn tile-by-tile from a planted dominant-source state.

    Every tile's state is sampled uniformly over the directional states and
    the observation is drawn from exactly that state's model distribution,
    so the scene is W-disjoint by construction.  Returns (observations,
    planted state indices, top-quartile-energy mask).
    """
    F = window.length // 2 + 1
    K = len(states.source_ids)
    planted = rng.integers(0, K, size=(n_frames, F))
    obs = {}
    for m in spatial.covariances:
        C = spatial.channels(m)
        L, _ = state_factors(spatial.covariances[m], states)
        z = (rng.standard_normal((n_frames, F, C))
             + 1j * rng.standard_normal((n_frames, F, C))) / np.sqrt(2.0)
        Lsel = L[planted, np.arange(F)[None, :]]
        x = np.einsum("nfcd,nfd->nfc", Lsel, z)
        obs[m] = SpectrogramTensor(x, window, rate, None)
    energy = sum((o.coeffs.real ** 2 + o.coeffs.imag ** 2).sum(axis=2)
                 for o in obs.values())
    top = energy >= np.quantile(energy, 0.75)
    return obs, planted, top


def istft_oracle(spec, length=None):
    """Reference weighted overlap-add synthesis, one frame at a time.

    Every frame's windowed samples and the squared window are added into
    the output in ascending frame order; samples whose squared-window sum
    is not above 1e-12 are left unnormalized.
    """
    window = spec.window
    n_frames, _, n_ch = spec.coeffs.shape
    total = (n_frames - 1) * window.hop + window.length
    win = window.window()

    out = np.zeros((total, n_ch))
    denom = np.zeros(total)
    frames = np.fft.irfft(spec.coeffs, n=window.length, axis=1)  # (N, L, C)
    frames *= win[None, :, None]
    for t in range(n_frames):
        start = t * window.hop
        out[start:start + window.length] += frames[t]
        denom[start:start + window.length] += win ** 2
    good = denom > 1e-12
    out[good] /= denom[good, None]

    left = window.length
    if length is None:
        length = spec.n_samples
    if length is None:
        length = max(total - 2 * window.length, 0)
    out = out[left:left + length]
    if out.shape[0] < length:
        out = np.pad(out, ((0, length - out.shape[0]), (0, 0)))
    return SampledSignal(out, spec.rate_hz)


def lagrange_interpolate_oracle(x, pos, order):
    """Evaluate x (n, channels) at continuous positions, one stencil per sample.

    The reference per-sample Lagrange interpolator: for every position the
    order+1 basis weights are formed anew and the taps are read by
    fancy indexing.  Positions outside the input read zeros.
    """
    base = np.floor(pos).astype(np.int64)
    start = base - (order - 1) // 2
    t = pos - start  # interpolation abscissa relative to the stencil start

    lo = int(start.min())
    hi = int(start.max()) + order
    pad_left = max(-lo, 0) + 1
    pad_right = max(hi - (x.shape[0] - 1), 0) + 1
    padded = np.pad(x, ((pad_left, pad_right), (0, 0)))

    out = np.zeros((pos.shape[0], x.shape[1]))
    for j in range(order + 1):
        w = np.ones(pos.shape[0])
        for l in range(order + 1):
            if l == j:
                continue
            w *= (t - l) / (j - l)
        out += w[:, None] * padded[start + j + pad_left]
    return out


def serial_lagrange_resample(x, rate, offset):
    """`lagrange_resample` of x (n, C) by offset Hz at rate, written out
    as one pass over a padded copy: the input padded with zeros by one
    stencil before it and one sample after, every row's stencil and
    weights formed at once, and the taps gathered from the copy with the
    library's operations in the library's order, so the rows equal its
    bit for bit."""
    n, C = x.shape
    pos = np.arange(n, dtype=np.float64) * (rate / (rate + offset))
    start = np.floor(pos) - (_ORDER - 1) // 2
    index = (start + _ORDER + 1).astype(np.int64)
    t = pos - start
    padded = np.zeros((C, n + _ORDER + 2))
    padded[:, _ORDER + 1:_ORDER + 1 + n] = x.T
    out = np.zeros((C, n))
    for j in range(_ORDER + 1):
        others = [l for l in range(_ORDER + 1) if l != j]
        w = (t - others[0]) / (j - others[0])
        for l in others[1:]:
            w *= (t - l) / (j - l)
        for c in range(C):
            out[c] += np.take(padded[c, j:], index, mode="clip") * w
    return out.T


@contextlib.contextmanager
def sample_sources(signals, kind, directory):
    """Sample sources of the (n, C) float signals, and the samples each
    reads: kind "array" reads the signals (`dsp._ArraySource`), "float32"
    and "pcm16" WAV files of them written in directory
    (`audio.WavSource`), which read what `read_wav` reads back."""
    with contextlib.ExitStack() as stack:
        sources, samples = [], []
        for i, x in enumerate(signals):
            if kind == "array":
                sources.append(_ArraySource(x))
                samples.append(x)
                continue
            path = Path(directory) / f"{i}.wav"
            wavfile.write(path, 16000, x.astype(np.float32) if kind == "float32"
                          else np.clip(np.round(x * 8000.0), -32768,
                                       32767).astype(np.int16))
            sources.append(stack.enter_context(WavSource(read_header(path))))
            samples.append(read_wav(path).samples)
        yield sources, samples


# ---------------------------------------------------------------------------
# single-tile reference models
#
# These write the diagonal-loading rule out themselves (noise/C plus a ridge
# of 1e-9 times the loaded trace, or 1e-9 for a zero trace) rather than
# calling the library's helper, so they stay independent references.
# ---------------------------------------------------------------------------

_LOG_PI = float(np.log(np.pi))


def _ridge(trace):
    return 1e-9 * trace if trace > 0.0 else 1e-9


def regularized_sum(spatial, powers, array_id, f, noise_power):
    """Power-weighted covariance sum with diffuse noise and diagonal loading.

    Returns sum_k powers[k] * R[array, k, f] + noise_power * I / C plus a
    trace-scaled ridge; positive definite for any nonnegative powers.
    """
    powers = np.asarray(powers, dtype=np.float64)
    cov = spatial.covariances[array_id]
    C = cov.shape[2]
    S = np.einsum("k,kcd->cd", powers, cov[:, f])
    trace = np.trace(S).real + noise_power
    S[np.diag_indices(C)] += noise_power / C + _ridge(trace)
    return S


def mwf_apply(x, spatial, array_id, f, powers, noise_power):
    """Reference single-tile filter: all source images from one observation.

    x: (C,) mixture coefficients at one tile; powers: (K,) directional
    source powers.  Returns (K+1, C) image estimates, noise last.  One
    Cholesky factorization is shared by all K+1 filters.
    """
    x = np.asarray(x, dtype=np.complex128)
    if not np.isfinite(x).all():
        raise NumericalError("non-finite tile observation")
    powers = np.asarray(powers, dtype=np.float64)
    cov = spatial.covariances[array_id]
    C = cov.shape[2]
    S = regularized_sum(spatial, powers, array_id, f, noise_power=noise_power)
    L = np.linalg.cholesky(S)
    y = scipy.linalg.cho_solve((L, True), x)
    out = np.empty((len(powers) + 1, C), dtype=np.complex128)
    for k in range(len(powers)):
        out[k] = powers[k] * (cov[k, f] @ y)
    # the noise filter keeps the diagonal loading so the images sum to x
    trace = float(np.einsum("k,k->", powers,
                            np.einsum("kcc->k", cov[:, f]).real)) + noise_power
    out[-1] = (noise_power / C + _ridge(trace)) * y
    return out


def state_log_likelihood(observations, spatial, states, n, f, s):
    """Reference per-tile log-likelihood of state s, summed over arrays.

    Cholesky-based: the quadratic form comes from a triangular solve and
    the log-determinant from the factor diagonal.
    """
    var = states.conditional_variances()[s, :-1, :]  # (K, F) directional
    noise = float(states.noise_spectrum[f])
    total = 0.0
    for m in sorted(observations):
        x = observations[m].coeffs[n, f]
        if not np.isfinite(x).all():
            raise NumericalError(f"non-finite observation at ({m}, {n}, {f})")
        S = regularized_sum(spatial, var[:, f], m, f, noise_power=noise)
        L = np.linalg.cholesky(S)
        y = scipy.linalg.solve_triangular(L, x, lower=True)
        quad = float(np.vdot(y, y).real)
        logdet = len(x) * _LOG_PI + 2.0 * float(np.log(np.diag(L).real).sum())
        total += -quad - logdet
    return total


# ---------------------------------------------------------------------------
# serial references of the classifying pass
#
# The library classifies only inside the fused block pass of `separator`,
# on every core.  These run the same kernels over whole tensors, one block
# after another on the calling thread: the tests' reference for the pass.
# ---------------------------------------------------------------------------

def serial_log_likelihoods(observations, spatial, states):
    """Joint (N, F, S) state log-likelihoods: `_kernels.loglik_accumulate`
    of every array's `state_factors`, in array id order."""
    first = observations[min(observations)]
    ll = np.zeros((first.n_frames, spatial.n_bins, states.n_states))
    for m in sorted(observations):
        factors, logdets = state_factors(spatial.covariances[m], states)
        _kernels.loglik_accumulate(observations[m].coeffs, factors, logdets,
                                   ll)
    return ll


def serial_posteriors(log_likelihoods, state_ids=None):
    """`posterior_block` over (N, F, S) log-likelihoods, a block of frames
    at a time, into a new PosteriorMap; the input is left untouched."""
    ll = np.asarray(log_likelihoods, dtype=np.float64)
    N, F, n_states = ll.shape
    g = np.empty(ll.shape)
    ws = _kernels.Workspace(_kernels._BLOCK, F, states=n_states)
    for n0 in range(0, N, _kernels._BLOCK):
        n1 = n0 + _kernels._BLOCK
        posterior_block(ll[n0:n1], g[n0:n1], ws)
    if state_ids is None:
        state_ids = [str(s) for s in range(n_states)]
    return PosteriorMap(g, state_ids)


def serial_classify(observations, spatial, states):
    """The serial reference of `classifier.classify`."""
    return serial_posteriors(
        serial_log_likelihoods(observations, spatial, states),
        states.state_ids)


def softmax_oracle(log_likelihoods):
    """Reference posteriors: the softmax reduced along the state axis."""
    shifted = log_likelihoods - log_likelihoods.max(axis=-1, keepdims=True)
    g = np.exp(shifted)
    g /= g.sum(axis=-1, keepdims=True)
    return g


def consistency_oracle(est, coeffs):
    """Reference worst per-tile relative deviation of the image sum.

    est: (K+1, N, F, C) images; coeffs: (N, F, C) mixture.  Every real and
    imaginary component of the deviation is summed exactly (math.fsum)
    and rounded once, so the result is within a few ulps of the exact
    value.  Tiles with a silent mixture count as 0.
    """
    _, N, F, C = est.shape
    worst = 0.0
    for n in range(N):
        for f in range(F):
            num, den = [], []
            for c in range(C):
                for part in (np.real, np.imag):
                    x = float(part(coeffs[n, f, c]))
                    d = math.fsum([*part(est[:, n, f, c]).tolist(), -x])
                    num.append(d * d)
                    den.append(x * x)
            den_sum = math.fsum(den)
            if den_sum > 0.0:
                worst = max(worst, math.sqrt(math.fsum(num) / den_sum))
    return worst


def workspace_bytes(ws):
    """The bytes a `_kernels.Workspace` holds: its buffers, each once, and
    none of the views laid over them."""
    return sum(a.nbytes for a in vars(ws).values()
               if isinstance(a, np.ndarray) and a.base is None)


def block_consistency(est, coeffs):
    """Worst per-tile relative deviation of the image sum from the mixture,
    by the separation pass's own block reduction.

    est is a (K+1, N, F, C) view of a (K+1, C, N, F) buffer, as
    `_kernels.mwf_filter` returns it; it is read as those planes by
    `separator._deviation_block`, a block of frames of every channel at
    a time.
    """
    planes = est.transpose(0, 3, 1, 2)  # (K+1, C, N, F)
    mix = coeffs.transpose(2, 0, 1)     # (C, N, F)
    N, F = planes.shape[2:]
    ws = _kernels.Workspace(_kernels._BLOCK, F)
    worst = [0.0]
    for n0 in range(0, N, _kernels._BLOCK):
        n1 = n0 + _kernels._BLOCK
        worst.append(_deviation_block(
            [(planes[:, :, n0:n1], mix[:, n0:n1])], ws))
    return float(np.sqrt(max(worst)))
