"""Joint per-tile state classification across all arrays.

For every time-frequency tile the log-likelihood of each latent state
(one dominant source, or noise only) is accumulated over all arrays under
the local Gaussian model, turned into posterior probabilities with uniform
priors, and reduced to per-source power estimates.  Information crosses
array boundaries in one place only: `separator._run_block`, the fused
pass, sums the arrays' log-likelihoods of each tile.

Each stage has one block kernel that works on a block of frames:
`_kernels.loglik_block` for the log-likelihoods, `posterior_block` for the
softmax and its checks, and `power_block` for the powers.  They run in
the fused per-block pass of `separator`, on every core: `classify` runs
that pass with no mode, so its blocks sum every array's log-likelihoods
and filter nothing, as they do to fill `separator.separate`'s
`posteriors=` buffer, and no full-size log-likelihoods are held.  `source_power_estimates` runs
`power_block` over a whole tensor, one block after another.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .dsp import SpectrogramTensor
from .errors import NumericalError
from .model import SpatialModel, StateSpectrumModel

__all__ = [
    "PosteriorMap",
    "classify",
    "source_power_estimates",
    "state_factors",
]

_LOG_PI = float(np.log(np.pi))


@dataclass
class PosteriorMap:
    """Posterior state probabilities.

    gamma: (frames, bins, states); states are the directional sources in
    model order plus the noise-only state last.
    """

    gamma: np.ndarray
    state_ids: list[str]

    def __post_init__(self):
        _check_sums(self.gamma, np.empty(self.gamma.shape[:-1]))


def _check_sums(gamma, sums):
    """Raise unless every tile's posteriors sum to 1 within 1e-12.

    gamma: (..., states); sums: float scratch of gamma.shape[:-1].
    """
    np.sum(gamma, axis=-1, out=sums)
    sums -= 1.0
    np.abs(sums, out=sums)
    if not sums.max(initial=0.0) <= 1e-12:  # a NaN fails too
        raise ValueError("posteriors do not sum to 1")


def state_factors(cov: np.ndarray, states: StateSpectrumModel
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of every state covariance of one array.

    cov: its (K, F, C, C) covariances.  Returns (S, F, C, C) lower factors
    and (S, F) log det(pi * S_state), with S_state the regularized
    power-weighted covariance sum.
    """
    K, F, C, _ = cov.shape
    var = states.conditional_variances()[:, :K, :]  # (S, K, F)
    noise = states.noise_spectrum

    S_mat = np.einsum("skf,kfcd->sfcd", var, cov)
    _kernels._load_diagonal(S_mat, noise[None, :])

    try:
        factors = np.linalg.cholesky(S_mat)
    except np.linalg.LinAlgError as exc:  # cannot happen for valid models
        raise NumericalError(f"state covariance not positive definite: {exc}")
    diag = np.diagonal(factors, axis1=-2, axis2=-1).real
    logdets = C * _LOG_PI + 2.0 * np.log(diag).sum(axis=-1)
    return factors, logdets


def classify(observations: dict[str, SpectrogramTensor],
             spatial: SpatialModel,
             states: StateSpectrumModel) -> PosteriorMap:
    """Joint posterior state probabilities over every array given.

    The per-array log-likelihoods add up tile by tile (conditional
    independence across arrays), so observations of a single array give
    the local classifier of the tv-local filter variant.  Runs the fused
    pass of `separator` on every core; the result does not depend on the
    number of threads.  Non-finite observations raise NumericalError,
    observations unlike the model, misaligned or none ValueError, and
    device ids outside `SpatialModel.check_id` ConfigError.
    """
    from .separator import _check_inputs, _plan, _run_pass, _tensor_readers

    _check_inputs([], sorted(observations))
    readers = _tensor_readers(observations, spatial)
    gamma = np.empty((readers[min(readers)].n_frames, spatial.n_bins,
                      states.n_states))
    _run_pass(_plan(readers, spatial, states, [], gamma), spatial, states)
    return PosteriorMap(gamma, states.state_ids)


def posterior_block(ll, out, ws):
    """Posteriors of one block of log-likelihoods, (b, F, S), into `out`.

    `out` is C-contiguous and may be `ll` itself.  The per-tile maximum
    and normaliser are accumulated one state plane at a time, in state
    order.  With fewer than 8 states numpy's own reductions along the
    state axis add in that order too; with more they sum pairwise, and
    the two differ by rounding only.  Non-finite log-likelihoods raise
    NumericalError, and posteriors that do not sum to 1 ValueError.
    """
    b = ll.shape[0]
    if not np.isfinite(ll, out=ws.flags[:b]).all():
        raise NumericalError("non-finite state log-likelihoods")
    peak, total = ws.r[0, :b], ws.r[1, :b]
    np.copyto(peak, ll[..., 0])
    for s in range(1, ll.shape[-1]):
        np.maximum(peak, ll[..., s], out=peak)
    np.subtract(ll, peak[..., None], out=out)
    np.exp(out, out=out)
    np.copyto(total, out[..., 0])
    for s in range(1, out.shape[-1]):
        total += out[..., s]
    out /= total[..., None]
    _check_sums(out, total)
    return out


def source_power_estimates(gamma: PosteriorMap,
                           states: StateSpectrumModel) -> np.ndarray:
    """Posterior-weighted source powers per tile, (frames, bins, K+1).

    The last slot is the diffuse noise, pinned to the state-independent
    noise spectrum rather than recomputed through the convex combination.
    Runs `power_block` over blocks of frames.
    """
    var = states.conditional_variances()  # (S, K+1, F)
    g = gamma.gamma
    N, F, _ = g.shape
    sigma2 = np.empty((N, F, var.shape[1]))
    planes = sigma2.transpose(2, 0, 1)
    ws = _kernels.Workspace(_kernels._BLOCK, F)
    for n0 in range(0, N, _kernels._BLOCK):
        n1 = n0 + _kernels._BLOCK
        power_block(g[n0:n1], var, planes[:-1, n0:n1], ws)
    sigma2[:, :, -1] = states.noise_spectrum[None, :]
    return sigma2


def power_block(gamma, var, out, ws):
    """Posterior-weighted source powers of one block.

    gamma: (b, F, S) posteriors; var: (S, K+1, F) conditional variances;
    out: K' <= K+1 planes of (b, F) float, out[k] = sum_s gamma_s var[s, k],
    one weighted state plane at a time.
    """
    t = ws.r[0, :gamma.shape[0]]
    for k in range(len(out)):
        np.multiply(gamma[..., 0], var[0, k], out=out[k])
        for s in range(1, gamma.shape[-1]):
            np.multiply(gamma[..., s], var[s, k], out=t)
            out[k] += t
    return out


class PosteriorFile:
    """Posteriors of shape (N, F, S), streamed into a `.npy` file by block.

    The bytes equal `np.save` of the whole tensor, ".npy" appended to
    the path as np.save appends it.  Takes the blocks of the separation
    pass (`separator._run_block`) in any order, each written at its place,
    and counts the tiles each state wins, for `histogram`.  `close`
    checks every frame was put; `discard` removes the file.
    """

    dtype = np.dtype(np.float64)

    def __init__(self, path, shape: tuple, state_ids: list[str]):
        path = os.fspath(path)
        self.path = Path(path if path.endswith(".npy") else path + ".npy")
        self.shape, self.state_ids = tuple(shape), list(state_ids)
        self.wins = [0] * self.shape[2]  # the tiles each state won so far
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "wb")
        np.lib.format.write_array_header_1_0(self._fh, {
            "descr": np.lib.format.dtype_to_descr(self.dtype),
            "fortran_order": False, "shape": self.shape})
        self._fh.flush()
        self._offset = self._fh.tell()

    def put(self, n0: int, gamma, ws) -> None:
        """Write frames n0 onwards, gamma (b, F, S) C-contiguous, and count
        its winners through ws (`_kernels.Workspace`); allocates no
        array."""
        b, F, S = gamma.shape
        data = memoryview(gamma).cast("B")
        at, done = self._offset + n0 * F * S * self.dtype.itemsize, 0
        while done < len(data):
            done += os.pwrite(self._fh.fileno(), data[done:], at + done)
        winners, hits = ws.winners[:b], ws.mask[:b]
        np.argmax(gamma, axis=2, out=winners)
        for s in range(S):
            np.equal(winners, s, out=hits)
            won = np.count_nonzero(hits)
            with self._lock:
                self.wins[s] += won

    def histogram(self) -> str:
        """Text histogram of which state wins each tile put."""
        return _histogram(self.wins, self.state_ids)

    def close(self) -> None:
        """Close the file; ValueError unless every frame was put, each
        tile counted once."""
        self._fh.close()
        N, F, _ = self.shape
        if sum(self.wins) != N * F:
            raise ValueError(f"{self.path}: {sum(self.wins)} of {N * F} "
                             f"tiles of posteriors written")

    def discard(self) -> None:
        """Close and remove the file."""
        self._fh.close()
        self.path.unlink(missing_ok=True)


def _histogram(wins, state_ids, width: int = 50) -> str:
    """The histogram of tiles won per state, wins in state order."""
    n_tiles = sum(int(w) for w in wins)
    lines = []
    for sid, won in zip(state_ids, wins):
        share = float(won) / n_tiles
        bar = "#" * int(round(share * width))
        lines.append(f"{sid:>12s} |{bar:<{width}s}| {share * 100:5.1f}%")
    return "\n".join(lines) + "\n"
