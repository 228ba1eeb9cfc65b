"""Empirical mode decomposition (first mode only), its ensemble variant, and
the spectrogram-difference feature built from them.

Sifting uses natural cubic-spline envelopes through the local extrema, with
up to two extrema mirrored past each signal edge to damp end swings, and a
Cauchy-type stop criterion on successive sift iterates.  The spline's
second derivatives solve a tridiagonal system by cyclic reduction (Hockney
1965; Buzbee, Golub & Nielson 1970), and each interval's cubic is evaluated
by Horner's rule.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .audio_io import Waveform
from .spectral import FftConfig, fft_spectrogram


@dataclass(frozen=True)
class SiftConfig:
    max_sift_iters: int = 10
    sd_threshold: float = 0.2

    def __post_init__(self):
        if self.max_sift_iters < 1:
            raise ValueError("max_sift_iters must be >= 1")
        if self.sd_threshold <= 0:
            raise ValueError("sd_threshold must be positive")


@dataclass(frozen=True)
class DeemdParams:
    fft: FftConfig
    ensemble_size: int = 50
    noise_strength_factor: float = 0.1
    sift: SiftConfig = field(default_factory=SiftConfig)

    def __post_init__(self):
        if self.ensemble_size < 1:
            raise ValueError("deemd ensemble_size must be >= 1")
        if self.noise_strength_factor < 0:
            raise ValueError("deemd noise_strength_factor must be >= 0")


def local_extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of strict local maxima and minima."""
    interior = x[1:-1]
    left = x[:-2]
    right = x[2:]
    maxima = np.nonzero((interior > left) & (interior > right))[0] + 1
    minima = np.nonzero((interior < left) & (interior < right))[0] + 1
    return maxima, minima


def _solve_tridiagonal(a, b, c, d):
    """Solve a_i x_{i-1} + b_i x_i + c_i x_{i+1} = d_i by cyclic reduction.

    The system has 2^k - 1 rows, a[0] = c[-1] = 0, and is diagonally dominant.
    Each level folds the even-indexed rows into their odd neighbours, leaving
    a system of half the size in the odd unknowns; back substitution then
    recovers the even unknowns level by level.
    """
    levels = []
    while b.size > 1:
        levels.append((a, b, c, d))
        alpha = -a[1::2] / b[:-1:2]
        gamma = -c[1::2] / b[2::2]
        a, b, c, d = (alpha * a[:-1:2],
                      b[1::2] + alpha * c[:-1:2] + gamma * a[2::2],
                      gamma * c[2::2],
                      d[1::2] + alpha * d[:-1:2] + gamma * d[2::2])
    x = d / b
    for a, b, c, d in reversed(levels):
        full = np.zeros(b.size + 2)  # zero neighbours past both ends
        full[2:-1:2] = x
        full[1::2] = (d[::2] - a[::2] * full[:-2:2] - c[::2] * full[2::2]) / b[::2]
        x = full[1:-1]
    return x


def _natural_spline(t: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Natural cubic spline through knots (t, v), evaluated at arange(n).

    Knots are strictly increasing whole numbers (sample positions); points
    outside them use the end cubics, as scipy's CubicSpline extrapolates.
    """
    m = t.size
    h = np.diff(t)
    slope = np.diff(v) / h
    second = np.zeros(m)  # second derivatives, zero at the outer knots
    if m > 2:
        rows = m - 2
        size = (1 << rows.bit_length()) - 1  # identity rows pad to 2^k - 1
        a = np.zeros(size)
        b = np.ones(size)
        c = np.zeros(size)
        d = np.zeros(size)
        a[1:rows] = h[1:-1]
        b[:rows] = 2.0 * (h[:-1] + h[1:])
        c[: rows - 1] = h[1:-1]
        d[:rows] = 6.0 * np.diff(slope)
        second[1:-1] = _solve_tridiagonal(a, b, c, d)[:rows]
    c1 = slope - h * (2.0 * second[:-1] + second[1:]) / 6.0
    c2 = 0.5 * second[:-1]
    c3 = np.diff(second) / (6.0 * h)

    edges = np.clip(np.ceil(t), 0, n).astype(np.intp)
    edges[0], edges[-1] = 0, n
    interval = np.repeat(np.arange(m - 1), np.diff(edges))
    dx = np.arange(n) - t[interval]
    return ((c3[interval] * dx + c2[interval]) * dx + c1[interval]) * dx + v[interval]


def _envelope(idx: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Natural cubic spline through (idx, values), extrema mirrored at edges."""
    t = idx.astype(np.float64)
    v = values
    k = min(2, t.size)

    left_t = -t[:k][::-1]
    left_v = v[:k][::-1]
    keep = left_t < t[0]
    left_t, left_v = left_t[keep], left_v[keep]

    right_t = 2.0 * (n - 1) - t[-k:][::-1]
    right_v = v[-k:][::-1]
    keep = right_t > t[-1]
    right_t, right_v = right_t[keep], right_v[keep]

    knots_t = np.concatenate([left_t, t, right_t])
    knots_v = np.concatenate([left_v, v, right_v])
    return _natural_spline(knots_t, knots_v, n)


def emd_first_imf(x: np.ndarray, sift: SiftConfig = SiftConfig()) -> np.ndarray:
    """First empirical mode of the finite 1-D samples ``x``, by iterative
    sifting (unchecked: ``eemd_first_imf`` checks its input once).

    A signal with fewer than two maxima or two minima is treated as its own
    residue, so its first mode is zero.
    """
    n = x.size
    maxima, minima = local_extrema(x)
    if maxima.size < 2 or minima.size < 2:
        return np.zeros(n)

    h = x  # not returned as is: the first sift always replaces it
    for sift_iter in range(sift.max_sift_iters):
        if sift_iter:  # the first sift uses the extrema of x found above
            maxima, minima = local_extrema(h)
            if maxima.size < 2 or minima.size < 2:
                break
        upper = _envelope(maxima, h[maxima], n)
        lower = _envelope(minima, h[minima], n)
        mean_env = 0.5 * (upper + lower)
        h_next = h - mean_env
        # einsum, not np.dot: BLAS would run these sums on its own threads
        denom = float(np.einsum("i,i->", h, h))
        sd = float(np.einsum("i,i->", mean_env, mean_env)) / denom if denom > 0 else 0.0
        h = h_next
        if sd < sift.sd_threshold:
            break
    return h


def eemd_first_imf(x: np.ndarray, params: DeemdParams, seed: int = 0) -> np.ndarray:
    """Ensemble-averaged first mode of the 1-D samples ``x``.

    Each of the ``params.ensemble_size`` members sifts the signal plus
    independent white Gaussian noise with standard deviation
    ``params.noise_strength_factor`` * std(signal).  Members use seeds spawned
    deterministically from `seed` and are summed in member order, each as
    soon as every earlier one has arrived, so the result is reproducible.
    Members are sifted on the workers of the enclosing ``parallel.workers()``
    scope, if any, and the result is the same bytes either way.
    """
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError("EEMD needs a 1-D array of finite samples")
    noise_std = params.noise_strength_factor * float(np.std(x))
    children = np.random.SeedSequence(seed).spawn(params.ensemble_size)
    member = functools.partial(_sift_member, x, noise_std, params.sift)
    total = np.zeros(x.size)
    waiting = {}  # modes that arrived before an earlier member's
    summed = 0
    for index, mode in parallel.imap(member, children):
        waiting[index] = mode
        while summed in waiting:
            total += waiting.pop(summed)
            summed += 1
    total /= params.ensemble_size
    return total


def _sift_member(x: np.ndarray, noise_std: float, sift: SiftConfig,
                 seed: np.random.SeedSequence) -> np.ndarray:
    """One ensemble member: the first mode of ``x`` plus white Gaussian
    noise of standard deviation ``noise_std`` drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return emd_first_imf(x + rng.standard_normal(x.size) * noise_std, sift)


def delta_eemd_spectrogram(wave: Waveform, params: DeemdParams, seed: int = 0) -> np.ndarray:
    """Element-wise |S_original - S_first_mode| on magnitude spectrograms.

    Both spectrograms use ``params.fft``; the difference is taken on linear
    magnitudes so it is well defined and non-negative.  ``seed`` seeds the
    ensemble noise.
    """
    original = fft_spectrogram(wave, params.fft, scale="magnitude")
    mode = eemd_first_imf(wave.samples, params, seed)
    original -= fft_spectrogram(Waveform(mode, wave.sample_rate), params.fft,
                                scale="magnitude")
    return np.abs(original, out=original)
