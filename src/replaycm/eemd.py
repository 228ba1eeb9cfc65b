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

from dataclasses import dataclass

import numpy as np

from .audio_io import Waveform
from .spectral import FftConfig, Spectrogram, fft_spectrogram


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
class Imf:
    """First intrinsic mode function; degenerate marks the too-few-extrema case."""

    samples: np.ndarray
    sample_rate: int
    degenerate: bool = False

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if not np.all(np.isfinite(samples)):
            raise ValueError("IMF samples must be finite")
        samples = samples.copy()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


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


def emd_first_imf(signal: Waveform, sift: SiftConfig = SiftConfig()) -> Imf:
    """Extract the first empirical mode by iterative sifting.

    A signal with fewer than two maxima or two minima is treated as its own
    residue; the returned IMF is zero and flagged degenerate.
    """
    x = signal.samples
    n = x.size
    maxima, minima = local_extrema(x)
    if maxima.size < 2 or minima.size < 2:
        return Imf(np.zeros(n), signal.sample_rate, degenerate=True)

    h = x.copy()
    for _ in range(sift.max_sift_iters):
        maxima, minima = local_extrema(h)
        if maxima.size < 2 or minima.size < 2:
            break
        upper = _envelope(maxima, h[maxima], n)
        lower = _envelope(minima, h[minima], n)
        mean_env = 0.5 * (upper + lower)
        h_next = h - mean_env
        denom = float(np.dot(h, h))
        sd = float(np.dot(mean_env, mean_env)) / denom if denom > 0 else 0.0
        h = h_next
        if sd < sift.sd_threshold:
            break
    return Imf(h, signal.sample_rate)


def eemd_first_imf(
    signal: Waveform,
    ensemble_size: int = 50,
    noise_strength_factor: float = 0.1,
    seed: int = 0,
    sift: SiftConfig = SiftConfig(),
) -> Imf:
    """Ensemble-averaged first mode.

    Each ensemble member sifts the signal plus independent white Gaussian
    noise with standard deviation noise_strength_factor * std(signal).
    Members use seeds spawned deterministically from `seed` and are averaged
    in a fixed order, so the result is reproducible.
    """
    if ensemble_size < 1:
        raise ValueError("ensemble_size must be >= 1")
    if noise_strength_factor < 0:
        raise ValueError("noise_strength_factor must be non-negative")
    x = signal.samples
    noise_std = noise_strength_factor * float(np.std(x))
    children = np.random.SeedSequence(seed).spawn(ensemble_size)

    total = np.zeros(x.size)
    all_degenerate = True
    for child in children:
        rng = np.random.default_rng(child)
        noisy = x + rng.standard_normal(x.size) * noise_std
        member = emd_first_imf(Waveform(noisy, signal.sample_rate), sift)
        total += member.samples
        all_degenerate &= member.degenerate
    return Imf(total / ensemble_size, signal.sample_rate, degenerate=all_degenerate)


def delta_eemd_spectrogram(
    wave: Waveform,
    fft_cfg: FftConfig,
    ensemble_size: int = 50,
    noise_strength_factor: float = 0.1,
    seed: int = 0,
    sift: SiftConfig = SiftConfig(),
    log_output: bool = False,
) -> Spectrogram:
    """Element-wise |S_original - S_first_mode| on magnitude spectrograms.

    Both spectrograms use the same FFT configuration; the difference is taken
    on linear magnitudes so it is well defined and non-negative.  With
    log_output the floored log of the magnitude difference is returned.
    """
    original = fft_spectrogram(wave, fft_cfg, scale="magnitude")
    mode = eemd_first_imf(wave, ensemble_size, noise_strength_factor, seed, sift)
    mode_spec = fft_spectrogram(Waveform(mode.samples, wave.sample_rate), fft_cfg,
                                scale="magnitude")
    values = np.abs(original.values - mode_spec.values)
    if log_output:
        values = np.log(np.maximum(values, np.sqrt(fft_cfg.floor)))
        scale = "log-magnitude"
    else:
        scale = "magnitude"
    return Spectrogram(values, original.bin_frequencies, original.hop_seconds, scale)
