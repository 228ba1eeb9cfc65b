"""Cepstral front-ends: constant-Q cepstral coefficients, linear-prediction
cepstral coefficients, and cepstral mean/variance normalization.  Features
are coefficients x frames matrices, like every front-end's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio_io import Waveform
from .spectral import (
    CqtConfig,
    FramingConfig,
    cqt_magnitude,
    floored_log_power,
    frame_signal,
    mvn_spectrum,
    resample_rows_linear,
)

ENERGY_FLOOR = 1e-20


@dataclass(frozen=True)
class CqccConfig:
    cqt: CqtConfig = field(default_factory=CqtConfig)
    resample_bins: int = 96
    n_coeffs: int = 30

    def __post_init__(self):
        if self.resample_bins < 2:
            raise ValueError("resample_bins must be >= 2")
        if not 1 <= self.n_coeffs <= self.resample_bins:
            raise ValueError("n_coeffs must lie in [1, resample_bins]")


@dataclass(frozen=True)
class LpccConfig:
    framing: FramingConfig = field(default_factory=FramingConfig)
    lpc_order: int = 26
    n_coeffs: int = 78

    def __post_init__(self):
        if self.lpc_order < 1:
            raise ValueError("lpc_order must be >= 1")
        if self.n_coeffs < 1:
            raise ValueError("n_coeffs must be >= 1")


_DCT_CACHE: dict[int, np.ndarray] = {}


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, rows are basis vectors."""
    if n not in _DCT_CACHE:
        k = np.arange(n)[:, None]
        m = np.arange(n)[None, :]
        basis = np.cos(np.pi * (2 * m + 1) * k / (2 * n))
        basis *= np.sqrt(2.0 / n)
        basis[0] *= np.sqrt(0.5)
        _DCT_CACHE[n] = basis
    return _DCT_CACHE[n]


def cqcc(wave: Waveform, cfg: CqccConfig) -> np.ndarray:
    """Constant-Q cepstral coefficients.

    Pipeline: constant-Q magnitudes -> floored log power -> linear resampling
    of the log spectrum onto a uniform frequency grid -> orthonormal DCT-II,
    keeping the first n_coeffs coefficients per frame.
    """
    mags, freqs = cqt_magnitude(wave, cfg.cqt)
    log_power = floored_log_power(mags, cfg.cqt.floor)
    resampled = resample_rows_linear(log_power, freqs, cfg.resample_bins)
    return dct_matrix(cfg.resample_bins)[: cfg.n_coeffs] @ resampled


def levinson_durbin(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the Toeplitz normal equations by Levinson-Durbin recursion.

    r has shape (..., order+1) holding autocorrelation lags 0..order.
    Returns (a, err, reflection): prediction polynomial coefficients
    a = [1, a_1, .., a_p] such that the predictor is -sum(a_k x[n-k]),
    final prediction error, and the reflection coefficients.
    Raises if any lag-0 value is non-positive or a reflection coefficient
    reaches magnitude 1 (unstable recursion).
    """
    r = np.asarray(r, dtype=np.float64)
    single = r.ndim == 1
    r = np.atleast_2d(r)
    order = r.shape[-1] - 1
    if order < 1:
        raise ValueError("need at least autocorrelation lags 0 and 1")
    if np.any(r[..., 0] <= 0):
        raise ValueError("lag-0 autocorrelation must be positive for every frame")

    n = r.shape[0]
    a = np.zeros((n, order + 1))
    a[:, 0] = 1.0
    err = r[:, 0].copy()
    reflection = np.zeros((n, order))
    for i in range(1, order + 1):
        acc = r[:, i] + np.einsum("fj,fj->f", a[:, 1:i], r[:, i - 1 : 0 : -1])
        k = -acc / err
        if np.any(np.abs(k) >= 1.0):
            bad = int(np.nonzero(np.abs(k) >= 1.0)[0][0])
            raise ValueError(
                f"unstable recursion at frame {bad}: |reflection coefficient| >= 1 "
                f"at order {i}"
            )
        reflection[:, i - 1] = k
        a[:, 1 : i + 1] = a[:, 1 : i + 1] + k[:, None] * a[:, i - 1 :: -1][:, : i]
        err *= 1.0 - k**2
    if single:
        return a[0], err[0], reflection[0]
    return a, err, reflection


def lpc_to_cepstrum(a: np.ndarray, err: np.ndarray, n_coeffs: int) -> np.ndarray:
    """Cepstrum of the all-pole model 1/A(z), extended to n_coeffs terms.

    c_0 is the log prediction-error energy; c_n for n >= 1 follows the
    standard recursion on the prediction coefficients.
    """
    a = np.asarray(a, dtype=np.float64)
    single = a.ndim == 1
    a = np.atleast_2d(a)
    order = a.shape[-1] - 1
    n = a.shape[0]
    c = np.zeros((n, n_coeffs))
    c[:, 0] = np.log(np.maximum(err, ENERGY_FLOOR))
    for m in range(1, n_coeffs):
        lo = max(1, m - order)
        # sum over k in [lo, m) of (k/m) c_k a_{m-k}, as one product
        acc = (c[:, lo:m] * a[:, m - lo : 0 : -1]) @ (np.arange(lo, m) / m)
        if m <= order:
            c[:, m] = -a[:, m] - acc
        else:
            c[:, m] = -acc
    return c[0] if single else c


def lpcc(wave: Waveform, cfg: LpccConfig) -> np.ndarray:
    """Linear-prediction cepstral coefficients, one column per analysis frame.

    Frames with (near) zero energy yield an all-zero cepstrum column.
    """
    frames = frame_signal(wave, cfg.framing.window_seconds, cfg.framing.hop_seconds,
                          cfg.framing.window)
    frame_len = frames.shape[1]
    if cfg.lpc_order >= frame_len:
        raise ValueError(
            f"lpc_order ({cfg.lpc_order}) must be smaller than the frame "
            f"length ({frame_len})"
        )

    # biased autocorrelation, only the lags 0..p the recursion needs
    autocorr = np.empty((frames.shape[0], cfg.lpc_order + 1))
    for k in range(cfg.lpc_order + 1):
        autocorr[:, k] = np.einsum("fn,fn->f", frames[:, k:], frames[:, : frame_len - k])
    autocorr /= frame_len

    values = np.zeros((frames.shape[0], cfg.n_coeffs))
    live = autocorr[:, 0] > ENERGY_FLOOR
    if np.any(live):
        r = autocorr[live]
        # slight diagonal loading keeps near-singular harmonic frames stable
        r[:, 0] *= 1.0 + 1e-9
        a, err, _ = levinson_durbin(r)
        values[live] = lpc_to_cepstrum(a, err, cfg.n_coeffs)
    return values.T


def cmvn(values: np.ndarray, epsilon: float = 1e-12) -> np.ndarray:
    """Per-coefficient zero mean / unit variance over the utterance."""
    return mvn_spectrum(values, epsilon)
