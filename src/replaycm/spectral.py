"""Time-frequency analysis: framing, FFT / constant-Q / wavelet spectrograms,
mean-variance normalization, and the fixed-shape unifiers
(truncation-with-repeat and sliding windows) used to feed fixed-size inputs.

Every front-end returns a float64 matrix with one row per bin or coefficient
and one column per frame.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .audio_io import Waveform

POWER_FLOOR = 1e-10
MVN_VARIANCE_FLOOR = 1e-12  # a row whose variance is below it normalizes to zero
# Largest total size of one configuration's cached CQT kernel matrices; the
# workloads' 84-bin configuration needs 1.6 MiB
CQT_KERNEL_BUDGET_BYTES = 64 << 20
FFT_BLOCK = 16  # frames per FFT block: bounds what a spectrogram holds beyond its output


@dataclass(frozen=True)
class FramingConfig:
    window_seconds: float = 0.128
    hop_seconds: float = 0.016
    window: str = "hann"

    def __post_init__(self):
        if self.window_seconds <= 0 or self.hop_seconds <= 0:
            raise ValueError("window and hop durations must be positive")
        if self.window not in ("hann", "rectangular"):
            raise ValueError(f"unsupported window {self.window!r}")


@dataclass(frozen=True)
class FftConfig:
    framing: FramingConfig = field(default_factory=FramingConfig)
    n_fft: int = 2048
    # Optional linear row resampling, e.g. to the 864-row layout.
    target_bins: int | None = None

    def __post_init__(self):
        if self.n_fft < 2 or self.n_fft & (self.n_fft - 1):
            raise ValueError(f"n_fft must be a power of two >= 2, got {self.n_fft}")
        if self.target_bins is not None and self.target_bins < 2:
            raise ValueError("target_bins must be >= 2")


@dataclass(frozen=True)
class CqtConfig:
    f_min: float = 15.625
    bins_per_octave: int = 96
    n_bins: int = 864
    hop_length: int = 256

    def __post_init__(self):
        if self.f_min <= 0:
            raise ValueError("f_min must be positive")
        if self.bins_per_octave < 1 or self.n_bins < 1 or self.hop_length < 1:
            raise ValueError("bins_per_octave, n_bins and hop_length must be >= 1")

    @property
    def q_factor(self) -> float:
        return 1.0 / (2.0 ** (1.0 / self.bins_per_octave) - 1.0)

    def bin_frequencies(self) -> np.ndarray:
        k = np.arange(self.n_bins)
        return self.f_min * 2.0 ** (k / self.bins_per_octave)


def frame_lengths(window_seconds: float, hop_seconds: float,
                  sample_rate: int) -> tuple[int, int]:
    """The frame and hop lengths in samples of a framing at ``sample_rate``;
    a window under 2 samples or a hop under 1 is refused."""
    frame_len = int(round(window_seconds * sample_rate))
    hop_len = int(round(hop_seconds * sample_rate))
    if frame_len < 2:
        raise ValueError("window must span at least 2 samples")
    if hop_len < 1:
        raise ValueError("hop must span at least 1 sample")
    return frame_len, hop_len


def _framing(wave: Waveform, window_seconds: float, hop_seconds: float,
             window: str) -> tuple[np.ndarray, np.ndarray | None]:
    """The checked framing of a waveform: the strided (n_frames, frame_len)
    view of its samples, and the taper each frame is multiplied by (None for
    the rectangular window)."""
    frame_len, hop_len = frame_lengths(window_seconds, hop_seconds, wave.sample_rate)
    if window not in ("hann", "rectangular"):
        raise ValueError(f"unsupported window {window!r}")
    x = wave.samples
    if x.size < frame_len:
        raise ValueError(
            f"utterance of {x.size} samples is shorter than one "
            f"{frame_len}-sample analysis window"
        )
    n_frames = (x.size - frame_len) // hop_len + 1
    frames = np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop_len]
    return frames[:n_frames], np.hanning(frame_len) if window == "hann" else None


def _windowed(frames: np.ndarray, taper: np.ndarray | None) -> np.ndarray:
    """A float64 copy of strided frames, each multiplied by ``taper``."""
    frames = np.array(frames, dtype=np.float64)
    if taper is not None:
        frames *= taper
    return frames


def frame_signal(wave: Waveform, window_seconds: float, hop_seconds: float,
                 window: str = "hann") -> np.ndarray:
    """Slice a waveform into windowed frames, shape (n_frames, frame_len)."""
    return _windowed(*_framing(wave, window_seconds, hop_seconds, window))


def _row_resampler(src_positions: np.ndarray,
                   n_out: int) -> Callable[[np.ndarray], np.ndarray]:
    """A function that linearly interpolates matrix rows, one per source
    position, onto n_out uniformly spaced positions."""
    src = np.asarray(src_positions, dtype=np.float64)
    new = np.linspace(src[0], src[-1], n_out)
    idx = np.clip(np.searchsorted(src, new, side="right") - 1, 0, src.size - 2)
    w = ((new - src[idx]) / (src[idx + 1] - src[idx]))[:, None]
    return lambda values: values[idx] * (1.0 - w) + values[idx + 1] * w


def resample_rows_linear(values: np.ndarray, src_positions: np.ndarray,
                         n_out: int) -> np.ndarray:
    """Linearly interpolate matrix rows onto n_out uniformly spaced positions."""
    return _row_resampler(src_positions, n_out)(values)


def check_n_fft(cfg: FftConfig, sample_rate: int) -> None:
    """Refuse an n_fft below the frame length at ``sample_rate``."""
    frame_len, _ = frame_lengths(cfg.framing.window_seconds, cfg.framing.hop_seconds,
                                 sample_rate)
    if cfg.n_fft < frame_len:
        raise ValueError(f"n_fft ({cfg.n_fft}) must be >= frame length ({frame_len})")


def fft_spectrogram(wave: Waveform, cfg: FftConfig, scale: str = "log-power") -> np.ndarray:
    """FFT spectrogram in the requested scale (magnitude, power or log-power).

    Frames are windowed, transformed, scaled and resampled FFT_BLOCK at a
    time into the output, so at most one block is held beyond it.
    """
    if scale not in ("magnitude", "power", "log-power"):
        raise ValueError(f"unsupported fft scale {scale!r}")
    frames, taper = _framing(wave, cfg.framing.window_seconds, cfg.framing.hop_seconds,
                             cfg.framing.window)
    check_n_fft(cfg, wave.sample_rate)
    n_frames = len(frames)
    n_bins = cfg.n_fft // 2 + 1
    if cfg.target_bins is None:
        resample = None
        # frame-major memory, the layout of a transposed spectrum: mvn_spectrum's
        # row sums round differently over the other layout
        out = np.empty((n_frames, n_bins)).T
    else:
        freqs = np.arange(n_bins) * wave.sample_rate / cfg.n_fft
        resample = _row_resampler(freqs, cfg.target_bins)
        out = np.empty((cfg.target_bins, n_frames))

    for start in range(0, n_frames, FFT_BLOCK):
        block = slice(start, start + FFT_BLOCK)
        values = np.abs(np.fft.rfft(_windowed(frames[block], taper), n=cfg.n_fft))
        if scale == "power":
            values **= 2
        elif scale == "log-power":
            values = floored_log_power(values)
        out[:, block] = values.T if resample is None else resample(values.T)
    return out


def cqt_kernel_layout(cfg: CqtConfig, sample_rate: int
                      ) -> tuple[list[int], list[range], list[int]]:
    """Per-bin kernel lengths, octave groups of bins and each group's longest
    kernel for ``cfg`` at ``sample_rate``.

    Allocates no kernel.  Raises ValueError if a bin reaches the Nyquist
    frequency or the kernel matrices would exceed CQT_KERNEL_BUDGET_BYTES.
    """
    freqs = cfg.bin_frequencies()
    nyquist = sample_rate / 2.0
    over = np.nonzero(freqs >= nyquist)[0]
    if over.size:
        k = int(over[0])
        raise ValueError(
            f"CQT bin {k} center frequency {freqs[k]:.2f} Hz reaches the "
            f"Nyquist frequency {nyquist:.2f} Hz"
        )
    q = cfg.q_factor
    lengths = [max(int(np.ceil(q * sample_rate / f)), 2) for f in freqs]
    groups = [range(lo, min(lo + cfg.bins_per_octave, cfg.n_bins))
              for lo in range(0, cfg.n_bins, cfg.bins_per_octave)]
    longest = [max(lengths[k] for k in group) for group in groups]
    nbytes = sum(rows * 2 * len(group) * 8 for rows, group in zip(longest, groups))
    if nbytes > CQT_KERNEL_BUDGET_BYTES:
        raise ValueError(
            f"CQT kernel matrices would take {nbytes / 2**20:.1f} MiB, over the "
            f"{CQT_KERNEL_BUDGET_BYTES / 2**20:.0f} MiB budget; the longest kernel "
            f"is {max(lengths)} samples ({max(lengths) / sample_rate:.2f} s); "
            "raise f_min or lower bins_per_octave"
        )
    return lengths, groups, longest


@functools.cache
def _cqt_kernels(cfg: CqtConfig, sample_rate: int) -> tuple[int, list[np.ndarray]]:
    """The longest kernel length and the conjugate CQT kernels grouped by
    octave into real correlation matrices, built once per configuration.

    Group g covers bins [g * bins_per_octave, (g + 1) * bins_per_octave).  Its
    matrix has shape (L, 2 * m) for m bins, L being the group's longest kernel:
    column j holds the real part of bin j's conjugate kernel and column m + j
    its imaginary part, both starting at row L // 2 - n_k // 2 so that every
    kernel in the group is centred on the same frame centre.
    """
    lengths, groups, longest = cqt_kernel_layout(cfg, sample_rate)
    freqs = cfg.bin_frequencies()
    matrices = []
    for group, rows in zip(groups, longest):
        matrix = np.zeros((rows, 2 * len(group)))
        for j, k in enumerate(group):
            n_k = lengths[k]
            window = np.hanning(n_k)
            phase = np.exp(2j * np.pi * freqs[k] * np.arange(n_k) / sample_rate)
            kernel = np.conj(window * phase * (2.0 / window.sum()))
            offset = rows // 2 - n_k // 2
            matrix[offset : offset + n_k, j] = kernel.real
            matrix[offset : offset + n_k, len(group) + j] = kernel.imag
        matrices.append(matrix)
    return max(lengths), matrices


def cqt_magnitude(wave: Waveform, cfg: CqtConfig) -> tuple[np.ndarray, np.ndarray]:
    """Constant-Q magnitudes, shape (n_bins, n_frames), and bin frequencies.

    Each bin is the linear correlation of the signal with that bin's kernel,
    evaluated at frame centers 0, hop, 2*hop, ... with zero padding beyond the
    signal edges.  Computed directly at the frame centers only: the signal is
    zero-padded by the longest kernel on each side, and each octave group of
    bins is one matrix product of the strided frame windows with the group's
    kernel matrix (Brown & Puckette 1992).
    """
    pad, matrices = _cqt_kernels(cfg, wave.sample_rate)
    n = wave.samples.size
    n_frames = (n - 1) // cfg.hop_length + 1
    padded = np.pad(wave.samples, pad)

    mags = []
    for matrix in matrices:
        length, m = matrix.shape[0], matrix.shape[1] // 2
        windows = np.lib.stride_tricks.sliding_window_view(padded, length)
        corr = windows[pad - length // 2 :: cfg.hop_length][:n_frames] @ matrix
        mags.append(np.hypot(corr[:, :m], corr[:, m:]).T)
    return np.concatenate(mags), cfg.bin_frequencies()


def floored_log_power(magnitudes: np.ndarray) -> np.ndarray:
    """Log of squared magnitudes floored at POWER_FLOOR."""
    return np.log(np.maximum(magnitudes**2, POWER_FLOOR))


def cqt_log_power_spectrogram(wave: Waveform, cfg: CqtConfig) -> np.ndarray:
    """Constant-Q spectrogram: log of floored squared kernel magnitudes."""
    mags, _ = cqt_magnitude(wave, cfg)
    return floored_log_power(mags)


# 8-tap Daubechies (db4) scaling filter, natural order.
DB4_LOWPASS = np.array(
    [
        0.23037781330885523,
        0.7148465705525415,
        0.6308807679295904,
        -0.02798376941698385,
        -0.18703481171888114,
        0.030841381835986965,
        0.032883011666982945,
        -0.010597401784997278,
    ]
)
DB4_HIGHPASS = DB4_LOWPASS[::-1].copy()
DB4_HIGHPASS[1::2] *= -1.0


@dataclass(frozen=True)
class DwtConfig:
    frame_len: int = 256
    hop_length: int = 256
    levels: int = 4

    def __post_init__(self):
        if self.frame_len < 2 or self.hop_length < 1:
            raise ValueError("frame_len must be >= 2 and hop_length >= 1")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.frame_len % (1 << self.levels):
            raise ValueError(
                f"frame_len {self.frame_len} must be divisible by 2^levels "
                f"({1 << self.levels})"
            )


def _dwt_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One periodized db4 analysis step along the last axis."""
    n = x.shape[-1]
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(DB4_LOWPASS.size)[None, :]) % n
    windows = x[..., idx]
    return windows @ DB4_LOWPASS, windows @ DB4_HIGHPASS


def dwt_decompose(x: np.ndarray, levels: int) -> list[np.ndarray]:
    """Periodized multi-level db4 analysis of the last axis (one signal, or
    one per row): [a_L, d_L, d_{L-1}, ..., d_1]."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if n < (1 << levels) or n % (1 << levels):
        raise ValueError(
            f"signal of {n} samples is too short (or not divisible) "
            f"for a depth-{levels} decomposition"
        )
    details = []
    approx = x
    for _ in range(levels):
        approx, detail = _dwt_step(approx)
        details.append(detail)
    return [approx] + details[::-1]


def dwt_scalogram(wave: Waveform, cfg: DwtConfig) -> np.ndarray:
    """Per-frame db4 subband log-energies, one row per wavelet coefficient.

    Rows run low to high frequency: the depth-L approximation coefficients,
    then details d_L .. d_1.  All frames are decomposed in one pass.
    """
    frames = frame_signal(
        wave,
        cfg.frame_len / wave.sample_rate,
        cfg.hop_length / wave.sample_rate,
        window="rectangular",
    )
    coeffs = np.concatenate(dwt_decompose(frames, cfg.levels), axis=1)
    return floored_log_power(coeffs.T)


def mvn_spectrum(values: np.ndarray) -> np.ndarray:
    """Normalize each row to zero mean / unit variance over time (columns)."""
    if values.shape[1] < 2:
        raise ValueError("mean-variance normalization needs at least 2 frames")
    mean = values.mean(axis=1, keepdims=True)
    var = values.var(axis=1, keepdims=True)
    out = (values - mean) / np.sqrt(np.maximum(var, MVN_VARIANCE_FLOOR))
    return np.where(var < MVN_VARIANCE_FLOOR, 0.0, out)


def _tile_columns(values: np.ndarray, target: int) -> np.ndarray:
    n = values.shape[1]
    if n >= target:
        return values[:, :target].copy()
    reps = -(-target // n)
    return np.tile(values, (1, reps))[:, :target]


def truncate_or_repeat(values: np.ndarray, target_frames: int) -> np.ndarray:
    """Fix the time axis to target_frames: truncate, or cyclically repeat."""
    if target_frames < 1:
        raise ValueError("target_frames must be >= 1")
    return _tile_columns(values, target_frames)


def sliding_windows(values: np.ndarray, window_frames: int,
                    overlap_fraction: float) -> list[np.ndarray]:
    """Fixed-size windows with the given overlap along the time axis.

    Hop is max(1, round(window * (1 - overlap))).  Windows start at
    0, hop, 2*hop, ...; if the last full step leaves a remainder, one extra
    window anchored at the end is emitted.  Inputs shorter than one window
    are repeat-extended first.
    """
    if window_frames < 1:
        raise ValueError("window_frames must be >= 1")
    if not 0.0 <= overlap_fraction < 1.0:
        raise ValueError("overlap_fraction must lie in [0, 1)")
    if values.shape[1] < window_frames:
        values = _tile_columns(values, window_frames)
    hop = max(1, round(window_frames * (1.0 - overlap_fraction)))
    last = values.shape[1] - window_frames
    starts = list(range(0, last + 1, hop))
    if starts[-1] != last:
        starts.append(last)
    return [values[:, s : s + window_frames].copy() for s in starts]
