import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from replaycm import spectral
from replaycm.audio_io import Waveform
from replaycm.spectral import (
    DB4_HIGHPASS,
    DB4_LOWPASS,
    CqtConfig,
    DwtConfig,
    FftConfig,
    FramingConfig,
    cqt_log_power_spectrogram,
    cqt_magnitude,
    dwt_decompose,
    dwt_scalogram,
    fft_spectrogram,
    frame_signal,
    mvn_spectrum,
    sliding_windows,
    truncate_or_repeat,
)


def dwt_reconstruct(coeffs):
    """Inverse of dwt_decompose by periodized db4 synthesis (the analysis is
    orthogonal, so exact): each level scatters the approximation and detail
    coefficients back through the two filters."""
    approx = coeffs[0]
    for detail in coeffs[1:]:
        n = 2 * approx.size
        idx = (2 * np.arange(approx.size)[:, None] + np.arange(DB4_LOWPASS.size)[None, :]) % n
        x = np.zeros(n)
        np.add.at(x, idx, approx[:, None] * DB4_LOWPASS + detail[:, None] * DB4_HIGHPASS)
        approx = x
    return approx


def naive_dft_power(frame, n_fft):
    """O(n^2) DFT power oracle: direct complex-exponential summation."""
    bins = n_fft // 2 + 1
    out = np.empty(bins)
    for k in range(bins):
        acc = 0.0 + 0.0j
        for n, x in enumerate(frame):
            acc += x * np.exp(-2j * np.pi * k * n / n_fft)
        out[k] = abs(acc) ** 2
    return out


def naive_cqt_magnitude(x, sample_rate, cfg):
    """Direct per-bin windowed complex-exponential inner products."""
    freqs = cfg.bin_frequencies()
    q = cfg.q_factor
    centers = np.arange((len(x) - 1) // cfg.hop_length + 1) * cfg.hop_length
    mags = np.zeros((cfg.n_bins, centers.size))
    for k, f in enumerate(freqs):
        n_k = max(int(np.ceil(q * sample_rate / f)), 2)
        window = np.hanning(n_k)
        kernel = window * np.exp(2j * np.pi * f * np.arange(n_k) / sample_rate)
        kernel *= 2.0 / window.sum()
        for t, center in enumerate(centers):
            start = center - n_k // 2
            acc = 0.0 + 0.0j
            for j in range(n_k):
                idx = start + j
                if 0 <= idx < len(x):
                    acc += x[idx] * np.conj(kernel[j])
            mags[k, t] = abs(acc)
    return mags


def sliced_cqt_magnitude(x, sample_rate, cfg):
    """Per-bin, per-frame kernel inner products over the in-signal slice."""
    freqs = cfg.bin_frequencies()
    q = cfg.q_factor
    centers = np.arange((len(x) - 1) // cfg.hop_length + 1) * cfg.hop_length
    mags = np.zeros((cfg.n_bins, centers.size))
    for k, f in enumerate(freqs):
        n_k = max(int(np.ceil(q * sample_rate / f)), 2)
        window = np.hanning(n_k)
        kernel = window * np.exp(2j * np.pi * f * np.arange(n_k) / sample_rate)
        kernel *= 2.0 / window.sum()
        for t, center in enumerate(centers):
            start = center - n_k // 2
            lo = max(start, 0)
            hi = min(start + n_k, len(x))
            mags[k, t] = abs(x[lo:hi] @ np.conj(kernel[lo - start : hi - start]))
    return mags


def random_spectrogram(rng, bins=6, frames=20):
    return rng.standard_normal((bins, frames))


class TestFraming:
    def test_paper_style_window_sizes(self):
        wave = Waveform(np.zeros(32000), 16000)
        frames = frame_signal(wave, 0.128, 0.016)
        assert frames.shape[1] == 2048
        # hop of 0.016 s at 16 kHz is 256 samples
        assert frames.shape[0] == (32000 - 2048) // 256 + 1

    def test_constant_signal_rectangular_frames_identical(self):
        wave = Waveform(np.full(4000, 0.3), 8000)
        frames = frame_signal(wave, 0.05, 0.025, window="rectangular")
        assert np.all(frames == frames[0])

    def test_start_indices(self):
        wave = Waveform(np.arange(1000, dtype=float), 1000)
        frames = frame_signal(wave, 0.4, 0.2, window="rectangular")
        assert frames.shape == (4, 400)
        assert [f[0] for f in frames] == [0.0, 200.0, 400.0, 600.0]

    def test_too_short_raises(self):
        wave = Waveform(np.zeros(100), 1000)
        with pytest.raises(ValueError, match="shorter than one"):
            frame_signal(wave, 0.2, 0.1)

    def test_hann_window_applied(self):
        wave = Waveform(np.ones(400), 1000)
        frames = frame_signal(wave, 0.4, 0.4)
        assert np.allclose(frames[0], np.hanning(400))


class TestFftSpectrogram:
    def test_sine_at_bin_peaks_there(self):
        sr, n_fft = 8000, 512
        k = 37
        t = np.arange(sr) / sr
        wave = Waveform(0.5 * np.sin(2 * np.pi * (k * sr / n_fft) * t), sr)
        cfg = FftConfig(framing=FramingConfig(n_fft / sr, n_fft / sr, "rectangular"),
                        n_fft=n_fft)
        spec = fft_spectrogram(wave, cfg)
        assert np.all(np.argmax(spec, axis=0) == k)

    def test_zero_signal_hits_floor(self):
        wave = Waveform(np.zeros(4096), 16000)
        cfg = FftConfig(n_fft=2048)
        spec = fft_spectrogram(wave, cfg)
        assert np.all(spec == np.log(spectral.POWER_FLOOR))

    def test_matches_naive_dft_oracle(self, rng):
        x = rng.standard_normal(256)
        wave = Waveform(x, 256)
        cfg = FftConfig(framing=FramingConfig(1.0, 1.0, "rectangular"), n_fft=256)
        power = fft_spectrogram(wave, cfg, scale="power")[:, 0]
        oracle = naive_dft_power(x, 256)
        assert np.max(np.abs(power - oracle)) <= 1e-9 * oracle.max()

    def test_matches_naive_dft_oracle_all_frames(self, rng):
        x = rng.standard_normal(512)
        wave = Waveform(x, 1000)
        cfg = FftConfig(framing=FramingConfig(0.128, 0.064, "hann"), n_fft=128)
        spec = fft_spectrogram(wave, cfg, scale="power")
        frames = frame_signal(wave, 0.128, 0.064, "hann")
        assert spec.shape[1] == frames.shape[0]
        for t, frame in enumerate(frames):
            oracle = naive_dft_power(frame, 128)
            assert np.max(np.abs(spec[:, t] - oracle)) <= 1e-9 * oracle.max()

    def test_row_resampling_to_target_bins(self):
        wave = Waveform(np.random.default_rng(0).standard_normal(4096), 16000)
        cfg = FftConfig(n_fft=2048, target_bins=864)
        spec = fft_spectrogram(wave, cfg)
        assert spec.shape[0] == 864

    def test_n_fft_must_cover_frame(self):
        wave = Waveform(np.zeros(4096), 16000)
        cfg = FftConfig(framing=FramingConfig(0.128, 0.016), n_fft=1024)
        with pytest.raises(ValueError, match="n_fft"):
            fft_spectrogram(wave, cfg)


class TestCqt:
    def test_sine_at_bin_center_argmax(self):
        sr = 16000
        cfg = CqtConfig(f_min=500.0, bins_per_octave=12, n_bins=24, hop_length=256)
        k = 12
        f = cfg.bin_frequencies()[k]
        assert f == 1000.0
        t = np.arange(8000) / sr
        wave = Waveform(0.7 * np.sin(2 * np.pi * f * t), sr)
        spec = cqt_log_power_spectrogram(wave, cfg)
        # interior frames: the longest kernel fully inside the signal
        q_len = int(np.ceil(cfg.q_factor * sr / cfg.f_min))
        lo = q_len // 2 // cfg.hop_length + 1
        hi = (8000 - q_len // 2) // cfg.hop_length - 1
        assert np.all(np.argmax(spec[:, lo:hi], axis=0) == k)

    def test_zero_signal_hits_floor(self):
        cfg = CqtConfig(f_min=500.0, bins_per_octave=12, n_bins=24, hop_length=256)
        spec = cqt_log_power_spectrogram(Waveform(np.zeros(4000), 16000), cfg)
        assert np.all(spec == np.log(spectral.POWER_FLOOR))

    def test_chirp_matches_direct_oracle(self):
        sr = 16000
        t = np.arange(int(0.2 * sr)) / sr
        x = np.sin(2 * np.pi * (600 * t + 2000 * t**2))
        cfg = CqtConfig(f_min=500.0, bins_per_octave=12, n_bins=36, hop_length=256)
        mags, _ = cqt_magnitude(Waveform(x, sr), cfg)
        oracle = naive_cqt_magnitude(x, sr, cfg)
        assert np.max(np.abs(mags - oracle)) <= 1e-6 * oracle.max()

    @pytest.mark.parametrize("seconds", [1.2, 0.1])
    def test_workload_config_matches_sliced_oracle(self, seconds):
        # 7 octave groups; the longest kernel (4306 samples, 17 hops) is
        # longer than the 0.1 s signal, whose length is not a hop multiple.
        sr = 16000
        cfg = CqtConfig(f_min=62.5, bins_per_octave=12, n_bins=84, hop_length=256)
        assert int(np.ceil(cfg.q_factor * sr / cfg.f_min)) == 4306
        rng = np.random.default_rng(84)
        t = np.arange(int(seconds * sr)) / sr
        x = np.sin(2 * np.pi * 62.5 * seconds / np.log(100.0)
                   * 100.0 ** (t / seconds)) + 0.1 * rng.standard_normal(t.size)
        mags, _ = cqt_magnitude(Waveform(x, sr), cfg)
        oracle = sliced_cqt_magnitude(x, sr, cfg)
        assert mags.shape == (84, (t.size - 1) // 256 + 1)
        assert np.max(np.abs(mags - oracle)) <= 1e-6 * oracle.max()

    def test_nyquist_violation_names_bin(self):
        # 500 * 2^(48/12) = 8000 Hz: bin 48 is the first to reach Nyquist
        cfg = CqtConfig(f_min=500.0, bins_per_octave=12, n_bins=60, hop_length=256)
        with pytest.raises(ValueError, match="bin 48"):
            cqt_log_power_spectrogram(Waveform(np.zeros(4000), 16000), cfg)

    def test_default_config_exceeds_kernel_budget(self):
        # CqtConfig's own defaults (864 bins from 15.625 Hz) would cache
        # 413 MiB of kernel matrices, with an 8.8 s longest kernel
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"413\.2 MiB.*141312 samples"):
                cqt_magnitude(Waveform(np.zeros(4000), 16000), CqtConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_kernel_budget_counts_the_allocated_bytes(self, monkeypatch):
        cfg = CqtConfig(f_min=62.5, bins_per_octave=12, n_bins=84, hop_length=256)
        build = spectral._cqt_kernels.__wrapped__  # uncached, so the budget is read
        nbytes = sum(m.nbytes for m in build(cfg, 16000)[1])
        assert nbytes < 2 * 2**20
        monkeypatch.setattr(spectral, "CQT_KERNEL_BUDGET_BYTES", nbytes)
        build(cfg, 16000)
        monkeypatch.setattr(spectral, "CQT_KERNEL_BUDGET_BYTES", nbytes - 1)
        with pytest.raises(ValueError, match="4306 samples"):
            build(cfg, 16000)

    def test_geometric_bin_spacing(self):
        cfg = CqtConfig(f_min=15.625, bins_per_octave=96, n_bins=864)
        freqs = cfg.bin_frequencies()
        ratios = freqs[1:] / freqs[:-1]
        assert np.allclose(ratios, 2.0 ** (1.0 / 96.0), rtol=0, atol=1e-12)
        assert freqs.size == 864
        # nine octaves below 8 kHz
        assert np.isclose(freqs[0] * 2.0**9, 8000.0)


class TestDwt:
    def test_filters_are_orthonormal(self):
        assert np.isclose(DB4_LOWPASS.sum(), np.sqrt(2.0))
        assert np.isclose(DB4_LOWPASS @ DB4_LOWPASS, 1.0)
        assert np.isclose(DB4_LOWPASS @ DB4_HIGHPASS, 0.0)
        for shift in (2, 4, 6):
            assert np.isclose(DB4_LOWPASS[shift:] @ DB4_LOWPASS[:-shift], 0.0, atol=1e-12)

    def test_scaling_sequence_concentrates_in_approximation(self):
        x = np.zeros(64)
        x[: DB4_LOWPASS.size] = DB4_LOWPASS
        approx, detail = dwt_decompose(x, 1)
        assert np.sum(approx**2) > 0.999
        assert np.sum(detail**2) < 1e-20

    def test_zero_signal_hits_floor(self):
        cfg = DwtConfig(frame_len=256, hop_length=256, levels=4)
        spec = dwt_scalogram(Waveform(np.zeros(1024), 16000), cfg)
        assert np.all(spec == np.log(spectral.POWER_FLOOR))
        assert spec.shape[0] == 256

    def test_perfect_reconstruction(self, rng):
        x = rng.standard_normal(64)
        coeffs = dwt_decompose(x, 3)
        assert np.max(np.abs(dwt_reconstruct(coeffs) - x)) <= 1e-10

    @pytest.mark.parametrize("frame_len, hop_length, levels",
                             [(256, 256, 4), (64, 48, 3), (16, 8, 1)])
    def test_scalogram_matches_per_frame_loop(self, rng, frame_len, hop_length, levels):
        # the earlier implementation, kept as the oracle: one frame at a time
        cfg = DwtConfig(frame_len=frame_len, hop_length=hop_length, levels=levels)
        wave = Waveform(rng.standard_normal(1000), 16000)
        frames = frame_signal(wave, frame_len / 16000, hop_length / 16000,
                              window="rectangular")
        rows = [np.concatenate(dwt_decompose(frame, levels)) for frame in frames]
        oracle = np.log(np.maximum(np.stack(rows, axis=1) ** 2, spectral.POWER_FLOOR))
        spec = dwt_scalogram(wave, cfg)
        assert spec.shape == oracle.shape == (frame_len, len(frames))
        np.testing.assert_allclose(spec, oracle, rtol=0, atol=1e-9)

    def test_too_short_raises(self):
        cfg = DwtConfig(frame_len=256, hop_length=256, levels=4)
        with pytest.raises(ValueError, match="8 samples is shorter than one 256-sample"):
            dwt_scalogram(Waveform(np.zeros(8), 16000), cfg)


class TestMvn:
    def test_idempotent(self, rng):
        spec = random_spectrogram(rng)
        once = mvn_spectrum(spec)
        twice = mvn_spectrum(once)
        assert np.max(np.abs(twice - once)) <= 1e-12

    def test_constant_row_becomes_zero(self):
        values = np.vstack([np.full(50, 3.7), np.random.default_rng(1).standard_normal(50)])
        out = mvn_spectrum(values)
        assert np.all(out[0] == 0.0)

    def test_moments_recomputed(self, rng):
        spec = random_spectrogram(rng, bins=5, frames=100)
        out = mvn_spectrum(spec)
        assert np.max(np.abs(out.mean(axis=1))) < 1e-10
        assert np.max(np.abs(out.var(axis=1) - 1.0)) < 1e-10

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError, match="at least 2 frames"):
            mvn_spectrum(np.ones((3, 1)))


class TestUnifiers:
    def test_truncate_identity(self, rng):
        spec = random_spectrogram(rng, bins=4, frames=400)
        out = truncate_or_repeat(spec, 400)
        assert np.array_equal(out, spec)

    def test_repeat_pattern(self, rng):
        spec = random_spectrogram(rng, bins=3, frames=150)
        out = truncate_or_repeat(spec, 400)
        expected = np.concatenate(
            [spec, spec, spec[:, :100]], axis=1
        )
        assert np.array_equal(out, expected)

    def test_unified_shape_864x400(self, rng):
        spec = rng.standard_normal((864, 137))
        out = truncate_or_repeat(spec, 400)
        assert out.shape == (864, 400)

    def test_sliding_start_enumeration(self, rng):
        spec = random_spectrogram(rng, bins=4, frames=400)
        windows = sliding_windows(spec, 200, 0.9)
        assert len(windows) == 11  # starts 0, 20, ..., 200
        for i, win in enumerate(windows):
            assert np.array_equal(win, spec[:, i * 20 : i * 20 + 200])

    def test_single_window_identity(self, rng):
        spec = random_spectrogram(rng, bins=4, frames=200)
        windows = sliding_windows(spec, 200, 0.9)
        assert len(windows) == 1
        assert np.array_equal(windows[0], spec)

    def test_unified_window_shape_864x200(self, rng):
        spec = rng.standard_normal((864, 400))
        windows = sliding_windows(spec, 200, 0.9)
        assert all(w.shape == (864, 200) for w in windows)

    def test_end_anchored_tail_window(self, rng):
        spec = random_spectrogram(rng, bins=2, frames=130)
        windows = sliding_windows(spec, 100, 0.5)  # hop 50; starts 0, then tail at 30
        assert len(windows) == 2
        assert np.array_equal(windows[-1], spec[:, 30:130])

    def test_short_input_repeat_extended(self, rng):
        spec = random_spectrogram(rng, bins=2, frames=60)
        windows = sliding_windows(spec, 100, 0.0)
        assert len(windows) == 1
        expected = np.concatenate([spec, spec[:, :40]], axis=1)
        assert np.array_equal(windows[0], expected)

    def test_stitching_reproduces_source(self, rng):
        spec = random_spectrogram(rng, bins=3, frames=237)
        window, overlap = 64, 0.75
        windows = sliding_windows(spec, window, overlap)
        hop = max(1, round(window * (1 - overlap)))
        starts = list(range(0, spec.shape[1] - window + 1, hop))
        if starts[-1] != spec.shape[1] - window:
            starts.append(spec.shape[1] - window)
        rebuilt = np.full_like(spec, np.nan)
        for start, win in zip(starts, windows):
            rebuilt[:, start : start + window] = win
        covered = ~np.isnan(rebuilt[0])
        assert np.array_equal(rebuilt[:, covered], spec[:, covered])


@settings(max_examples=40, deadline=None)
@given(
    bins=st.integers(1, 8),
    frames=st.integers(1, 50),
    target=st.integers(1, 120),
)
def test_truncate_or_repeat_shape_contract(bins, frames, target):
    rng = np.random.default_rng(0)
    spec = rng.standard_normal((bins, frames))
    out = truncate_or_repeat(spec, target)
    assert out.shape == (bins, target)


@settings(max_examples=25, deadline=None)
@given(frames=st.integers(2, 80))
def test_mvn_idempotence_property(frames):
    rng = np.random.default_rng(frames)
    spec = rng.standard_normal((4, frames))
    once = mvn_spectrum(spec)
    twice = mvn_spectrum(once)
    assert np.max(np.abs(twice - once)) <= 1e-12
