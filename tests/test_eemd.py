import os
import time

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from replaycm import eemd, parallel
from replaycm.audio_io import Waveform
from replaycm.eemd import (
    DeemdParams,
    SiftConfig,
    _envelope,
    _natural_spline,
    delta_eemd_spectrogram,
    eemd_first_imf,
    emd_first_imf,
    local_extrema,
)
from replaycm.spectral import FftConfig, FramingConfig

SR = 16000
FFT_CFG = FftConfig(framing=FramingConfig(0.032, 0.016), n_fft=512)
# one noise-free member: the plain EMD of the signal
CLEAN_EMD = DeemdParams(FFT_CFG, ensemble_size=1, noise_strength_factor=0.0)


PARENT = os.getpid()
SIFT_MEMBER = eemd._sift_member


def sift_member_late_in_a_child(*args):
    """An ensemble member that a child sends back late, so that the parent's
    later members arrive before it."""
    if os.getpid() != PARENT:
        time.sleep(0.02)
    return SIFT_MEMBER(*args)


def members(n, **params):
    return DeemdParams(FFT_CFG, ensemble_size=n, **params)


def tone(freq, seconds=0.5, amp=1.0, sr=SR):
    t = np.arange(int(seconds * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


def dense_natural_spline(t, v, x):
    """Natural cubic spline by a dense solve of the full m x m system for the
    second derivatives M (M_0 = M_{m-1} = 0), evaluated in the closed form
    M_j (t_{j+1}-x)^3/6h + M_{j+1} (x-t_j)^3/6h + linear terms; points outside
    the knots use the end intervals."""
    m = t.size
    h = np.diff(t)
    system = np.zeros((m, m))
    rhs = np.zeros(m)
    system[0, 0] = system[-1, -1] = 1.0
    for i in range(1, m - 1):
        system[i, i - 1 : i + 2] = h[i - 1], 2.0 * (h[i - 1] + h[i]), h[i]
        rhs[i] = 6.0 * ((v[i + 1] - v[i]) / h[i] - (v[i] - v[i - 1]) / h[i - 1])
    second = np.linalg.solve(system, rhs)
    j = np.clip(np.searchsorted(t, x, side="right") - 1, 0, m - 2)
    left, right, hj = x - t[j], t[j + 1] - x, h[j]
    return (second[j] * right**3 / (6.0 * hj) + second[j + 1] * left**3 / (6.0 * hj)
            + (v[j] / hj - second[j] * hj / 6.0) * right
            + (v[j + 1] / hj - second[j + 1] * hj / 6.0) * left)


def mirrored_knots(idx, values, n):
    """The knots _envelope fits: up to two extrema mirrored past each edge."""
    t = idx.astype(np.float64)
    left = -t[:2][::-1] < t[0]
    right = 2.0 * (n - 1) - t[-2:][::-1] > t[-1]
    knots_t = np.concatenate([(-t[:2][::-1])[left], t, (2.0 * (n - 1) - t[-2:][::-1])[right]])
    knots_v = np.concatenate([values[:2][::-1][left], values, values[-2:][::-1][right]])
    return knots_t, knots_v


class TestNaturalSpline:
    N = 60

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 9, 10, 40])
    @pytest.mark.parametrize("span", ["inside", "beyond"])
    def test_matches_dense_solve_and_closed_form(self, m, span):
        # m - 2 interior rows: 1..8 lie on both sides of the 2^k - 1 padding.
        # "inside" knots leave points to extrapolate at both ends; "beyond"
        # knots run below 0 and past n - 1.
        rng = np.random.default_rng(m)
        lo, hi = (3, self.N - 4) if span == "inside" else (-9, self.N + 8)
        t = np.sort(rng.choice(np.arange(lo, hi + 1), m, replace=False)).astype(float)
        t[0], t[-1] = lo, hi
        v = rng.standard_normal(m)
        got = _natural_spline(t, v, self.N)
        want = dense_natural_spline(t, v, np.arange(self.N, dtype=float))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_two_knots_are_linear(self):
        t = np.array([5.0, 12.0])
        v = np.array([1.5, -2.0])
        x = np.arange(20, dtype=float)
        line = v[0] + (v[1] - v[0]) * (x - t[0]) / (t[1] - t[0])
        assert np.max(np.abs(_natural_spline(t, v, 20) - line)) <= 1e-12

    @pytest.mark.parametrize("idx", [[0, 4, 9, 15, 21, 29], [2, 7, 11, 20, 26, 27],
                                     [1, 29], [0, 15, 29]])
    def test_mirrored_edge_knots_match_dense_solve(self, idx):
        n = 30
        idx = np.array(idx)
        values = np.cos(0.7 * idx) + 0.1 * idx
        t, v = mirrored_knots(idx, values, n)
        want = dense_natural_spline(t, v, np.arange(n, dtype=float))
        got = _envelope(idx, values, n)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_envelope_matches_cubic_spline_on_a_corpus_length_signal(self):
        # 1.2 s at 16 kHz, as the corpus trials: thousands of maxima as knots
        rng = np.random.default_rng(20170803)
        x = tone(180.0, 1.2) + 0.3 * tone(2300.0, 1.2) + 0.1 * rng.standard_normal(19200)
        maxima, _ = local_extrema(x)
        assert maxima.size > 3000
        t, v = mirrored_knots(maxima, x[maxima], x.size)
        want = CubicSpline(t, v, bc_type="natural")(np.arange(x.size))
        got = _envelope(maxima, x[maxima], x.size)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestEmd:
    def test_pure_tone_is_roughly_its_own_first_mode(self):
        x = tone(440.0)
        imf = emd_first_imf(x)
        assert np.corrcoef(imf, x)[0, 1] > 0.95

    def test_zero_signal_degenerate(self):
        imf = emd_first_imf(np.zeros(4000))
        assert imf.shape == (4000,)
        assert np.all(imf == 0.0)

    def test_tone_plus_drift_splits(self):
        x_tone = tone(440.0)
        drift = 0.5 * np.sin(2 * np.pi * 2.0 * np.arange(x_tone.size) / SR)
        imf = emd_first_imf(x_tone + drift)
        assert np.corrcoef(imf, x_tone)[0, 1] > 0.9
        assert abs(np.corrcoef(imf, drift)[0, 1]) < 0.2

    def test_sift_completeness(self):
        x = tone(300.0) + 0.3 * tone(2000.0)
        imf = emd_first_imf(x)
        residue = x - imf
        assert np.max(np.abs(x - (imf + residue))) <= 1e-12

    @pytest.mark.parametrize("sift", [SiftConfig(1, 0.2), SiftConfig(3, 1e-9), SiftConfig()])
    def test_matches_a_sift_that_finds_the_extrema_every_iteration(self, rng, sift):
        x = tone(300.0) + 0.3 * tone(2000.0) + 0.05 * rng.standard_normal(tone(300.0).size)
        given = x.copy()
        h = x.copy()
        for _ in range(sift.max_sift_iters):
            maxima, minima = local_extrema(h)
            mean_env = 0.5 * (_envelope(maxima, h[maxima], h.size)
                              + _envelope(minima, h[minima], h.size))
            sd = np.einsum("i,i->", mean_env, mean_env) / np.einsum("i,i->", h, h)
            h = h - mean_env
            if sd < sift.sd_threshold:
                break
        assert np.array_equal(emd_first_imf(x, sift), h)
        assert np.array_equal(x, given)  # the input is not sifted in place

    def test_extrema_detection(self):
        x = np.array([0.0, 1.0, 0.0, -1.0, 0.0, 2.0, 0.0])
        maxima, minima = local_extrema(x)
        assert maxima.tolist() == [1, 5]
        assert minima.tolist() == [3]


class TestEemd:
    def test_degenerate_ensemble_equals_plain_emd(self):
        x = tone(500.0, 0.25)
        plain = emd_first_imf(x)
        ensemble = eemd_first_imf(x, CLEAN_EMD, seed=3)
        assert np.array_equal(ensemble, plain)

    def test_same_seed_bit_identical(self):
        x = tone(500.0, 0.25) + 0.1 * tone(3000.0, 0.25)
        a = eemd_first_imf(x, members(8), seed=17)
        b = eemd_first_imf(x, members(8), seed=17)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        x = tone(500.0, 0.25)
        a = eemd_first_imf(x, members(4), seed=1)
        b = eemd_first_imf(x, members(4), seed=2)
        assert not np.array_equal(a, b)

    def test_full_ensemble_close_to_clean_emd(self):
        # the tone must occupy the finest scale: added noise populates scales
        # above the signal, so a low tone would be pushed out of the first mode
        x = tone(2000.0)
        clean = emd_first_imf(x)
        averaged = eemd_first_imf(x, members(50), seed=5)
        rel = np.linalg.norm(averaged - clean) / np.linalg.norm(clean)
        assert rel <= 0.1

    def test_ensemble_averaging_reduces_variance(self):
        x = tone(55.0, seconds=0.4, sr=1000)  # ~22 cycles over 400 samples
        small, large = [], []
        short = SiftConfig(max_sift_iters=6)
        for seed in range(20):
            small.append(eemd_first_imf(x, members(2, sift=short), seed=seed))
            large.append(eemd_first_imf(x, members(50, sift=short), seed=seed))
        var_small = np.var(np.stack(small), axis=0).mean()
        var_large = np.var(np.stack(large), axis=0).mean()
        assert var_large < var_small

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_members_arriving_out_of_order_sum_to_the_serial_bytes(self, monkeypatch,
                                                                   cpus):
        x = tone(500.0, 0.25) + 0.1 * tone(3000.0, 0.25)
        serial = eemd_first_imf(x, members(7), seed=17)
        arrivals = []
        imap = parallel.imap

        def recorded_imap(fn, items):
            for index, value in imap(fn, items):
                arrivals.append(index)
                yield index, value

        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(parallel, "imap", recorded_imap)
        monkeypatch.setattr(eemd, "_sift_member", sift_member_late_in_a_child)
        with parallel.workers():
            on_workers = eemd_first_imf(x, members(7), seed=17)
        assert sorted(arrivals) == list(range(7))
        assert arrivals != sorted(arrivals)
        assert on_workers.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("x", [np.array([0.0, 1.0, np.nan, -1.0, 0.0]),
                                   np.array([0.0, np.inf, 0.0]), np.zeros((2, 100))],
                             ids=["nan", "inf", "2-d"])
    def test_refuses_non_finite_or_not_1d_input(self, x):
        with pytest.raises(ValueError, match="1-D array of finite samples"):
            eemd_first_imf(x, CLEAN_EMD)


class TestDeltaSpectrogram:
    def test_monocomponent_gives_zero_difference(self):
        # 1 kHz at 16 kHz: samples hit the extrema exactly, one sift suffices
        x = tone(1000.0)
        spec = delta_eemd_spectrogram(Waveform(x, SR), CLEAN_EMD)
        from replaycm.spectral import fft_spectrogram
        original = fft_spectrogram(Waveform(x, SR), FFT_CFG, scale="magnitude")
        assert spec.max() <= 1e-6 * original.max()

    def test_zero_signal_zero_difference(self):
        spec = delta_eemd_spectrogram(Waveform(np.zeros(4000), SR), CLEAN_EMD)
        assert np.all(spec == 0.0)

    def test_difference_is_nonnegative(self):
        wave = Waveform(tone(250.0, 0.3) + 0.4 * tone(3000.0, 0.3), SR)
        spec = delta_eemd_spectrogram(wave, members(2), seed=9)
        assert np.all(spec >= 0.0)

    def test_tone_plus_ripple_energy_sits_on_tone_rows(self):
        x = tone(250.0, 0.4) + 0.4 * tone(3000.0, 0.4)
        spec = delta_eemd_spectrogram(Waveform(x, SR), CLEAN_EMD)
        row_energy = (spec**2).sum(axis=1)
        bin_frequencies = np.arange(FFT_CFG.n_fft // 2 + 1) * SR / FFT_CFG.n_fft
        peak_freq = bin_frequencies[int(np.argmax(row_energy))]
        assert abs(peak_freq - 250.0) < 100.0
        # the ripple rows cancel: little difference energy near 3 kHz
        ripple_rows = np.abs(bin_frequencies - 3000.0) < 100.0
        assert row_energy[ripple_rows].sum() < 0.05 * row_energy.max()
