from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import toeplitz

from replaycm import cepstral
from replaycm.audio_io import Waveform
from replaycm.cepstral import (
    CqccConfig,
    LpccConfig,
    cmvn,
    cqcc,
    dct_matrix,
    levinson_durbin,
    lpc_to_cepstrum,
    lpcc,
)
from replaycm.spectral import (
    CqtConfig,
    FramingConfig,
    cqt_magnitude,
    frame_signal,
    resample_rows_linear,
)


def naive_dct_ii_ortho(x, n_out):
    """O(n^2) cosine-sum oracle for the orthonormal DCT-II."""
    n = len(x)
    out = np.zeros(n_out)
    for k in range(n_out):
        acc = 0.0
        for m, v in enumerate(x):
            acc += v * np.cos(np.pi * (2 * m + 1) * k / (2 * n))
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * acc
    return out


def fft_autocorrelation(frames, order):
    """Biased autocorrelation lags 0..order by rfft and irfft at twice the
    frame length: the estimator lpcc computes lag by lag."""
    frame_len = frames.shape[1]
    n_fft = 1 << int(np.ceil(np.log2(2 * frame_len)))
    spectrum = np.fft.rfft(frames, n=n_fft)
    return np.fft.irfft(np.abs(spectrum) ** 2, n=n_fft)[:, : order + 1] / frame_len


def loop_lpc_to_cepstrum(a, err, n_coeffs):
    """The LPC-to-cepstrum recursion one term at a time."""
    a = np.atleast_2d(a)
    order = a.shape[-1] - 1
    c = np.zeros((a.shape[0], n_coeffs))
    c[:, 0] = np.log(np.maximum(err, cepstral.ENERGY_FLOOR))
    for m in range(1, n_coeffs):
        acc = np.zeros(a.shape[0])
        for k in range(max(1, m - order), m):
            acc += (k / m) * c[:, k] * a[:, m - k]
        c[:, m] = (-a[:, m] if m <= order else 0.0) - acc
    return c


SMALL_CQT = CqtConfig(f_min=400.0, bins_per_octave=12, n_bins=36, hop_length=256)


class TestDct:
    def test_constant_vector_only_c0(self):
        out = dct_matrix(16) @ np.full(16, 2.5)
        assert np.isclose(out[0], 2.5 * np.sqrt(16))
        assert np.max(np.abs(out[1:])) < 1e-12

    def test_roundtrip_via_basis_summation(self, rng):
        x = rng.standard_normal(24)
        coeffs = dct_matrix(24) @ x
        rebuilt = np.zeros_like(x)
        n = len(x)
        for m in range(n):
            for k in range(n):
                scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
                rebuilt[m] += scale * coeffs[k] * np.cos(np.pi * (2 * m + 1) * k / (2 * n))
        assert np.max(np.abs(rebuilt - x)) <= 1e-10

    def test_matches_naive_oracle(self, rng):
        x = rng.standard_normal(32)
        assert np.max(np.abs(dct_matrix(32) @ x - naive_dct_ii_ortho(x, 32))) <= 1e-10

    def test_n_out_truncation_and_bounds(self, rng):
        x = rng.standard_normal(10)
        assert np.max(np.abs(dct_matrix(10)[:4] @ x - naive_dct_ii_ortho(x, 4))) <= 1e-10
        # cqcc keeps the first n_coeffs rows, so its config bounds them by the basis size
        CqccConfig(resample_bins=10, n_coeffs=10)
        with pytest.raises(ValueError, match="n_coeffs"):
            CqccConfig(resample_bins=10, n_coeffs=11)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 48))
    def test_parseval(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        coeffs = dct_matrix(n) @ x
        assert np.isclose(coeffs @ coeffs, x @ x, atol=1e-10)


class TestCqcc:
    def test_zero_signal_constant_cepstrum(self):
        cfg = CqccConfig(cqt=SMALL_CQT, resample_bins=48, n_coeffs=12)
        feats = cqcc(Waveform(np.zeros(4000), 16000), cfg)
        expected_c0 = np.sqrt(48) * np.log(SMALL_CQT.floor)
        assert np.allclose(feats[0], expected_c0)
        assert np.max(np.abs(feats[1:])) < 1e-9
        assert np.all(feats == feats[:, :1])

    def test_equals_stagewise_composition(self, rng):
        x = rng.standard_normal(4000) * 0.2
        wave = Waveform(x, 16000)
        cfg = CqccConfig(cqt=SMALL_CQT, resample_bins=48, n_coeffs=12)
        feats = cqcc(wave, cfg)
        # stage 1: constant-Q magnitudes; stage 2: floored log power
        mags, freqs = cqt_magnitude(wave, SMALL_CQT)
        log_power = np.log(np.maximum(mags**2, SMALL_CQT.floor))
        # stage 3: uniform resampling; stage 4: DCT per frame
        resampled = resample_rows_linear(log_power, freqs, 48)
        stage = np.stack([dct_matrix(48)[:12] @ col for col in resampled.T], axis=1)
        assert np.max(np.abs(feats - stage)) <= 1e-12

    def test_global_gain_moves_only_c0(self, rng):
        x = rng.standard_normal(4000) * 0.2
        gain = 3.0
        cfg = CqccConfig(cqt=SMALL_CQT, resample_bins=48, n_coeffs=12)
        base = cqcc(Waveform(x, 16000), cfg)
        scaled = cqcc(Waveform(gain * x, 16000), cfg)
        mags, _ = cqt_magnitude(Waveform(x, 16000), SMALL_CQT)
        assert mags.min() ** 2 > SMALL_CQT.floor  # floor must not clip either run
        shift = scaled[0] - base[0]
        assert np.allclose(shift, 2.0 * np.log(gain) * np.sqrt(48), atol=1e-9)
        assert np.max(np.abs(scaled[1:] - base[1:])) <= 1e-9


class TestLevinson:
    def test_matches_normal_equations_orders_to_20(self, rng):
        for order in (2, 5, 10, 20):
            x = rng.standard_normal(8192)
            for lag, coef in ((1, 0.5), (2, -0.2), (3, 0.1)):
                x[lag:] += coef * x[:-lag]
            r = np.correlate(x, x, "full")[x.size - 1 : x.size + order] / x.size
            a, err, refl = levinson_durbin(r)
            direct = np.linalg.solve(toeplitz(r[:order]), -r[1 : order + 1])
            assert np.max(np.abs(a[1:] - direct)) <= 1e-8
            assert np.all(np.abs(refl) < 1.0)
            assert err > 0

    def test_ar1_coefficient_recovered(self, rng):
        n = 30000
        noise = rng.standard_normal(n)
        x = np.zeros(n)
        for i in range(1, n):
            x[i] = 0.9 * x[i - 1] + noise[i]
        r = np.correlate(x, x, "full")[n - 1 : n + 1] / n
        a, _, _ = levinson_durbin(r)
        assert abs(a[1] - (-0.9)) <= 0.02

    def test_unstable_recursion_reported(self):
        with pytest.raises(ValueError, match="reflection coefficient"):
            levinson_durbin(np.array([1.0, 1.0]))

    def test_nonpositive_lag0_rejected(self):
        with pytest.raises(ValueError, match="lag-0"):
            levinson_durbin(np.array([0.0, 0.0]))


class TestLpcCepstrum:
    def test_matches_fft_cepstrum_of_all_pole_model(self):
        # build a stable prediction polynomial from reflection coefficients
        poly = np.array([1.0])
        for k in (0.5, -0.3, 0.2, 0.1):
            poly = np.concatenate([poly, [0.0]]) + k * np.concatenate([[0.0], poly[::-1]])
        ceps = lpc_to_cepstrum(poly, np.array(1.0), 50)
        n_fft = 16384
        spectrum = np.fft.fft(poly, n_fft)
        fft_ceps = np.fft.ifft(-np.log(spectrum)).real
        assert np.max(np.abs(ceps[1:] - fft_ceps[1:50])) <= 1e-8

    def test_c0_is_log_error_energy(self):
        ceps = lpc_to_cepstrum(np.array([1.0, -0.5]), np.array(0.25), 4)
        assert np.isclose(ceps[0], np.log(0.25))


class TestLpcc:
    def test_framing_convention(self):
        wave = Waveform(np.random.default_rng(3).standard_normal(32000) * 0.1, 16000)
        cfg = LpccConfig()
        feats = lpcc(wave, cfg)
        assert feats.shape[0] == 78
        assert feats.shape[1] == (32000 - 2048) // 256 + 1

    def test_zero_frames_give_zero_rows(self):
        x = np.zeros(6000)
        x[4000:] = np.random.default_rng(4).standard_normal(2000) * 0.1
        cfg = LpccConfig(framing=FramingConfig(0.128, 0.016), lpc_order=12, n_coeffs=20)
        feats = lpcc(Waveform(x, 16000), cfg)
        assert np.all(feats[:, 0] == 0.0)  # first frame covers only zeros
        assert np.any(feats[:, -1] != 0.0)

    def test_order_must_fit_frame(self):
        wave = Waveform(np.random.default_rng(5).standard_normal(4000), 16000)
        cfg = LpccConfig(framing=FramingConfig(0.008, 0.008), lpc_order=200, n_coeffs=10)
        with pytest.raises(ValueError, match="lpc_order"):
            lpcc(wave, cfg)


class TestLpccMatchesOracles:
    """Direct-lag autocorrelation and the vectorized recursion against the
    FFT autocorrelation and the term-by-term recursion."""

    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(1, 30), data=st.data())
    def test_lags_and_cepstra(self, order, data):
        frame_len = data.draw(st.integers(order + 1, 2048), label="frame_len")
        n_coeffs = data.draw(st.one_of(st.integers(1, max(1, order - 1)), st.just(order + 1),
                                       st.integers(order + 2, 3 * order + 8)), label="n_coeffs")
        window = data.draw(st.sampled_from(["hann", "rectangular"]), label="window")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        hop = max(1, frame_len // 2)
        x = rng.standard_normal(frame_len + 3 * hop)
        x[1:] += 0.7 * x[:-1]  # some spectral colour for the predictor
        wave = Waveform(x * 0.3, 16000)
        cfg = LpccConfig(FramingConfig(frame_len / 16000, hop / 16000, window), order, n_coeffs)

        captured = []

        def recording_levinson(r):
            captured.append(r.copy())
            return levinson_durbin(r)

        with mock.patch.object(cepstral, "levinson_durbin", recording_levinson):
            feats = lpcc(wave, cfg)
        frames = frame_signal(wave, frame_len / 16000, hop / 16000, window)
        expected = fft_autocorrelation(frames, order)
        live = expected[:, 0] > cepstral.ENERGY_FLOOR
        assert feats.shape == (n_coeffs, len(frames))
        assert np.all(feats[:, ~live] == 0.0)
        if not np.any(live):
            assert not captured
            return
        (lags,) = captured
        expected = expected[live]
        expected[:, 0] *= 1.0 + 1e-9  # lpcc's diagonal loading
        assert np.all(np.abs(lags - expected) <= 1e-12 * expected[:, :1])

        a, err, _ = levinson_durbin(lags)
        ceps = lpc_to_cepstrum(a, err, n_coeffs)
        assert np.max(np.abs(ceps - loop_lpc_to_cepstrum(a, err, n_coeffs))) <= 1e-10
        assert np.array_equal(feats[:, live], ceps.T)


class TestCmvn:
    """cmvn on the one feature layout: rows are coefficients, columns are
    frames, and each row is normalized over time."""

    def test_idempotent(self, rng):
        once = cmvn(rng.standard_normal((10, 60)))
        twice = cmvn(once)
        assert np.max(np.abs(twice - once)) <= 1e-12

    def test_constant_column_zeroed(self, rng):
        # a coefficient constant over time: one row of the matrix
        values = rng.standard_normal((3, 40))
        values[1] = 7.0
        assert np.all(cmvn(values)[1] == 0.0)

    def test_moments(self, rng):
        out = cmvn(rng.standard_normal((20, 100)))
        assert np.max(np.abs(out.mean(axis=1))) < 1e-10
        assert np.max(np.abs(out.var(axis=1) - 1.0)) < 1e-10

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError, match="at least 2 frames"):
            cmvn(np.ones((4, 1)))
