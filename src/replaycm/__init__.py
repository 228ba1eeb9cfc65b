"""Replay-attack detection toolkit.

Front-ends (FFT / constant-Q / wavelet spectrograms, CQCC, LPCC, ensemble
EMD difference features), classical back-ends (two-class GMM log-likelihood
ratio, i-vector + linear SVM), verified neural building blocks (MFM, 2x2 max
pooling), score-level fusion, EER evaluation, and a reproducible synthetic
replay corpus for end-to-end checks.
"""

from .audio_io import Waveform, load_wav, write_wav
from .cepstral import cmvn, cqcc, lpcc
from .eemd import delta_eemd_spectrogram, eemd_first_imf, emd_first_imf
from .fusion import fusion_apply, fusion_train
from .gmm import GmmModel, gmm_avg_loglik, gmm_em_train, llr_score
from .ivector import (
    BaumWelchStats,
    TotalVariabilityModel,
    baum_welch_stats,
    center_length_normalize,
    extract_ivector,
    train_t_matrix,
)
from .metrics import ScoreSet, compute_eer, det_points, read_scores, write_scores
from .neural import max_pool_2x2, mfm, mfm_backward
from .spectral import (
    cqt_log_power_spectrogram,
    dwt_scalogram,
    fft_spectrogram,
    frame_signal,
    mvn_spectrum,
    sliding_windows,
    truncate_or_repeat,
)
from .svm import LinearModel, svm_score, svm_train_linear

__version__ = "0.1.0"
