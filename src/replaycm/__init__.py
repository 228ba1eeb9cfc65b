"""Replay-attack detection toolkit.

Front-ends (FFT / constant-Q / wavelet spectrograms, CQCC, LPCC, ensemble
EMD difference features), classical back-ends (two-class GMM log-likelihood
ratio, i-vector + linear SVM), verified neural building blocks (MFM, 2x2 max
pooling), score-level fusion, EER evaluation, and a reproducible synthetic
replay corpus for end-to-end checks.
"""

__version__ = "0.1.0"
