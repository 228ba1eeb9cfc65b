"""Diagonal-covariance Gaussian mixture models: EM training, average
log-likelihood scoring, and the two-model log-likelihood-ratio detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class GmmModel:
    """Weighted diagonal-covariance Gaussian mixture with read-only arrays."""

    weights: np.ndarray    # (K,)
    means: np.ndarray      # (K, D)
    variances: np.ndarray  # (K, D)
    loglik_history: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        for name in ("weights", "means", "variances"):
            values = np.array(getattr(self, name), dtype=np.float64)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if self.means.ndim != 2:
            raise ValueError("means must be a K x D matrix")
        k, d = self.means.shape
        if self.weights.shape != (k,) or self.variances.shape != (k, d):
            raise ValueError("weights/variances shapes inconsistent with means")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-10:
            raise ValueError("weights must be non-negative and sum to 1")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be strictly positive")

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _log_densities(model: GmmModel, xx: np.ndarray) -> np.ndarray:
    """log N(x | mu_k, var_k) for every row [x^2, x] of ``xx``, (N, K): with
    the quadratic form expanded, one matmul plus a per-component constant."""
    inv_var = 1.0 / model.variances
    coef = np.vstack([-0.5 * inv_var.T, (model.means * inv_var).T])
    const = -0.5 * (model.dim * LOG_2PI
                     + np.sum(np.log(model.variances) + model.means**2 * inv_var, axis=1))
    out = xx @ coef
    out += const  # in place: a fresh N x K temporary costs as much as the matmul
    return out


def _posteriors_in_place(log_joint: np.ndarray) -> np.ndarray:
    """Normalize (N, K) log joint densities into posteriors in place and
    return the per-frame mixture log-likelihoods (log-sum-exp of each row)."""
    m = np.max(log_joint, axis=1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    log_joint -= m
    np.exp(log_joint, out=log_joint)
    total = log_joint.sum(axis=1, keepdims=True)
    log_joint /= total
    return np.log(total[:, 0]) + m[:, 0]


def log_component_densities(model: GmmModel, frames: np.ndarray) -> np.ndarray:
    """Per-frame, per-component diagonal Gaussian log densities, (N, K)."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != model.dim:
        raise ValueError(
            f"frames must be N x {model.dim}, got {frames.shape}"
        )
    return _log_densities(model, np.hstack([frames**2, frames]))


def frame_logliks(model: GmmModel, frames: np.ndarray) -> np.ndarray:
    """Per-frame mixture log-likelihoods log sum_k w_k N(x | mu_k, var_k)."""
    log_joint = log_component_densities(model, frames) + np.log(model.weights)
    return _posteriors_in_place(log_joint)


def gmm_avg_loglik(model: GmmModel, frames: np.ndarray) -> float:
    """Mean per-frame log-likelihood of an utterance under the mixture."""
    return float(np.mean(frame_logliks(model, frames)))


def llr_score(genuine: GmmModel, spoofed: GmmModel, frames: np.ndarray) -> float:
    """Average log-likelihood ratio; higher means more genuine."""
    return gmm_avg_loglik(genuine, frames) - gmm_avg_loglik(spoofed, frames)


def _resolve_variance_floor(frames: np.ndarray, variance_floor) -> np.ndarray:
    global_var = frames.var(axis=0)
    if variance_floor is None:
        floor = 1e-4 * global_var
    else:
        if variance_floor <= 0:
            raise ValueError("variance_floor must be positive")
        floor = np.full(frames.shape[1], float(variance_floor))
    return np.maximum(floor, 1e-12)


def gmm_em_train(
    frames: np.ndarray,
    k: int,
    iters: int = 10,
    variance_floor: float | None = None,
    seed: int = 0,
) -> GmmModel:
    """Train a K-component diagonal GMM by EM with seeded random init.

    Means start at k distinct random frames, variances at the global
    per-dimension variance, weights uniform.  variance_floor None applies the
    default rule of 1e-4 times the global per-dimension variance.  Components
    that lose all posterior mass are re-seeded from the frame the current
    model likes least.  The per-iteration average log-likelihood is recorded
    on the returned model.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("frames must be a 2-D matrix")
    n, d = frames.shape
    if n < k:
        raise ValueError(f"need at least {k} frames to train {k} components, got {n}")
    if iters < 1:
        raise ValueError("iters must be >= 1")

    floor = _resolve_variance_floor(frames, variance_floor)
    global_var = np.maximum(frames.var(axis=0), floor)

    rng = np.random.default_rng(seed)
    means = frames[rng.choice(n, size=k, replace=False)]
    model = GmmModel(np.full(k, 1.0 / k), means, np.tile(global_var, (k, 1)))

    xx = np.hstack([frames**2, frames])
    history = []
    for _ in range(iters):
        resp = _log_densities(model, xx)
        resp += np.log(model.weights)
        frame_ll = _posteriors_in_place(resp)
        history.append(float(np.mean(frame_ll)))

        nk = resp.sum(axis=0)
        weights = nk / n
        moments = (resp.T @ xx) / np.maximum(nk, 1e-300)[:, None]
        means = moments[:, d:]
        variances = np.maximum(moments[:, :d] - means**2, floor)

        empty = nk < 1e-10
        if np.any(empty):
            means[empty] = frames[np.argmin(frame_ll)]
            variances[empty] = global_var
            weights[empty] = 1.0 / n
            weights = weights / weights.sum()
        model = GmmModel(weights, means, variances)

    history.append(gmm_avg_loglik(model, frames))
    return GmmModel(model.weights, model.means, model.variances, tuple(history))
