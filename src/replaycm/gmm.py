"""Diagonal-covariance Gaussian mixture models: EM training, average
log-likelihood scoring, and the two-model log-likelihood-ratio detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LOG_2PI = np.log(2.0 * np.pi)
EM_BLOCK = 1024  # frames per EM block: bounds the (block, K) responsibilities
# Shifted log joints below this floor get responsibility exactly 0.  exp
# underflows below log(smallest normal) = -708.4, where numpy's exp leaves its
# fast path and its subnormal results slow the M-step product as well; the
# floor sits a little above that, where exp still measured fast.  A dropped
# entry is below exp(-700) < 1e-304, against a row sum of at least 1.
EXP_FLOOR = -700.0


@dataclass(frozen=True)
class GmmModel:
    """Weighted diagonal-covariance Gaussian mixture with read-only arrays."""

    weights: np.ndarray    # (K,)
    means: np.ndarray      # (K, D)
    variances: np.ndarray  # (K, D)
    history: tuple = field(default=(), compare=False, repr=False)

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


def _expanded(frames: np.ndarray, dim: int) -> np.ndarray:
    """Rows [x^2, x, 1] of an N x dim frame matrix: the log joint densities
    are linear in them."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != dim:
        raise ValueError(f"frames must be N x {dim}, got {frames.shape}")
    return np.hstack([frames**2, frames, np.ones((len(frames), 1))])


def _responsibilities(model: GmmModel, xx: np.ndarray):
    """Responsibilities of expanded frames ``xx``, unnormalized: returns the
    (N, K) matrix exp(log joint - row max), its row sums, and the per-frame
    mixture log-likelihoods.

    The log-weight and Gaussian constant of each component sit in the last
    row of the coefficient matrix, so one matmul gives the log joint; a
    zero-weight component gets log 0 = -inf there and responsibility 0.  An
    entry below EXP_FLOOR also gets 0, so no responsibility is subnormal; the
    row sums and log-likelihoods are those of the plain exp.
    """
    inv_var = 1.0 / model.variances
    with np.errstate(divide="ignore"):
        log_weights = np.log(model.weights)
    const = log_weights - 0.5 * (model.dim * LOG_2PI + np.sum(
        np.log(model.variances) + model.means**2 * inv_var, axis=1))
    resp = xx @ np.vstack([-0.5 * inv_var.T, (model.means * inv_var).T, const])
    top = np.max(resp, axis=1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    resp -= top
    keep = resp >= EXP_FLOOR
    np.maximum(resp, EXP_FLOOR, out=resp)
    np.exp(resp, out=resp)
    resp *= keep  # exp(EXP_FLOOR) * 0 is 0; a NaN stays NaN
    total = resp.sum(axis=1)
    return resp, total, np.log(total) + top[:, 0]


def frame_logliks(model: GmmModel, frames: np.ndarray) -> np.ndarray:
    """Per-frame mixture log-likelihoods log sum_k w_k N(x | mu_k, var_k)."""
    return _responsibilities(model, _expanded(frames, model.dim))[2]


def gmm_avg_loglik(model: GmmModel, frames: np.ndarray) -> float:
    """Mean per-frame log-likelihood of an utterance under the mixture."""
    return float(np.mean(frame_logliks(model, frames)))


def llr_score(genuine: GmmModel, spoofed: GmmModel, frames: np.ndarray) -> float:
    """Average log-likelihood ratio; higher means more genuine."""
    return gmm_avg_loglik(genuine, frames) - gmm_avg_loglik(spoofed, frames)


def _weighted_sums(model: GmmModel, frames: np.ndarray):
    """Posterior-weighted sums of the rows [x^2, x, 1] of ``frames`` (K x
    2D+1; the last column is the count) and their log-likelihoods."""
    xx = _expanded(frames, model.dim)
    resp, total, frame_ll = _responsibilities(model, xx)
    xx *= (1.0 / total)[:, None]
    return resp.T @ xx, frame_ll


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
    on the returned model.  Both steps run over blocks of EM_BLOCK frames, so
    memory beyond the frames themselves does not grow with their number.
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

    history = []
    for _ in range(iters):
        sums = loglik = 0.0
        worst_ll, worst = np.inf, 0
        for start in range(0, n, EM_BLOCK):
            block_sums, frame_ll = _weighted_sums(model, frames[start:start + EM_BLOCK])
            sums += block_sums
            loglik += frame_ll.sum()
            i = int(np.argmin(frame_ll))
            if frame_ll[i] < worst_ll:  # strict: the first worst frame wins
                worst_ll, worst = frame_ll[i], start + i
        history.append(float(loglik / n))

        nk = sums[:, -1]
        weights = nk / n
        moments = sums[:, :-1] / np.maximum(nk, 1e-300)[:, None]
        means = moments[:, d:]
        variances = np.maximum(moments[:, :d] - means**2, floor)

        empty = nk < 1e-10
        if np.any(empty):
            means[empty] = frames[worst]
            variances[empty] = global_var
            weights[empty] = 1.0 / n
            weights = weights / weights.sum()
        model = GmmModel(weights, means, variances)

    history.append(float(sum(frame_logliks(model, frames[start:start + EM_BLOCK]).sum()
                             for start in range(0, n, EM_BLOCK)) / n))
    return GmmModel(model.weights, model.means, model.variances, tuple(history))
