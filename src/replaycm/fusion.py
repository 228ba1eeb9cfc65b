"""Linear-logistic score fusion.

Fits sigma(w's + b) to genuine/spoof labels by minimizing L2-regularized mean
cross-entropy with a gradient-only optimizer (Barzilai-Borwein steps with
backtracking, so the loss is non-increasing per iteration).  The fused score
is the linear part w's + b.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass
class FusionModel:
    weights: np.ndarray
    offset: float
    loss_history: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1 or not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be a finite vector")
        if not np.isfinite(self.offset):
            raise ValueError("offset must be finite")

    @property
    def n_systems(self) -> int:
        return self.weights.size


def _loss_and_grad(theta: np.ndarray, aug: np.ndarray, y: np.ndarray,
                   l2: float, trial_weight: float):
    z = y * (aug @ theta)
    loss = float(np.sum(trial_weight * np.logaddexp(0.0, -z)) + l2 * theta @ theta)
    sigma = np.exp(-np.logaddexp(0.0, z))  # d/dz log(1+e^-z) = -1/(1+e^z), stably
    grad = aug.T @ (-(trial_weight * sigma) * y) + 2.0 * l2 * theta
    return loss, grad


def fusion_train(
    scores: np.ndarray,
    labels: np.ndarray,
    l2: float = 1e-6,
    tol: float = 1e-8,
    max_iters: int = 50000,
) -> FusionModel:
    """Train fusion weights on a trials x systems score matrix.

    labels holds +1 for genuine and -1 for spoof trials.  Optimization stops
    when the gradient norm drops below tol; the recorded loss history is
    non-increasing.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.ndim != 2 or labels.shape != (scores.shape[0],):
        raise ValueError("scores must be trials x systems with one label per trial")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must all be finite")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be +1 (genuine) or -1 (spoof)")
    n_genuine = int(np.sum(labels == 1.0))
    n_spoof = int(np.sum(labels == -1.0))
    if min(n_genuine, n_spoof) < 2:
        raise ValueError("need at least 2 trials per class to train fusion")
    if l2 < 0:
        raise ValueError("l2 must be non-negative")

    n = scores.shape[0]
    aug = np.hstack([scores, np.ones((n, 1))])
    theta = np.zeros(aug.shape[1])
    loss, grad = _loss_and_grad(theta, aug, labels, l2, 1.0 / n)
    history = [loss]
    step = 1.0
    prev_theta = None
    prev_grad = None

    converged = False
    for _ in range(max_iters):
        if np.linalg.norm(grad) <= tol:
            converged = True
            break
        if prev_theta is not None:
            s = theta - prev_theta
            g = grad - prev_grad
            sg = float(s @ g)
            if sg > 0:
                step = float(s @ s) / sg
            else:
                step = 1.0
        # backtrack until the step actually descends
        stalled = False
        while True:
            candidate = theta - step * grad
            new_loss, new_grad = _loss_and_grad(candidate, aug, labels, l2, 1.0 / n)
            if new_loss <= loss:
                break
            if step < 1e-18:
                stalled = True  # no descent representable at float precision
                break
            step *= 0.5
        if stalled:
            break
        prev_theta, prev_grad = theta, grad
        theta, loss, grad = candidate, new_loss, new_grad
        history.append(loss)
    if not converged and np.linalg.norm(grad) > tol:
        warnings.warn(
            f"fusion training stopped after {max_iters} iterations with "
            f"gradient norm {np.linalg.norm(grad):.3e}",
            stacklevel=2,
        )

    return FusionModel(theta[:-1].copy(), float(theta[-1]), tuple(history))


def fusion_apply(model: FusionModel, scores: np.ndarray) -> np.ndarray:
    """Fused scores w's + b of a trials x systems score matrix."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != model.n_systems:
        raise ValueError(f"expected trials x {model.n_systems} scores, got {scores.shape}")
    return scores @ model.weights + model.offset
