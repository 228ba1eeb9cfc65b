"""Linear-logistic score fusion.

Fits sigma(w's + b) to genuine/spoof labels by minimizing L2-regularized mean
cross-entropy with a gradient-only optimizer (Barzilai-Borwein steps with
backtracking, so the loss is non-increasing per iteration).  The fused score
is the linear part w's + b.
"""

from __future__ import annotations

import warnings

import numpy as np

from .svm import LinearModel, augmented_training_set

L2 = 1e-6  # weight of the L2 penalty on the weights and bias


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
    tol: float = 1e-8,
    max_iters: int = 50000,
) -> LinearModel:
    """Train fusion weights on a trials x systems score matrix.

    labels holds +1 for genuine and -1 for spoof trials.  Optimization stops
    when the gradient norm drops below tol; the model's history, the loss per
    iteration, is non-increasing.
    """
    aug, labels = augmented_training_set(scores, labels)
    n_genuine = int(np.sum(labels == 1.0))
    n_spoof = int(np.sum(labels == -1.0))
    if min(n_genuine, n_spoof) < 2:
        raise ValueError("need at least 2 trials per class to train fusion")

    n = aug.shape[0]
    theta = np.zeros(aug.shape[1])
    loss, grad = _loss_and_grad(theta, aug, labels, L2, 1.0 / n)
    history = [loss]
    step = 1.0
    prev_theta = None
    prev_grad = None

    stalled = False
    for _ in range(max_iters):
        if np.linalg.norm(grad) <= tol:
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
        while True:
            candidate = theta - step * grad
            new_loss, new_grad = _loss_and_grad(candidate, aug, labels, L2, 1.0 / n)
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
    if np.linalg.norm(grad) > tol:
        how = "stalled (no step descends)" if stalled else "reached max_iters"
        warnings.warn(
            f"fusion training {how} after {len(history) - 1} iterations with "
            f"gradient norm {np.linalg.norm(grad):.3e}",
            stacklevel=2,
        )

    return LinearModel(theta[:-1].copy(), float(theta[-1]), tuple(history))


def fusion_apply(model: LinearModel, scores: np.ndarray) -> np.ndarray:
    """Fused scores w's + b of a trials x systems score matrix."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != model.weights.size:
        raise ValueError(f"expected trials x {model.weights.size} scores, got {scores.shape}")
    return scores @ model.weights + model.bias
