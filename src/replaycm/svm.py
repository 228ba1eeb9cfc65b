"""The linear model w'x + b, and the L2-regularized hinge-loss linear SVM
that dual coordinate descent trains as one (score fusion trains another).

The trainers realize the bias as an extra always-one feature that shares the
regularizer, so the SVM dual stays a box-constrained quadratic program.
Coordinates are visited in a fixed sequential order; training is
deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LinearModel:
    """weights'x + bias, with its trainer's objective per step as history."""

    weights: np.ndarray
    bias: float
    history: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1 or not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be a finite vector")
        if not np.isfinite(self.bias):
            raise ValueError("bias must be finite")


def augmented_training_set(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x with an always-one column appended, and y, as float64 arrays; x must
    be N x D and finite, with one +1 or -1 label per row in y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("training rows must be N x D with one label per row")
    if not np.all(np.isfinite(x)):
        raise ValueError("training rows must all be finite")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +1 (genuine) or -1 (spoof)")
    return np.hstack([x, np.ones((x.shape[0], 1))]), y


def svm_train_linear(
    x: np.ndarray,
    y: np.ndarray,
    c: float = 1.0,
    tol: float = 1e-6,
    max_epochs: int = 2000,
) -> LinearModel:
    """Train on rows of x with labels y in {+1, -1}.

    Runs epochs of dual coordinate descent until the duality gap drops below
    tol * (primal + 1).  The dual objective (minimization form) after each
    epoch is the model's history and decreases monotonically.
    """
    aug, y = augmented_training_set(x, y)
    if np.all(y == 1.0) or np.all(y == -1.0):
        raise ValueError("training data contains a single class; need both labels")
    if c <= 0:
        raise ValueError("regularization parameter c must be positive")

    n = aug.shape[0]
    q_diag = np.einsum("ij,ij->i", aug, aug)
    alpha = np.zeros(n)
    w = np.zeros(aug.shape[1])

    history = []
    converged = False
    for _ in range(max_epochs):
        for i in range(n):
            grad = y[i] * (w @ aug[i]) - 1.0
            if alpha[i] == 0.0:
                projected = min(grad, 0.0)
            elif alpha[i] == c:
                projected = max(grad, 0.0)
            else:
                projected = grad
            if abs(projected) > 1e-14 and q_diag[i] > 0:
                new_alpha = min(max(alpha[i] - grad / q_diag[i], 0.0), c)
                w += (new_alpha - alpha[i]) * y[i] * aug[i]
                alpha[i] = new_alpha

        margins = 1.0 - y * (aug @ w)
        primal = 0.5 * float(w @ w) + c * float(np.sum(np.maximum(margins, 0.0)))
        dual_value = float(alpha.sum()) - 0.5 * float(w @ w)
        history.append(0.5 * float(w @ w) - float(alpha.sum()))
        if primal - dual_value <= tol * (primal + 1.0):
            converged = True
            break
    if not converged:
        warnings.warn(
            f"dual coordinate descent stopped after {max_epochs} epochs "
            "without closing the duality gap",
            stacklevel=2,
        )

    return LinearModel(w[:-1].copy(), float(w[-1]), tuple(history))


def svm_score(model: LinearModel, v: np.ndarray) -> float:
    """Linear decision value w'v + b; higher means more genuine."""
    vec = np.asarray(v, dtype=np.float64)
    if vec.shape != model.weights.shape:
        raise ValueError(
            f"input dimension {vec.shape} does not match the model "
            f"({model.weights.shape})"
        )
    return float(model.weights @ vec + model.bias)
