from itertools import product

import numpy as np
import pytest

from replaycm.gmm import GmmModel
from replaycm.ivector import BaumWelchStats, TotalVariabilityModel, extract_ivector
from replaycm.svm import LinearModel, svm_score, svm_train_linear


def qp_oracle_objective(x, y, c):
    """Exhaustive active-set solve of the dual box QP for tiny problems.

    Enumerates every {0, C, free} assignment, solves the free block exactly,
    keeps KKT-consistent candidates, and returns the best dual objective in
    minimization form 0.5 a'Qa - sum(a).
    """
    aug = np.hstack([x, np.ones((x.shape[0], 1))])
    q = (y[:, None] * aug) @ (y[:, None] * aug).T
    n = len(y)
    best = np.inf
    for assignment in product((0, 1, 2), repeat=n):
        alpha = np.zeros(n)
        free = [i for i, a in enumerate(assignment) if a == 2]
        for i, a in enumerate(assignment):
            if a == 1:
                alpha[i] = c
        if free:
            q_ff = q[np.ix_(free, free)]
            rhs = 1.0 - (q @ alpha)[free]  # alpha is zero on the free set here
            try:
                alpha_free = np.linalg.solve(q_ff, rhs)
            except np.linalg.LinAlgError:
                continue
            alpha[free] = alpha_free
            if np.any(alpha_free < -1e-9) or np.any(alpha_free > c + 1e-9):
                continue
        grad = q @ alpha - 1.0
        ok = True
        for i, a in enumerate(assignment):
            if a == 0 and grad[i] < -1e-7:
                ok = False
            elif a == 1 and grad[i] > 1e-7:
                ok = False
            elif a == 2 and abs(grad[i]) > 1e-7:
                ok = False
        if ok:
            best = min(best, 0.5 * alpha @ q @ alpha - alpha.sum())
    return best


def test_symmetric_pair_boundary_at_zero():
    model = svm_train_linear(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]), c=100.0)
    assert abs(model.bias) <= 1e-9
    assert svm_score(model, np.array([1.0])) > 0
    assert svm_score(model, np.array([-1.0])) < 0


def test_separable_blobs_train_accuracy(rng):
    pos = rng.standard_normal((40, 2)) + [3.0, 3.0]
    neg = rng.standard_normal((40, 2)) - [3.0, 3.0]
    x = np.vstack([pos, neg])
    y = np.array([1.0] * 40 + [-1.0] * 40)
    model = svm_train_linear(x, y, c=1.0)
    predictions = np.sign(x @ model.weights + model.bias)
    assert np.all(predictions == y)


def test_tiny_problems_match_qp_oracle(rng):
    for trial in range(6):
        n = int(rng.integers(3, 7))
        x = rng.standard_normal((n, 2))
        y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        c = float(rng.uniform(0.3, 2.0))
        model = svm_train_linear(x, y, c=c, tol=1e-10, max_epochs=200000)
        solver_obj = model.history[-1]
        oracle_obj = qp_oracle_objective(x, y, c)
        assert abs(solver_obj - oracle_obj) <= 1e-4


def test_dual_objective_monotone_per_epoch(rng):
    x = rng.standard_normal((30, 3))
    y = np.where(rng.random(30) > 0.5, 1.0, -1.0)
    y[:2] = [1.0, -1.0]
    model = svm_train_linear(x, y, c=1.0)
    history = np.array(model.history)
    assert np.all(np.diff(history) <= 1e-12)


def test_single_class_rejected(rng):
    with pytest.raises(ValueError, match="single class"):
        svm_train_linear(rng.standard_normal((5, 2)), np.ones(5))


def test_training_is_deterministic(rng):
    x = rng.standard_normal((20, 3))
    y = np.where(rng.random(20) > 0.5, 1.0, -1.0)
    y[:2] = [1.0, -1.0]
    a = svm_train_linear(x, y, c=1.0)
    b = svm_train_linear(x, y, c=1.0)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias


class TestScore:
    def test_zero_weight_constant_bias(self):
        model = LinearModel(np.zeros(4), 0.3)
        assert svm_score(model, np.ones(4)) == 0.3

    def test_linearity(self, rng):
        model = LinearModel(rng.standard_normal(4), -0.7)
        v = rng.standard_normal(4)
        alpha = 2.5
        lhs = svm_score(model, alpha * v) - model.bias
        rhs = alpha * (svm_score(model, v) - model.bias)
        assert np.isclose(lhs, rhs)

    def test_matches_dot_product_oracle(self, rng):
        model = LinearModel(rng.standard_normal(6), 0.1)
        v = rng.standard_normal(6)
        expected = sum(model.weights[i] * v[i] for i in range(6)) + model.bias
        assert abs(svm_score(model, v) - expected) <= 1e-12

    def test_accepts_ivector(self, rng):
        # extract_ivector returns the plain 1-D array the SVM scores
        ubm = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        tv = TotalVariabilityModel(ubm, rng.standard_normal((2, 3)))
        ivec = extract_ivector(tv, BaumWelchStats(np.array([4.0]), rng.standard_normal((1, 2))))
        model = LinearModel(np.ones(3), 0.5)
        assert svm_score(model, ivec) == float(np.ones(3) @ ivec + 0.5)

    def test_dimension_mismatch(self):
        model = LinearModel(np.ones(3), 0.0)
        with pytest.raises(ValueError, match="dimension"):
            svm_score(model, np.ones(4))
