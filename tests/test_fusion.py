import warnings

import numpy as np
import pytest

from replaycm import fusion
from replaycm.fusion import _loss_and_grad, fusion_apply, fusion_train
from replaycm.svm import LinearModel
from replaycm.metrics import compute_eer


def eer_of(scores, labels):
    return compute_eer(scores[labels > 0], scores[labels < 0])[0]


def test_single_separable_system_keeps_eer(rng):
    genuine = rng.normal(2.0, 0.4, 30)
    spoof = rng.normal(-2.0, 0.4, 30)
    scores = np.concatenate([genuine, spoof])[:, None]
    labels = np.array([1.0] * 30 + [-1.0] * 30)
    model = fusion_train(scores, labels)
    assert model.weights[0] > 0  # higher-is-genuine orientation preserved
    fused = fusion_apply(model, scores)
    assert eer_of(fused, labels) == eer_of(scores[:, 0], labels)


def test_two_identical_systems_keep_eer(rng):
    base = np.concatenate([rng.normal(1.0, 1.0, 40), rng.normal(-1.0, 1.0, 40)])
    labels = np.array([1.0] * 40 + [-1.0] * 40)
    scores = np.stack([base, base], axis=1)
    model = fusion_train(scores, labels)
    fused = fusion_apply(model, scores)
    assert abs(eer_of(fused, labels) - eer_of(base, labels)) <= 1e-12


def test_complementary_systems_fuse_better(rng):
    # each system separates one half of the trials and is noise on the other
    n = 40
    labels = np.array([1.0] * n + [-1.0] * n)
    s1 = np.concatenate([
        np.concatenate([rng.normal(2.0, 0.3, n // 2), rng.normal(0.0, 0.3, n // 2)]),
        np.concatenate([rng.normal(-2.0, 0.3, n // 2), rng.normal(0.0, 0.3, n // 2)]),
    ])
    s2 = np.concatenate([
        np.concatenate([rng.normal(0.0, 0.3, n // 2), rng.normal(2.0, 0.3, n // 2)]),
        np.concatenate([rng.normal(0.0, 0.3, n // 2), rng.normal(-2.0, 0.3, n // 2)]),
    ])
    scores = np.stack([s1, s2], axis=1)
    model = fusion_train(scores, labels)
    fused = fusion_apply(model, scores)
    assert eer_of(fused, labels) <= min(eer_of(s1, labels), eer_of(s2, labels))


def test_loss_history_non_increasing(rng):
    scores = rng.standard_normal((60, 3))
    labels = np.where(rng.random(60) > 0.5, 1.0, -1.0)
    labels[:4] = [1.0, 1.0, -1.0, -1.0]
    model = fusion_train(scores, labels)
    history = np.array(model.history)
    assert np.all(np.diff(history) <= 0.0)


def test_gradient_norm_reached(rng):
    scores = np.concatenate([rng.normal(1, 1, 50), rng.normal(-1, 1, 50)])[:, None]
    labels = np.array([1.0] * 50 + [-1.0] * 50)
    model = fusion_train(scores, labels)
    # recompute the gradient at the trained point
    aug = np.hstack([scores, np.ones((100, 1))])
    theta = np.concatenate([model.weights, [model.bias]])
    z = labels * (aug @ theta)
    sigma = 1.0 / (1.0 + np.exp(z))
    grad = aug.T @ (-(sigma / 100.0) * labels) + 2e-6 * theta
    assert np.linalg.norm(grad) <= 1e-8


@pytest.mark.parametrize("scale, max_iters, how", [
    (1e9, 50000, "stalled (no step descends)"),  # no descent at float precision
    (1.0, 3, "reached max_iters"),
])
def test_an_unconverged_fit_warns_why_and_after_how_many_iterations(
        monkeypatch, scale, max_iters, how):
    monkeypatch.setattr(fusion, "MAX_ITERS", max_iters)
    rng = np.random.default_rng(0)
    scores = scale * np.concatenate([rng.normal(1.0, 1.0, (40, 2)),
                                     rng.normal(-1.0, 1.0, (40, 2))])
    labels = np.array([1.0] * 40 + [-1.0] * 40)
    with pytest.warns(UserWarning) as record:
        model = fusion_train(scores, labels)
    iterations = len(model.history) - 1
    assert iterations < 50000 if max_iters == 50000 else iterations == max_iters
    assert [str(w.message).split(" with ")[0] for w in record] == [
        f"fusion training {how} after {iterations} iterations"]


def test_gradient_logistic_matches_closed_form_without_warnings():
    # with one trial, label +1, unit weight and no L2, the gradient with
    # respect to the offset is -1/(1+e^z) at margin z
    z = np.concatenate([np.linspace(-800.0, 800.0, 3201), [-1e-300, 0.0, 1e-300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.array([-_loss_and_grad(np.array([zi]), np.ones((1, 1)), np.ones(1),
                                        0.0, np.ones(1))[1][0] for zi in z])
    # 1/(1+e^z), written as e^-z/(1+e^-z) for z > 0 so that nothing overflows
    e = np.exp(-np.abs(z))
    want = np.where(z > 0, e / (1.0 + e), 1.0 / (1.0 + e))
    assert np.all(np.abs(got - want) <= 1e-12 * want + 1e-300)
    assert np.all(got[z > 740] < 1e-300) and np.all(got[z < -40] == 1.0)


def test_single_class_rejected(rng):
    with pytest.raises(ValueError, match="per class"):
        fusion_train(rng.standard_normal((6, 2)), np.ones(6))


def test_non_finite_scores_rejected():
    scores = np.array([[1.0], [np.inf], [0.0], [2.0]])
    with pytest.raises(ValueError, match="finite"):
        fusion_train(scores, np.array([1.0, 1.0, -1.0, -1.0]))


class TestApply:
    def test_projection_weight(self):
        model = LinearModel(np.array([1.0, 0.0, 0.0]), 0.0)
        assert fusion_apply(model, np.array([[0.7, -5.0, 3.0]])).tolist() == [0.7]

    def test_constant_offset(self):
        model = LinearModel(np.zeros(2), -1.25)
        assert fusion_apply(model, np.array([[4.0, 5.0]])).tolist() == [-1.25]

    def test_matches_dot_product_oracle(self, rng):
        model = LinearModel(rng.standard_normal(4), 0.3)
        s = rng.standard_normal(4)
        expected = sum(model.weights[i] * s[i] for i in range(4)) + model.bias
        (fused,) = fusion_apply(model, s[None, :])
        assert abs(fused - expected) <= 1e-12

    def test_matrix_application(self, rng):
        model = LinearModel(rng.standard_normal(2), 0.1)
        scores = rng.standard_normal((5, 2))
        fused = fusion_apply(model, scores)
        assert fused.shape == (5,)
        assert np.allclose(fused, scores @ model.weights + model.bias)

    def test_dimension_mismatch(self):
        model = LinearModel(np.ones(3), 0.0)
        for shape in [(1, 2), (3,), (1, 1, 3)]:
            with pytest.raises(ValueError, match="trials x 3"):
                fusion_apply(model, np.ones(shape))
