import numpy as np
import pytest

from replaycm.gmm import (
    GmmModel,
    gmm_avg_loglik,
    gmm_em_train,
    llr_score,
    log_component_densities,
)


def naive_avg_loglik(model, frames):
    """Direct per-frame density summation oracle."""
    total = 0.0
    for x in frames:
        density = 0.0
        for w, mu, var in zip(model.weights, model.means, model.variances):
            gauss = np.prod(
                np.exp(-0.5 * (x - mu) ** 2 / var) / np.sqrt(2 * np.pi * var)
            )
            density += w * gauss
        total += np.log(density)
    return total / len(frames)


def naive_em(frames, k, iters, variance_floor=None, seed=0):
    """Textbook EM, one component at a time; returns (weights, means,
    variances, loglik history, number of re-seeded components)."""
    n, d = frames.shape
    floor = 1e-4 * frames.var(axis=0) if variance_floor is None else np.full(d, variance_floor)
    floor = np.maximum(floor, 1e-12)
    global_var = np.maximum(frames.var(axis=0), floor)
    rng = np.random.default_rng(seed)
    means = frames[rng.choice(n, size=k, replace=False)].copy()
    variances = np.tile(global_var, (k, 1))
    weights = np.full(k, 1.0 / k)

    def frame_loglik_and_resp():
        log_joint = np.empty((n, k))
        for c in range(k):
            log_joint[:, c] = np.log(weights[c]) - 0.5 * np.sum(
                np.log(2 * np.pi * variances[c]) + (frames - means[c]) ** 2 / variances[c],
                axis=1,
            )
        top = log_joint.max(axis=1)
        loglik = top + np.log(np.sum(np.exp(log_joint - top[:, None]), axis=1))
        return loglik, np.exp(log_joint - loglik[:, None])

    history, reseeds = [], 0
    for _ in range(iters):
        loglik, resp = frame_loglik_and_resp()
        history.append(loglik.mean())
        new_w, new_m, new_v = np.empty(k), np.empty((k, d)), np.empty((k, d))
        for c in range(k):
            nk = resp[:, c].sum()
            if nk < 1e-10:
                new_w[c], new_m[c], new_v[c] = 1.0 / n, frames[np.argmin(loglik)], global_var
                reseeds += 1
                continue
            new_w[c] = nk / n
            new_m[c] = resp[:, c] @ frames / nk
            new_v[c] = np.maximum(resp[:, c] @ (frames - new_m[c]) ** 2 / nk, floor)
        weights, means, variances = new_w / new_w.sum(), new_m, new_v
    history.append(frame_loglik_and_resp()[0].mean())
    return weights, means, variances, history, reseeds


def two_cluster_data(rng, n=1000, sep=5.0):
    a = rng.standard_normal((n // 2, 2)) + sep
    b = rng.standard_normal((n // 2, 2)) - sep
    return np.vstack([a, b])


class TestModel:
    def test_invariants(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GmmModel(np.array([0.6, 0.6]), np.zeros((2, 1)), np.ones((2, 1)))
        with pytest.raises(ValueError, match="positive"):
            GmmModel(np.array([1.0]), np.zeros((1, 1)), np.zeros((1, 1)))

    def test_density_integrates_to_one_1d(self):
        model = GmmModel(np.array([1.0]), np.array([[0.3]]), np.array([[1.7]]))
        sigma = np.sqrt(1.7)
        grid = np.linspace(0.3 - 8 * sigma, 0.3 + 8 * sigma, 20001)
        density = np.exp(log_component_densities(model, grid[:, None])[:, 0])
        integral = np.trapezoid(density, grid)
        assert abs(integral - 1.0) <= 1e-6


class TestAvgLoglik:
    def test_standard_normal_at_mean(self):
        model = GmmModel(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1)))
        value = gmm_avg_loglik(model, np.zeros((1, 1)))
        assert np.isclose(value, np.log(1.0 / np.sqrt(2 * np.pi)))

    def test_split_weight_invariance(self, rng):
        mean = rng.standard_normal((1, 4))
        var = rng.uniform(0.5, 2.0, (1, 4))
        whole = GmmModel(np.array([1.0]), mean, var)
        split = GmmModel(np.array([0.5, 0.5]), np.vstack([mean, mean]),
                         np.vstack([var, var]))
        frames = rng.standard_normal((20, 4))
        assert abs(gmm_avg_loglik(whole, frames) - gmm_avg_loglik(split, frames)) <= 1e-12

    def test_matches_naive_oracle(self, rng):
        model = GmmModel(
            rng.dirichlet(np.ones(3)),
            rng.standard_normal((3, 2)),
            rng.uniform(0.5, 2.0, (3, 2)),
        )
        frames = rng.standard_normal((50, 2))
        assert abs(gmm_avg_loglik(model, frames) - naive_avg_loglik(model, frames)) <= 1e-10

    def test_dimension_mismatch(self, rng):
        model = GmmModel(np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
        with pytest.raises(ValueError, match="frames"):
            gmm_avg_loglik(model, rng.standard_normal((5, 2)))


class TestEmTraining:
    def test_k1_closed_form_in_one_iteration(self, rng):
        frames = rng.standard_normal((200, 3)) * 1.5 + 0.7
        model = gmm_em_train(frames, k=1, iters=1, seed=0)
        assert np.allclose(model.weights, [1.0])
        assert np.allclose(model.means[0], frames.mean(axis=0))
        assert np.allclose(model.variances[0], frames.var(axis=0))

    def test_two_cluster_recovery(self, rng):
        frames = two_cluster_data(rng)
        model = gmm_em_train(frames, k=2, iters=30, seed=1)
        recovered = model.means[np.argsort(model.means[:, 0])]
        assert np.max(np.abs(recovered[0] - (-5.0))) <= 0.1
        assert np.max(np.abs(recovered[1] - 5.0)) <= 0.1

    def test_loglik_monotone_over_iterations(self, rng):
        frames = rng.standard_normal((300, 4))
        model = gmm_em_train(frames, k=5, iters=20, seed=2)
        history = np.array(model.loglik_history)
        assert history.size == 21
        assert np.all(np.diff(history) >= -1e-8)

    def test_fewer_frames_than_components(self, rng):
        with pytest.raises(ValueError, match="at least"):
            gmm_em_train(rng.standard_normal((3, 2)), k=5)

    def test_variance_floor_applied(self, rng):
        frames = np.repeat(rng.standard_normal((5, 2)), 10, axis=0)
        model = gmm_em_train(frames, k=2, iters=5, variance_floor=0.5, seed=3)
        assert np.all(model.variances >= 0.5)

    def test_empty_component_reseeded(self, rng):
        # one far outlier: seeded init never picks it, and the outlier keeps a
        # vanishing posterior until the reseeding branch revives a component
        frames = np.vstack([rng.standard_normal((60, 1)) * 0.1,
                            np.array([[1e4]])])
        model = gmm_em_train(frames, k=2, iters=8, seed=0)
        assert np.all(np.isfinite(model.means))
        assert np.all(model.weights > 0)
        # the reseeded component sits on the outlier frame
        assert np.any(np.abs(model.means - 1e4) < 1.0)


class TestEmMatchesNaiveOracle:
    @pytest.mark.parametrize("k, iters, variance_floor", [(1, 2, None), (4, 6, None),
                                                          (6, 5, 0.3)])
    def test_random_frames(self, rng, k, iters, variance_floor):
        frames = rng.standard_normal((400, 3)) * [1.0, 2.0, 0.5] + [0.5, -1.0, 2.0]
        self.assert_matches(frames, k, iters, variance_floor, seed=11)

    def test_empty_component_reseed_path(self):
        # a tight cluster plus one far outlier: one of five components slowly
        # loses all its posterior mass and is re-seeded
        cluster = np.random.default_rng(5).standard_normal((33, 1)) * 0.1
        frames = np.vstack([cluster, np.array([[1e4]])])
        reseeds = self.assert_matches(frames, 5, 12, None, seed=0)
        assert reseeds >= 1

    @staticmethod
    def assert_matches(frames, k, iters, variance_floor, seed):
        model = gmm_em_train(frames, k=k, iters=iters, variance_floor=variance_floor,
                             seed=seed)
        weights, means, variances, history, reseeds = naive_em(
            frames, k, iters, variance_floor, seed)
        np.testing.assert_allclose(model.weights, weights, rtol=1e-9)
        np.testing.assert_allclose(model.means, means, rtol=1e-9)
        np.testing.assert_allclose(model.variances, variances, rtol=1e-9)
        np.testing.assert_allclose(model.loglik_history, history, rtol=1e-9)
        return reseeds


class TestLlr:
    def test_identical_models_score_zero(self, rng):
        model = gmm_em_train(rng.standard_normal((50, 2)), k=2, iters=3, seed=4)
        frames = rng.standard_normal((10, 2))
        assert llr_score(model, model, frames) == 0.0

    def test_genuine_frames_score_positive(self, rng):
        genuine = GmmModel(np.array([1.0]), np.array([[3.0]]), np.ones((1, 1)))
        spoofed = GmmModel(np.array([1.0]), np.array([[-3.0]]), np.ones((1, 1)))
        frames = rng.standard_normal((40, 1)) + 3.0
        assert llr_score(genuine, spoofed, frames) > 0

    def test_antisymmetry(self, rng):
        a = gmm_em_train(rng.standard_normal((50, 2)), k=2, iters=3, seed=5)
        b = gmm_em_train(rng.standard_normal((50, 2)) + 1.0, k=2, iters=3, seed=6)
        frames = rng.standard_normal((15, 2))
        assert llr_score(a, b, frames) == -llr_score(b, a, frames)
