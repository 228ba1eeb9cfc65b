import numpy as np
import pytest

from replaycm.gmm import (
    GmmModel,
    _resolve_variance_floor,
    frame_logliks,
    gmm_avg_loglik,
    gmm_em_train,
    llr_score,
)
from replaycm.ivector import baum_welch_stats

LOG_2PI = np.log(2.0 * np.pi)


# The E-step kernels of the earlier implementation, kept as oracles: log
# densities from one matmul on rows [x^2, x] plus a per-component constant,
# then the log-weights added and each row normalized in a second pass.
def _log_densities(model, xx):
    inv_var = 1.0 / model.variances
    coef = np.vstack([-0.5 * inv_var.T, (model.means * inv_var).T])
    const = -0.5 * (model.dim * LOG_2PI
                    + np.sum(np.log(model.variances) + model.means**2 * inv_var, axis=1))
    out = xx @ coef
    out += const
    return out


def _posteriors_in_place(log_joint):
    m = np.max(log_joint, axis=1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    log_joint -= m
    np.exp(log_joint, out=log_joint)
    total = log_joint.sum(axis=1, keepdims=True)
    log_joint /= total
    return np.log(total[:, 0]) + m[:, 0]


def log_component_densities(model, frames):
    return _log_densities(model, np.hstack([frames**2, frames]))


def oracle_posteriors(model, frames):
    """(posteriors (N, K), per-frame log-likelihoods) by the oracle kernels."""
    with np.errstate(divide="ignore"):
        resp = log_component_densities(model, frames) + np.log(model.weights)
    return resp, _posteriors_in_place(resp)


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
        density = np.exp(frame_logliks(model, grid[:, None]))
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


def random_model(rng, k, d):
    return GmmModel(rng.dirichlet(np.ones(k)), rng.standard_normal((k, d)) * 2.0,
                    rng.uniform(0.3, 2.0, (k, d)))


class TestEStepMatchesOracleKernels:
    """The folded E-step against the earlier two-pass kernels."""

    @pytest.mark.parametrize("k, d", [(1, 1), (5, 3), (16, 20)])
    def test_one_em_iteration(self, rng, k, d):
        frames = rng.standard_normal((300, d)) * rng.uniform(0.5, 2.0, d)
        model = gmm_em_train(frames, k=k, iters=1, seed=7)
        # the initial model and the oracle's single E and M step
        floor = _resolve_variance_floor(frames, None)
        global_var = np.maximum(frames.var(axis=0), floor)
        init_rng = np.random.default_rng(7)
        start = GmmModel(np.full(k, 1.0 / k), frames[init_rng.choice(len(frames), k, False)],
                         np.tile(global_var, (k, 1)))
        resp, frame_ll = oracle_posteriors(start, frames)
        nk = resp.sum(axis=0)
        means = resp.T @ frames / nk[:, None]
        variances = np.maximum(resp.T @ frames**2 / nk[:, None] - means**2, floor)
        np.testing.assert_allclose(model.weights, nk / len(frames), rtol=1e-10)
        np.testing.assert_allclose(model.means, means, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(model.variances, variances, rtol=1e-10)
        trained = GmmModel(nk / len(frames), means, variances)
        np.testing.assert_allclose(
            model.loglik_history,
            [frame_ll.mean(), oracle_posteriors(trained, frames)[1].mean()], rtol=1e-10)

    @pytest.mark.parametrize("k, d", [(1, 2), (8, 4), (64, 20)])
    def test_baum_welch_stats_and_avg_loglik(self, rng, k, d):
        model = random_model(rng, k, d)
        frames = rng.standard_normal((150, d)) * 2.0
        resp, frame_ll = oracle_posteriors(model, frames)
        stats = baum_welch_stats(model, frames)
        n = resp.sum(axis=0)
        np.testing.assert_allclose(stats.n, n, rtol=1e-10, atol=1e-10)
        # a view would keep each utterance's whole (K, D+1) sums matrix alive
        assert stats.n.flags.owndata
        np.testing.assert_allclose(stats.f, resp.T @ frames - n[:, None] * model.means,
                                   rtol=1e-10, atol=1e-10)
        assert abs(gmm_avg_loglik(model, frames) - frame_ll.mean()) <= 1e-10

    @pytest.mark.filterwarnings("error")  # no divide-by-zero from log 0
    def test_zero_weight_component_contributes_nothing(self, rng):
        # log 0 = -inf is folded into the matmul's constant row; the dead
        # component sits on the frames, where it would dominate if it counted
        live = GmmModel(np.array([1.0]), np.array([[4.0, -1.0]]), np.array([[1.5, 0.7]]))
        padded = GmmModel(np.array([1.0, 0.0]), np.array([[4.0, -1.0], [0.0, 0.0]]),
                          np.array([[1.5, 0.7], [1.0, 1.0]]))
        frames = rng.standard_normal((40, 2))
        logliks = frame_logliks(padded, frames)
        assert np.all(np.isfinite(logliks))
        np.testing.assert_allclose(logliks, frame_logliks(live, frames), rtol=1e-12)
        assert abs(gmm_avg_loglik(padded, frames) - gmm_avg_loglik(live, frames)) <= 1e-12
        assert abs(llr_score(padded, live, frames)) <= 1e-12
        stats, alone = baum_welch_stats(padded, frames), baum_welch_stats(live, frames)
        assert stats.n[1] == 0.0 and np.all(stats.f[1] == 0.0)
        np.testing.assert_allclose(stats.n[:1], alone.n, rtol=1e-12)
        np.testing.assert_allclose(stats.f[:1], alone.f, rtol=1e-12)
