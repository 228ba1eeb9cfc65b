import hashlib
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from replaycm import ivector, pipeline
from replaycm.config import IvecSystemSpec
from replaycm.corpus import Trial
from replaycm.gmm import GmmModel
from replaycm.ivector import (
    BaumWelchStats,
    TotalVariabilityModel,
    baum_welch_stats,
    center_length_normalize,
    extract_ivector,
    train_t_matrix,
)


def naive_baum_welch(ubm, frames):
    """Direct per-frame posterior-weighted summation oracle."""
    k, d = ubm.means.shape
    n = np.zeros(k)
    f = np.zeros((k, d))
    for x in frames:
        dens = np.array([
            w * np.prod(np.exp(-0.5 * (x - mu) ** 2 / var) / np.sqrt(2 * np.pi * var))
            for w, mu, var in zip(ubm.weights, ubm.means, ubm.variances)
        ])
        post = dens / dens.sum()
        n += post
        f += post[:, None] * (x[None, :] - ubm.means)
    return n, f


def dense_extract_oracle(tv, stats):
    """Explicit dense solve in the full supervector space."""
    k, d = tv.ubm.means.shape
    sigma_inv = np.diag(1.0 / tv.ubm.variances.reshape(-1))
    n_diag = np.diag(np.repeat(stats.n, d))
    f_flat = stats.f.reshape(-1)
    lhs = np.eye(tv.rank) + tv.t_matrix.T @ sigma_inv @ n_diag @ tv.t_matrix
    rhs = tv.t_matrix.T @ sigma_inv @ f_flat
    return np.linalg.solve(lhs, rhs)


def loop_posterior(t_matrix, ubm, n, f):
    """Per-component loop: posterior precision, information vector and mean
    of one utterance's latent factor."""
    k, d = ubm.means.shape
    rank = t_matrix.shape[1]
    precision = np.eye(rank)
    b = np.zeros(rank)
    for c in range(k):
        t_c = t_matrix[c * d : (c + 1) * d]
        scaled = t_c / ubm.variances[c][:, None]
        if n[c]:
            precision += n[c] * (scaled.T @ t_c)
        b += scaled.T @ f[c]
    return precision, b, np.linalg.solve(precision, b)


def loop_train_t_matrix(stats, ubm, rank, iters, seed):
    """Per-utterance, per-component EM reference; returns (T, objective history)."""
    k, d = ubm.means.shape
    t_matrix = 0.1 * np.random.default_rng(seed).standard_normal((k * d, rank))

    def objective_and_accumulators():
        a_acc, c_acc, objective = np.zeros((k, rank, rank)), np.zeros((k, d, rank)), 0.0
        for st in stats:
            precision, b, w = loop_posterior(t_matrix, ubm, st.n, st.f)
            objective += -0.5 * np.linalg.slogdet(precision)[1] + 0.5 * float(b @ w)
            second_moment = np.linalg.inv(precision) + np.outer(w, w)
            for c in range(k):
                a_acc[c] += st.n[c] * second_moment
                c_acc[c] += np.outer(st.f[c], w)
        return objective, a_acc, c_acc

    history = []
    for _ in range(iters):
        objective, a_acc, c_acc = objective_and_accumulators()
        history.append(objective)
        new_t = t_matrix.copy()
        for c in range(k):
            if np.trace(a_acc[c]) > 0.0:
                new_t[c * d : (c + 1) * d] = np.linalg.solve(a_acc[c], c_acc[c].T).T
        t_matrix = new_t
    history.append(objective_and_accumulators()[0])
    return t_matrix, history


def stacked(stats):
    """The (U, K) counts and (U, K*D) first-order sums train_t_matrix reads."""
    return np.stack([st.n for st in stats]), np.stack([st.f.reshape(-1) for st in stats])


def random_ubm(rng, k, d):
    return GmmModel(
        rng.dirichlet(np.ones(k)),
        rng.standard_normal((k, d)) * 2.0,
        rng.uniform(0.5, 2.0, (k, d)),
    )


class TestBaumWelchStats:
    def test_saturated_posterior_at_component_mean(self):
        ubm = GmmModel(np.array([0.5, 0.5]), np.array([[10.0], [-10.0]]),
                       np.ones((2, 1)))
        stats = baum_welch_stats(ubm, np.array([[10.0]]))
        assert np.allclose(stats.n, [1.0, 0.0], atol=1e-8)
        assert np.max(np.abs(stats.f[0])) <= 1e-8

    def test_counts_sum_to_frame_count(self, rng):
        ubm = random_ubm(rng, 4, 3)
        frames = rng.standard_normal((37, 3))
        stats = baum_welch_stats(ubm, frames)
        assert abs(stats.n.sum() - 37.0) <= 1e-8

    def test_matches_direct_summation_oracle(self, rng):
        ubm = random_ubm(rng, 3, 2)
        frames = rng.standard_normal((25, 2))
        stats = baum_welch_stats(ubm, frames)
        n, f = naive_baum_welch(ubm, frames)
        assert np.max(np.abs(stats.n - n)) <= 1e-10
        assert np.max(np.abs(stats.f - f)) <= 1e-10


class TestTrainTMatrix:
    def test_rank1_subspace_recovery(self, rng):
        k, d = 2, 2
        ubm = random_ubm(rng, k, d)
        t_true = rng.standard_normal((k * d, 1))
        stats = []
        for _ in range(150):
            n_u = rng.uniform(5.0, 50.0, k)
            w = rng.standard_normal()
            f_flat = np.repeat(n_u, d) * (t_true[:, 0] * w)
            f_flat += rng.standard_normal(k * d) * 0.01
            stats.append(BaumWelchStats(n_u, f_flat.reshape(k, d)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tv = train_t_matrix(*stacked(stats), ubm, rank=1, iters=20, seed=0)
        cos = abs(
            float(tv.t_matrix[:, 0] @ t_true[:, 0])
            / (np.linalg.norm(tv.t_matrix) * np.linalg.norm(t_true))
        )
        assert cos > 0.99

    def test_zero_stats_keep_initialization(self, rng):
        k, d = 2, 3
        ubm = random_ubm(rng, k, d)
        stats = [BaumWelchStats(np.zeros(k), np.zeros((k, d))) for _ in range(5)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tv = train_t_matrix(*stacked(stats), ubm, rank=2, iters=3, seed=7)
        init = 0.1 * np.random.default_rng(7).standard_normal((k * d, 2))
        assert np.array_equal(tv.t_matrix, init)
        ivec = extract_ivector(tv, stats[0])
        assert np.all(ivec == 0.0)

    def test_objective_non_decreasing(self, rng):
        k, d = 3, 2
        ubm = random_ubm(rng, k, d)
        stats = []
        for _ in range(40):
            frames = rng.standard_normal((30, d))
            stats.append(baum_welch_stats(ubm, frames))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tv = train_t_matrix(*stacked(stats), ubm, rank=2, iters=8, seed=1)
        history = np.array(tv.history)
        assert history.size == 9
        assert np.all(np.diff(history) >= -1e-8)

    def test_matches_per_utterance_loop_oracle(self, rng):
        k, d, rank = 5, 3, 4
        ubm = random_ubm(rng, k, d)
        stats = []
        for _ in range(12):
            st = baum_welch_stats(ubm, rng.standard_normal((40, d)) * 2.0)
            st.n[2], st.f[2] = 0.0, 0.0  # component 2 never sees evidence
            stats.append(st)
        tv = train_t_matrix(*stacked(stats), ubm, rank=rank, iters=6, seed=3)
        t_ref, history_ref = loop_train_t_matrix(stats, ubm, rank, iters=6, seed=3)
        np.testing.assert_allclose(tv.t_matrix, t_ref, rtol=1e-9)
        np.testing.assert_allclose(tv.history, history_ref, rtol=1e-9)
        init = 0.1 * np.random.default_rng(3).standard_normal((k * d, rank))
        assert np.array_equal(tv.t_matrix[2 * d : 3 * d], init[2 * d : 3 * d])

    @pytest.mark.parametrize("e_block, c_block", [(5, 3), (7, 1), (13, 5)])
    def test_blocked_e_step_matches_loop_oracle(self, rng, monkeypatch, e_block, c_block):
        # 12 utterances in blocks of 5, 5 and 2, of 7 and 5, or in one; 4
        # components in blocks of 3 and 1, one by one, or in one
        k, d, rank = 4, 3, 3
        ubm = random_ubm(rng, k, d)
        stats = [baum_welch_stats(ubm, rng.standard_normal((30, d)) * 2.0) for _ in range(12)]
        monkeypatch.setattr(ivector, "E_STEP_BLOCK", e_block)
        monkeypatch.setattr(ivector, "COMPONENT_BLOCK", c_block)
        tv = train_t_matrix(*stacked(stats), ubm, rank=rank, iters=4, seed=2)
        t_ref, history_ref = loop_train_t_matrix(stats, ubm, rank, iters=4, seed=2)
        np.testing.assert_allclose(tv.t_matrix, t_ref, rtol=1e-10)
        np.testing.assert_allclose(tv.history, history_ref, rtol=1e-10)
        for st in stats:
            np.testing.assert_allclose(extract_ivector(tv, st),
                                       dense_extract_oracle(tv, st), rtol=1e-10)

    @pytest.mark.parametrize("bad", [1, 3, 4])
    def test_singular_m_step_system_gets_ridge_and_warning(self, rng, monkeypatch, bad):
        # components in blocks of 2: the singular one sits in the first block,
        # second in a later one or alone in the last, and the warning names
        # its index among all components
        k, d, rank = 5, 2, 2
        monkeypatch.setattr(ivector, "COMPONENT_BLOCK", 2)
        ubm = random_ubm(rng, k, d)
        stats = [baum_welch_stats(ubm, rng.standard_normal((30, d))) for _ in range(8)]
        expected = train_t_matrix(*stacked(stats), ubm, rank=rank, iters=1, seed=4).t_matrix
        real_solve = np.linalg.solve
        per_component_calls = []

        def solve(a, b):
            # every batched solve and component `bad`'s plain solve report a
            # singular system, so the components are solved one by one, in order
            if a.ndim == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            per_component_calls.append(a.copy())  # `a` may view a reused buffer
            if len(per_component_calls) == bad + 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        with pytest.warns(UserWarning, match=f"component {bad}; adding ridge") as caught:
            tv = train_t_matrix(*stacked(stats), ubm, rank=rank, iters=1, seed=4)
        assert sum("adding ridge" in str(w.message) for w in caught) == 1
        np.testing.assert_array_equal(per_component_calls[bad + 1],
                                      per_component_calls[bad] + 1e-6 * np.eye(rank))
        rows = np.s_[bad * d : (bad + 1) * d]
        np.testing.assert_allclose(np.delete(tv.t_matrix, rows, axis=0),
                                   np.delete(expected, rows, axis=0), rtol=1e-12)
        np.testing.assert_allclose(tv.t_matrix[rows], expected[rows], rtol=1e-4)

    @pytest.mark.parametrize("bad", [1, 3])
    @pytest.mark.parametrize("tiny", [1e-310, 5e-324])
    def test_subnormal_counts_keep_rows_with_warning(self, rng, monkeypatch, tiny, bad):
        # components in blocks of 2: the starved one sits in the first or the
        # second block, and the warning names its index among all components
        k, d, rank = 5, 2, 2
        monkeypatch.setattr(ivector, "COMPONENT_BLOCK", 2)
        ubm = random_ubm(rng, k, d)
        stats = [baum_welch_stats(ubm, rng.standard_normal((30, d))) for _ in range(8)]
        for st in stats:
            st.n[bad], st.f[bad] = tiny, 0.0  # too little evidence to solve for in floating point
        with pytest.warns(UserWarning, match=f"non-finite M-step solution for component {bad};"):
            tv = train_t_matrix(*stacked(stats), ubm, rank=rank, iters=3, seed=4)
        assert np.all(np.isfinite(tv.t_matrix))
        assert np.all(np.isfinite(tv.history))
        init = 0.1 * np.random.default_rng(4).standard_normal((k * d, rank))
        rows = np.s_[bad * d : (bad + 1) * d]
        assert np.array_equal(tv.t_matrix[rows], init[rows])

    def test_peak_memory_holds_no_stack_of_component_systems(self):
        # K = 128, R = 60: one (K, R, R) array is 3.5 MiB.  Building the Gram
        # matrices and the M-step systems as such stacks, with two generations
        # of T, the Gram and the accumulators alive, peaked at 13.8 MiB; one
        # generation of each, with the statistics and the E-step's
        # temporaries, peaks at 8.6 MiB
        k, d, rank = 128, 20, 60
        rng = np.random.default_rng(0)
        ubm = random_ubm(rng, k, d)
        stats = [BaumWelchStats(rng.uniform(0.0, 5.0, k), rng.standard_normal((k, d)))
                 for _ in range(40)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # fewer utterances than the rank
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                train_t_matrix(*stacked(stats), ubm, rank=rank, iters=1, seed=1)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_returned_model_keeps_its_gram_matrices(self, rng):
        k, d, rank = 4, 3, 3
        ubm = random_ubm(rng, k, d)
        stats = [baum_welch_stats(ubm, rng.standard_normal((30, d)) * 2.0) for _ in range(12)]
        tv = train_t_matrix(*stacked(stats), ubm, rank=rank, iters=3, seed=5)
        assert "gram" in vars(tv)  # built by the final E-step, not again by extraction
        fresh = TotalVariabilityModel(ubm, tv.t_matrix)
        assert "gram" not in vars(fresh)
        for st in stats:
            assert np.array_equal(extract_ivector(tv, st), extract_ivector(fresh, st))
        assert np.array_equal(tv.gram, fresh.gram)

    def test_gram_matrices_are_column_major(self, rng):
        # extract_ivector's stats.n @ gram rounds differently over a C-ordered
        # Gram, which moves the i-vector, SVM and score bytes
        k, d, rank = 5, 3, 3
        ubm = random_ubm(rng, k, d)
        stats = [baum_welch_stats(ubm, rng.standard_normal((30, d)) * 2.0) for _ in range(12)]
        tv = train_t_matrix(*stacked(stats), ubm, rank=rank, iters=2, seed=5)
        for gram in (tv.gram, TotalVariabilityModel(ubm, tv.t_matrix).gram):
            assert gram.shape == (k, rank * (rank + 1) // 2)
            assert gram.flags.f_contiguous and not gram.flags.c_contiguous

    def test_gram_and_m_step_systems_share_one_buffer(self):
        # they are never live at once; each view keeps the layout its products
        # were rounded over, so sharing moves no byte
        ws = ivector._EmWorkspace(n_utterances=12, k=10, d=3, rank=4)
        assert ws.gram.shape == ws.a_acc.shape == (10, 10)
        assert ws.gram.flags.f_contiguous and not ws.gram.flags.c_contiguous
        assert ws.a_acc.flags.c_contiguous and not ws.a_acc.flags.f_contiguous
        assert np.shares_memory(ws.gram, ws.a_acc)
        assert ws.precision.shape == ws.systems.shape == (8, 4, 4)
        assert np.shares_memory(ws.precision, ws.systems)

    def test_em_bytes_are_pinned(self):
        # T, its objective history and an i-vector, as the unaliased workspace
        # computed them (numpy 2.4, OpenBLAS, one thread); numpy runs the
        # M-step product as a transposed gemm over a column-major a_acc, which
        # moves these bytes
        rng = np.random.default_rng(7)
        k, d, rank = 40, 2, 40  # a shape on which the transposed gemm rounds otherwise
        ubm = GmmModel(np.full(k, 1.0 / k), rng.standard_normal((k, d)),
                       rng.uniform(0.5, 2.0, (k, d)))
        stats = [BaumWelchStats(rng.uniform(0.0, 5.0, k), rng.standard_normal((k, d)))
                 for _ in range(40)]
        tv = train_t_matrix(*stacked(stats), ubm, rank=rank, iters=2, seed=7)
        digest = hashlib.sha256(tv.t_matrix.tobytes())
        digest.update(np.array(tv.history).tobytes())
        digest.update(extract_ivector(tv, stats[0]).tobytes())
        assert digest.hexdigest()[:16] == "066ffa1ddc3d28d5"

    def test_few_utterances_warn(self, rng):
        ubm = random_ubm(rng, 2, 2)
        stats = [baum_welch_stats(ubm, rng.standard_normal((10, 2))) for _ in range(3)]
        with pytest.warns(UserWarning, match="only 3 utterances"):
            train_t_matrix(*stacked(stats), ubm, rank=4, iters=2, seed=2)


class TestRankWarning:
    @staticmethod
    def train_into(monkeypatch, t_matrix, rank):
        """Warnings of a one-iteration training whose M-step leaves ``t_matrix``."""
        k, d = t_matrix.shape[0] // 2, 2
        rng = np.random.default_rng(0)
        ubm = random_ubm(rng, k, d)
        stats = [baum_welch_stats(ubm, rng.standard_normal((30, d))) for _ in range(rank)]

        def m_step(t, ws, ridge):
            t[...] = t_matrix

        monkeypatch.setattr(ivector, "_m_step", m_step)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tv = train_t_matrix(*stacked(stats), ubm, rank=rank, iters=1, seed=0)
        assert np.array_equal(tv.t_matrix, t_matrix)
        return [str(w.message) for w in caught]

    @pytest.mark.parametrize("last_column", ["duplicated", "scaled by 1e-10"])
    def test_a_dependent_column_warns(self, rng, monkeypatch, last_column):
        t_matrix = rng.standard_normal((1280, 60))
        t_matrix[:, -1] = t_matrix[:, 0] * (1.0 if last_column == "duplicated" else 1e-10)
        assert "trained t_matrix is numerically rank deficient" in self.train_into(
            monkeypatch, t_matrix, 60)

    @pytest.mark.parametrize("ratio, warns", [(1e-9, True), (1e-7, False)])
    def test_the_tolerance_is_the_square_root_of_eps(self, rng, monkeypatch, ratio, warns):
        # sigma_min / sigma_max of T: cond(T'T) is its inverse square, against
        # 1/eps, so the check flags below about 1.5e-8
        left, _ = np.linalg.qr(rng.standard_normal((1280, 60)))
        right, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        t_matrix = (left * np.geomspace(1.0, ratio, 60)) @ right.T
        messages = self.train_into(monkeypatch, t_matrix, 60)
        assert ("trained t_matrix is numerically rank deficient" in messages) == warns

    def test_a_rank_above_the_supervector_dimension_warns(self, rng):
        # T is 4 x 6 here, so at most rank 4, however EM trains it
        ubm = random_ubm(rng, 2, 2)
        stats = [baum_welch_stats(ubm, rng.standard_normal((30, 2))) for _ in range(10)]
        with pytest.warns(UserWarning, match="numerically rank deficient"):
            train_t_matrix(*stacked(stats), ubm, rank=6, iters=3, seed=1)

    def test_a_backend_shaped_trained_t_does_not_warn(self):
        # 64 components of 20 dims, rank 60, 40 utterances of 150 frames and 10
        # iterations, as one backend phrase group trains.  Each utterance
        # occupies a few components, as a phrase's frames do; this T sits at
        # sigma_min / sigma_max 2.5e-4, the trained backend ones at 1.1e-4 to
        # 1.0e-3.  (Frames that occupy every component alike train a T of
        # rank about 40, the number of utterances.)
        k, d, rank = 64, 20, 60
        rng = np.random.default_rng(0)
        ubm = random_ubm(rng, k, d)
        stats = []
        for _ in range(40):
            component = rng.choice(k, 150, p=rng.dirichlet(np.full(k, 0.1)))
            frames = (ubm.means[component]
                      + np.sqrt(ubm.variances[component]) * rng.standard_normal((150, d)))
            stats.append(baum_welch_stats(ubm, frames))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tv = train_t_matrix(*stacked(stats), ubm, rank=rank, iters=10, seed=3)
        assert [str(w.message) for w in caught] == [
            "training a rank-60 subspace from only 40 utterances"]
        singular = np.linalg.svd(tv.t_matrix, compute_uv=False)
        assert singular[-1] / singular[0] > 1e-4


class TestIvecGroupHeap:
    def test_one_group_holds_one_copy_of_its_statistics(self, monkeypatch):
        # one backend phrase group: 40 trials of 150 frames x 20 dims, a
        # 64-component UBM and a rank-60 T.  Its heap peak sits in the first
        # E-step, which holds the EM workspace, T and the stacked statistics
        # (0.41 MiB) and allocates a block's inverse precisions and packed
        # second moments; the margin is for the small rest (the UBM, the
        # information vectors), 0.06 MiB of it.  Stacking a second copy of
        # the statistics from per-trial ones put the peak 0.38 MiB above this bound
        k, d, rank, n_trials = 64, 20, 60, 40
        rng = np.random.default_rng(5)
        trials = [Trial(f"t{i:02d}", ("genuine", "spoof")[i % 2], "S00", "P00")
                  for i in range(n_trials)]
        frames = {t.trial_id: rng.standard_normal((d, 150)).T for t in trials}
        monkeypatch.setattr(pipeline, "read_feature", lambda cfg, name, tid: frames[tid])
        spec = IvecSystemSpec("ivec", "f", ubm_components=k, ubm_iterations=1,
                              tv_rank=rank, tv_iterations=1,
                              ubm_shared=False, t_shared=False, svm_shared=False)
        packed = rank * (rank + 1) // 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # fewer utterances than the rank
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                workspace = ivector._EmWorkspace(n_trials, k, d, rank)
                workspace_bytes = tracemalloc.get_traced_memory()[0] - start
                del workspace
                tracemalloc.reset_peak()
                pipeline._train_ivec_group(SimpleNamespace(seed=1), spec, "P00", trials,
                                           lambda *model: None)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        t_bytes = 8 * k * d * rank
        stats_bytes = 8 * n_trials * (k + k * d)
        block_bytes = 8 * ivector.E_STEP_BLOCK * (rank * rank + 3 * packed)
        margin = 2**17
        assert peak <= workspace_bytes + t_bytes + stats_bytes + block_bytes + margin


class TestExtractIvector:
    def test_zero_stats_zero_ivector(self, rng):
        ubm = random_ubm(rng, 2, 2)
        tv = TotalVariabilityModel(ubm, rng.standard_normal((4, 2)))
        ivec = extract_ivector(tv, BaumWelchStats(np.zeros(2), np.zeros((2, 2))))
        assert np.all(ivec == 0.0)

    def test_scalar_closed_form(self):
        ubm = GmmModel(np.array([1.0]), np.zeros((1, 1)), np.full((1, 1), 2.0))
        tv = TotalVariabilityModel(ubm, np.array([[0.7]]))
        stats = BaumWelchStats(np.array([3.0]), np.array([[1.5]]))
        ivec = extract_ivector(tv, stats)
        expected = (0.7 * 1.5 / 2.0) / (1.0 + 0.7**2 * 3.0 / 2.0)
        assert np.isclose(ivec[0], expected)

    def test_matches_dense_solve_oracle(self, rng):
        for k, d, rank in ((2, 2, 2), (4, 4, 4), (2, 8, 3)):
            ubm = random_ubm(rng, k, d)
            tv = TotalVariabilityModel(ubm, rng.standard_normal((k * d, rank)))
            stats = BaumWelchStats(
                rng.uniform(0.0, 20.0, k), rng.standard_normal((k, d))
            )
            ivec = extract_ivector(tv, stats)
            oracle = dense_extract_oracle(tv, stats)
            assert np.max(np.abs(ivec - oracle)) <= 1e-8

    def test_two_models_each_match_the_loop_oracle(self, rng):
        # two phrases' models of one shape: each extraction must use the Gram
        # matrices of its own model, however the calls interleave
        k, d, rank = 4, 3, 3
        models = [TotalVariabilityModel(random_ubm(rng, k, d),
                                        rng.standard_normal((k * d, rank)))
                  for _ in range(2)]
        stats = [BaumWelchStats(rng.uniform(0.0, 20.0, k), rng.standard_normal((k, d)))
                 for _ in range(3)]
        for tv in (models[0], models[1], models[0]):
            for st in stats:
                _, _, expected = loop_posterior(tv.t_matrix, tv.ubm, st.n, st.f)
                np.testing.assert_allclose(extract_ivector(tv, st), expected,
                                           rtol=1e-9)

    def test_model_arrays_are_read_only(self, rng):
        ubm = random_ubm(rng, 2, 2)
        t_matrix = rng.standard_normal((4, 2))
        tv = TotalVariabilityModel(ubm, t_matrix)
        extract_ivector(tv, BaumWelchStats(np.ones(2), np.ones((2, 2))))
        t_matrix[0, 0] += 1.0  # the caller's array is copied, not shared
        assert tv.t_matrix[0, 0] != t_matrix[0, 0]
        for array in (tv.t_matrix, ubm.means, ubm.variances, ubm.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        with pytest.raises(AttributeError):
            tv.t_matrix = t_matrix

    def test_shape_mismatch(self, rng):
        ubm = random_ubm(rng, 2, 2)
        tv = TotalVariabilityModel(ubm, rng.standard_normal((4, 2)))
        with pytest.raises(ValueError, match="do not match"):
            extract_ivector(tv, BaumWelchStats(np.zeros(3), np.zeros((3, 2))))


class TestCenterLengthNormalize:
    def test_unit_norms(self, rng):
        vectors = rng.standard_normal((10, 5))
        normalized, mean = center_length_normalize(vectors)
        assert normalized.shape == (10, 5)
        np.testing.assert_allclose(np.linalg.norm(normalized, axis=1), 1.0, atol=1e-10)
        assert np.allclose(mean, vectors.mean(axis=0))

    def test_vector_equal_to_mean_stays_zero(self):
        normalized, _ = center_length_normalize(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert np.all(normalized == 0.0)

    def test_fitted_mean_reproduces_training_outputs(self, rng):
        vectors = rng.standard_normal((8, 4))
        at_fit, mean = center_length_normalize(vectors)
        again, _ = center_length_normalize(vectors, mean=mean)
        one_by_one = [center_length_normalize(v[None], mean)[0][0] for v in vectors]
        assert np.array_equal(at_fit, again)
        assert np.array_equal(at_fit, np.stack(one_by_one))

    def test_empty_or_mismatched_input_refused(self, rng):
        with pytest.raises(ValueError, match="at least one"):
            center_length_normalize(np.zeros((0, 3)))
        with pytest.raises(ValueError, match="at least one"):
            center_length_normalize(np.zeros(3))
        with pytest.raises(ValueError, match="mean dimension"):
            center_length_normalize(np.ones((2, 3)), mean=np.zeros(2))
