"""Acceptance suite: one test per release criterion, each at its stated
tolerance.  The terminal summary (see conftest) prints one pass/fail line per
criterion.
"""

import json
import runpy
import sys
import time
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import toeplitz

from replaycm import cli
from replaycm.audio_io import Waveform
from replaycm.cepstral import dct_matrix, levinson_durbin
from replaycm.corpus import parse_protocol
from replaycm.gmm import GmmModel, gmm_em_train
from replaycm.ivector import (
    BaumWelchStats,
    TotalVariabilityModel,
    baum_welch_stats,
    extract_ivector,
    train_t_matrix,
)
from replaycm.metrics import compute_eer
from replaycm.neural import max_pool_2x2, mfm, mfm_backward
from replaycm.pipeline import evaluate
from replaycm.spectral import (
    CqtConfig,
    FftConfig,
    FramingConfig,
    cqt_magnitude,
    fft_spectrogram,
    sliding_windows,
    truncate_or_repeat,
)

DESK_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_desk_eval.py"


# --- criterion: oracle equivalence ------------------------------------------

class TestOracleEquivalence:
    def test_fft_power_matches_naive_dft(self):
        start = time.time()
        rng = np.random.default_rng(100)
        for n in (64, 128, 256, 512):
            x = rng.standard_normal(n)
            cfg = FftConfig(framing=FramingConfig(1.0, 1.0, "rectangular"), n_fft=n)
            power = fft_spectrogram(Waveform(x, n), cfg, scale="power")[:, 0]
            k = np.arange(n // 2 + 1)[:, None]
            m = np.arange(n)[None, :]
            oracle = np.abs(np.exp(-2j * np.pi * k * m / n) @ x) ** 2
            assert np.max(np.abs(power - oracle)) <= 1e-9 * oracle.max()
        assert time.time() - start < 120

    def test_cqt_matches_direct_kernel_oracle(self):
        sr = 16000
        t = np.arange(int(0.2 * sr)) / sr
        x = np.sin(2 * np.pi * (600 * t + 2000 * t**2))
        cfg = CqtConfig(f_min=500.0, bins_per_octave=12, n_bins=36, hop_length=256)
        mags, freqs = cqt_magnitude(Waveform(x, sr), cfg)
        q = cfg.q_factor
        centers = np.arange((x.size - 1) // cfg.hop_length + 1) * cfg.hop_length
        oracle = np.zeros_like(mags)
        for k, f in enumerate(freqs):
            n_k = max(int(np.ceil(q * sr / f)), 2)
            window = np.hanning(n_k)
            kernel = window * np.exp(2j * np.pi * f * np.arange(n_k) / sr)
            kernel *= 2.0 / window.sum()
            for ti, center in enumerate(centers):
                start = center - n_k // 2
                lo = max(start, 0)
                hi = min(start + n_k, x.size)
                oracle[k, ti] = abs(
                    x[lo:hi] @ np.conj(kernel[lo - start : hi - start])
                )
        assert np.max(np.abs(mags - oracle)) <= 1e-6 * oracle.max()

    def test_dct_matches_quadratic_oracle(self):
        rng = np.random.default_rng(101)
        x = rng.standard_normal(32)
        oracle = np.zeros(32)
        for k in range(32):
            acc = sum(
                v * np.cos(np.pi * (2 * m + 1) * k / 64.0) for m, v in enumerate(x)
            )
            oracle[k] = (np.sqrt(1.0 / 32) if k == 0 else np.sqrt(2.0 / 32)) * acc
        for n_out in (12, 32):  # the truncated basis product cqcc applies per frame
            got = dct_matrix(32)[:n_out] @ x
            assert np.max(np.abs(got - oracle[:n_out])) <= 1e-10

    def test_levinson_matches_normal_equations(self):
        rng = np.random.default_rng(102)
        for order in (1, 2, 5, 10, 15, 20):
            x = rng.standard_normal(8192)
            for lag, coef in ((1, 0.5), (2, -0.2), (3, 0.1)):
                x[lag:] += coef * x[:-lag]
            r = np.correlate(x, x, "full")[x.size - 1 : x.size + order] / x.size
            a, _, _ = levinson_durbin(r)
            direct = np.linalg.solve(toeplitz(r[:order]), -r[1 : order + 1])
            assert np.max(np.abs(a[1:] - direct)) <= 1e-8

    def test_ivector_matches_dense_solve(self):
        rng = np.random.default_rng(103)
        for k, d, rank in ((2, 2, 2), (4, 4, 4), (2, 8, 3), (4, 2, 4), (1, 16, 2)):
            ubm = GmmModel(
                rng.dirichlet(np.ones(k)),
                rng.standard_normal((k, d)),
                rng.uniform(0.5, 2.0, (k, d)),
            )
            tv = TotalVariabilityModel(ubm, rng.standard_normal((k * d, rank)))
            stats = BaumWelchStats(
                rng.uniform(0.0, 25.0, k), rng.standard_normal((k, d))
            )
            got = extract_ivector(tv, stats)
            sigma_inv = np.diag(1.0 / ubm.variances.reshape(-1))
            n_diag = np.diag(np.repeat(stats.n, d))
            lhs = np.eye(rank) + tv.t_matrix.T @ sigma_inv @ n_diag @ tv.t_matrix
            rhs = tv.t_matrix.T @ sigma_inv @ stats.f.reshape(-1)
            oracle = np.linalg.solve(lhs, rhs)
            assert np.max(np.abs(got - oracle)) <= 1e-8

    def test_eer_matches_brute_force_sweep(self):
        rng = np.random.default_rng(104)
        for _ in range(200):
            genuine = rng.standard_normal(int(rng.integers(1, 200))) + rng.uniform(-1, 2)
            spoof = rng.standard_normal(int(rng.integers(1, 200)))
            eer, _ = compute_eer(genuine, spoof)
            thresholds = np.unique(np.concatenate([genuine, spoof]))
            points = [
                (np.count_nonzero(spoof >= t) / spoof.size,
                 np.count_nonzero(genuine < t) / genuine.size)
                for t in thresholds
            ] + [(0.0, 1.0)]
            oracle = None
            for (far1, frr1), (far2, frr2) in zip(points, points[1:]):
                d1, d2 = far1 - frr1, far2 - frr2
                if d1 > 0 >= d2:
                    lam = d1 / (d1 - d2)
                    oracle = far1 + lam * (far2 - far1)
                    break
            if oracle is None:
                oracle = 0.5 * (points[0][0] + points[0][1])
            assert abs(eer - oracle) <= 1e-9

    def test_mfm_and_max_pool_match_nested_loops(self):
        rng = np.random.default_rng(105)
        x = rng.standard_normal((8, 5, 7))
        k = 4
        loop_mfm = np.empty((k, 5, 7))
        for c, i, j in product(range(k), range(5), range(7)):
            loop_mfm[c, i, j] = max(x[c, i, j], x[c + k, i, j])
        assert np.array_equal(mfm(x), loop_mfm)

        y = rng.standard_normal((3, 8, 10))
        loop_pool = np.empty((3, 4, 5))
        for c, i, j in product(range(3), range(4), range(5)):
            loop_pool[c, i, j] = max(
                y[c, 2 * i, 2 * j], y[c, 2 * i, 2 * j + 1],
                y[c, 2 * i + 1, 2 * j], y[c, 2 * i + 1, 2 * j + 1],
            )
        assert np.array_equal(max_pool_2x2(y), loop_pool)


# --- criterion: EM monotonicity ----------------------------------------------

class TestEmMonotonicity:
    def test_gmm_loglik_non_decreasing_20_seeds(self):
        rng = np.random.default_rng(200)
        for seed in range(20):
            frames = rng.standard_normal((300, 4)) + rng.uniform(-1, 1, 4)
            model = gmm_em_train(frames, k=5, iters=15, seed=seed)
            diffs = np.diff(np.array(model.history))
            assert np.all(diffs >= -1e-8), f"seed {seed}: loglik decreased"

    def test_tmatrix_objective_non_decreasing_20_seeds(self):
        rng = np.random.default_rng(201)
        ubm = GmmModel(
            np.full(2, 0.5), rng.standard_normal((2, 2)), rng.uniform(0.5, 2.0, (2, 2))
        )
        stats = [baum_welch_stats(ubm, rng.standard_normal((30, 2))) for _ in range(30)]
        counts, firsts = np.stack([st.n for st in stats]), np.stack([st.f.ravel() for st in stats])
        for seed in range(20):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tv = train_t_matrix(counts, firsts, ubm, rank=2, iters=6, seed=seed)
            diffs = np.diff(np.array(tv.history))
            assert np.all(diffs >= -1e-8), f"seed {seed}: objective decreased"


# --- criterion: parameter recovery -------------------------------------------

class TestParameterRecovery:
    def test_two_component_gmm_means(self):
        rng = np.random.default_rng(300)
        frames = np.vstack([
            rng.standard_normal((500, 2)) + 5.0,
            rng.standard_normal((500, 2)) - 5.0,
        ])
        model = gmm_em_train(frames, k=2, iters=30, seed=0)
        recovered = model.means[np.argsort(model.means[:, 0])]
        assert np.max(np.abs(recovered[0] - (-5.0))) <= 0.1
        assert np.max(np.abs(recovered[1] - 5.0)) <= 0.1

    def test_ar1_coefficient(self):
        rng = np.random.default_rng(301)
        n = 30000
        noise = rng.standard_normal(n)
        x = np.zeros(n)
        for i in range(1, n):
            x[i] = 0.9 * x[i - 1] + noise[i]
        r = np.correlate(x, x, "full")[n - 1 : n + 1] / n
        a, _, _ = levinson_durbin(r)
        assert abs(a[1] - (-0.9)) <= 0.02

    def test_rank1_tmatrix_subspace(self):
        rng = np.random.default_rng(302)
        k, d = 2, 2
        ubm = GmmModel(
            np.full(k, 0.5), rng.standard_normal((k, d)), rng.uniform(0.5, 2.0, (k, d))
        )
        t_true = rng.standard_normal((k * d, 1))
        stats = []
        for _ in range(150):
            n_u = rng.uniform(5.0, 50.0, k)
            w = rng.standard_normal()
            f_flat = np.repeat(n_u, d) * (t_true[:, 0] * w)
            f_flat += rng.standard_normal(k * d) * 0.01
            stats.append(BaumWelchStats(n_u, f_flat.reshape(k, d)))
        counts, firsts = np.stack([st.n for st in stats]), np.stack([st.f.ravel() for st in stats])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tv = train_t_matrix(counts, firsts, ubm, rank=1, iters=20, seed=0)
        cosine = abs(
            float(tv.t_matrix[:, 0] @ t_true[:, 0])
            / (np.linalg.norm(tv.t_matrix) * np.linalg.norm(t_true))
        )
        assert cosine > 0.99


# --- criterion: gradient checks -----------------------------------------------

class TestGradientChecks:
    def test_mfm_backward_matches_central_differences(self):
        rng = np.random.default_rng(400)
        x = rng.standard_normal((6, 4, 5))
        upstream = rng.standard_normal((3, 4, 5))
        grad = mfm_backward(x, upstream)
        h = 1e-5
        numeric = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            plus = x.copy()
            plus[idx] += h
            minus = x.copy()
            minus[idx] -= h
            numeric[idx] = np.sum((mfm(plus) - mfm(minus)) * upstream) / (2 * h)
        gaps = np.abs(x[:3] - x[3:])
        away_from_ties = np.concatenate([gaps, gaps]) > 10 * h
        err = np.abs(grad - numeric)[away_from_ties]
        scale = np.maximum(np.abs(numeric[away_from_ties]), 1.0)
        assert np.max(err / scale) <= 1e-6


# --- criterion: end-to-end pipeline -------------------------------------------

@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """The desk script's full corpus -> features -> models -> scores -> fusion
    run of the desk preset, the argv of every CLI call it made, and the eval
    EER of each system and of the fusion."""
    work = tmp_path_factory.mktemp("desk") / "work"
    calls = []
    start = time.time()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "main", lambda argv, main=cli.main: calls.append(argv) or main(argv))
        mp.setattr(sys, "argv", [str(DESK_SCRIPT), "--work-dir", str(work)])
        runpy.run_path(str(DESK_SCRIPT), run_name="__main__")
    elapsed = time.time() - start
    protocol_eval = work / "corpus/protocol_eval.txt"
    return {
        "elapsed": elapsed,
        "work": work,
        "calls": calls,
        "eer": {p.name.split(".")[0]: evaluate(p, protocol_eval)[0]
                for p in work.glob("*.eval.scores")},
    }


class TestEndToEndPipeline:
    def test_corpus_sizes(self, desk_run):
        assert len(parse_protocol(desk_run["work"] / "corpus/protocol_train.txt")) == 200
        assert len(parse_protocol(desk_run["work"] / "corpus/protocol_eval.txt")) == 100

    def test_cqcc_gmm_eval_eer_within_bound(self, desk_run):
        assert desk_run["eer"]["cqcc-gmm"] <= 0.10

    def test_lpcc_ivector_svm_eval_eer_within_bound(self, desk_run):
        assert desk_run["eer"]["lpcc-ivec"] <= 0.10

    def test_fusion_at_least_matches_best_system(self, desk_run):
        best = min(desk_run["eer"]["cqcc-gmm"], desk_run["eer"]["lpcc-ivec"])
        assert desk_run["eer"]["fused"] <= best + 0.01

    def test_full_run_under_five_minutes(self, desk_run):
        assert desk_run["elapsed"] < 300.0

    def test_the_run_is_the_desk_workload_command_list(self, desk_run, bench_workloads):
        work = desk_run["work"]
        cfg_path = work / "desk_config.json"
        commands = bench_workloads.Workload.load("desk").commands(work, cfg_path)
        assert desk_run["calls"] == [["synth", "--config", str(cfg_path)],
                                     *(argv for stage, argv in commands if stage != "eval")]


# --- criterion: determinism ----------------------------------------------------

class TestDeterminism:
    def test_every_command_reproduces_byte_identical_artifacts(
        self, tmp_path, capsys, bench_workloads
    ):
        import hashlib

        def digest_tree(root: Path):
            return {
                str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        def one_pass(root: Path):
            root.mkdir()
            work = root / "work"
            workload = bench_workloads.Workload.load("desk", seed=777)
            config = workload.full_config(work)
            config["corpus"].update(
                n_train_genuine=5, n_train_spoof=5, n_eval_genuine=3, n_eval_spoof=3,
                n_speakers=2, n_phrases=2, duration_seconds=0.5,
            )
            config["systems"]["cqcc-gmm"].update(components=2, iterations=3)
            config["systems"]["lpcc-ivec"].update(
                ubm_components=2, ubm_iterations=3, tv_rank=2, tv_iterations=2
            )
            cfg_path = root / "config.json"
            cfg_path.write_text(json.dumps(config, indent=2))

            # the shrunken config keeps the preset's feature and system names
            evals = []
            for stage, argv in [("synth", ["synth", "--config", str(cfg_path)]),
                                *workload.commands(work, cfg_path)]:
                capsys.readouterr()
                assert cli.main(argv) == 0
                if stage == "eval":
                    evals.append(capsys.readouterr().out)
            return digest_tree(work), evals

        first, evals_1 = one_pass(tmp_path / "run1")
        second, evals_2 = one_pass(tmp_path / "run2")
        assert first == second
        assert evals_1 == evals_2
        assert len(evals_1) == 3 and all(out.startswith("EER") for out in evals_1)


# --- criterion: unified shape contracts ----------------------------------------

class TestShapeContracts:
    def test_truncate_or_repeat_reaches_864x400(self):
        rng = np.random.default_rng(500)
        for frames in (37, 400, 1311):
            spec = rng.standard_normal((864, frames))
            assert truncate_or_repeat(spec, 400).shape == (864, 400)

    def test_sliding_windows_stride_by_enumeration(self):
        rng = np.random.default_rng(501)
        spec = rng.standard_normal((864, 400))
        windows = sliding_windows(spec, 200, 0.9)
        starts = []
        for window in windows:
            assert window.shape == (864, 200)
            for start in range(0, 201):
                if np.array_equal(window, spec[:, start : start + 200]):
                    starts.append(start)
                    break
        assert starts == list(range(0, 201, 20))
        assert np.all(np.diff(starts) == 20)
