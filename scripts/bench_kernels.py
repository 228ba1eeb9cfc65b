#!/usr/bin/env python3
"""Time the corpus, front-end and back-end kernels on fixed seeded inputs:
the back-end kernels at the sizes of the backend benchmark workload (1.2 s
trials, LPCC-20 frames, phrase-dependent GMM-128, UBM-64 with a rank-60
total-variability subspace), the GMM kernels on that workload's own frames,
the EEMD kernels on a trial of the frontends workload's corpus.

The GMM kernels read the cepstrally normalised ``lpcc20`` frames of the
backend corpus's 20 genuine and 20 spoofed phrase-P00 training trials
(2,940 frames each), which the script renders as the workload does.  Their
two GMM-128 models are the workload's ``lpcc-gmm`` P00 pair: trained for 10
iterations on those frames with the workload's seeds.

Kernels, each timed as the median (and quartiles) of --repeats calls; the
two training kernels also report ``peak_mib``, the tracemalloc peak of one
call above the heap at its entry (MiB):

- ``gmm_em_iteration``: ``gmm_em_train(k=128, iters=1)`` on the 2,940
  genuine frames, one E and M step plus the final log-likelihood.  It starts
  from random init, where every component has the global variance, so no
  shifted log joint comes near exp's underflow (-708.4) and it cannot show
  the cost of underflowing entries; ``e_step_converged`` does
- ``e_step_converged``: ``gmm._weighted_sums`` (one E step and the M-step
  sums) of the first 1,024 genuine frames against the genuine model; also
  reports ``below_floor_share``, the share of shifted log joints below
  ``gmm.EXP_FLOOR``, and ``underflow_share``, the share below log(smallest
  normal double), whose plain exp is subnormal or 0
- ``tmatrix_em_iteration``: ``train_t_matrix(rank=60, iters=1)`` on 38
  seeded utterances' statistics against a 64-component UBM
- ``ivector_extraction``: ``extract_ivector`` for one utterance with a TV
  model built once, as scoring does
- ``llr_score``: the 147 frames of trial ``train_g_0000`` against the
  genuine and spoofed models
- ``render_utterance``: ``render_genuine_utterance`` for the first trial of
  the backend corpus (speaker 0, phrase 0, 1.2 s at 16 kHz)
- ``replay_channel``: ``simulate_replay`` of that utterance through the
  first trial's replay channel at the backend corpus settings
- ``lpcc_backend``: ``lpcc`` of that utterance as the backend workload's
  ``lpcc20`` feature computes it (order 20, 20 coefficients, 147 frames of
  512 samples)
- ``lpcc_desk``: ``lpcc`` of that utterance as the desk preset's ``lpcc78``
  feature computes it (order 26, 78 coefficients, 68 frames of 2,048
  samples)
- ``envelope``: one ``eemd._envelope`` call, the natural cubic spline
  through the 3,869 maxima of frontends trial ``train_g_0001`` (1.2 s)
- ``eemd_trial``: ``eemd_first_imf`` of that trial with ensemble size 5,
  as the frontends ``deemd`` feature runs it
- ``import_cli``: ``import replaycm.cli`` in a fresh interpreter, one per
  repeat, from the same ``replaycm`` this script imports; reports the
  import's wall time and the process's peak RSS after it

BLAS and OpenMP run on one thread unless the environment says otherwise.

Usage:
    python scripts/bench_kernels.py [--repeats N] > kernels.json
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

FRAME_DIM = 20
FRAMES_PER_UTTERANCE = 147
GMM_FRAMES = 2940
GMM_COMPONENTS = 128
GMM_ITERATIONS = 10  # as the backend workload trains its GMM-128 models
UBM_COMPONENTS = 64
UTTERANCES = 38
TV_RANK = 60
SEED = 20170802
# the corpus block of the backend workload
CORPUS = {"n_train_genuine": 75, "n_train_spoof": 75, "n_eval_genuine": 50,
          "n_eval_spoof": 50, "n_speakers": 10, "n_phrases": 4,
          "duration_seconds": 1.2, "cutoff_hz_range": (6800.0, 7800.0),
          "snr_db_range": (30.0, 38.0), "gain_range": (0.6, 0.9), "seed": SEED}
GMM_PHRASE = "P00"
# (window s, hop s, LPC order, coefficients) of the backend workload's lpcc20
# and the desk preset's lpcc78
LPCC_SETTINGS = {"lpcc_backend": (0.032, 0.008, 20, 20), "lpcc_desk": (0.128, 0.016, 26, 78)}
# the corpus block and seed of the frontends workload, and the trial timed
FRONTENDS_CORPUS = {"n_train_genuine": 12, "n_train_spoof": 12, "n_eval_genuine": 8,
                    "n_eval_spoof": 8, "n_speakers": 2, "n_phrases": 2,
                    "duration_seconds": 1.2, "seed": 20170803}
FRONTENDS_TRIAL = "train_g_0001"
IMPORT_PROBE = (
    "import resource, time\n"
    "start = time.perf_counter()\n"
    "import replaycm.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)\n"
)


def backend_frames(lpcc_cfg):
    """genuine and spoof -> the stacked lpcc20 frames of the backend corpus's
    phrase-P00 training trials, in protocol order, as extract and train
    build them."""
    import dataclasses

    import numpy as np

    from replaycm.audio_io import load_wav
    from replaycm.cepstral import cmvn, lpcc
    from replaycm.corpus import CorpusConfig, generate_synth_corpus, parse_protocol

    # the training trials come first in the plan, so they render as in the
    # full corpus
    cfg = dataclasses.replace(CorpusConfig(**CORPUS), n_eval_genuine=0, n_eval_spoof=0)
    frames = {"genuine": [], "spoof": []}
    with tempfile.TemporaryDirectory() as corpus_dir:
        generate_synth_corpus(cfg, corpus_dir)
        for trial in parse_protocol(Path(corpus_dir) / "protocol_train.txt"):
            if trial.phrase_id == GMM_PHRASE:
                wave = load_wav(Path(corpus_dir) / "wav" / f"{trial.trial_id}.wav")
                # stored as write_matrix stores it and read back as
                # load_feature_frames reads it, so that EM sums the same
                # values in the same memory order as train
                stored = np.ascontiguousarray(cmvn(lpcc(wave, lpcc_cfg)), dtype=np.float32)
                frames[trial.label].append(stored.astype(np.float64).T)
    return {label: np.vstack(blocks) for label, blocks in frames.items()}


def seeded_frames(rng, n_frames, n_clusters=24):
    """Frames from a fixed random mixture, so EM has structure to find."""
    centers = rng.standard_normal((n_clusters, FRAME_DIM)) * 1.5
    scales = rng.uniform(0.3, 1.0, (n_clusters, FRAME_DIM))
    labels = rng.integers(0, n_clusters, n_frames)
    return centers[labels] + scales[labels] * rng.standard_normal((n_frames, FRAME_DIM))


def shifted_log_joints(model, frames):
    """log w_k N(x | mu_k, var_k) minus each frame's largest, as the E-step
    exponentiates them."""
    import numpy as np

    log_joint = np.log(model.weights) - 0.5 * (
        np.log(2.0 * np.pi * model.variances).sum(axis=1)
        + (((frames[:, None, :] - model.means) ** 2) / model.variances).sum(axis=2))
    return log_joint - log_joint.max(axis=1, keepdims=True)


def timed(fn, repeats):
    fn()  # warm caches and lazy imports
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {**quartiles([1e3 * t for t in samples], "ms"), "repeats": repeats}


def traced_peak(fn):
    """Peak heap (MiB) that one call of ``fn`` allocates above its entry."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - start) / 2**20
    finally:
        tracemalloc.stop()


def quartiles(samples, unit):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {f"median_{unit}": median, f"q1_{unit}": q1, f"q3_{unit}": q3}


def import_cli(repeats):
    """Wall time (ms) and peak RSS (MB) of importing the CLI, fresh each time."""
    package = importlib.util.find_spec("replaycm").submodule_search_locations[0]
    env = {**os.environ, "PYTHONPATH": str(Path(package).resolve().parent)}
    times, rss = [], []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        times.append(1e3 * float(out[0]))
        rss.append(float(out[1]))
    return {**quartiles(times, "ms"), "rss_mb": quartiles(rss, "mb"), "repeats": repeats}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be >= 2")
    for name in THREAD_VARS:
        os.environ.setdefault(name, "1")
    # Before this process loads anything: Linux carries a process's peak RSS
    # across fork and exec into the child's ru_maxrss
    import_probe = import_cli(args.repeats)
    # BLAS reads its thread count when numpy loads, so import only now
    import numpy as np

    from replaycm import gmm
    from replaycm.audio_io import load_wav
    from replaycm.cepstral import LpccConfig, lpcc
    from replaycm.config import derive_seed
    from replaycm.corpus import (
        CorpusConfig,
        generate_synth_corpus,
        make_phrase_specs,
        make_replay_channel,
        render_genuine_utterance,
        simulate_replay,
        speaker_f0,
    )
    from replaycm.eemd import DeemdParams, _envelope, eemd_first_imf, local_extrema
    from replaycm.gmm import gmm_em_train, llr_score
    from replaycm.ivector import (
        TotalVariabilityModel,
        baum_welch_stats,
        extract_ivector,
        train_t_matrix,
    )
    from replaycm.spectral import FftConfig, FramingConfig

    lpcc_configs = {name: LpccConfig(FramingConfig(window, hop), order, n_coeffs)
                    for name, (window, hop, order, n_coeffs) in LPCC_SETTINGS.items()}
    p00_frames = backend_frames(lpcc_configs["lpcc_backend"])
    gmm_frames = p00_frames["genuine"]
    assert gmm_frames.shape == p00_frames["spoof"].shape == (GMM_FRAMES, FRAME_DIM)
    genuine, spoofed = (
        gmm_em_train(p00_frames[label], k=GMM_COMPONENTS, iters=GMM_ITERATIONS,
                     seed=derive_seed(SEED, "train", "lpcc-gmm", label, GMM_PHRASE))
        for label in ("genuine", "spoof"))
    rng = np.random.default_rng(SEED)
    utterances = [seeded_frames(rng, FRAMES_PER_UTTERANCE) for _ in range(UTTERANCES)]
    ubm = gmm_em_train(np.vstack(utterances), k=UBM_COMPONENTS, iters=3, seed=3)
    stats = [baum_welch_stats(ubm, frames) for frames in utterances]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fewer utterances than the rank
        t_matrix = train_t_matrix(stats, ubm, rank=TV_RANK, iters=2, seed=4).t_matrix

        def tmatrix_iteration():
            train_t_matrix(stats, ubm, rank=TV_RANK, iters=1, seed=4)

        def gmm_em_iteration():
            gmm_em_train(gmm_frames, k=GMM_COMPONENTS, iters=1, seed=5)

        kernels = {
            "gmm_em_iteration": {**timed(gmm_em_iteration, args.repeats),
                                 "peak_mib": traced_peak(gmm_em_iteration)},
            "tmatrix_em_iteration": {**timed(tmatrix_iteration, args.repeats),
                                     "peak_mib": traced_peak(tmatrix_iteration)},
        }
    block = gmm_frames[:gmm.EM_BLOCK]
    shifted = shifted_log_joints(genuine, block)
    kernels["e_step_converged"] = {
        **timed(lambda: gmm._weighted_sums(genuine, block), args.repeats),
        "below_floor_share": float(np.mean(shifted < gmm.EXP_FLOOR)),
        "underflow_share": float(np.mean(shifted < np.log(np.finfo(float).tiny))),
    }
    tv = TotalVariabilityModel(ubm, t_matrix)
    kernels["ivector_extraction"] = timed(lambda: extract_ivector(tv, stats[0]),
                                          args.repeats)
    kernels["llr_score"] = timed(
        lambda: llr_score(genuine, spoofed, gmm_frames[:FRAMES_PER_UTTERANCE]), args.repeats)

    # trial 0 as generate_synth_corpus seeds it
    cfg = CorpusConfig(**CORPUS)
    phrase = make_phrase_specs(cfg)[0]

    def render():
        rng = np.random.default_rng(np.random.SeedSequence([SEED, 202, 0]))
        return render_genuine_utterance(speaker_f0(cfg, 0), phrase, cfg.duration_seconds,
                                        cfg.sample_rate, rng)

    source = render()
    channel = make_replay_channel(
        cfg, np.random.default_rng(np.random.SeedSequence([SEED, 303, 0])))
    kernels["render_utterance"] = timed(render, args.repeats)
    kernels["replay_channel"] = timed(lambda: simulate_replay(source, channel, seed=SEED),
                                      args.repeats)
    for name, lpcc_cfg in lpcc_configs.items():
        kernels[name] = timed(lambda: lpcc(source, lpcc_cfg), args.repeats)

    with tempfile.TemporaryDirectory() as corpus_dir:
        generate_synth_corpus(CorpusConfig(**FRONTENDS_CORPUS), corpus_dir)
        samples = load_wav(Path(corpus_dir) / "wav" / f"{FRONTENDS_TRIAL}.wav").samples
    maxima, _ = local_extrema(samples)
    kernels["envelope"] = timed(
        lambda: _envelope(maxima, samples[maxima], samples.size), args.repeats)
    ensemble = DeemdParams(FftConfig(), ensemble_size=5)
    kernels["eemd_trial"] = timed(lambda: eemd_first_imf(samples, ensemble, seed=SEED),
                                  args.repeats)
    kernels["import_cli"] = import_probe

    result = {
        "seed": SEED,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "threads": {name: os.environ[name] for name in THREAD_VARS}},
        "kernels": kernels,
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
