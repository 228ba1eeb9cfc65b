#!/usr/bin/env python3
"""Time the corpus and back-end kernels on fixed seeded inputs at the sizes
of the backend benchmark workload (1.2 s trials, LPCC-20 frames,
phrase-dependent GMM-128, UBM-64 with a rank-60 total-variability subspace).

Kernels, each timed as the median (and quartiles) of --repeats calls:

- ``gmm_em_iteration``: ``gmm_em_train(k=128, iters=1)`` on 2,940 frames,
  one E and M step plus the final log-likelihood
- ``tmatrix_em_iteration``: ``train_t_matrix(rank=60, iters=1)`` on 38
  utterances' statistics against a 64-component UBM
- ``ivector_extraction``: ``extract_ivector`` for one utterance with a TV
  model built once, as scoring does
- ``llr_score``: one 147-frame utterance against two GMM-128 models
- ``render_utterance``: ``render_genuine_utterance`` for the first trial of
  the backend corpus (speaker 0, phrase 0, 1.2 s at 16 kHz)
- ``replay_channel``: ``simulate_replay`` of that utterance through the
  first trial's replay channel at the backend corpus settings

BLAS and OpenMP run on one thread unless the environment says otherwise.

Usage:
    python scripts/bench_kernels.py [--repeats N] > kernels.json
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
import warnings

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

FRAME_DIM = 20
FRAMES_PER_UTTERANCE = 147
GMM_FRAMES = 2940
GMM_COMPONENTS = 128
UBM_COMPONENTS = 64
UTTERANCES = 38
TV_RANK = 60
SEED = 20170802
# the corpus block of the backend workload
CORPUS = {"n_speakers": 10, "n_phrases": 4, "duration_seconds": 1.2,
          "cutoff_hz_range": (6800.0, 7800.0), "snr_db_range": (30.0, 38.0),
          "gain_range": (0.6, 0.9), "seed": SEED}


def seeded_frames(rng, n_frames, n_clusters=24):
    """Frames from a fixed random mixture, so EM has structure to find."""
    centers = rng.standard_normal((n_clusters, FRAME_DIM)) * 1.5
    scales = rng.uniform(0.3, 1.0, (n_clusters, FRAME_DIM))
    labels = rng.integers(0, n_clusters, n_frames)
    return centers[labels] + scales[labels] * rng.standard_normal((n_frames, FRAME_DIM))


def timed(fn, repeats):
    fn()  # warm caches and lazy imports
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_ms": 1e3 * median, "q1_ms": 1e3 * q1, "q3_ms": 1e3 * q3,
            "repeats": repeats}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be >= 2")
    for name in THREAD_VARS:
        os.environ.setdefault(name, "1")
    # BLAS reads its thread count when numpy loads, so import only now
    import numpy as np

    from replaycm.corpus import (
        CorpusConfig,
        make_phrase_specs,
        make_replay_channel,
        render_genuine_utterance,
        simulate_replay,
        speaker_f0,
    )
    from replaycm.gmm import gmm_em_train, llr_score
    from replaycm.ivector import (
        TotalVariabilityModel,
        baum_welch_stats,
        extract_ivector,
        train_t_matrix,
    )

    rng = np.random.default_rng(SEED)
    gmm_frames = seeded_frames(rng, GMM_FRAMES)
    genuine = gmm_em_train(gmm_frames, k=GMM_COMPONENTS, iters=3, seed=1)
    spoofed = gmm_em_train(seeded_frames(rng, GMM_FRAMES), k=GMM_COMPONENTS, iters=3,
                           seed=2)
    utterances = [seeded_frames(rng, FRAMES_PER_UTTERANCE) for _ in range(UTTERANCES)]
    ubm = gmm_em_train(np.vstack(utterances), k=UBM_COMPONENTS, iters=3, seed=3)
    stats = [baum_welch_stats(ubm, frames) for frames in utterances]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fewer utterances than the rank
        t_matrix = train_t_matrix(stats, ubm, rank=TV_RANK, iters=2, seed=4).t_matrix

        def tmatrix_iteration():
            train_t_matrix(stats, ubm, rank=TV_RANK, iters=1, seed=4)

        kernels = {
            "gmm_em_iteration": timed(
                lambda: gmm_em_train(gmm_frames, k=GMM_COMPONENTS, iters=1, seed=5),
                args.repeats),
            "tmatrix_em_iteration": timed(tmatrix_iteration, args.repeats),
        }
    tv = TotalVariabilityModel(ubm, t_matrix)
    kernels["ivector_extraction"] = timed(lambda: extract_ivector(tv, stats[0]),
                                          args.repeats)
    kernels["llr_score"] = timed(lambda: llr_score(genuine, spoofed, utterances[0]),
                                 args.repeats)

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
