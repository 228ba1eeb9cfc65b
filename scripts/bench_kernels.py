#!/usr/bin/env python3
"""Time the corpus, front-end and back-end kernels on the benchmark
workloads' own inputs.

First the script runs two workloads of ``bench/workloads.json`` at their
default seeds through ``replaycm.cli.main`` in a temporary directory:
``backend`` (synth, extract on the training protocol, train of both systems)
and ``frontends`` (synth).  Every kernel input is read back from those runs
or built from their configurations.  P00 below is backend phrase P00, whose
training protocol holds 20 genuine and 20 spoofed trials.

Kernels, each timed as the median (and quartiles) of --repeats calls; the
two training kernels, ``ivec_system`` and ``fft_spectrogram`` also report
``peak_mib``, the tracemalloc peak of one call above the heap at its entry
(MiB), its result included, and the two training kernels ``minflt``, the
minor page faults (``ru_minflt``) of their --repeats timed calls together,
so that a memory change shows what it costs in pages faulted back in:

- ``gmm_em_iteration``: one-iteration ``gmm_em_train`` with the ``lpcc-gmm``
  component count on the genuine P00 ``lpcc20`` frames, one E and M step
  plus the final log-likelihood.  It starts from random init, where every
  component has the global variance, so no shifted log joint comes near
  exp's underflow (-708.4) and it cannot show the cost of underflowing
  entries; ``e_step_converged`` does
- ``e_step_converged``: ``gmm._weighted_sums`` (one E step and the M-step
  sums) of the first ``gmm.EM_BLOCK`` of those frames against the trained
  ``lpcc-gmm`` P00 genuine model; also reports ``below_floor_share``, the
  share of shifted log joints below ``gmm.EXP_FLOOR``, and
  ``underflow_share``, the share below log(smallest normal double), whose
  plain exp is subnormal or 0
- ``tmatrix_em_iteration``: one-iteration ``train_t_matrix`` on the stacked
  Baum-Welch statistics of the 40 P00 trials against the trained
  ``lpcc-ivec`` P00 UBM, with that system's rank and its own start seed
- ``ivec_system``: ``train_system`` of the ``lpcc-ivec`` system on the
  backend training protocol, then ``score_system`` of that protocol, one
  phrase group's models held at a time; also reports ``peak_mib``
- ``ivector_extraction``: ``extract_ivector`` of the first P00 trial's
  statistics with the trained P00 UBM and T-matrix, as scoring does
- ``llr_score``: the frames of trial ``train_g_0000`` against the trained
  P00 genuine and spoofed models
- ``render_utterance``: ``render_genuine_utterance`` of backend trial 0
- ``replay_channel``: ``simulate_replay`` of that utterance through the
  replay channel synth would draw for trial 0
- ``lpcc_backend`` and ``lpcc_desk``: ``lpcc`` of that utterance as the
  backend workload's ``lpcc20`` and the desk preset's ``lpcc78`` features
  compute it
- ``fft_spectrogram``: ``fft_spectrogram`` of frontends trial
  ``train_g_0001`` as the frontends ``fft864`` feature computes it; also
  reports ``peak_mib``
- ``envelope``: one ``eemd._envelope`` call, the natural cubic spline
  through the maxima of that trial
- ``sift_member``: ``emd_first_imf`` of that trial plus the noise of its
  first ``deemd`` ensemble member, one member's sift as a worker runs it
- ``eemd_trial``: ``eemd_first_imf`` of that trial as the frontends
  ``deemd`` feature extracts it, serially as outside a command
- ``eemd_trial_workers``: the same inside one ``parallel.workers()`` scope,
  as ``extract`` sifts it: members on this process and on ``workers``
  forked children, one per further usable CPU (0: serial).  The untimed
  warm-up call forks them, once, as a command's first map does
- ``import_cli``: ``import replaycm.cli`` in a fresh interpreter, one per
  repeat, from the same ``replaycm`` this script imports; reports the
  import's wall time and the process's peak RSS after it

BLAS and OpenMP run on one thread unless the environment says otherwise.
The workload commands write to stderr; stdout is the JSON result, whose
``seed`` is the backend workload's.

Usage:
    PYTHONPATH=src python scripts/bench_kernels.py [--repeats N] > kernels.json
"""

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PHRASE = "P00"
LLR_TRIAL = "train_g_0000"
FRONTENDS_TRIAL = "train_g_0001"
IMPORT_PROBE = (
    "import resource, time\n"
    "start = time.perf_counter()\n"
    "import replaycm.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)\n"
)


def workload_config(name, work_dir):
    """The configuration of benchmark workload ``name`` with its work
    directory at ``work_dir``, as ``bench/workloads.py`` writes it."""
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import Workload
    finally:
        sys.path.remove(str(BENCH))
    return Workload.load(name).full_config(work_dir)


def run_workload(name, work_dir, train):
    """Run benchmark workload ``name`` under ``work_dir`` through the CLI:
    ``synth``, then with ``train`` ``extract`` of every feature on the
    training protocol and ``train`` of every system.  Returns its parsed
    configuration."""
    from replaycm import cli
    from replaycm.config import load_config

    config_path = Path(work_dir) / "config.json"
    config_path.parent.mkdir(parents=True)
    config_path.write_text(json.dumps(workload_config(name, work_dir)))
    cfg = load_config(config_path)
    commands = [["synth"]]
    if train:
        commands += [["extract", "--feature", feature, "--protocol",
                      cfg.paths.protocol_train] for feature in cfg.features]
        commands += [["train", "--system", system] for system in cfg.systems]
    with contextlib.redirect_stdout(sys.stderr):
        for argv in commands:
            if cli.main([*argv, "--config", str(config_path)]) != 0:
                sys.exit(f"error: workload {name}: {argv[0]} failed")
    return cfg


def shifted_log_joints(model, frames):
    """log w_k N(x | mu_k, var_k) minus each frame's largest, as the E-step
    exponentiates them."""
    import numpy as np

    log_joint = np.log(model.weights) - 0.5 * (
        np.log(2.0 * np.pi * model.variances).sum(axis=1)
        + (((frames[:, None, :] - model.means) ** 2) / model.variances).sum(axis=2))
    return log_joint - log_joint.max(axis=1, keepdims=True)


def timed(fn, repeats, faults=False):
    """Quartiles of ``repeats`` timed calls of ``fn``; with ``faults``, also
    their minor page faults together (``minflt``)."""
    fn()  # warm caches and lazy imports
    samples = []
    start_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    result = {**quartiles([1e3 * t for t in samples], "ms"), "repeats": repeats}
    if faults:
        result["minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start_faults
    return result


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
    if importlib.util.find_spec("replaycm") is None:
        print("error: replaycm is not importable; run from the repository root as "
              "PYTHONPATH=src python scripts/bench_kernels.py", file=sys.stderr)
        return 2
    for name in THREAD_VARS:
        os.environ.setdefault(name, "1")
    # Before this process loads anything: Linux carries a process's peak RSS
    # across fork and exec into the child's ru_maxrss
    import_probe = import_cli(args.repeats)
    # BLAS reads its thread count when numpy loads, so import only now
    import numpy as np

    from replaycm import gmm, parallel
    from replaycm.audio_io import load_wav
    from replaycm.cepstral import lpcc
    from replaycm.config import derive_seed, parse_config
    from replaycm.corpus import (
        make_phrase_specs,
        make_replay_channel,
        parse_protocol,
        render_genuine_utterance,
        simulate_replay,
        speaker_f0,
    )
    from replaycm.eemd import _envelope, eemd_first_imf, emd_first_imf, local_extrema
    from replaycm.gmm import gmm_em_train, llr_score
    from replaycm.ivector import (
        TotalVariabilityModel,
        baum_welch_stats,
        extract_ivector,
        train_t_matrix,
    )
    from replaycm.pipeline import (
        load_model,
        model_dir,
        model_path,
        read_feature,
        score_system,
        train_system,
    )
    from replaycm.spectral import fft_spectrogram

    with tempfile.TemporaryDirectory() as tmp:
        backend = run_workload("backend", Path(tmp) / "backend", train=True)
        frontends = run_workload("frontends", Path(tmp) / "frontends", train=False)
        gmm_spec, ivec_spec = backend.systems["lpcc-gmm"], backend.systems["lpcc-ivec"]

        def frames(spec, trial_id):
            return read_feature(backend, spec.feature, trial_id)

        def model(spec, base, kind):
            return load_model(model_path(model_dir(backend, spec.name), base, PHRASE), kind)

        train_trials = parse_protocol(backend.paths.protocol_train)
        trials = [t for t in train_trials if t.phrase_id == PHRASE]
        gmm_frames = np.vstack([frames(gmm_spec, t.trial_id) for t in trials
                                if t.label == "genuine"])
        llr_frames = frames(gmm_spec, LLR_TRIAL)
        genuine, spoofed = (model(gmm_spec, label, "gmm") for label in ("genuine", "spoof"))
        ubm = model(ivec_spec, "ubm", "gmm")
        tv = TotalVariabilityModel(ubm, model(ivec_spec, "tmatrix", "tmatrix"))
        stats = [baum_welch_stats(ubm, frames(ivec_spec, t.trial_id)) for t in trials]
        counts, firsts = np.stack([st.n for st in stats]), np.stack([st.f.ravel() for st in stats])
        deemd, fft = (next(spec for spec in frontends.features.values() if spec.kind == kind)
                      for kind in ("deemd", "fft"))
        wave = load_wav(Path(frontends.paths.audio_dir) / f"{FRONTENDS_TRIAL}.wav")
        samples = wave.samples

        def ivec_system():
            train_system(backend, ivec_spec.name, train_trials)
            score_system(backend, ivec_spec.name, train_trials)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # fewer utterances than the rank
            ivec_system_kernel = {**timed(ivec_system, args.repeats),
                                  "peak_mib": traced_peak(ivec_system)}

    t_seed = derive_seed(backend.seed, "train", ivec_spec.name, "tmatrix", PHRASE)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fewer utterances than the rank

        def tmatrix_iteration():
            train_t_matrix(counts, firsts, ubm, rank=ivec_spec.tv_rank, iters=1,
                           seed=t_seed)

        def gmm_em_iteration():
            gmm_em_train(gmm_frames, k=gmm_spec.components, iters=1, seed=5)

        kernels = {
            "gmm_em_iteration": {**timed(gmm_em_iteration, args.repeats, faults=True),
                                 "peak_mib": traced_peak(gmm_em_iteration)},
            "tmatrix_em_iteration": {**timed(tmatrix_iteration, args.repeats, faults=True),
                                     "peak_mib": traced_peak(tmatrix_iteration)},
        }
    block = gmm_frames[:gmm.EM_BLOCK]
    shifted = shifted_log_joints(genuine, block)
    kernels["e_step_converged"] = {
        **timed(lambda: gmm._weighted_sums(genuine, block), args.repeats),
        "below_floor_share": float(np.mean(shifted < gmm.EXP_FLOOR)),
        "underflow_share": float(np.mean(shifted < np.log(np.finfo(float).tiny))),
    }
    kernels["ivec_system"] = ivec_system_kernel
    kernels["ivector_extraction"] = timed(lambda: extract_ivector(tv, stats[0]),
                                          args.repeats)
    kernels["llr_score"] = timed(lambda: llr_score(genuine, spoofed, llr_frames),
                                 args.repeats)

    # trial 0 as generate_synth_corpus seeds it
    corpus = backend.corpus
    phrase = make_phrase_specs(corpus)[0]

    def render():
        rng = np.random.default_rng(np.random.SeedSequence([corpus.seed, 202, 0]))
        return render_genuine_utterance(speaker_f0(corpus, 0), phrase,
                                        corpus.duration_seconds, corpus.sample_rate, rng)

    source = render()
    channel = make_replay_channel(
        corpus, np.random.default_rng(np.random.SeedSequence([corpus.seed, 303, 0])))
    kernels["render_utterance"] = timed(render, args.repeats)
    kernels["replay_channel"] = timed(lambda: simulate_replay(source, channel, seed=corpus.seed),
                                      args.repeats)
    desk = parse_config(workload_config("desk", "work"))
    lpcc_configs = {"lpcc_backend": backend.features[gmm_spec.feature].config,
                    "lpcc_desk": desk.features["lpcc78"].config}
    for name, lpcc_cfg in lpcc_configs.items():
        kernels[name] = timed(lambda: lpcc(source, lpcc_cfg), args.repeats)

    def spectrogram():
        fft_spectrogram(wave, fft.config)

    kernels["fft_spectrogram"] = {**timed(spectrogram, args.repeats),
                                  "peak_mib": traced_peak(spectrogram)}
    maxima, _ = local_extrema(samples)
    kernels["envelope"] = timed(
        lambda: _envelope(maxima, samples[maxima], samples.size), args.repeats)
    eemd_seed = derive_seed(frontends.seed, "extract", deemd.name, FRONTENDS_TRIAL)
    # member 0 as eemd_first_imf draws its noise
    member_rng = np.random.default_rng(np.random.SeedSequence(eemd_seed).spawn(1)[0])
    noisy = samples + member_rng.standard_normal(samples.size) * (
        deemd.config.noise_strength_factor * float(np.std(samples)))
    kernels["sift_member"] = timed(lambda: emd_first_imf(noisy, deemd.config.sift),
                                   args.repeats)

    def eemd_trial():
        eemd_first_imf(samples, deemd.config, eemd_seed)

    kernels["eemd_trial"] = timed(eemd_trial, args.repeats)
    with parallel.workers():
        kernels["eemd_trial_workers"] = {**timed(eemd_trial, args.repeats),
                                         "workers": parallel.usable_cpus() - 1}
    kernels["import_cli"] = import_probe

    result = {
        "seed": backend.seed,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "threads": {name: os.environ[name] for name in THREAD_VARS}},
        "kernels": kernels,
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
