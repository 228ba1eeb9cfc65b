"""Workflow plumbing shared by the CLI: feature extraction to containers,
system training (GMM log-likelihood-ratio and i-vector + SVM back-ends,
optionally per phrase), the model files they write, and scoring back to
score sets.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import containers
from .audio_io import Waveform, load_wav
from .cepstral import CqccConfig, LpccConfig, cmvn, cqcc, lpcc
from .config import (
    FeatureSpec,
    GmmSystemSpec,
    IvecSystemSpec,
    PipelineConfig,
    derive_seed,
)
from .corpus import ProtocolError, Trial, parse_protocol, partition_by_phrase
from .eemd import DeemdParams, delta_eemd_spectrogram
from .gmm import GmmModel, gmm_em_train, llr_score
from .ivector import (
    BaumWelchStats,
    TotalVariabilityModel,
    baum_welch_stats,
    center_length_normalize,
    extract_ivector,
    train_t_matrix,
)
from .metrics import ScoreSet, cllr, compute_eer, min_cllr, read_scores
from .spectral import (
    CqtConfig,
    DwtConfig,
    FftConfig,
    cqt_log_power_spectrogram,
    dwt_scalogram,
    fft_spectrogram,
    mvn_spectrum,
)
from .svm import LinearModel, svm_score, svm_train_linear

SHARED_KEY = ""


def feature_dir(cfg: PipelineConfig, feature_name: str) -> Path:
    return Path(cfg.paths.work_dir) / "features" / feature_name


def feature_path(cfg: PipelineConfig, feature_name: str, trial_id: str) -> Path:
    return feature_dir(cfg, feature_name) / f"{trial_id}.rsft"


def model_dir(cfg: PipelineConfig, system_name: str) -> Path:
    return Path(cfg.paths.work_dir) / "models" / system_name


# Each feature kind's config type, the JSON key that sets its
# FeatureSpec.normalise, and its front-end, called as f(wave, config,
# trial_seed); the only place a kind is written down (config._parse_feature
# reads it too).  A front-end looks its function up here when run, so one
# patched at module level (as bench/tracer.py does) is the one called.
FEATURE_KINDS = {
    "cqcc": (CqccConfig, "cmvn", lambda wave, cfg, seed: cqcc(wave, cfg)),
    "lpcc": (LpccConfig, "cmvn", lambda wave, cfg, seed: lpcc(wave, cfg)),
    "fft": (FftConfig, "mvn", lambda wave, cfg, seed: fft_spectrogram(wave, cfg)),
    "cqt": (CqtConfig, "mvn", lambda wave, cfg, seed: cqt_log_power_spectrogram(wave, cfg)),
    "dwt": (DwtConfig, "mvn", lambda wave, cfg, seed: dwt_scalogram(wave, cfg)),
    "deemd": (DeemdParams, "mvn",
              lambda wave, cfg, seed: delta_eemd_spectrogram(wave, cfg, seed)),
}


def compute_feature(spec: FeatureSpec, wave: Waveform, trial_seed: int) -> np.ndarray:
    """Run one configured front-end; returns its dim x frames matrix.  A
    wave too short for 2 frames is refused, whatever the kind."""
    _, flag, front_end = FEATURE_KINDS[spec.kind]
    values = front_end(wave, spec.config, trial_seed)
    if values.shape[1] < 2:
        raise ValueError(f"{wave.samples.size} samples give {values.shape[1]} "
                         f"{spec.kind} frame(s); a feature needs at least 2")
    if not spec.normalise:
        return values
    return cmvn(values) if flag == "cmvn" else mvn_spectrum(values)


def feature_fingerprint(cfg: PipelineConfig, spec: FeatureSpec) -> str:
    """Every setting that changes a feature file's values: the front-end's
    configuration, its normalisation flag, the sample rate and the run seed
    (which renders every WAV and seeds each trial's front-end)."""
    flag = FEATURE_KINDS[spec.kind][1]
    return (f"{spec.config!r} {flag}={spec.normalise} "
            f"sample_rate={cfg.sample_rate} seed={cfg.seed}")


def read_feature(cfg: PipelineConfig, feature_name: str, trial_id: str) -> np.ndarray:
    """The feature file of a trial as a frames x dim matrix for modelling.  A
    missing file, or one whose kind or fingerprint is not feature
    ``feature_name``'s under ``cfg``, is refused.

    Containers hold every feature as dim x frames, one column per frame, so
    modelling always sees the transpose.
    """
    spec = cfg.features[feature_name]
    path = feature_path(cfg, feature_name, trial_id)
    if not path.exists():
        raise FileNotFoundError(f"trial {trial_id}: missing features {path} "
                                f"(run extract for feature {feature_name!r} first)")
    values, meta = containers.read_matrix(path)
    if (meta.get("kind"), meta.get("fingerprint")) != (spec.kind, feature_fingerprint(cfg, spec)):
        raise ValueError(f"{path}: extracted with other settings than feature "
                         f"{spec.name!r} has now; re-run extract")
    return values.T


def extract_trial(cfg: PipelineConfig, spec: FeatureSpec, trial: Trial) -> Path:
    """Read a trial's WAV from paths.audio_dir and write its feature to
    its feature_path, whose directory must exist."""
    wav_path = Path(cfg.paths.audio_dir) / f"{trial.trial_id}.wav"
    if not wav_path.exists():
        raise FileNotFoundError(f"trial {trial.trial_id}: missing audio {wav_path}")
    wave = load_wav(wav_path)
    if wave.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"trial {trial.trial_id}: sample rate {wave.sample_rate} Hz does not "
            f"match the configured {cfg.sample_rate} Hz"
        )
    seed = derive_seed(cfg.seed, "extract", spec.name, trial.trial_id)
    feature = compute_feature(spec, wave, seed)
    out_path = feature_path(cfg, spec.name, trial.trial_id)
    containers.write_matrix(out_path, feature, {
        "name": spec.name, "kind": spec.kind, "fingerprint": feature_fingerprint(cfg, spec)})
    return out_path


def _phrase_groups(trials: list[Trial], phrase_dependent: bool) -> dict[str, list[Trial]]:
    if not phrase_dependent:
        return {SHARED_KEY: trials}
    return partition_by_phrase(trials)


def model_path(directory, base: str, phrase_key: str) -> Path:
    """Model ``base`` of ``phrase_key`` in a system's model directory."""
    name = base if phrase_key == SHARED_KEY else f"{base}__{phrase_key}"
    return Path(directory) / f"{name}.rsmd"


# Each model kind's arrays in file order, and the type built from them; a
# kind's arrays are the leading fields of its type, in order, so two kinds may
# name one type's fields differently.  A kind without a type is one plain
# array, and a scalar field is stored as a one-value array.  The only place a
# kind's layout is written down.
MODEL_LAYOUTS = {
    "gmm": (GmmModel, ("weights", "means", "variances"), ()),
    "tmatrix": (None, ("t_matrix",), ()),
    "mean": (None, ("mean",), ()),
    "svm": (LinearModel, ("weight",), ("bias",)),
    "fusion": (LinearModel, ("weights",), ("offset",)),
}


def save_model(path, kind: str, model) -> None:
    """Write ``model`` to ``path`` as a ``kind`` model file."""
    build, names, scalars = MODEL_LAYOUTS[kind]
    values = [model] if build is None else [getattr(model, f.name) for f in fields(model)]
    containers.write_model(path, kind, {name: np.atleast_1d(value)
                                        for name, value in zip(names + scalars, values)})


def load_model(path, kind: str):
    """The ``kind`` model stored at ``path``; a file of another kind, or one
    whose arrays do not fit the kind, is refused."""
    found, arrays = containers.read_model(path)
    if found != kind:
        raise ValueError(f"{path}: expected a {kind} container, found {found!r}")
    build, names, scalars = MODEL_LAYOUTS[kind]
    for name in sorted(set(names + scalars) ^ set(arrays)):
        problem = "has an unexpected" if name in arrays else "has no"
        raise containers.ContainerFormatError(f"{path}: {kind} model {problem} array {name!r}")
    for name in scalars:
        if arrays[name].size != 1:
            raise containers.ContainerFormatError(
                f"{path}: {kind} model array {name!r} holds {arrays[name].size} "
                "values, not one")
    values = [arrays[name] for name in names] + [float(arrays[name][0]) for name in scalars]
    if build is None:
        return values[0]
    try:
        return build(*values)
    except ValueError as exc:
        raise containers.ContainerFormatError(f"{path}: {exc}") from exc


def _fit(spec, phrase_key: str, train, *args, **kwargs):
    """``train(*args, **kwargs)``; a refusal names the system and phrase group."""
    try:
        return train(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"system {spec.name}: "
                         + (f"phrase {phrase_key}: " if phrase_key else "") + str(exc)) from exc


def train_gmm_system(cfg: PipelineConfig, spec: GmmSystemSpec, trials: list[Trial],
                     save) -> None:
    """Two-class GMM training on labeled trials, passing each model to
    ``save``; one model pair per phrase when phrase-dependent."""
    for phrase_key, group in _phrase_groups(trials, spec.phrase_dependent).items():
        for label in ("genuine", "spoof"):
            model = _fit(spec, phrase_key, gmm_em_train,
                         np.vstack([read_feature(cfg, spec.feature, t.trial_id)
                                    for t in group if t.label == label]),
                         k=spec.components,
                         iters=spec.iterations,
                         variance_floor=spec.variance_floor,
                         seed=derive_seed(cfg.seed, "train", spec.name, label, phrase_key))
            save(label, phrase_key, "gmm", model, model.history)


def _gmm_scorer(load, spec: GmmSystemSpec, phrase_key: str):
    genuine, spoofed = (load(label, phrase_key, "gmm") for label in ("genuine", "spoof"))
    return lambda frames: llr_score(genuine, spoofed, frames)


def train_ivec_system(cfg: PipelineConfig, spec: IvecSystemSpec, trials: list[Trial],
                      save) -> None:
    """UBM -> T-matrix -> centered, length-normalized i-vectors -> linear SVM,
    on labeled trials, passing each model to ``save``.

    Each stage is trained per phrase or shared according to the system's
    sharing flags.  A shared T requires a shared UBM and a shared SVM a shared
    T, so each stage's groups split the group of the stage before; one UBM
    group's frames, statistics and models are held at a time.
    """
    for ubm_key, ubm_group in _phrase_groups(trials, not spec.ubm_shared).items():
        _train_ivec_group(cfg, spec, ubm_key, ubm_group, save)


def _train_ivec_group(cfg: PipelineConfig, spec: IvecSystemSpec, ubm_key: str,
                      ubm_group: list[Trial], save) -> None:
    """Train the UBM of one group and every model below it; a group's
    models die with this call, before the next group's EM starts.

    The group's statistics are held once, as the stacked counts (U, K) and
    first-order sums (U, K*D) that T-matrix EM reads, with each T group's
    trials in consecutive rows; i-vector extraction reads views of them."""
    frames = {t.trial_id: read_feature(cfg, spec.feature, t.trial_id) for t in ubm_group}
    ubm = _fit(spec, ubm_key, gmm_em_train,
               np.vstack(list(frames.values())),
               k=spec.ubm_components,
               iters=spec.ubm_iterations,
               seed=derive_seed(cfg.seed, "train", spec.name, "ubm", ubm_key))
    save("ubm", ubm_key, "gmm", ubm, ubm.history)
    t_groups = _phrase_groups(ubm_group, not spec.t_shared)
    k, d = ubm.means.shape
    counts, firsts = np.empty((len(ubm_group), k)), np.empty((len(ubm_group), k * d))
    stats = {}
    for i, t in enumerate(t for t_group in t_groups.values() for t in t_group):
        # each trial's frames are released once its statistics exist
        trial_stats = baum_welch_stats(ubm, frames.pop(t.trial_id))
        counts[i], firsts[i] = trial_stats.n, trial_stats.f.reshape(-1)
        stats[t.trial_id] = BaumWelchStats(counts[i], firsts[i].reshape(k, d))

    start = 0
    for t_key, t_group in t_groups.items():
        rows, start = slice(start, start + len(t_group)), start + len(t_group)
        tv = _fit(spec, t_key, train_t_matrix,
                  counts[rows],
                  firsts[rows],
                  ubm,
                  rank=spec.tv_rank,
                  iters=spec.tv_iterations,
                  seed=derive_seed(cfg.seed, "train", spec.name, "tmatrix", t_key))
        save("tmatrix", t_key, "tmatrix", tv.t_matrix, tv.history)

        for svm_key, group in _phrase_groups(t_group, not spec.svm_shared).items():
            normalized, mean = center_length_normalize(
                np.stack([extract_ivector(tv, stats[t.trial_id]) for t in group]))
            labels = np.array([1.0 if t.label == "genuine" else -1.0 for t in group])
            svm = _fit(spec, svm_key, svm_train_linear, normalized, labels, c=spec.svm_c)
            save("mean", svm_key, "mean", mean)
            save("svm", svm_key, "svm", svm, svm.history)


def _ivec_scorer(load, spec: IvecSystemSpec, phrase_key: str):
    def key(shared: bool) -> str:
        return SHARED_KEY if shared else phrase_key

    ubm = load("ubm", key(spec.ubm_shared), "gmm")
    # the "tmatrix" load gives the TV model, so a shared T keeps one Gram triangle
    tv = load("tmatrix", key(spec.t_shared), "tmatrix",
              lambda t_matrix: TotalVariabilityModel(ubm, t_matrix))
    mean = load("mean", key(spec.svm_shared), "mean")
    svm = load("svm", key(spec.svm_shared), "svm")

    def score(frames: np.ndarray) -> float:
        ivec = extract_ivector(tv, baum_welch_stats(ubm, frames))
        rows, _ = center_length_normalize(ivec[None], mean)
        return svm_score(svm, rows[0])

    return score


# Each system kind's spec type, trainer and scorer factory, keyed by the
# JSON ``model`` tag; the only place a kind is written down
# (config._parse_system reads it too).  The trainer is called as
# f(cfg, spec, labeled_trials, save), with both classes in every phrase
# group, and passes every model it trains to train_system's ``save``.  The
# factory is called as f(load, spec, phrase_key): it loads the models of one
# phrase key through ``load`` and returns the function that scores a trial's
# frames with them.
SYSTEM_KINDS = {
    "gmm": (GmmSystemSpec, train_gmm_system, _gmm_scorer),
    "ivec-svm": (IvecSystemSpec, train_ivec_system, _ivec_scorer),
}


def _system_kind(spec) -> tuple:
    """The SYSTEM_KINDS entry of a parsed system spec."""
    return next(kind for kind in SYSTEM_KINDS.values() if type(spec) is kind[0])


def train_system(cfg: PipelineConfig, system_name: str, trials: list[Trial]) -> dict:
    """Train a system on the genuine and spoof trials of ``trials``, and
    return each model's final training value as
    ``<model>_final_<loglik|objective|dual_objective>``.  A protocol with no
    labeled trials or a phrase group without both classes (``ProtocolError``),
    or a training trial whose feature file is missing, stale or unreadable,
    is refused before any model trains.

    The new model set replaces the system's model directory whole: the
    models are written, as each is trained, to ``models/.<system>.new``, which
    takes the directory's place only once every model is written.  A refused
    or failed run leaves the previous set as it was.
    """
    spec = cfg.systems[system_name]
    labeled = [t for t in trials if t.label in ("genuine", "spoof")]
    if not labeled:
        raise ProtocolError(f"system {spec.name}: the training protocol has no "
                            "genuine or spoof trials")
    for phrase_key, group in _phrase_groups(labeled, spec.phrase_dependent).items():
        for label in sorted({"genuine", "spoof"} - {t.label for t in group}):
            raise ProtocolError(f"system {spec.name}: no {label} trials to train on"
                                + (f" for phrase {phrase_key}" if phrase_key else ""))
    for trial in labeled:
        read_feature(cfg, spec.feature, trial.trial_id)
    final = model_dir(cfg, spec.name)
    staging, retired = (final.with_name(f".{spec.name}.{tag}") for tag in ("new", "old"))
    for leftover in (staging, retired):  # from an interrupted run
        shutil.rmtree(leftover, ignore_errors=True)
    staging.mkdir(parents=True)
    diagnostics = {}

    def save(base: str, phrase_key: str, kind: str, model, history=()) -> None:
        """Write a trained model and record the last value of its history."""
        path = model_path(staging, base, phrase_key)
        save_model(path, kind, model)
        if history:  # what each step of the kind's history records
            value = {"gmm": "loglik", "tmatrix": "objective", "svm": "dual_objective"}[kind]
            diagnostics[f"{path.stem}_final_{value}"] = history[-1]

    try:
        _system_kind(spec)[1](cfg, spec, labeled, save)
    except BaseException:
        shutil.rmtree(staging)
        raise
    if final.exists():
        os.rename(final, retired)
    os.rename(staging, final)
    shutil.rmtree(retired, ignore_errors=True)
    return diagnostics


def score_system(cfg: PipelineConfig, system_name: str, trials: list[Trial]) -> ScoreSet:
    """Score every trial, one phrase key at a time in first-seen order, and
    return the scores in protocol order.  A system that is not
    phrase-dependent has one key for all trials: a shared SVM implies a
    shared T-matrix and UBM.  Each model file is read once: a key's own
    models are freed once its trials are scored, and shared ones stay
    loaded for every key.  A score that is not finite is refused, naming
    its trial."""
    spec = cfg.systems[system_name]
    shared, scores = {}, {}
    for phrase_key, group in _phrase_groups(trials, spec.phrase_dependent).items():
        _score_key(cfg, spec, phrase_key, group, shared, scores)
    return ScoreSet(tuple(t.trial_id for t in trials),
                    np.array([scores[t.trial_id] for t in trials]))


def _score_key(cfg: PipelineConfig, spec, phrase_key: str, trials: list[Trial],
               shared: dict, scores: dict) -> None:
    """Score ``trials``, all of phrase key ``phrase_key``, into ``scores`` by
    trial id.  The key's own models die with this call; ``shared`` keeps the
    shared ones."""
    own = {}

    def load(base: str, model_key: str, kind: str, build=lambda model: model):
        """The model ``base`` of ``model_key``, passed through ``build`` on
        its first load."""
        loaded = shared if model_key == SHARED_KEY else own
        path = model_path(model_dir(cfg, spec.name), base, model_key)
        if path not in loaded:
            if not path.exists():
                raise FileNotFoundError(
                    f"system {spec.name}: missing model {path}"
                    + (f" for phrase {model_key}" if model_key else "")
                )
            loaded[path] = build(load_model(path, kind))
        return loaded[path]

    score = _system_kind(spec)[2](load, spec, phrase_key)
    for trial in trials:
        value = scores[trial.trial_id] = score(read_feature(cfg, spec.feature, trial.trial_id))
        if not np.isfinite(value):
            raise ValueError(f"system {spec.name}: trial {trial.trial_id}: score is not finite")


def read_score_files(paths, protocol=None) -> tuple[tuple[str, ...], list, np.ndarray | None]:
    """The trial ids of the score files ``paths`` in the first file's order,
    each file's scores in that order and, given the path of a labeled
    protocol, their labels: +1.0 genuine, -1.0 spoof.  Files that score
    other trials than the first are refused before the protocol is read, and
    so is a trial the protocol lacks or leaves unlabeled, a labeled trial
    left unscored, or one class alone, naming a score file."""
    sets = [read_scores(path) for path in paths]
    trial_ids, scored = sets[0].trial_ids, set(sets[0].trial_ids)
    columns = [sets[0].scores]
    for path, other in zip(paths[1:], sets[1:]):
        index = dict(zip(other.trial_ids, range(len(other))))
        if index.keys() != scored:
            raise ValueError(
                f"score files are misaligned: {path} differs from {paths[0]} (missing e.g. "
                f"{sorted(scored - index.keys())[:5]}, unexpected e.g. "
                f"{sorted(index.keys() - scored)[:5]})")
        columns.append(other.scores[[index[tid] for tid in trial_ids]])
    if protocol is None:
        return trial_ids, columns, None
    trials = parse_protocol(protocol)
    by_id = {t.trial_id: t.label for t in trials}
    for found, problem in (
        ([tid for tid in trial_ids if tid not in by_id],
         "scored trial(s) absent from the protocol"),
        ([tid for tid in trial_ids if by_id.get(tid) == "unknown"],
         "scored trial(s) have no ground-truth label"),
        ([t.trial_id for t in trials if t.label != "unknown" and t.trial_id not in scored],
         "labeled trial(s) have no score"),
    ):
        if found:
            raise ValueError(f"{paths[0]}: {len(found)} {problem}, e.g. {found[:5]}")
    for label in sorted({"genuine", "spoof"} - {by_id[tid] for tid in trial_ids}):
        raise ValueError(f"{paths[0]}: no scored trial is {label}")
    return trial_ids, columns, np.array([1.0 if by_id[tid] == "genuine" else -1.0
                                         for tid in trial_ids])


def evaluate(score_path, protocol) -> tuple[float, float, float, float]:
    """The equal error rate of a score file against the labeled protocol at
    path ``protocol``, the threshold where the error rates cross, and the
    scores' Cllr and min-Cllr in bits."""
    _, (scores,), labels = read_score_files([score_path], protocol)
    genuine, spoof = scores[labels > 0], scores[labels < 0]
    return (*compute_eer(genuine, spoof), cllr(genuine, spoof), min_cllr(genuine, spoof))
