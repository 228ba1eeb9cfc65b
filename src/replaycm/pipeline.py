"""Workflow plumbing shared by the CLI: feature extraction to containers,
system training (GMM log-likelihood-ratio and i-vector + SVM back-ends,
optionally per phrase), and scoring back to score sets.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import containers
from .audio_io import Waveform, load_wav
from .cepstral import cmvn, cqcc, lpcc
from .config import (
    DeemdParams,
    FeatureSpec,
    GmmSystemSpec,
    IvecSystemSpec,
    PipelineConfig,
    derive_seed,
)
from .corpus import Trial, partition_by_phrase
from .eemd import delta_eemd_spectrogram
from .fusion import FusionModel
from .gmm import GmmModel, gmm_em_train, llr_score
from .ivector import (
    TotalVariabilityModel,
    baum_welch_stats,
    center_length_normalize,
    extract_ivector,
    train_t_matrix,
)
from .metrics import ScoreSet
from .spectral import (
    cqt_log_power_spectrogram,
    dwt_scalogram,
    fft_log_power_spectrogram,
    mvn_spectrum,
)
from .svm import SvmModel, svm_score, svm_train_linear

SHARED_KEY = ""


def feature_dir(cfg: PipelineConfig, feature_name: str) -> Path:
    return Path(cfg.paths.work_dir) / "features" / feature_name


def feature_path(directory, trial_id: str) -> Path:
    return Path(directory) / f"{trial_id}.rsft"


def model_dir(cfg: PipelineConfig, system_name: str) -> Path:
    return Path(cfg.paths.work_dir) / "models" / system_name


def compute_feature(spec: FeatureSpec, wave: Waveform, trial_seed: int) -> np.ndarray:
    """Run one configured front-end; returns its dim x frames matrix."""
    if spec.kind == "cqcc":
        feats = cqcc(wave, spec.config)
        return cmvn(feats) if spec.cmvn else feats
    if spec.kind == "lpcc":
        feats = lpcc(wave, spec.config)
        return cmvn(feats) if spec.cmvn else feats
    if spec.kind == "fft":
        spectrum = fft_log_power_spectrogram(wave, spec.config)
    elif spec.kind == "cqt":
        spectrum = cqt_log_power_spectrogram(wave, spec.config)
    elif spec.kind == "dwt":
        spectrum = dwt_scalogram(wave, spec.config)
    elif spec.kind == "deemd":
        params: DeemdParams = spec.config
        spectrum = delta_eemd_spectrogram(
            wave,
            params.fft,
            ensemble_size=params.ensemble_size,
            noise_strength_factor=params.noise_strength_factor,
            seed=trial_seed,
            sift=params.sift,
        )
    else:
        raise ValueError(f"unknown feature kind {spec.kind!r}")
    return mvn_spectrum(spectrum) if spec.mvn else spectrum


def save_feature(path, values: np.ndarray, spec: FeatureSpec) -> None:
    containers.write_matrix(path, values, {"name": spec.name, "kind": spec.kind,
                                           "fingerprint": repr(spec.config)})


def load_feature_frames(path) -> np.ndarray:
    """Read a feature container as a frames x dim matrix for modelling.

    Containers hold every feature as dim x frames, one column per frame, so
    modelling always sees the transpose.
    """
    values, _ = containers.read_matrix(path)
    return values.T


def extract_trial(cfg: PipelineConfig, spec: FeatureSpec, trial: Trial,
                  audio_dir, out_dir) -> Path:
    wav_path = Path(audio_dir) / f"{trial.trial_id}.wav"
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
    out_path = feature_path(out_dir, trial.trial_id)
    save_feature(out_path, feature, spec)
    return out_path


def _trial_frames(cfg: PipelineConfig, feature_name: str, trial: Trial) -> np.ndarray:
    path = feature_path(feature_dir(cfg, feature_name), trial.trial_id)
    if not path.exists():
        raise FileNotFoundError(
            f"trial {trial.trial_id}: missing features {path} "
            f"(run extract for feature {feature_name!r} first)"
        )
    return load_feature_frames(path)


def _labeled(trials: list[Trial]) -> list[Trial]:
    return [t for t in trials if t.label in ("genuine", "spoof")]


def _phrase_groups(trials: list[Trial], phrase_dependent: bool) -> dict[str, list[Trial]]:
    if not phrase_dependent:
        return {SHARED_KEY: trials}
    return partition_by_phrase(trials)


def _model_name(base: str, phrase_key: str) -> str:
    return base if phrase_key == SHARED_KEY else f"{base}__{phrase_key}"


def _write_model(directory: Path, name: str, kind: str, arrays: dict) -> None:
    containers.write_model(directory / f"{name}.rsmd", kind, arrays)


def _gmm_arrays(model: GmmModel) -> dict:
    return {"weights": model.weights, "means": model.means,
            "variances": model.variances}


def _gmm_from_arrays(arrays: dict) -> GmmModel:
    return GmmModel(arrays["weights"], arrays["means"], arrays["variances"])


def train_gmm_system(cfg: PipelineConfig, spec: GmmSystemSpec,
                     trials: list[Trial]) -> dict:
    """Two-class GMM training; one model pair per phrase when phrase-dependent."""
    out = model_dir(cfg, spec.name)
    out.mkdir(parents=True, exist_ok=True)
    diagnostics = {}
    for phrase_key, group in _phrase_groups(_labeled(trials), spec.phrase_dependent).items():
        by_label = {"genuine": [], "spoof": []}
        for trial in group:
            by_label[trial.label].append(_trial_frames(cfg, spec.feature, trial))
        for label, frame_list in by_label.items():
            if not frame_list:
                raise ValueError(
                    f"system {spec.name}: no {label} trials to train on"
                    + (f" for phrase {phrase_key}" if phrase_key else "")
                )
            frames = np.vstack(frame_list)
            model = gmm_em_train(
                frames,
                k=spec.components,
                iters=spec.iterations,
                variance_floor=spec.variance_floor,
                seed=derive_seed(cfg.seed, "train", spec.name, label, phrase_key),
            )
            _write_model(out, _model_name(label, phrase_key), "gmm", _gmm_arrays(model))
            diagnostics[f"{_model_name(label, phrase_key)}_final_loglik"] = (
                model.loglik_history[-1]
            )
    return diagnostics


def load_model(path, kind: str) -> dict[str, np.ndarray]:
    """Arrays of the RSMD container at ``path``, which must hold a ``kind`` model."""
    found, arrays = containers.read_model(path)
    if found != kind:
        raise ValueError(f"{path}: expected a {kind} container, found {found!r}")
    return arrays


def _load_system_model(directory: Path, system: str, base: str, phrase_key: str,
                       kind: str) -> dict[str, np.ndarray]:
    path = directory / f"{_model_name(base, phrase_key)}.rsmd"
    if not path.exists():
        raise FileNotFoundError(
            f"system {system}: missing model {path}"
            + (f" for phrase {phrase_key}" if phrase_key else "")
        )
    return load_model(path, kind)


def _load_gmm_pair(cfg: PipelineConfig, spec: GmmSystemSpec, phrase_key: str):
    out = model_dir(cfg, spec.name)
    return tuple(
        _gmm_from_arrays(_load_system_model(out, spec.name, label, phrase_key, "gmm"))
        for label in ("genuine", "spoof")
    )


def score_gmm_system(cfg: PipelineConfig, spec: GmmSystemSpec,
                     trials: list[Trial]) -> ScoreSet:
    cache: dict[str, tuple[GmmModel, GmmModel]] = {}
    scores = []
    for trial in trials:
        phrase_key = trial.phrase_id if spec.phrase_dependent else SHARED_KEY
        if phrase_key not in cache:
            cache[phrase_key] = _load_gmm_pair(cfg, spec, phrase_key)
        genuine, spoofed = cache[phrase_key]
        frames = _trial_frames(cfg, spec.feature, trial)
        scores.append(llr_score(genuine, spoofed, frames))
    return ScoreSet(tuple(t.trial_id for t in trials), np.array(scores))


def train_ivec_system(cfg: PipelineConfig, spec: IvecSystemSpec,
                      trials: list[Trial]) -> dict:
    """UBM -> T-matrix -> centered, length-normalized i-vectors -> linear SVM.

    Each stage is trained per phrase or shared according to the system's
    sharing flags (shared T requires shared UBM, shared SVM requires shared T).
    """
    out = model_dir(cfg, spec.name)
    out.mkdir(parents=True, exist_ok=True)
    labeled = _labeled(trials)
    frames_by_trial = {
        t.trial_id: _trial_frames(cfg, spec.feature, t) for t in labeled
    }
    diagnostics = {}

    ubms: dict[str, GmmModel] = {}
    for phrase_key, group in _phrase_groups(labeled, not spec.ubm_shared).items():
        frames = np.vstack([frames_by_trial[t.trial_id] for t in group])
        ubm = gmm_em_train(
            frames,
            k=spec.ubm_components,
            iters=spec.ubm_iterations,
            seed=derive_seed(cfg.seed, "train", spec.name, "ubm", phrase_key),
        )
        ubms[phrase_key] = ubm
        _write_model(out, _model_name("ubm", phrase_key), "gmm", _gmm_arrays(ubm))
        diagnostics[f"{_model_name('ubm', phrase_key)}_final_loglik"] = (
            ubm.loglik_history[-1]
        )

    def ubm_for(trial: Trial) -> GmmModel:
        return ubms[SHARED_KEY if spec.ubm_shared else trial.phrase_id]

    stats_by_trial = {
        t.trial_id: baum_welch_stats(ubm_for(t), frames_by_trial[t.trial_id])
        for t in labeled
    }

    tvs: dict[str, TotalVariabilityModel] = {}
    for phrase_key, group in _phrase_groups(labeled, not spec.t_shared).items():
        ubm = ubms[SHARED_KEY if spec.ubm_shared else phrase_key]
        tv = train_t_matrix(
            [stats_by_trial[t.trial_id] for t in group],
            ubm,
            rank=spec.tv_rank,
            iters=spec.tv_iterations,
            seed=derive_seed(cfg.seed, "train", spec.name, "tmatrix", phrase_key),
        )
        tvs[phrase_key] = tv
        _write_model(out, _model_name("tmatrix", phrase_key), "tmatrix",
                     {"t_matrix": tv.t_matrix})
        diagnostics[f"{_model_name('tmatrix', phrase_key)}_final_objective"] = (
            tv.objective_history[-1]
        )

    def tv_for(trial: Trial) -> TotalVariabilityModel:
        return tvs[SHARED_KEY if spec.t_shared else trial.phrase_id]

    ivectors = {
        t.trial_id: extract_ivector(tv_for(t), stats_by_trial[t.trial_id])
        for t in labeled
    }

    for phrase_key, group in _phrase_groups(labeled, not spec.svm_shared).items():
        vectors = [ivectors[t.trial_id] for t in group]
        normalized, mean, _ = center_length_normalize(vectors)
        labels = np.array([1.0 if t.label == "genuine" else -1.0 for t in group])
        if np.all(labels == labels[0]):
            raise ValueError(
                f"system {spec.name}: single-class training set"
                + (f" for phrase {phrase_key}" if phrase_key else "")
            )
        svm = svm_train_linear(
            np.stack([v.values for v in normalized]), labels, c=spec.svm_c
        )
        _write_model(out, _model_name("mean", phrase_key), "mean", {"mean": mean})
        _write_model(out, _model_name("svm", phrase_key), "svm",
                     {"weight": svm.weight, "bias": np.array([svm.bias])})
        diagnostics[f"{_model_name('svm', phrase_key)}_final_dual_objective"] = (
            svm.dual_objective_history[-1]
        )
    return diagnostics


class _IvecScorer:
    """Builds each phrase's models once; a shared SVM (so shared T and UBM) serves all."""

    def __init__(self, cfg: PipelineConfig, spec: IvecSystemSpec):
        self.spec = spec
        self.dir = model_dir(cfg, spec.name)
        self._models: dict[str, tuple] = {}

    def _load(self, base: str, shared: bool, phrase_id: str, kind: str):
        phrase_key = SHARED_KEY if shared else phrase_id
        return _load_system_model(self.dir, self.spec.name, base, phrase_key, kind)

    def _build(self, phrase_id: str) -> tuple:
        spec = self.spec
        ubm = _gmm_from_arrays(self._load("ubm", spec.ubm_shared, phrase_id, "gmm"))
        t_matrix = self._load("tmatrix", spec.t_shared, phrase_id, "tmatrix")["t_matrix"]
        mean = self._load("mean", spec.svm_shared, phrase_id, "mean")["mean"]
        svm = self._load("svm", spec.svm_shared, phrase_id, "svm")
        return (TotalVariabilityModel(ubm, t_matrix), mean,
                SvmModel(svm["weight"], float(svm["bias"][0])))

    def score(self, trial: Trial, frames: np.ndarray) -> float:
        key = SHARED_KEY if self.spec.svm_shared else trial.phrase_id
        if key not in self._models:
            self._models[key] = self._build(key)
        tv, mean, svm = self._models[key]
        ivec = extract_ivector(tv, baum_welch_stats(tv.ubm, frames))
        normalized, _, _ = center_length_normalize([ivec], mean=mean)
        return svm_score(svm, normalized[0])


def score_ivec_system(cfg: PipelineConfig, spec: IvecSystemSpec,
                      trials: list[Trial]) -> ScoreSet:
    scorer = _IvecScorer(cfg, spec)
    scores = []
    for trial in trials:
        frames = _trial_frames(cfg, spec.feature, trial)
        scores.append(scorer.score(trial, frames))
    return ScoreSet(tuple(t.trial_id for t in trials), np.array(scores))


def train_system(cfg: PipelineConfig, system_name: str, trials: list[Trial]) -> dict:
    spec = cfg.systems[system_name]
    if isinstance(spec, GmmSystemSpec):
        return train_gmm_system(cfg, spec, trials)
    if isinstance(spec, IvecSystemSpec):
        return train_ivec_system(cfg, spec, trials)
    raise ValueError(f"unknown system type for {system_name!r}")


def score_system(cfg: PipelineConfig, system_name: str, trials: list[Trial]) -> ScoreSet:
    spec = cfg.systems[system_name]
    if isinstance(spec, GmmSystemSpec):
        return score_gmm_system(cfg, spec, trials)
    if isinstance(spec, IvecSystemSpec):
        return score_ivec_system(cfg, spec, trials)
    raise ValueError(f"unknown system type for {system_name!r}")


def save_fusion_model(path, model: FusionModel) -> None:
    containers.write_model(
        path, "fusion",
        {"weights": model.weights, "offset": np.array([model.offset])},
    )


def load_fusion_model(path) -> FusionModel:
    arrays = load_model(path, "fusion")
    return FusionModel(arrays["weights"], float(arrays["offset"][0]))


def labels_vector(trials: list[Trial], trial_ids: tuple[str, ...]) -> np.ndarray:
    """+1/-1 labels for the given trial ids, drawn from a labeled protocol."""
    by_id = {t.trial_id: t.label for t in trials}
    missing = [tid for tid in trial_ids if tid not in by_id]
    if missing:
        raise ValueError(
            f"{len(missing)} scored trial(s) absent from the protocol, "
            f"e.g. {missing[:5]}"
        )
    unknown = [tid for tid in trial_ids if by_id[tid] == "unknown"]
    if unknown:
        raise ValueError(
            f"{len(unknown)} scored trial(s) have no ground-truth label, "
            f"e.g. {unknown[:5]}"
        )
    return np.array([1.0 if by_id[tid] == "genuine" else -1.0 for tid in trial_ids])
