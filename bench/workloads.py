"""Workload definitions: the configuration each workload feeds the CLI, the
command sequence it runs, and the call counts a traced run must show.

The data lives in ``workloads.json`` next to this file; nothing here imports
``replaycm``, so the orchestrator stays light while the workload runs.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

SPEC_FILE = Path(__file__).with_name("workloads.json")
CQT_KINDS = ("cqcc", "cqt")


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text(encoding="utf-8"))


def workload_names() -> list[str]:
    return list(load_spec()["workloads"])


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    config: dict  # replaycm configuration without the per-run paths
    eer_ceiling_pct: float  # a pass whose final eval EER is above this fails

    @classmethod
    def load(cls, name: str, seed: int | None = None) -> "Workload":
        entry = load_spec()["workloads"][name]
        return cls(name, entry["default_seed"] if seed is None else seed,
                   entry["config"], entry["eer_ceiling_pct"])

    # ---- configuration ------------------------------------------------
    def full_config(self, work_dir: Path) -> dict:
        work = str(work_dir)
        config = copy.deepcopy(self.config)
        config["seed"] = self.seed
        config["paths"] = {
            "work_dir": work,
            "audio_dir": f"{work}/corpus/wav",
            "protocol_train": f"{work}/corpus/protocol_train.txt",
            "protocol_eval": f"{work}/corpus/protocol_eval.txt",
        }
        return config

    @property
    def corpus(self) -> dict:
        return self.config["corpus"]

    @property
    def n_train(self) -> int:
        return self.corpus["n_train_genuine"] + self.corpus["n_train_spoof"]

    @property
    def n_eval(self) -> int:
        return self.corpus["n_eval_genuine"] + self.corpus["n_eval_spoof"]

    @property
    def n_trials(self) -> int:
        return self.n_train + self.n_eval

    @property
    def features(self) -> dict:
        return self.config["features"]

    @property
    def systems(self) -> dict:
        return self.config["systems"]

    @property
    def fused(self) -> bool:
        return len(self.systems) >= 2

    @property
    def final_scores(self) -> str:
        """Score file whose EER is the workload's result."""
        if self.fused:
            return "fused.eval.scores"
        return f"{next(iter(self.systems))}.eval.scores"

    # ---- commands -----------------------------------------------------
    def commands(self, work_dir: Path, config_path: Path) -> list[tuple[str, list[str]]]:
        """(stage, argv) for every CLI call after ``synth``, in order.

        Stages: extract, train, score, fuse-train, fuse-apply, eval.  Both
        subsets are scored so that fusion can train on labelled scores.
        """
        cfg = str(config_path)
        protocols = {"train": f"{work_dir}/corpus/protocol_train.txt",
                     "eval": f"{work_dir}/corpus/protocol_eval.txt"}
        out = []
        for feature in self.features:
            for protocol in protocols.values():
                out.append(("extract", ["extract", "--config", cfg, "--feature", feature,
                                        "--protocol", protocol, "--jobs", "1"]))
        for system in self.systems:
            out.append(("train", ["train", "--config", cfg, "--system", system]))
        for system in self.systems:
            for subset, protocol in protocols.items():
                out.append(("score", ["score", "--config", cfg, "--system", system,
                                      "--protocol", protocol, "--out-scores",
                                      f"{work_dir}/{system}.{subset}.scores"]))
        if self.fused:
            out.append(("fuse-train", [
                "fuse", *[f"{work_dir}/{s}.train.scores" for s in self.systems],
                "--protocol", protocols["train"], "--out-model", f"{work_dir}/fusion.rsmd",
                "--out-scores", f"{work_dir}/fused.train.scores"]))
            out.append(("fuse-apply", [
                "fuse", *[f"{work_dir}/{s}.eval.scores" for s in self.systems],
                "--apply", f"{work_dir}/fusion.rsmd",
                "--out-scores", f"{work_dir}/fused.eval.scores"]))
        for name in self.eval_score_files():
            out.append(("eval", ["eval", f"{work_dir}/{name}",
                                 "--protocol", protocols["eval"]]))
        return out

    def eval_score_files(self) -> list[str]:
        names = [f"{s}.eval.scores" for s in self.systems]
        return names + (["fused.eval.scores"] if self.fused else [])

    def score_files(self) -> dict[str, str]:
        """Every score file the pipeline writes -> the subset it covers."""
        files = {f"{s}.{subset}.scores": subset
                 for s in self.systems for subset in ("train", "eval")}
        if self.fused:
            files.update({"fused.train.scores": "train", "fused.eval.scores": "eval"})
        return files

    # ---- work counts --------------------------------------------------
    def extractions(self) -> int:
        return self.n_trials * len(self.features)

    def scored_trials(self) -> int:
        """Trial scores written by ``score`` plus the fusion-apply ``fuse``."""
        return self.n_trials * len(self.systems) + (self.n_eval if self.fused else 0)

    def expected_calls(self) -> dict[str, int]:
        """Call counts a traced run of this workload must reproduce exactly."""
        n_phrases = self.corpus["n_phrases"]

        def groups(per_phrase: bool) -> int:
            return n_phrases if per_phrase else 1

        gmm_trains = t_trains = svm_trains = ivec_calls = llr_calls = 0
        for system in self.systems.values():
            if system["model"] == "gmm":
                gmm_trains += 2 * groups(system.get("phrase_dependent", False))
                llr_calls += self.n_trials
            else:
                gmm_trains += groups(not system.get("ubm_shared", True))
                t_trains += groups(not system.get("t_shared", True))
                svm_trains += groups(not system.get("svm_shared", True))
                ivec_calls += self.n_train + self.n_trials
        kinds = [f["type"] for f in self.features.values()]
        n_cqt = sum(kind in CQT_KINDS for kind in kinds)
        n_cmvn = sum(f.get("cmvn", False) for f in self.features.values()
                     if f["type"] in ("cqcc", "lpcc"))
        n_evals = len(self.eval_score_files())
        return {
            "corpus.generate_synth_corpus": 1,
            "audio_io.write_wav": self.n_trials,
            "audio_io.load_wav": self.extractions(),
            "pipeline.extract_trial": self.extractions(),
            "containers.write_matrix": self.extractions(),
            "spectral.cqt_magnitude": self.n_trials * n_cqt,
            "cepstral.cqcc": self.n_trials * kinds.count("cqcc"),
            "cepstral.lpcc": self.n_trials * kinds.count("lpcc"),
            "cepstral.cmvn": self.n_trials * n_cmvn,
            # a ΔEEMD feature takes the spectrogram of the wave and of its first IMF
            "spectral.fft_spectrogram": self.n_trials * (kinds.count("fft")
                                                         + 2 * kinds.count("deemd")),
            "spectral.dwt_scalogram": self.n_trials * kinds.count("dwt"),
            "eemd.eemd_first_imf": self.n_trials * kinds.count("deemd"),
            "gmm.gmm_em_train": gmm_trains,
            "gmm.llr_score": llr_calls,
            "ivector.train_t_matrix": t_trains,
            "ivector.baum_welch_stats": ivec_calls,
            "ivector.extract_ivector": ivec_calls,
            "svm.svm_train_linear": svm_trains,
            "fusion.fusion_train": int(self.fused),
            "fusion.fusion_apply": 2 * int(self.fused),
            "metrics.compute_eer": n_evals,
            # synth, extract, train and score read the config; fuse and eval do not
            "config.load_config": 1 + 2 * len(self.features) + 3 * len(self.systems),
            "cli.cmd_synth": 1,
            "cli.cmd_extract": 2 * len(self.features),
            "cli.cmd_train": len(self.systems),
            "cli.cmd_score": 2 * len(self.systems),
            "cli.cmd_fuse": 2 * int(self.fused),
            "cli.cmd_eval": n_evals,
        }
