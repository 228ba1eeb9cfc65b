import dataclasses
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from replaycm import cli, containers, corpus, eemd, parallel, pipeline, spectral
from replaycm.audio_io import Waveform, write_wav
from replaycm.config import ConfigError, load_config
from replaycm.corpus import parse_protocol, write_protocol
from replaycm.gmm import GmmModel
from replaycm.ivector import (
    TotalVariabilityModel,
    baum_welch_stats,
    center_length_normalize,
    extract_ivector,
)
from replaycm.metrics import compute_eer, read_scores
from replaycm.svm import LinearModel, svm_score

TINY_CONFIG = {
    "seed": 4242,
    "sample_rate": 16000,
    "corpus": {
        "n_train_genuine": 8, "n_train_spoof": 8,
        "n_eval_genuine": 4, "n_eval_spoof": 4,
        "n_speakers": 2, "n_phrases": 2, "duration_seconds": 0.5,
    },
    "features": {
        "cqcc-small": {
            "type": "cqcc", "f_min": 500.0, "bins_per_octave": 12, "n_bins": 24,
            "hop_length": 256, "resample_bins": 48, "n_coeffs": 12,
        },
        "lpcc-small": {
            "type": "lpcc", "lpc_order": 12, "n_coeffs": 20,
        },
        "fft-small": {"type": "fft", "n_fft": 2048, "mvn": True},
        "cqt-small": {"type": "cqt", "f_min": 500.0, "bins_per_octave": 12,
                      "n_bins": 24, "hop_length": 256},
        "dwt-small": {"type": "dwt", "frame_len": 64, "hop_length": 64, "levels": 3},
        "deemd-small": {
            "type": "deemd", "n_fft": 2048, "ensemble_size": 2,
            "noise_strength_factor": 0.1,
        },
    },
    "systems": {
        "gmm-sys": {"model": "gmm", "feature": "cqcc-small",
                    "components": 4, "iterations": 4},
        "gmm-phrase": {"model": "gmm", "feature": "cqcc-small",
                       "components": 2, "iterations": 3, "phrase_dependent": True},
        "ivec-sys": {"model": "ivec-svm", "feature": "lpcc-small",
                     "ubm_components": 2, "ubm_iterations": 4,
                     "tv_rank": 2, "tv_iterations": 2, "svm_c": 1.0},
        "ivec-phrase": {"model": "ivec-svm", "feature": "lpcc-small",
                        "ubm_components": 2, "ubm_iterations": 3,
                        "tv_rank": 2, "tv_iterations": 2, "svm_c": 1.0,
                        "ubm_shared": True, "t_shared": True, "svm_shared": False},
        "ivec-each-phrase": {"model": "ivec-svm", "feature": "lpcc-small",
                             "ubm_components": 2, "ubm_iterations": 3,
                             "tv_rank": 2, "tv_iterations": 2, "svm_c": 0.1,
                             "ubm_shared": False, "t_shared": False, "svm_shared": False},
    },
}


def tree_hashes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def config_with_work_dir(cfg_path: Path, work_dir: Path) -> Path:
    """A copy of the configuration at ``cfg_path`` whose work_dir is
    ``work_dir``, written there as config.json; its corpus paths are kept, so
    extract reads the same corpus and writes under work_dir/features."""
    config = json.loads(cfg_path.read_text())
    config["paths"]["work_dir"] = str(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    own_cfg = work_dir / "config.json"
    own_cfg.write_text(json.dumps(config))
    return own_cfg


def assert_no_child_left():
    """No child process of this one runs or waits to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny corpus with cqcc/lpcc features extracted for both subsets."""
    root = tmp_path_factory.mktemp("cli")
    config = json.loads(json.dumps(TINY_CONFIG))
    work = root / "work"
    config["paths"] = {
        "work_dir": str(work),
        "audio_dir": str(work / "corpus/wav"),
        "protocol_train": str(work / "corpus/protocol_train.txt"),
        "protocol_eval": str(work / "corpus/protocol_eval.txt"),
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    assert cli.main(["synth", "--config", str(cfg_path)]) == 0
    for feature in ("cqcc-small", "lpcc-small"):
        for proto in ("protocol_train.txt", "protocol_eval.txt"):
            assert cli.main([
                "extract", "--config", str(cfg_path), "--feature", feature,
                "--protocol", str(work / "corpus" / proto),
            ]) == 0
    return cfg_path, work


class TestSynth:
    def test_creates_corpus_and_prints_manifest(self, workspace, capsys):
        cfg_path, work = workspace
        assert (work / "corpus/manifest.json").exists()
        assert (work / "corpus/protocol_train.txt").exists()
        assert len(list((work / "corpus/wav").glob("*.wav"))) == 24

    def test_rerun_reports_identical_corpus(self, workspace, capsys):
        cfg_path, work = workspace
        assert cli.main(["synth", "--config", str(cfg_path)]) == 0
        captured = capsys.readouterr()
        assert "manifest.json" in captured.out

    @staticmethod
    def write_config(tmp_path, paths) -> Path:
        config = json.loads(json.dumps(TINY_CONFIG))
        config["paths"] = {key: str(value) for key, value in paths.items()}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        return cfg_path

    @pytest.mark.parametrize("key, path", [
        ("audio_dir", "data/audio"),
        ("protocol_train", "data/train.txt"),
        ("protocol_eval", "elsewhere/protocol_eval.txt"),
    ])
    def test_paths_outside_one_corpus_dir_refused(self, tmp_path, capsys, key, path):
        paths = {"work_dir": tmp_path / "work", "audio_dir": tmp_path / "data/wav",
                 "protocol_train": tmp_path / "data/protocol_train.txt",
                 "protocol_eval": tmp_path / "data/protocol_eval.txt"}
        paths[key] = tmp_path / path
        cfg_path = self.write_config(tmp_path, paths)
        assert cli.main(["synth", "--config", str(cfg_path)]) == 2
        assert f"paths.{key}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_corpus_written_where_paths_point(self, tmp_path):
        data = tmp_path / "data"
        cfg_path = self.write_config(tmp_path, {
            "work_dir": tmp_path / "work", "audio_dir": data / "wav",
            "protocol_train": data / "protocol_train.txt",
            "protocol_eval": data / "protocol_eval.txt"})
        assert cli.main(["synth", "--config", str(cfg_path)]) == 0
        assert not (tmp_path / "work/corpus").exists()
        assert cli.main(["extract", "--config", str(cfg_path), "--feature", "lpcc-small",
                         "--protocol", str(data / "protocol_train.txt")]) == 0
        assert len(list((tmp_path / "work/features/lpcc-small").glob("*.rsft"))) == 16
        assert cli.main(["train", "--config", str(cfg_path), "--system", "ivec-sys"]) == 0

    @pytest.mark.parametrize("key, value", [
        ("cutoff_hz_range", [8500, 9000]),
        ("cutoff_hz_range", [0, 3000]),
        ("gain_range", [-0.5, -0.1]),
        ("max_reflections", 0),
        ("snr_db_range", [30, 20]),
    ], ids=["cutoff-above-nyquist", "cutoff-from-zero", "negative-gain", "no-reflection",
            "snr-reversed"])
    def test_a_corpus_setting_synth_cannot_render_is_refused(self, tmp_path, capsys,
                                                             key, value):
        corpus = tmp_path / "work/corpus"
        cfg_path = self.write_config(tmp_path, {
            "work_dir": tmp_path / "work", "audio_dir": corpus / "wav",
            "protocol_train": corpus / "protocol_train.txt",
            "protocol_eval": corpus / "protocol_eval.txt"})
        config = json.loads(cfg_path.read_text())
        config["corpus"][key] = value
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["synth", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: corpus: {key} ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_a_negative_seed_is_one_error_line_naming_the_file(self, tmp_path, capsys):
        cfg_path = self.corpus_config(tmp_path)
        config = json.loads(cfg_path.read_text())
        config["seed"] = -1
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["synth", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {cfg_path}: seed must be >= 0, got -1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_unwritable_out_dir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        corpus = blocker / "corpus"
        cfg_path = self.write_config(tmp_path, {
            "work_dir": tmp_path / "work", "audio_dir": corpus / "wav",
            "protocol_train": corpus / "protocol_train.txt",
            "protocol_eval": corpus / "protocol_eval.txt"})
        rc = cli.main(["synth", "--config", str(cfg_path)])
        assert rc == 2
        assert "blocker" in capsys.readouterr().err


    @staticmethod
    def corpus_config(tmp_path) -> Path:
        corpus_dir = tmp_path / "corpus"
        return TestSynth.write_config(tmp_path, {
            "work_dir": tmp_path / "work", "audio_dir": corpus_dir / "wav",
            "protocol_train": corpus_dir / "protocol_train.txt",
            "protocol_eval": corpus_dir / "protocol_eval.txt"})

    def test_a_render_error_in_a_child_is_one_error_line(self, tmp_path, monkeypatch,
                                                         capsys):
        parent = os.getpid()
        render = corpus.render_genuine_utterance

        def fail_in_a_child(*args):
            if os.getpid() != parent:
                raise ValueError("no samples")
            return render(*args)

        monkeypatch.setattr(corpus, "render_genuine_utterance", fail_in_a_child)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        rc = cli.main(["synth", "--config", str(self.corpus_config(tmp_path))])
        assert rc == 2
        # the child renders the odd trials
        assert capsys.readouterr().err == "error: trial train_g_0001: no samples\n"
        assert_no_child_left()

    def test_a_renderer_that_dies_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        render = corpus.render_genuine_utterance

        def die_in_a_child(*args):
            if os.getpid() != parent:
                os._exit(9)
            return render(*args)

        monkeypatch.setattr(corpus, "render_genuine_utterance", die_in_a_child)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        rc = cli.main(["synth", "--config", str(self.corpus_config(tmp_path))])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: child process ") and err.count("\n") == 1
        assert err.endswith(" exited with status 9 before sending all its results\n")
        assert_no_child_left()

    def test_a_refused_write_stops_the_children(self, tmp_path, monkeypatch, capsys):
        cfg_path = self.corpus_config(tmp_path)
        (tmp_path / "corpus/wav/train_s_0012.wav").mkdir(parents=True)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        rc = cli.main(["synth", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "train_s_0012.wav" in err
        assert not (tmp_path / "corpus/manifest.json").exists()
        assert_no_child_left()


class TestExtract:
    def test_feature_files_written(self, workspace):
        cfg_path, work = workspace
        files = list((work / "features/cqcc-small").glob("*.rsft"))
        assert len(files) == 24

    def test_rerun_byte_identical(self, workspace):
        cfg_path, work = workspace
        feature_dir = work / "features/cqcc-small"
        before = tree_hashes(feature_dir)
        assert cli.main([
            "extract", "--config", str(cfg_path), "--feature", "cqcc-small",
            "--protocol", str(work / "corpus/protocol_train.txt"),
        ]) == 0
        assert tree_hashes(feature_dir) == before

    def test_missing_wav_isolated(self, workspace, tmp_path, capsys):
        cfg_path, work = workspace
        protocol = tmp_path / "broken.txt"
        lines = (work / "corpus/protocol_train.txt").read_text().splitlines()
        protocol.write_text("\n".join(lines + ["ghost_trial genuine S00 P00 - - -"]))
        rc = cli.main([
            "extract", "--config", str(config_with_work_dir(cfg_path, tmp_path)),
            "--feature", "cqcc-small", "--protocol", str(protocol),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "ghost_trial" in err
        assert "16" in err and "1 failure" in err
        # the others succeeded
        assert len(list((tmp_path / "features/cqcc-small").glob("*.rsft"))) == 16

    def test_keep_going_exits_zero(self, workspace, tmp_path):
        cfg_path, work = workspace
        protocol = tmp_path / "broken.txt"
        protocol.write_text("ghost genuine S00 P00 - - -\n")
        rc = cli.main([
            "extract", "--config", str(config_with_work_dir(cfg_path, tmp_path)),
            "--feature", "cqcc-small", "--protocol", str(protocol), "--keep-going",
        ])
        assert rc == 0

    @pytest.mark.parametrize("feature, settings, message", [
        ("lpcc-small", {"window_seconds": 0.002, "lpc_order": 40},
         "lpc_order (40) must be smaller than the frame length (32)"),
        ("fft-small", {"n_fft": 1024}, "n_fft (1024) must be >= frame length (2048)"),
        ("deemd-small", {"n_fft": 1024}, "n_fft (1024) must be >= frame length (2048)"),
        ("lpcc-small", {"hop_seconds": 0.00001}, "hop must span at least 1 sample"),
        ("lpcc-small", {"window_seconds": 0.00005},
         "window must span at least 2 samples"),
        ("fft-small", {"hop_seconds": 0.00001}, "hop must span at least 1 sample"),
        ("fft-small", {"window_seconds": 0.00005},
         "window must span at least 2 samples"),
        ("deemd-small", {"hop_seconds": 0.00001}, "hop must span at least 1 sample"),
        ("deemd-small", {"window_seconds": 0.00005},
         "window must span at least 2 samples"),
    ], ids=["lpcc", "fft", "deemd", "lpcc-hop", "lpcc-window", "fft-hop", "fft-window",
            "deemd-hop", "deemd-window"])
    def test_a_frame_size_no_trial_can_meet_is_refused_when_the_config_loads(
            self, workspace, tmp_path, capsys, feature, settings, message):
        # not once per trial in extract, naming no config file
        cfg_path, work = workspace
        own_cfg = config_with_work_dir(cfg_path, tmp_path)
        config = json.loads(own_cfg.read_text())
        config["features"][feature].update(settings)
        own_cfg.write_text(json.dumps(config))
        rc = cli.main(["extract", "--config", str(own_cfg), "--feature", feature,
                       "--protocol", str(work / "corpus/protocol_eval.txt")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {own_cfg}: feature '{feature}': {message}\n"
        assert not (tmp_path / "features").exists()

    def test_unknown_feature_exits_2(self, workspace, capsys):
        cfg_path, work = workspace
        rc = cli.main([
            "extract", "--config", str(cfg_path), "--feature", "nope",
            "--protocol", str(work / "corpus/protocol_train.txt"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {cfg_path}: feature 'nope' is not configured\n")

    @pytest.mark.parametrize("jobs", ["1", "2", "0", "-2", "two"])
    def test_jobs_takes_only_one(self, workspace, tmp_path, capsys, jobs):
        cfg_path, work = workspace

        def extract(work_dir, *extra):
            return cli.main(["extract", "--config", str(config_with_work_dir(cfg_path, work_dir)),
                             "--feature", "lpcc-small",
                             "--protocol", str(work / "corpus/protocol_train.txt"), *extra])

        if jobs == "1":
            assert extract(tmp_path / "jobs", "--jobs", jobs) == 0
            assert extract(tmp_path / "default") == 0
            default = tree_hashes(tmp_path / "default/features")
            assert len(default) == 16
            assert tree_hashes(tmp_path / "jobs/features") == default
            return
        with pytest.raises(SystemExit) as exit_info:
            extract(tmp_path, "--jobs", jobs)
        assert exit_info.value.code == 2
        assert "argument --jobs: invalid" in capsys.readouterr().err
        assert not (tmp_path / "features").exists()

    def test_a_wav_at_another_sample_rate_is_a_trial_failure(self, workspace, tmp_path,
                                                              capsys):
        cfg_path, work = workspace
        config = json.loads(cfg_path.read_text())
        config["paths"]["work_dir"] = str(tmp_path)
        config["paths"]["audio_dir"] = str(tmp_path / "wav")
        own_cfg = tmp_path / "config.json"
        own_cfg.write_text(json.dumps(config))
        (tmp_path / "wav").mkdir()
        samples = 0.1 * np.sin(np.arange(4000) / 7.0)
        write_wav(tmp_path / "wav/slow.wav", Waveform(samples, 8000))
        protocol = tmp_path / "slow.txt"
        protocol.write_text("slow genuine S00 P00 - - -\n")
        rc = cli.main(["extract", "--config", str(own_cfg), "--feature", "lpcc-small",
                       "--protocol", str(protocol)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: extraction failed for trial slow: trial slow: sample rate 8000 Hz "
            "does not match the configured 16000 Hz\n"
            "extracted 0 feature file(s), 1 failure(s)\n")
        assert list((tmp_path / "features/lpcc-small").iterdir()) == []

    def test_a_trial_id_with_a_slash_is_refused(self, workspace, tmp_path, capsys):
        # the id points at a real wave outside the corpus, and its feature
        # file would land outside <work_dir>/features
        cfg_path, work = workspace
        config = json.loads(cfg_path.read_text())
        config["paths"].update(work_dir=str(tmp_path / "w"),
                               audio_dir=str(tmp_path / "w/corpus/wav"))
        own_cfg = tmp_path / "config.json"
        own_cfg.write_text(json.dumps(config))
        (tmp_path / "w/corpus/wav").mkdir(parents=True)
        (tmp_path / "outside").mkdir()
        shutil.copy(work / "corpus/wav/train_g_0000.wav", tmp_path / "outside/x.wav")
        protocol = tmp_path / "escape.txt"
        protocol.write_text("../../../outside/x genuine S00 P00 - - -\n")
        rc = cli.main(["extract", "--config", str(own_cfg), "--feature", "lpcc-small",
                       "--protocol", str(protocol)])
        assert (rc, capsys.readouterr().err) == (
            2, f"error: {protocol}:1: trial_id '../../../outside/x' contains '/'\n")
        assert [p.name for p in (tmp_path / "outside").iterdir()] == ["x.wav"]
        assert not (tmp_path / "w/features").exists()

    def test_spectrogram_feature_paths(self, workspace, tmp_path):
        cfg_path, work = workspace
        protocol = tmp_path / "two.txt"
        lines = (work / "corpus/protocol_train.txt").read_text().splitlines()[:2]
        protocol.write_text("\n".join(lines))
        own_cfg = config_with_work_dir(cfg_path, tmp_path)
        for feature in ("fft-small", "cqt-small", "dwt-small", "deemd-small"):
            rc = cli.main([
                "extract", "--config", str(own_cfg), "--feature", feature,
                "--protocol", str(protocol),
            ])
            assert rc == 0
            assert len(list((tmp_path / "features" / feature).glob("*.rsft"))) == 2

    # configured rows of each TINY_CONFIG front-end: n_coeffs, n_fft // 2 + 1,
    # n_bins or frame_len
    FEATURE_ROWS = {"cqcc-small": 12, "lpcc-small": 20, "fft-small": 1025,
                    "cqt-small": 24, "dwt-small": 64, "deemd-small": 1025}

    @pytest.mark.parametrize("feature", sorted(FEATURE_ROWS))
    def test_every_front_end_writes_dim_by_frames(self, workspace, tmp_path, feature):
        cfg_path, work = workspace
        protocol = tmp_path / "one.txt"
        protocol.write_text((work / "corpus/protocol_train.txt").read_text().splitlines()[0])
        assert cli.main(["extract", "--config", str(config_with_work_dir(cfg_path, tmp_path)),
                         "--feature", feature, "--protocol", str(protocol)]) == 0
        (path,) = (tmp_path / "features" / feature).glob("*.rsft")
        values, meta = containers.read_matrix(path)
        assert values.shape[0] == self.FEATURE_ROWS[feature]
        assert values.shape[1] > 1
        own_cfg = load_config(config_with_work_dir(cfg_path, tmp_path))
        assert np.array_equal(pipeline.read_feature(own_cfg, feature, path.stem), values.T)
        assert sorted(meta) == ["fingerprint", "kind", "name"]
        assert meta["name"] == feature

    def test_a_wav_with_a_zero_sample_rate_is_a_failure_naming_the_file(
            self, workspace, tmp_path, capsys):
        cfg_path, _ = workspace
        wav = tmp_path / "wav/rate0.wav"
        wav.parent.mkdir()
        write_wav(wav, Waveform(np.zeros(100), 16000))
        data = bytearray(wav.read_bytes())
        data[24:28] = bytes(4)  # the fmt chunk's sample rate
        wav.write_bytes(bytes(data))
        own_cfg = config_with_work_dir(cfg_path, tmp_path)
        config = json.loads(own_cfg.read_text())
        config["paths"]["audio_dir"] = str(wav.parent)
        own_cfg.write_text(json.dumps(config))
        protocol = tmp_path / "one.txt"
        protocol.write_text("rate0 genuine S00 P00 - - -\n")
        rc = cli.main(["extract", "--config", str(own_cfg), "--feature", "lpcc-small",
                       "--protocol", str(protocol)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: extraction failed for trial rate0: {wav}: the fmt chunk gives a "
            "sample rate of 0 Hz\nextracted 0 feature file(s), 1 failure(s)\n")

    def test_non_finite_feature_is_a_trial_failure(self, workspace, tmp_path, capsys,
                                                   monkeypatch):
        cfg_path, work = workspace
        protocol = tmp_path / "one.txt"
        protocol.write_text((work / "corpus/protocol_train.txt").read_text().splitlines()[0])
        monkeypatch.setattr(pipeline, "compute_feature",
                            lambda spec, wave, seed: np.full((3, 4), np.nan))
        rc = cli.main(["extract", "--config", str(config_with_work_dir(cfg_path, tmp_path)),
                       "--feature", "lpcc-small", "--protocol", str(protocol)])
        assert rc == 2
        assert "12 non-finite" in capsys.readouterr().err
        assert not list((tmp_path / "features/lpcc-small").glob("*.rsft"))

    def test_cqt_over_the_kernel_budget_fails_once_at_config_load(self, tmp_path, capsys):
        config = json.loads(json.dumps(TINY_CONFIG))
        config["features"]["cqt-small"] = {"type": "cqt"}
        work = tmp_path / "work"
        config["paths"] = {"work_dir": str(work), "audio_dir": str(work / "corpus/wav"),
                           "protocol_train": str(work / "corpus/protocol_train.txt"),
                           "protocol_eval": str(work / "corpus/protocol_eval.txt")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        with pytest.raises(ConfigError, match=r"feature 'cqt-small'.*413\.2 MiB"):
            load_config(cfg_path)
        protocol = tmp_path / "two.txt"
        protocol.write_text("a genuine S00 P00 - - -\nb spoof S00 P00 - - -\n")
        rc = cli.main(["extract", "--config", str(cfg_path), "--feature", "cqt-small",
                       "--protocol", str(protocol), "--keep-going"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("error:") == 1 and "413.2 MiB" in err
        assert not work.exists()

    def test_deemd_extraction_deterministic(self, workspace, tmp_path):
        # the only seeded front-end: per-trial seeds derive from the config seed
        cfg_path, work = workspace
        protocol = tmp_path / "two.txt"
        lines = (work / "corpus/protocol_train.txt").read_text().splitlines()[:2]
        protocol.write_text("\n".join(lines))
        first = tmp_path / "d1"
        second = tmp_path / "d2"
        for work_dir in (first, second):
            rc = cli.main([
                "extract", "--config", str(config_with_work_dir(cfg_path, work_dir)),
                "--feature", "deemd-small", "--protocol", str(protocol),
            ])
            assert rc == 0
        assert tree_hashes(first / "features") == tree_hashes(second / "features")

    @pytest.mark.parametrize("outcome, rc", [("written", 0), ("refused", 2), ("crashed", 1)])
    def test_the_cqt_kernels_end_with_the_command(self, workspace, tmp_path, monkeypatch,
                                                  outcome, rc):
        cfg_path, work = workspace
        protocol = tmp_path / "p.txt"
        lines = (work / "corpus/protocol_train.txt").read_text().splitlines()[:2]
        if outcome == "refused":
            lines.append("ghost genuine S00 P00 - - -")
        protocol.write_text("\n".join(lines))
        if outcome == "crashed":
            extract = pipeline.extract_trial

            def crash_after_first(*args):
                extract(*args)
                raise RuntimeError("after one trial")

            monkeypatch.setattr(pipeline, "extract_trial", crash_after_first)
        assert cli.main(["extract", "--config", str(config_with_work_dir(cfg_path, tmp_path)),
                         "--feature", "cqcc-small", "--protocol", str(protocol)]) == rc
        assert len(list((tmp_path / "features/cqcc-small").glob("*.rsft"))) == 2 - (rc == 1)
        assert spectral._cqt_kernels.cache_info().currsize == 0

    def test_cqt_commands_in_one_process_write_cold_cache_bytes(self, workspace, tmp_path):
        # cqcc-small and cqt-small share one CQT configuration
        cfg_path, work = workspace
        protocol = str(work / "corpus/protocol_train.txt")
        in_turn, cold = tmp_path / "in_turn", tmp_path / "cold"
        for work_dir in (in_turn, cold):
            config = str(config_with_work_dir(cfg_path, work_dir))
            for feature in ("cqcc-small", "cqt-small"):
                if work_dir == cold:
                    spectral._cqt_kernels.cache_clear()
                assert cli.main(["extract", "--config", config, "--feature", feature,
                                 "--protocol", protocol]) == 0
        assert tree_hashes(in_turn / "features") == tree_hashes(cold / "features")
        assert len(tree_hashes(cold / "features")) == 32


@pytest.fixture(scope="module")
def trained(workspace):
    cfg_path, work = workspace
    for system in ("gmm-sys", "ivec-sys"):
        assert cli.main(["train", "--config", str(cfg_path),
                         "--system", system]) == 0
    return cfg_path, work


class TestTrainAndScore:
    def test_gmm_writes_two_models(self, trained):
        _, work = trained
        files = {p.name for p in (work / "models/gmm-sys").glob("*.rsmd")}
        assert files == {"genuine.rsmd", "spoof.rsmd"}
        assert not list((work / "models/gmm-sys").glob("*.txt"))

    def test_dump_writes_the_model_text(self, trained, tmp_path):
        _, work = trained
        model = work / "models/gmm-sys/genuine.rsmd"
        out = tmp_path / "genuine.txt"
        assert cli.main(["dump", str(model), str(out)]) == 0
        expected = tmp_path / "expected.txt"
        containers.write_model_text(expected, *containers.read_model(model))
        assert out.read_text() == expected.read_text()
        assert out.read_text().startswith("RSMD-TEXT v1\nkind: gmm\n")

    @pytest.mark.parametrize("command", ["score", "dump"])
    @pytest.mark.parametrize("target, error", [
        ("nodir/x.out", "[Errno 2] No such file or directory"),
        ("adir", "[Errno 21] Is a directory"),
    ], ids=["missing-dir", "a-dir"])
    def test_a_failed_write_names_the_target_not_its_temp_file(
            self, trained, tmp_path, capsys, command, target, error):
        cfg_path, work = trained
        out = tmp_path / target
        (tmp_path / "adir").mkdir()
        argv = {"score": ["score", "--config", str(cfg_path), "--system", "gmm-sys",
                          "--protocol", str(work / "corpus/protocol_eval.txt"),
                          "--out-scores", str(out)],
                "dump": ["dump", str(work / "models/gmm-sys/genuine.rsmd"), str(out)]}[command]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {error}: '{out}'\n"
        assert [p.name for p in tmp_path.rglob("*")] == ["adir"]  # no temp file is left

    def test_ivec_writes_four_models(self, trained):
        _, work = trained
        files = {p.name for p in (work / "models/ivec-sys").glob("*.rsmd")}
        assert files == {"ubm.rsmd", "tmatrix.rsmd", "mean.rsmd", "svm.rsmd"}

    def test_retrain_byte_identical(self, trained):
        cfg_path, work = trained
        model_dir = work / "models/gmm-sys"
        before = tree_hashes(model_dir)
        assert cli.main(["train", "--config", str(cfg_path),
                         "--system", "gmm-sys"]) == 0
        assert tree_hashes(model_dir) == before

    def test_scores_separate_train_classes(self, trained, tmp_path):
        cfg_path, work = trained
        out = tmp_path / "train.scores"
        assert cli.main([
            "score", "--config", str(cfg_path), "--system", "gmm-sys",
            "--protocol", str(work / "corpus/protocol_train.txt"),
            "--out-scores", str(out),
        ]) == 0
        scores = read_scores(out)
        trials = {t.trial_id: t.label
                  for t in parse_protocol(work / "corpus/protocol_train.txt")}
        genuine = [s for tid, s in zip(scores.trial_ids, scores.scores)
                   if trials[tid] == "genuine"]
        spoof = [s for tid, s in zip(scores.trial_ids, scores.scores)
                 if trials[tid] == "spoof"]
        assert np.mean(genuine) > np.mean(spoof)

    def test_scores_follow_protocol_order(self, trained, tmp_path):
        cfg_path, work = trained
        out = tmp_path / "ordered.scores"
        protocol = work / "corpus/protocol_eval.txt"
        assert cli.main([
            "score", "--config", str(cfg_path), "--system", "gmm-sys",
            "--protocol", str(protocol), "--out-scores", str(out),
        ]) == 0
        scores = read_scores(out)
        assert list(scores.trial_ids) == [t.trial_id for t in parse_protocol(protocol)]

    def test_rescore_identical(self, trained, tmp_path):
        cfg_path, work = trained
        a, b = tmp_path / "a.scores", tmp_path / "b.scores"
        for out in (a, b):
            assert cli.main([
                "score", "--config", str(cfg_path), "--system", "ivec-sys",
                "--protocol", str(work / "corpus/protocol_eval.txt"),
                "--out-scores", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_features_name_the_trial(self, trained, tmp_path, capsys):
        cfg_path, work = trained
        protocol = tmp_path / "ghost.txt"
        protocol.write_text("ghost genuine S00 P00 - - -\n")
        rc = cli.main([
            "score", "--config", str(cfg_path), "--system", "gmm-sys",
            "--protocol", str(protocol), "--out-scores", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert "ghost" in capsys.readouterr().err

    def test_phrase_dependent_gmm(self, workspace, tmp_path):
        cfg_path, work = workspace
        assert cli.main(["train", "--config", str(cfg_path),
                         "--system", "gmm-phrase"]) == 0
        files = {p.name for p in (work / "models/gmm-phrase").glob("*.rsmd")}
        assert files == {"genuine__P00.rsmd", "spoof__P00.rsmd",
                         "genuine__P01.rsmd", "spoof__P01.rsmd"}
        out = tmp_path / "p.scores"
        assert cli.main([
            "score", "--config", str(cfg_path), "--system", "gmm-phrase",
            "--protocol", str(work / "corpus/protocol_eval.txt"),
            "--out-scores", str(out),
        ]) == 0
        assert len(read_scores(out)) == 8

    def test_phrase_dependent_ivec_svm(self, workspace, tmp_path):
        cfg_path, work = workspace
        assert cli.main(["train", "--config", str(cfg_path),
                         "--system", "ivec-phrase"]) == 0
        files = {p.name for p in (work / "models/ivec-phrase").glob("*.rsmd")}
        assert files == {"ubm.rsmd", "tmatrix.rsmd",
                         "mean__P00.rsmd", "svm__P00.rsmd",
                         "mean__P01.rsmd", "svm__P01.rsmd"}
        out = tmp_path / "pi.scores"
        assert cli.main([
            "score", "--config", str(cfg_path), "--system", "ivec-phrase",
            "--protocol", str(work / "corpus/protocol_eval.txt"),
            "--out-scores", str(out),
        ]) == 0

    @pytest.mark.parametrize("system, builds", [
        ("ivec-sys", 1), ("ivec-phrase", 2), ("ivec-each-phrase", 2),
        ("gmm-sys", 1), ("gmm-phrase", 2),
    ])
    def test_scorer_builds_models_once_per_key(self, workspace, monkeypatch, system, builds):
        cfg_path, work = workspace
        assert cli.main(["train", "--config", str(cfg_path), "--system", system]) == 0
        cfg = load_config(cfg_path)
        spec = cfg.systems[system]
        trials = parse_protocol(work / "corpus/protocol_eval.txt")
        expected = pipeline.score_system(cfg, system, trials)
        built, reads, tv_models = [], [], []
        model = TINY_CONFIG["systems"][system]["model"]
        spec_type, trainer, real_build = pipeline.SYSTEM_KINDS[model]
        assert type(spec) is spec_type
        real_read, real_tv = containers.read_model, pipeline.TotalVariabilityModel

        def build(load, spec, key):
            built.append(key)
            return real_build(load, spec, key)

        def read(path):
            reads.append(Path(path).name)
            return real_read(path)

        def tv_model(*args):
            tv_models.append(args)
            return real_tv(*args)

        monkeypatch.setitem(pipeline.SYSTEM_KINDS, model, (spec_type, trainer, build))
        monkeypatch.setattr(containers, "read_model", read)
        monkeypatch.setattr(pipeline, "TotalVariabilityModel", tv_model)
        scores = pipeline.score_system(cfg, system, trials)
        # a shared SVM (so a shared T and UBM) means one build for both phrases
        assert len(built) == len(set(built)) == builds
        # every model file is read once, a shared one too, and each T-matrix
        # gives one TV model (so one Gram triangle)
        assert sorted(reads) == sorted(
            p.name for p in (work / "models" / system).glob("*.rsmd"))
        assert len(tv_models) == len([name for name in reads if name.startswith("tmatrix")])
        assert np.array_equal(scores.scores, expected.scores)

    @pytest.mark.parametrize("system", ["ivec-phrase", "ivec-each-phrase"])
    def test_phrase_ivec_scores_match_freshly_built_models(self, workspace, system):
        cfg_path, work = workspace
        assert cli.main(["train", "--config", str(cfg_path), "--system", system]) == 0
        cfg = load_config(cfg_path)
        spec = cfg.systems[system]
        trials = parse_protocol(work / "corpus/protocol_eval.txt")
        assert len({t.phrase_id for t in trials}) == 2
        scores = pipeline.score_system(cfg, system, trials)

        def arrays(base, shared, phrase, kind):
            name = base if shared else f"{base}__{phrase}"
            found, arrays = containers.read_model(work / "models" / system / f"{name}.rsmd")
            assert found == kind
            return arrays

        for trial, score in zip(trials, scores.scores):
            phrase = trial.phrase_id
            ubm_arrays = arrays("ubm", spec.ubm_shared, phrase, "gmm")
            ubm = GmmModel(ubm_arrays["weights"], ubm_arrays["means"],
                           ubm_arrays["variances"])
            tv = TotalVariabilityModel(
                ubm, arrays("tmatrix", spec.t_shared, phrase, "tmatrix")["t_matrix"])
            frames = pipeline.read_feature(cfg, spec.feature, trial.trial_id)
            ivec = extract_ivector(tv, baum_welch_stats(ubm, frames))
            mean = arrays("mean", spec.svm_shared, phrase, "mean")["mean"]
            normalized, _ = center_length_normalize(ivec[None], mean=mean)
            svm = arrays("svm", spec.svm_shared, phrase, "svm")
            expected = svm_score(LinearModel(svm["weight"], float(svm["bias"][0])),
                                 normalized[0])
            assert score == expected, trial.trial_id


    @pytest.mark.parametrize("command", ["train", "score"])
    def test_features_extracted_with_other_settings_are_refused(self, trained, tmp_path,
                                                                capsys, command):
        cfg_path, work = trained
        for part in ("features/cqcc-small", "models/gmm-sys"):
            shutil.copytree(work / part, tmp_path / part)
        config = json.loads(cfg_path.read_text())
        config["features"]["cqcc-small"].update(bins_per_octave=24, n_bins=48)
        config["paths"]["work_dir"] = str(tmp_path)
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(config))
        before = tree_hashes(tmp_path)
        protocol = work / "corpus/protocol_train.txt"
        out = ["--out-scores", str(tmp_path / "x")] if command == "score" else []
        rc = cli.main([command, "--config", str(stale), "--system", "gmm-sys",
                       "--protocol", str(protocol), *out])
        first = tmp_path / "features/cqcc-small" / f"{parse_protocol(protocol)[0].trial_id}.rsft"
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {first}: extracted with other settings than feature 'cqcc-small' "
            "has now; re-run extract\n")
        assert tree_hashes(tmp_path) == before

    @pytest.mark.parametrize("setting", ["cmvn", "sample_rate", "seed"])
    def test_features_of_another_flag_rate_or_seed_are_refused(self, trained, tmp_path,
                                                                capsys, setting):
        cfg_path, work = trained
        for part in ("features/lpcc-small", "models/ivec-sys"):
            shutil.copytree(work / part, tmp_path / part)
        config = json.loads(cfg_path.read_text())
        config["paths"]["work_dir"] = str(tmp_path)
        if setting == "cmvn":
            config["features"]["lpcc-small"]["cmvn"] = True
        else:
            config[setting] += 1
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(config))
        before = tree_hashes(tmp_path)
        protocol = work / "corpus/protocol_train.txt"
        rc = cli.main(["train", "--config", str(stale), "--system", "ivec-sys",
                       "--protocol", str(protocol)])
        first = tmp_path / "features/lpcc-small" / f"{parse_protocol(protocol)[0].trial_id}.rsft"
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {first}: extracted with other settings than feature 'lpcc-small' "
            "has now; re-run extract\n")
        assert tree_hashes(tmp_path) == before

    @pytest.mark.parametrize("command", ["train", "score"])
    def test_a_missing_feature_file_is_refused(self, trained, tmp_path, capsys, command):
        cfg_path, work = trained
        for part in ("features/cqcc-small", "models/gmm-sys"):
            shutil.copytree(work / part, tmp_path / part)
        own_cfg = config_with_work_dir(cfg_path, tmp_path)
        protocol = work / "corpus/protocol_train.txt"
        last = parse_protocol(protocol)[-1]
        missing = tmp_path / "features/cqcc-small" / f"{last.trial_id}.rsft"
        missing.unlink()
        before = tree_hashes(tmp_path)
        out = ["--out-scores", str(tmp_path / "x")] if command == "score" else []
        rc = cli.main([command, "--config", str(own_cfg), "--system", "gmm-sys",
                       "--protocol", str(protocol), *out])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: trial {last.trial_id}: missing features {missing} "
            "(run extract for feature 'cqcc-small' first)\n")
        assert tree_hashes(tmp_path) == before

    def test_a_non_finite_training_feature_is_refused_naming_file_and_array(
            self, workspace, tmp_path, capsys):
        cfg_path, work = workspace
        shutil.copytree(work / "features/cqcc-small", tmp_path / "features/cqcc-small")
        own_cfg = config_with_work_dir(cfg_path, tmp_path)
        first = parse_protocol(work / "corpus/protocol_train.txt")[0]
        feature = tmp_path / "features/cqcc-small" / f"{first.trial_id}.rsft"
        data = feature.read_bytes()
        feature.write_bytes(data[:-4] + struct.pack("<f", np.inf))  # the last value
        before = tree_hashes(tmp_path)
        rc = cli.main(["train", "--config", str(own_cfg), "--system", "gmm-sys"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {feature}: array 'values' holds 1 non-finite value(s)\n")
        assert tree_hashes(tmp_path) == before

    def test_a_non_finite_model_is_refused_and_the_previous_set_kept(
            self, workspace, tmp_path, capsys, monkeypatch):
        cfg_path, work = workspace
        shutil.copytree(work / "features/cqcc-small", tmp_path / "features/cqcc-small")
        argv = ["train", "--config", str(config_with_work_dir(cfg_path, tmp_path)),
                "--system", "gmm-sys"]
        assert cli.main(argv) == 0
        before = tree_hashes(tmp_path)
        n_means = containers.read_model(tmp_path / "models/gmm-sys/genuine.rsmd")[1]["means"].size
        monkeypatch.setattr(pipeline, "gmm_em_train", lambda frames, k, **_: GmmModel(
            np.full(k, 1.0 / k), np.full((k, frames.shape[1]), np.nan),
            np.ones((k, frames.shape[1]))))
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'models/.gmm-sys.new/genuine.rsmd'}: refusing to write "
            f"array 'means' with {n_means} non-finite value(s)\n")
        assert tree_hashes(tmp_path) == before

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:divide by zero:RuntimeWarning")
    def test_a_non_finite_score_is_refused_naming_system_and_trial(
            self, workspace, tmp_path, capsys):
        # finite model values the reader accepts, whose log-likelihoods overflow
        cfg_path, work = workspace
        shutil.copytree(work / "features/cqcc-small", tmp_path / "features/cqcc-small")
        own_cfg = config_with_work_dir(cfg_path, tmp_path)
        assert cli.main(["train", "--config", str(own_cfg), "--system", "gmm-phrase"]) == 0
        model = tmp_path / "models/gmm-phrase/spoof__P01.rsmd"
        _, arrays = containers.read_model(model)
        huge = {name: np.full_like(arrays[name], 1e300) for name in ("means", "variances")}
        containers.write_model(model, "gmm", {**arrays, **huge})
        protocol = work / "corpus/protocol_eval.txt"
        first = next(t for t in parse_protocol(protocol) if t.phrase_id == "P01")
        capsys.readouterr()
        rc = cli.main(["score", "--config", str(own_cfg), "--system", "gmm-phrase",
                       "--protocol", str(protocol), "--out-scores", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: system gmm-phrase: trial {first.trial_id}: score is not finite\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("system, group", [
        ("ivec-sys", ""), ("ivec-phrase", "phrase P00: "), ("ivec-each-phrase", "phrase P00: "),
    ])
    def test_a_non_finite_svm_training_row_names_system_and_phrase(
            self, workspace, tmp_path, capsys, monkeypatch, system, group):
        cfg_path, work = workspace
        shutil.copytree(work / "features/lpcc-small", tmp_path / "features/lpcc-small")
        own_cfg = config_with_work_dir(cfg_path, tmp_path)
        monkeypatch.setattr(pipeline, "extract_ivector",
                            lambda tv, stats: np.full(tv.rank, np.nan))
        before = tree_hashes(tmp_path)
        assert cli.main(["train", "--config", str(own_cfg), "--system", system]) == 2
        assert capsys.readouterr().err == (
            f"error: system {system}: {group}training rows must all be finite\n")
        assert tree_hashes(tmp_path) == before

    @pytest.mark.parametrize("system, key, feature", [
        ("gmm-phrase", "components", "cqcc-small"),
        ("ivec-each-phrase", "ubm_components", "lpcc-small"),
    ])
    def test_a_model_fit_refusal_names_system_and_phrase(
            self, workspace, tmp_path, capsys, system, key, feature):
        cfg_path, work = workspace
        shutil.copytree(work / f"features/{feature}", tmp_path / f"features/{feature}")
        own_cfg = config_with_work_dir(cfg_path, tmp_path)
        config = json.loads(own_cfg.read_text())
        config["systems"][system][key] = 100000
        own_cfg.write_text(json.dumps(config))
        before = tree_hashes(tmp_path)
        assert cli.main(["train", "--config", str(own_cfg), "--system", system]) == 2
        err = capsys.readouterr().err
        prefix = f"error: system {system}: phrase P00: need at least 100000 frames to train "
        assert err.startswith(prefix + "100000 components, got ") and err.count("\n") == 1
        assert tree_hashes(tmp_path) == before

    def test_scoring_frees_a_phrase_keys_models_before_the_next_key(
            self, workspace, monkeypatch):
        # each phrase has its own UBM and T: only one key's models are held at
        # a time, in first-seen order, and the scores keep protocol order
        cfg_path, work = workspace
        assert cli.main(["train", "--config", str(cfg_path), "--system", "ivec-each-phrase"]) == 0
        cfg = load_config(cfg_path)
        trials = parse_protocol(work / "corpus/protocol_eval.txt")
        expected = pipeline.score_system(cfg, "ivec-each-phrase", trials)
        spec_type, trainer, real_build = pipeline.SYSTEM_KINDS["ivec-svm"]
        real_tv = pipeline.TotalVariabilityModel
        tv_refs, alive_at_build = [], []

        def build(load, spec, key):
            alive_at_build.append((key, [ref() is not None for ref in tv_refs]))
            return real_build(load, spec, key)

        def tv_model(*args):
            tv = real_tv(*args)
            tv_refs.append(weakref.ref(tv))
            return tv

        monkeypatch.setitem(pipeline.SYSTEM_KINDS, "ivec-svm", (spec_type, trainer, build))
        monkeypatch.setattr(pipeline, "TotalVariabilityModel", tv_model)
        scores = pipeline.score_system(cfg, "ivec-each-phrase", trials)
        first_seen = list(dict.fromkeys(t.phrase_id for t in trials))
        assert alive_at_build == [(first_seen[0], []), (first_seen[1], [False])]
        assert scores.trial_ids == expected.trial_ids
        assert scores.scores.tobytes() == expected.scores.tobytes()

    def test_training_frees_a_ubm_groups_models_before_the_next_group(
            self, workspace, tmp_path, monkeypatch):
        cfg_path, work = workspace
        shutil.copytree(work / "features/lpcc-small", tmp_path / "features/lpcc-small")
        argv = ["train", "--config", str(config_with_work_dir(cfg_path, tmp_path)),
                "--system", "ivec-each-phrase"]
        assert cli.main(argv) == 0
        expected = tree_hashes(tmp_path / "models")
        real_ubm, real_tv = pipeline.gmm_em_train, pipeline.train_t_matrix
        refs, alive_at_tv = [], []

        def ubm(*args, **kwargs):
            model = real_ubm(*args, **kwargs)
            refs.append(weakref.ref(model))
            return model

        def t_matrix(*args, **kwargs):
            alive_at_tv.append([ref() is not None for ref in refs])
            tv = real_tv(*args, **kwargs)
            refs.append(weakref.ref(tv))
            return tv

        monkeypatch.setattr(pipeline, "gmm_em_train", ubm)
        monkeypatch.setattr(pipeline, "train_t_matrix", t_matrix)
        assert cli.main(argv) == 0
        # P00's UBM and TV model are gone when P01's T-matrix EM starts; its
        # UBM is alive then, as the one it trains against
        assert alive_at_tv == [[True], [False, False, True]]
        assert tree_hashes(tmp_path / "models") == expected

    @pytest.mark.parametrize("command", ["train", "score"])
    def test_an_unconfigured_system_is_refused(self, workspace, tmp_path, capsys, command):
        cfg_path, work = workspace
        own_cfg = config_with_work_dir(cfg_path, tmp_path)
        argv = [command, "--config", str(own_cfg),
                "--system", "nope", "--protocol", str(work / "corpus/protocol_eval.txt")]
        if command == "score":
            argv += ["--out-scores", str(tmp_path / "nope.scores")]
        before = tree_hashes(tmp_path)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {own_cfg}: system 'nope' is not configured\n"
        assert tree_hashes(tmp_path) == before

    def test_score_with_a_malformed_model_exits_2(self, workspace, tmp_path, capsys):
        cfg_path, work = workspace
        assert cli.main(["train", "--config", str(cfg_path), "--system", "gmm-phrase"]) == 0
        model = work / "models/gmm-phrase/spoof__P01.rsmd"
        intact = model.read_bytes()
        _, arrays = containers.read_model(model)
        del arrays["variances"]
        containers.write_model(model, "gmm", arrays)
        capsys.readouterr()
        try:
            rc = cli.main([
                "score", "--config", str(cfg_path), "--system", "gmm-phrase",
                "--protocol", str(work / "corpus/protocol_eval.txt"),
                "--out-scores", str(tmp_path / "x"),
            ])
        finally:
            model.write_bytes(intact)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(model) in err and "'variances'" in err
        assert not (tmp_path / "x").exists()


class TestSinglePhraseProtocols:
    """Phrase-dependent systems on protocols that leave a phrase out or give
    it one class: each refusal is one ``error:`` line and exit 2."""

    @pytest.fixture
    def phrase_work(self, workspace, tmp_path):
        """A config like the workspace's but with its own model directory (the
        features are copied), and a writer of filtered protocols."""
        cfg_path, work = workspace
        own_cfg = config_with_work_dir(cfg_path, tmp_path / "work")
        shutil.copytree(work / "features", tmp_path / "work/features")

        def protocol(name, subset, keep):
            path = tmp_path / f"{name}.txt"
            write_protocol([t for t in parse_protocol(work / f"corpus/protocol_{subset}.txt")
                            if keep(t)], path)
            return str(path)

        return own_cfg, tmp_path / "work/models", protocol

    @staticmethod
    def run(capsys, *argv):
        rc = cli.main(list(argv))
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("system, message", [
        ("gmm-phrase", "system gmm-phrase: no spoof trials to train on for phrase P01"),
        ("ivec-phrase", "system ivec-phrase: no spoof trials to train on for phrase P01"),
    ])
    def test_a_phrase_without_spoofs_is_refused(self, phrase_work, capsys, system, message):
        cfg_path, _, protocol = phrase_work
        train = protocol("no-p01-spoofs", "train",
                         lambda t: not (t.phrase_id == "P01" and t.label == "spoof"))
        rc, err = self.run(capsys, "train", "--config", str(cfg_path), "--system", system,
                           "--protocol", train)
        assert (rc, err) == (2, f"error: {train}: {message}\n")

    @pytest.mark.parametrize("system, phrase", [
        ("gmm-phrase", "P01"), ("ivec-phrase", "P01"), ("gmm-sys", None), ("ivec-sys", None),
    ])
    def test_the_class_refusal_comes_before_any_training(self, phrase_work, capsys,
                                                         monkeypatch, system, phrase):
        cfg_path, models, protocol = phrase_work
        calls = {"gmm_em_train": 0, "train_t_matrix": 0}
        for name in calls:
            def counted(*args, _name=name, _train=getattr(pipeline, name), **kwargs):
                calls[_name] += 1
                return _train(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, counted)
        train = protocol("no-spoofs", "train",
                         lambda t: not (t.label == "spoof" and phrase in (None, t.phrase_id)))
        rc, err = self.run(capsys, "train", "--config", str(cfg_path), "--system", system,
                           "--protocol", train)
        where = f" for phrase {phrase}" if phrase else ""
        assert (rc, err) == (2, f"error: {train}: system {system}: no spoof trials to train "
                                f"on{where}\n")
        assert calls == {"gmm_em_train": 0, "train_t_matrix": 0}
        assert not models.exists()

    @pytest.mark.parametrize("system", ["gmm-phrase", "ivec-each-phrase", "ivec-sys"])
    def test_a_protocol_with_no_labeled_trials_is_refused(self, phrase_work, capsys,
                                                          tmp_path, system):
        cfg_path, models, _ = phrase_work
        unlabeled = tmp_path / "unlabeled.txt"
        train = json.loads(cfg_path.read_text())["paths"]["protocol_train"]
        write_protocol([dataclasses.replace(t, label="unknown") for t in parse_protocol(train)],
                       unlabeled)
        rc, err = self.run(capsys, "train", "--config", str(cfg_path), "--system", system,
                           "--protocol", str(unlabeled))
        assert (rc, err) == (2, f"error: {unlabeled}: system {system}: the training protocol "
                                "has no genuine or spoof trials\n")
        assert not (models / system).exists()

    @pytest.mark.parametrize("system, model", [
        ("gmm-phrase", "genuine__P01.rsmd"), ("ivec-each-phrase", "ubm__P01.rsmd"),
    ])
    def test_scoring_a_phrase_with_no_model_is_refused(self, phrase_work, capsys,
                                                        system, model):
        cfg_path, models, protocol = phrase_work
        train = protocol("p00-train", "train", lambda t: t.phrase_id == "P00")
        rc, _ = self.run(capsys, "train", "--config", str(cfg_path), "--system", system,
                         "--protocol", train)
        assert rc == 0
        out = models.parent / "x.scores"
        rc, err = self.run(capsys, "score", "--config", str(cfg_path), "--system", system,
                           "--protocol", protocol("eval", "eval", lambda t: True),
                           "--out-scores", str(out))
        assert (rc, err) == (2, f"error: system {system}: missing model "
                                f"{models / system / model} for phrase P01\n")
        assert not out.exists()

    def test_a_phrase_id_with_a_slash_is_refused(self, phrase_work, capsys):
        cfg_path, models, protocol = phrase_work
        train = protocol("slash", "train", lambda t: True)
        lines = Path(train).read_text().replace(" P01 ", " ../P01 ")
        Path(train).write_text(lines)
        lineno = next(i for i, line in enumerate(lines.splitlines(), 1) if "../P01" in line)
        rc, err = self.run(capsys, "train", "--config", str(cfg_path),
                           "--system", "gmm-phrase", "--protocol", train)
        assert (rc, err) == (2, f"error: {train}:{lineno}: phrase_id '../P01' contains '/'\n")
        assert not models.exists()

    @pytest.mark.parametrize("system, model", [
        ("gmm-phrase", "genuine__P01.rsmd"), ("ivec-each-phrase", "ubm__P01.rsmd"),
    ])
    def test_a_retrain_replaces_the_model_set_whole(self, phrase_work, capsys,
                                                    system, model):
        cfg_path, models, protocol = phrase_work
        for keep in (lambda t: True, lambda t: t.phrase_id == "P00"):
            rc, _ = self.run(capsys, "train", "--config", str(cfg_path), "--system", system,
                             "--protocol", protocol("train", "train", keep))
            assert rc == 0
        assert all(p.name.endswith("__P00.rsmd") for p in (models / system).iterdir())
        assert [p.name for p in models.iterdir()] == [system]
        out = models.parent / "x.scores"
        rc, err = self.run(capsys, "score", "--config", str(cfg_path), "--system", system,
                           "--protocol", protocol("eval", "eval", lambda t: True),
                           "--out-scores", str(out))
        assert (rc, err) == (2, f"error: system {system}: missing model "
                                f"{models / system / model} for phrase P01\n")
        assert not out.exists()

    @pytest.mark.parametrize("system", ["gmm-phrase", "ivec-each-phrase"])
    def test_a_refused_train_leaves_the_previous_model_set(self, phrase_work, capsys,
                                                           system):
        cfg_path, models, protocol = phrase_work
        rc, _ = self.run(capsys, "train", "--config", str(cfg_path), "--system", system)
        assert rc == 0
        before = tree_hashes(models)
        # P00 trains on other trials than before, then P01 is refused
        p00_genuine = [t.trial_id for t in parse_protocol(json.loads(
            cfg_path.read_text())["paths"]["protocol_train"])
            if (t.phrase_id, t.label) == ("P00", "genuine")]
        train = protocol("refused", "train", lambda t: t.trial_id != p00_genuine[0] and not (
            t.phrase_id == "P01" and t.label == "spoof"))
        rc, err = self.run(capsys, "train", "--config", str(cfg_path), "--system", system,
                           "--protocol", train)
        assert rc == 2 and "for phrase P01" in err
        assert tree_hashes(models) == before
        assert [p.name for p in models.iterdir()] == [system]

    def test_a_one_phrase_protocol_trains_and_scores(self, phrase_work, capsys):
        cfg_path, models, protocol = phrase_work
        def p00(trial):
            return trial.phrase_id == "P00"

        train, test = protocol("p00-train", "train", p00), protocol("p00-eval", "eval", p00)
        rc, _ = self.run(capsys, "train", "--config", str(cfg_path),
                         "--system", "gmm-phrase", "--protocol", train)
        assert rc == 0
        assert {p.name for p in (models / "gmm-phrase").iterdir()} == {
            "genuine__P00.rsmd", "spoof__P00.rsmd"}
        out = models.parent / "p00.scores"
        rc, _ = self.run(capsys, "score", "--config", str(cfg_path), "--system", "gmm-phrase",
                         "--protocol", test, "--out-scores", str(out))
        assert rc == 0
        assert read_scores(out).trial_ids == tuple(t.trial_id for t in parse_protocol(test))
        assert cli.main(["eval", str(out), "--protocol", test]) == 0


class TestFuseEval:
    def test_eval_perfect_scores(self, workspace, tmp_path, capsys):
        cfg_path, work = workspace
        trials = parse_protocol(work / "corpus/protocol_eval.txt")
        lines = [
            f"{t.trial_id} {1.0 if t.label == 'genuine' else -1.0}" for t in trials
        ]
        scores = tmp_path / "perfect.scores"
        scores.write_text("\n".join(lines) + "\n")
        rc = cli.main(["eval", str(scores),
                       "--protocol", str(work / "corpus/protocol_eval.txt")])
        assert rc == 0
        assert capsys.readouterr().out.startswith("EER 0.00%")

    def test_eval_reports_cllr_and_min_cllr_after_the_eer(self, workspace, tmp_path, capsys):
        # scores of +-1 separate the classes (min-Cllr 0) but each trial
        # costs log2(1 + e^-1) bits
        cfg_path, work = workspace
        protocol = work / "corpus/protocol_eval.txt"
        scores = tmp_path / "scores"
        scores.write_text("".join(f"{t.trial_id} {1 if t.label == 'genuine' else -1}\n"
                                  for t in parse_protocol(protocol)))
        assert cli.main(["eval", str(scores), "--protocol", str(protocol)]) == 0
        assert capsys.readouterr().out == (
            f"EER 0.00% threshold 1 Cllr {np.log2(1 + np.exp(-1)):.4f} min-Cllr 0.0000\n")

    def test_eval_leaves_numpy_ma_unimported(self, workspace, tmp_path):
        cfg_path, work = workspace
        protocol = work / "corpus/protocol_eval.txt"
        scores = tmp_path / "tied.scores"
        scores.write_text("".join(f"{t.trial_id} {i // 3}\n"
                                  for i, t in enumerate(parse_protocol(protocol))))
        script = ("import sys\nfrom replaycm import cli\n"
                  f"assert cli.main(['eval', {str(scores)!r}, '--protocol', {str(protocol)!r}]) == 0\n"
                  "assert 'numpy.ma' not in sys.modules\n")
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("EER ")

    def test_fusing_single_system_preserves_eer(self, workspace, tmp_path, capsys):
        cfg_path, work = workspace
        rng = np.random.default_rng(0)
        trials = parse_protocol(work / "corpus/protocol_train.txt")
        lines = []
        values = {}
        for t in trials:
            value = rng.normal(1.0 if t.label == "genuine" else -1.0, 1.2)
            values[t.trial_id] = value
            lines.append(f"{t.trial_id} {value!r}")
        raw = tmp_path / "raw.scores"
        raw.write_text("\n".join(lines) + "\n")
        fused_path = tmp_path / "fused.scores"
        rc = cli.main([
            "fuse", str(raw),
            "--protocol", str(work / "corpus/protocol_train.txt"),
            "--out-scores", str(fused_path),
        ])
        assert rc == 0
        labels = {t.trial_id: t.label for t in trials}
        def eer_from(path):
            scores = read_scores(path)
            genuine = [s for tid, s in zip(scores.trial_ids, scores.scores)
                       if labels[tid] == "genuine"]
            spoof = [s for tid, s in zip(scores.trial_ids, scores.scores)
                     if labels[tid] == "spoof"]
            return compute_eer(genuine, spoof)[0]
        assert eer_from(fused_path) == eer_from(raw)

    @pytest.mark.parametrize("command, n_spoofs, refusal", [
        ("eval", 0, "no scored trial is spoof"),
        ("fuse", 0, "no scored trial is spoof"),
        ("fuse", 1, "need at least 2 trials per class to train fusion"),
    ])
    def test_a_label_set_without_enough_of_a_class_names_the_score_file(
            self, workspace, tmp_path, capsys, command, n_spoofs, refusal):
        _, work = workspace
        trials = parse_protocol(work / "corpus/protocol_train.txt")
        kept = ([t for t in trials if t.label == "genuine"]
                + [t for t in trials if t.label == "spoof"][:n_spoofs])
        protocol, scores = tmp_path / "protocol.txt", tmp_path / "a.scores"
        write_protocol(kept, protocol)
        scores.write_text("".join(f"{t.trial_id} {i}\n" for i, t in enumerate(kept)))
        argv = {"eval": ["eval", str(scores), "--protocol", str(protocol)],
                "fuse": ["fuse", str(scores), "--protocol", str(protocol),
                         "--out-scores", str(tmp_path / "x")]}[command]
        assert (cli.main(argv), capsys.readouterr().err) == (2, f"error: {scores}: {refusal}\n")
        assert not (tmp_path / "x").exists()

    def test_mismatched_ids_reported(self, workspace, tmp_path, capsys):
        cfg_path, _ = workspace
        a = tmp_path / "a.scores"
        b = tmp_path / "b.scores"
        a.write_text("t1 1.0\nt2 2.0\n")
        b.write_text("t1 1.0\nt_other 2.0\n")
        rc = cli.main(["fuse", str(a), str(b), "--protocol", str(a),
                       "--out-scores", str(tmp_path / "x")])
        assert rc == 2
        assert "t_other" in capsys.readouterr().err

    def test_fuse_model_roundtrip_apply(self, workspace, tmp_path):
        cfg_path, work = workspace
        trials = parse_protocol(work / "corpus/protocol_train.txt")
        rng = np.random.default_rng(1)
        a_lines, b_lines = [], []
        for t in trials:
            center = 1.0 if t.label == "genuine" else -1.0
            a_lines.append(f"{t.trial_id} {rng.normal(center, 0.5)!r}")
            b_lines.append(f"{t.trial_id} {rng.normal(center, 0.8)!r}")
        a = tmp_path / "a.scores"; a.write_text("\n".join(a_lines) + "\n")
        b = tmp_path / "b.scores"; b.write_text("\n".join(b_lines) + "\n")
        model = tmp_path / "fusion.rsmd"
        assert cli.main([
            "fuse", str(a), str(b),
            "--protocol", str(work / "corpus/protocol_train.txt"),
            "--out-model", str(model), "--out-scores", str(tmp_path / "f1"),
        ]) == 0
        assert cli.main([
            "fuse", str(a), str(b), "--apply", str(model),
            "--out-scores", str(tmp_path / "f2"),
        ]) == 0
        assert (tmp_path / "f1").read_bytes() == (tmp_path / "f2").read_bytes()

    def test_apply_rejects_a_model_that_is_not_a_fusion(self, trained, tmp_path, capsys):
        _, work = trained
        scores = tmp_path / "a.scores"
        scores.write_text("t1 1.0\nt2 2.0\n")
        rc = cli.main(["fuse", str(scores),
                       "--apply", str(work / "models/gmm-sys/genuine.rsmd"),
                       "--out-scores", str(tmp_path / "x")])
        assert rc == 2
        assert "expected a fusion container" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("arrays, problem", [
        ({"weights": np.ones(1)}, "has no array 'offset'"),
        ({"weights": np.ones(1), "offset": np.zeros(2)}, "array 'offset' holds 2 values, not one"),
        ({"weights": np.ones(1), "offset": np.zeros(1), "bias": np.zeros(1)},
         "has an unexpected array 'bias'"),
    ])
    def test_apply_refuses_a_malformed_fusion_model(self, tmp_path, capsys, arrays,
                                                     problem):
        scores = tmp_path / "a.scores"
        scores.write_text("t1 1.0\nt2 2.0\n")
        model = tmp_path / "fusion.rsmd"
        containers.write_model(model, "fusion", arrays)
        rc = cli.main(["fuse", str(scores), "--apply", str(model),
                       "--out-scores", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {model}: fusion model {problem}\n"
        assert not (tmp_path / "x").exists()

    def test_apply_names_a_model_trained_on_another_number_of_systems(self, tmp_path,
                                                                      capsys):
        a, b = tmp_path / "a.scores", tmp_path / "b.scores"
        for path in (a, b):
            path.write_text("t1 1.0\nt2 2.0\n")
        model = tmp_path / "fusion.rsmd"
        containers.write_model(model, "fusion", {"weights": np.ones(3), "offset": np.zeros(1)})
        rc = cli.main(["fuse", str(a), str(b), "--apply", str(model),
                       "--out-scores", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {model}: the fusion model was trained on 3 system(s), not the "
            "2 score file(s) given\n")
        assert not (tmp_path / "x").exists()

    def test_training_refuses_scores_missing_a_labeled_trial(self, workspace, tmp_path,
                                                             capsys):
        _, work = workspace
        protocol = work / "corpus/protocol_train.txt"
        dropped, *kept = parse_protocol(protocol)
        scores = tmp_path / "a.scores"
        scores.write_text("".join(f"{t.trial_id} {1.0 if t.label == 'genuine' else -1.0}\n"
                                  for t in kept))
        rc = cli.main(["fuse", str(scores), "--protocol", str(protocol),
                       "--out-model", str(tmp_path / "fusion.rsmd"),
                       "--out-scores", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: {scores}: 1 labeled trial(s) have no "
                                           f"score, e.g. ['{dropped.trial_id}']\n")
        assert not (tmp_path / "fusion.rsmd").exists() and not (tmp_path / "x").exists()

    def test_training_names_the_score_file_with_a_trial_the_protocol_lacks(
            self, workspace, tmp_path, capsys):
        _, work = workspace
        protocol = work / "corpus/protocol_train.txt"
        a, b = tmp_path / "a.scores", tmp_path / "b.scores"
        for path in (a, b):
            path.write_text("".join(f"{t.trial_id} {1.0 if t.label == 'genuine' else -1.0}\n"
                                    for t in parse_protocol(protocol)) + "stray 0.5\n")
        rc = cli.main(["fuse", str(a), str(b), "--protocol", str(protocol),
                       "--out-model", str(tmp_path / "fusion.rsmd"),
                       "--out-scores", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {a}: 1 scored trial(s) absent from the protocol, e.g. ['stray']\n")
        assert not (tmp_path / "fusion.rsmd").exists() and not (tmp_path / "x").exists()

    @pytest.mark.parametrize("raw", ["nan", "-inf"])
    @pytest.mark.parametrize("command", ["eval", "fuse-protocol", "fuse-apply"])
    def test_a_score_that_is_not_finite_is_refused_by_line(self, workspace, tmp_path,
                                                           capsys, command, raw):
        _, work = workspace
        protocol = work / "corpus/protocol_train.txt"
        scores = tmp_path / "a.scores"
        scores.write_text("".join(f"{t.trial_id} {raw if i == 1 else 1.0}\n"
                                  for i, t in enumerate(parse_protocol(protocol))))
        model = tmp_path / "fusion.rsmd"
        containers.write_model(model, "fusion", {"weights": np.ones(1), "offset": np.zeros(1)})
        options = {"eval": ["--protocol", str(protocol)],
                   "fuse-protocol": ["--protocol", str(protocol),
                                     "--out-scores", str(tmp_path / "x")],
                   "fuse-apply": ["--apply", str(model), "--out-scores", str(tmp_path / "x")]}
        rc = cli.main([command.split("-")[0], str(scores), *options[command]])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {scores}:2: score {raw!r} is not finite\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("mode", ["apply", "train"])
    def test_a_fit_or_fused_score_that_is_not_finite_is_refused_naming_a_file(
            self, tmp_path, capsys, recwarn, mode):
        # apply: 1e308 + 1e308 overflows; train: the loss gradient of scores
        # this large overflows, and the optimizer would keep its zero start
        a, b = tmp_path / "a.scores", tmp_path / "b.scores"
        model, protocol = tmp_path / "fusion.rsmd", tmp_path / "protocol.txt"
        if mode == "apply":
            for path in (a, b):
                path.write_text("t1 1e308\nt2 -1\n")
            containers.write_model(model, "fusion", {"weights": np.ones(2),
                                                     "offset": np.zeros(1)})
            options, named = ["--apply", str(model)], model
            refusal = "1 fused score(s) are not finite"
        else:
            write_protocol([corpus.Trial(tid, label, "S00", "P00") for tid, label in (
                ("g1", "genuine"), ("g2", "genuine"), ("s1", "spoof"), ("s2", "spoof"))],
                protocol)
            for path, value in ((a, "1e308"), (b, "1e307")):
                path.write_text(f"g1 {value}\ng2 {value}\ns1 -{value}\ns2 -{value}\n")
            options, named = ["--protocol", str(protocol), "--out-model", str(model)], a
            refusal = "the fusion loss gradient is not finite: the scores are too large"
        files = sorted(tmp_path.iterdir())
        rc = cli.main(["fuse", str(a), str(b), *options,
                       "--out-scores", str(tmp_path / "x")])
        assert (rc, capsys.readouterr().err) == (2, f"error: {named}: {refusal}\n")
        assert [str(w.message) for w in recwarn] == []
        assert sorted(tmp_path.iterdir()) == files

    def test_training_a_fusion_without_a_protocol_is_refused(self, tmp_path, capsys):
        a = tmp_path / "a.scores"
        a.write_text("t1 1.0\nt2 -1.0\n")
        rc = cli.main(["fuse", str(a), str(a), "--out-model", str(tmp_path / "f.rsmd"),
                       "--out-scores", str(tmp_path / "fused.scores")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: training a fusion requires --protocol with labels\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.scores"]

    @pytest.mark.parametrize("option", ["--protocol", "--out-model"])
    def test_apply_refuses_an_option_that_trains(self, tmp_path, capsys, option):
        a, b = tmp_path / "a.scores", tmp_path / "b.scores"
        for path in (a, b):
            path.write_text("t1 1.0\nt2 -1.0\n")
        model = tmp_path / "fusion.rsmd"
        containers.write_model(model, "fusion", {"weights": np.ones(2), "offset": np.zeros(1)})
        value = {"--protocol": str(tmp_path / "nonexistent"),
                 "--out-model": str(tmp_path / "m.rsmd")}[option]
        rc = cli.main(["fuse", str(a), str(b), "--apply", str(model), option, value,
                       "--out-scores", str(tmp_path / "f.scores")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {option} trains a fusion, so it cannot be used with --apply\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.scores", "b.scores",
                                                              "fusion.rsmd"]

    def test_eval_reports_score_protocol_mismatch(self, workspace, tmp_path, capsys):
        cfg_path, work = workspace
        protocol = work / "corpus/protocol_eval.txt"
        scores = tmp_path / "bad.scores"
        scores.write_text("not_a_trial 1.0\n")
        rc = cli.main(["eval", str(scores), "--protocol", str(protocol)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {scores}: 1 scored trial(s) absent from the protocol, "
            "e.g. ['not_a_trial']\n")
        # every scored trial is labeled, but one labeled trial has no score
        dropped, *kept = parse_protocol(protocol)
        scores.write_text("".join(f"{t.trial_id} 1.0\n" for t in kept))
        rc = cli.main(["eval", str(scores), "--protocol", str(protocol)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (f"error: {scores}: 1 labeled trial(s) have no score, "
                       f"e.g. ['{dropped.trial_id}']\n")


class TestTheConfigIsTheOnlySource:
    def test_seed_changes_corpus(self, tmp_path):
        corpora = []
        for run, seed in (("c1", TINY_CONFIG["seed"]), ("c2", 999), ("c3", 999)):
            config = json.loads(json.dumps(TINY_CONFIG))
            config["seed"] = seed
            corpus = tmp_path / run
            config["paths"] = {
                "work_dir": str(tmp_path / "w"),
                "audio_dir": str(corpus / "wav"),
                "protocol_train": str(corpus / "protocol_train.txt"),
                "protocol_eval": str(corpus / "protocol_eval.txt"),
            }
            cfg_path = tmp_path / f"{run}.json"
            cfg_path.write_text(json.dumps(config))
            assert cli.main(["synth", "--config", str(cfg_path)]) == 0
            corpora.append(tree_hashes(corpus))
        assert corpora[0] != corpora[1]
        assert corpora[1] == corpora[2]

    # the seed and the corpus and feature locations are set only in the file
    @pytest.mark.parametrize("argv", [
        ["synth", "--seed", "1"],
        ["synth", "--out-dir", "elsewhere"],
        ["extract", "--feature", "lpcc-small", "--protocol", "p.txt", "--seed", "1"],
        ["extract", "--feature", "lpcc-small", "--protocol", "p.txt", "--out-dir", "f"],
        ["extract", "--feature", "lpcc-small", "--protocol", "p.txt", "--audio-dir", "a"],
        ["train", "--system", "gmm-sys", "--seed", "1"],
        ["score", "--system", "gmm-sys", "--protocol", "p.txt", "--out-scores", "x",
         "--seed", "1"],
    ], ids=["synth-seed", "synth-out-dir", "extract-seed", "extract-out-dir",
            "extract-audio-dir", "train-seed", "score-seed"])
    def test_a_removed_option_is_refused(self, workspace, tmp_path, capsys, argv):
        cfg_path, _ = workspace
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--config", str(cfg_path)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


class TestExitCodes:
    def test_user_error_is_one_error_line_exit_2(self, tmp_path, capsys):
        rc = cli.main(["eval", str(tmp_path / "absent.scores"),
                       "--protocol", str(tmp_path / "absent.txt")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("broken", ["scores", "protocol", "config"])
    def test_a_file_that_is_not_utf8_is_one_error_line_naming_it(self, tmp_path, capsys,
                                                                 broken):
        files = {"scores": tmp_path / "a.scores", "protocol": tmp_path / "p.txt",
                 "config": tmp_path / "c.json"}
        files["scores"].write_text("t1 0.5\nt2 -0.5\n")
        files["protocol"].write_text("t1 genuine S1 P1 - - -\nt2 spoof S1 P1 - - -\n")
        files["config"].write_text(json.dumps(TINY_CONFIG))
        data = files[broken].read_bytes()
        files[broken].write_bytes(data[:6] + b"\xff" + data[7:])
        argv = (["synth", "--config", str(files["config"])] if broken == "config" else
                ["eval", str(files["scores"]), "--protocol", str(files["protocol"])])
        before = tree_hashes(tmp_path)
        assert cli.main(argv) == 2
        message = "invalid JSON" if broken == "config" else "not UTF-8 text"
        assert capsys.readouterr().err == (
            f"error: {files[broken]}: {message} ('utf-8' codec can't decode byte 0xff "
            "in position 6: invalid start byte)\n")
        assert tree_hashes(tmp_path) == before

    def test_the_module_runs_as_a_script(self, tmp_path):
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "replaycm.cli", "synth", "--config",
             str(tmp_path / "absent.json")],
            env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and "absent.json" in done.stderr
        assert list(tmp_path.iterdir()) == []

    def test_internal_bug_prints_traceback_exit_1(self, tmp_path, monkeypatch, capsys):
        def broken(args):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cli, "cmd_eval", broken)
        rc = cli.main(["eval", str(tmp_path / "a.scores"), "--protocol", "p.txt"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback (most recent call last)" in err
        assert "TypeError: unsupported operand" in err
        assert "error: " not in err

    def test_internal_bug_in_a_trial_is_not_a_trial_failure(
            self, workspace, tmp_path, monkeypatch, capsys):
        cfg_path, work = workspace

        def broken(*args):
            raise AttributeError("no attribute 'values'")

        monkeypatch.setattr(pipeline, "extract_trial", broken)
        rc = cli.main(["extract", "--config", str(config_with_work_dir(cfg_path, tmp_path)),
                       "--feature", "cqcc-small",
                       "--protocol", str(work / "corpus/protocol_train.txt"), "--keep-going"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "AttributeError: no attribute 'values'" in err
        assert "extraction failed" not in err


NO_SCIPY_SCRIPT = """
import importlib.abc
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
import numpy as np
from replaycm import cli
from replaycm.fusion import fusion_train

config, protocol = sys.argv[1:]
assert cli.main(["extract", "--config", config, "--feature", "deemd-small",
                 "--protocol", protocol]) == 0
rng = np.random.default_rng(0)
labels = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
model = fusion_train(labels[:, None] + rng.standard_normal((6, 2)), labels)
assert np.all(np.isfinite(model.weights))
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
"""


def test_runtime_needs_no_scipy(workspace, tmp_path):
    cfg_path, work = workspace
    protocol = tmp_path / "one.txt"
    protocol.write_text((work / "corpus/protocol_train.txt").read_text().splitlines()[0])
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT,
         str(config_with_work_dir(cfg_path, tmp_path)), str(protocol)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len(list((tmp_path / "features/deemd-small").glob("*.rsft"))) == 1


@pytest.fixture
def forks(monkeypatch):
    """The pids returned by every ``os.fork`` in this process."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


# the frontends benchmark workload's default and held-out seeds
FRONTENDS_SEEDS = (20170803, 20171803)


@pytest.fixture(scope="module", params=FRONTENDS_SEEDS)
def seeded_corpus(request, tmp_path_factory):
    """A four-trial training corpus of 1.2 s trials at a frontends seed."""
    root = tmp_path_factory.mktemp(f"seed{request.param}")
    config = json.loads(json.dumps(TINY_CONFIG))
    config["seed"] = request.param
    config["corpus"].update(n_train_genuine=2, n_train_spoof=2, n_eval_genuine=1,
                            n_eval_spoof=1, duration_seconds=1.2)
    config["features"] = {f"deemd{n}": {"type": "deemd", "ensemble_size": n}
                          for n in (1, 2, 5)}
    config["systems"] = {"gmm": {"model": "gmm", "feature": "deemd1", "components": 2}}
    config["paths"] = {
        "work_dir": str(root / "work"),
        "audio_dir": str(root / "corpus/wav"),
        "protocol_train": str(root / "corpus/protocol_train.txt"),
        "protocol_eval": str(root / "corpus/protocol_eval.txt"),
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["synth", "--config", str(cfg_path)]) == 0
    return cfg_path, root


class TestWorkers:
    """ΔEEMD members sift on workers forked once per command; no other
    command of the back-end pipeline forks."""

    @staticmethod
    def extract(cfg_path, work_dir, feature, protocol, *extra):
        return cli.main(["extract", "--config", str(config_with_work_dir(cfg_path, work_dir)),
                         "--feature", feature, "--protocol", str(protocol), *extra])

    @pytest.mark.parametrize("members", [1, 2, 5])
    def test_deemd_files_are_the_same_bytes_serial_and_on_workers(
            self, seeded_corpus, tmp_path, monkeypatch, forks, members):
        cfg_path, root = seeded_corpus
        protocol = root / "corpus/protocol_train.txt"
        for work_dir, cpus in ((tmp_path / "serial", 1), (tmp_path / "workers", 2)):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
            assert self.extract(cfg_path, work_dir, f"deemd{members}", protocol) == 0
        assert len(forks) == (members > 1)
        serial = tree_hashes(tmp_path / "serial/features")
        assert len(serial) == 4
        assert tree_hashes(tmp_path / "workers/features") == serial
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_one_fork_per_further_cpu_per_command(self, workspace, tmp_path, monkeypatch,
                                                   forks, cpus):
        cfg_path, work = workspace
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        assert self.extract(cfg_path, tmp_path, "deemd-small",
                            work / "corpus/protocol_train.txt") == 0
        assert len(forks) == cpus - 1  # for the command's 16 trials
        assert_no_child_left()

    def test_extract_train_and_score_of_a_backend_fork_nothing(
            self, workspace, tmp_path, monkeypatch, forks):
        cfg_path, work = workspace
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        own_cfg = config_with_work_dir(cfg_path, tmp_path)
        for proto in ("protocol_train.txt", "protocol_eval.txt"):
            assert self.extract(cfg_path, tmp_path, "lpcc-small", work / "corpus" / proto) == 0
        assert cli.main(["train", "--config", str(own_cfg), "--system", "ivec-sys"]) == 0
        assert cli.main(["score", "--config", str(own_cfg), "--system", "ivec-sys",
                         "--protocol", str(work / "corpus/protocol_eval.txt"),
                         "--out-scores", str(tmp_path / "eval.scores")]) == 0
        assert forks == []

    @pytest.mark.parametrize("feature", sorted(TestExtract.FEATURE_ROWS))
    def test_extract_runs_every_trial_here_once_in_protocol_order(
            self, workspace, tmp_path, monkeypatch, forks, feature):
        cfg_path, work = workspace
        protocol = work / "corpus/protocol_train.txt"
        calls, extract_trial = [], pipeline.extract_trial

        def recorded(cfg, spec, trial):
            calls.append((os.getpid(), trial.trial_id))
            return extract_trial(cfg, spec, trial)

        monkeypatch.setattr(pipeline, "extract_trial", recorded)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        assert self.extract(cfg_path, tmp_path, feature, protocol) == 0
        assert calls == [(os.getpid(), trial.trial_id) for trial in parse_protocol(protocol)]
        assert len(forks) == (feature == "deemd-small")  # only ΔEEMD members go to workers
        assert len(tree_hashes(tmp_path / "features")) == 16
        assert_no_child_left()

    @pytest.mark.parametrize("keep_going", [False, True])
    def test_extract_reports_every_failed_trial_in_protocol_order(
            self, workspace, tmp_path, capsys, keep_going):
        cfg_path, work = workspace
        lines = (work / "corpus/protocol_train.txt").read_text().splitlines()[:6]
        for position, name in ((2, "ghost_b"), (3, "ghost_a")):  # not in sorted order
            lines.insert(position, f"{name} genuine S00 P00 - - -")
        protocol = tmp_path / "ghosts.txt"
        protocol.write_text("\n".join(lines))
        rc = self.extract(cfg_path, tmp_path, "lpcc-small", protocol,
                          *(["--keep-going"] if keep_going else []))
        assert rc == (0 if keep_going else 2)
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[1] for line in err[:2]] == [
            f"extraction failed for trial {name}" for name in ("ghost_b", "ghost_a")]
        assert all(line.startswith("error: ") for line in err[:2])
        assert err[2:] == ["extracted 6 feature file(s), 2 failure(s)"]
        assert len(list((tmp_path / "features/lpcc-small").iterdir())) == 6

    @pytest.mark.parametrize("error, fails_the_command", [
        (ValueError("unreadable wave"), False),
        (FileNotFoundError("no such wave"), False),
        (ChildProcessError("child process 7 exited with status 9"), True),
    ])
    def test_only_a_dead_worker_fails_extract_rather_than_one_trial(
            self, workspace, tmp_path, monkeypatch, capsys, error, fails_the_command):
        cfg_path, work = workspace
        protocol = tmp_path / "three.txt"
        protocol.write_text("\n".join(
            (work / "corpus/protocol_train.txt").read_text().splitlines()[:3]))
        second = parse_protocol(protocol)[1].trial_id
        calls, extract_trial = [], pipeline.extract_trial

        def fail_the_second(cfg, spec, trial):
            calls.append(trial.trial_id)
            if trial.trial_id == second:
                raise error
            return extract_trial(cfg, spec, trial)

        monkeypatch.setattr(pipeline, "extract_trial", fail_the_second)
        rc = self.extract(cfg_path, tmp_path, "lpcc-small", protocol, "--keep-going")
        err = capsys.readouterr().err
        if fails_the_command:  # even with --keep-going, and no later trial runs
            assert rc == 2
            assert err == f"error: {error}\n"
            assert calls == [trial.trial_id for trial in parse_protocol(protocol)][:2]
        else:
            assert rc == 0
            assert err == (f"error: extraction failed for trial {second}: {error}\n"
                           "extracted 2 feature file(s), 1 failure(s)\n")
            assert len(calls) == 3

    def test_a_dead_worker_fails_the_command_and_is_named(
            self, workspace, tmp_path, monkeypatch, capsys, forks):
        cfg_path, work = workspace
        parent = os.getpid()
        sift = eemd.emd_first_imf

        def die_in_a_child(x, config):
            if os.getpid() != parent:
                os._exit(9)
            return sift(x, config)

        monkeypatch.setattr(eemd, "emd_first_imf", die_in_a_child)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        rc = self.extract(cfg_path, tmp_path, "deemd-small",
                          work / "corpus/protocol_train.txt", "--keep-going")
        assert rc == 2
        assert capsys.readouterr().err == (f"error: child process {forks[0]} exited with "
                                           "status 9 before sending all its results\n")
        assert_no_child_left()

    @pytest.mark.parametrize("system, feature", [("gmm-phrase", "cqcc-small"),
                                                 ("ivec-each-phrase", "lpcc-small")])
    def test_a_stale_last_training_file_is_refused_before_any_model_trains(
            self, workspace, tmp_path, monkeypatch, capsys, system, feature):
        cfg_path, work = workspace
        last = parse_protocol(work / "corpus/protocol_train.txt")[-1]
        calls = {"gmm_em_train": 0, "train_t_matrix": 0}
        for name in calls:
            def counted(*args, _name=name, _call=getattr(pipeline, name), **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, counted)
        # a file of other settings, and one whose last value is a NaN: the
        # check reads each file whole, as training does
        for fault in ("stale", "nan"):
            own_cfg = config_with_work_dir(cfg_path, tmp_path / fault)
            shutil.copytree(work / "features" / feature, tmp_path / fault / "features" / feature)
            path = pipeline.feature_path(load_config(own_cfg), feature, last.trial_id)
            if fault == "stale":
                values, meta = containers.read_matrix(path)
                containers.write_matrix(path, values, {**meta, "fingerprint": "other settings"})
                refusal = (f"{path}: extracted with other settings than feature {feature!r} "
                           "has now; re-run extract")
            else:
                path.write_bytes(path.read_bytes()[:-4] + struct.pack("<f", float("nan")))
                refusal = f"{path}: array 'values' holds 1 non-finite value(s)"
            rc = cli.main(["train", "--config", str(own_cfg), "--system", system])
            assert (rc, capsys.readouterr().err) == (2, f"error: {refusal}\n")
            assert calls == {"gmm_em_train": 0, "train_t_matrix": 0}
            assert not (tmp_path / fault / "models").exists()


DEEMD_HASH_SCRIPT = """
import hashlib
import numpy as np
from replaycm import parallel
from replaycm.audio_io import Waveform
from replaycm.eemd import DeemdParams, delta_eemd_spectrogram
from replaycm.spectral import FftConfig

parallel.usable_cpus = lambda: 2
rng = np.random.default_rng(7)
t = np.arange(19200) / 16000
wave = Waveform(np.sin(2 * np.pi * 220 * t) + 0.3 * rng.standard_normal(t.size), 16000)
with parallel.workers():
    feature = delta_eemd_spectrogram(wave, DeemdParams(FftConfig(), ensemble_size=5), 11)
print(hashlib.sha256(feature.tobytes()).hexdigest())
"""


def test_deemd_bytes_do_not_depend_on_the_blas_thread_count():
    src = Path(__file__).resolve().parents[1] / "src"
    digests = set()
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", DEEMD_HASH_SCRIPT],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
                 "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=120, check=True)
        digests.add(done.stdout)
    assert len(digests) == 1
