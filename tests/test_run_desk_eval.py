import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from replaycm.corpus import Trial, parse_protocol, write_protocol
from replaycm.metrics import ScoreSet, read_scores, write_scores

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_desk_eval.py"


def small_config(work: Path, corpus: Path) -> dict:
    """Three small systems on two features, the corpus at ``corpus``."""
    return {
        "seed": 99,
        "sample_rate": 16000,
        "paths": {
            "work_dir": str(work),
            "audio_dir": str(corpus / "wav"),
            "protocol_train": str(corpus / "protocol_train.txt"),
            "protocol_eval": str(corpus / "protocol_eval.txt"),
        },
        "corpus": {
            "n_train_genuine": 8, "n_train_spoof": 8,
            "n_eval_genuine": 4, "n_eval_spoof": 4,
            "n_speakers": 2, "n_phrases": 2, "duration_seconds": 0.5,
        },
        "features": {
            "lp": {"type": "lpcc", "lpc_order": 12, "n_coeffs": 20, "cmvn": True},
            "dw": {"type": "dwt", "frame_len": 64, "hop_length": 64, "levels": 3},
        },
        "systems": {
            "lp-gmm": {"model": "gmm", "feature": "lp", "components": 2, "iterations": 3},
            "dw-gmm": {"model": "gmm", "feature": "dw", "components": 2, "iterations": 3},
            "lp-ivec": {"model": "ivec-svm", "feature": "lp", "ubm_components": 2,
                        "ubm_iterations": 3, "tv_rank": 2, "tv_iterations": 2},
        },
    }


def test_runs_the_given_config(tmp_path, capsys, monkeypatch):
    """Feature, system and protocol names all come from the config."""
    work = tmp_path / "run"
    cfg_path = tmp_path / "small.json"
    cfg_path.write_text(json.dumps(small_config(work, work / "corpus")))

    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--config", str(cfg_path)])
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(SCRIPT), run_name="__main__")

    out = capsys.readouterr().out
    for name in ("lp-gmm", "dw-gmm", "lp-ivec", "fusion (3-way)"):
        assert name in out
    assert sorted(p.name for p in (work / "features").iterdir()) == ["dw", "lp"]
    eval_ids = [t.trial_id for t in parse_protocol(work / "corpus/protocol_eval.txt")]
    assert list(read_scores(work / "fused.eval.scores").trial_ids) == eval_ids
    assert not (tmp_path / "work").exists()


# the config file is the only source of the seed and the paths
@pytest.mark.parametrize("argv, message", [
    (["--config", "c.json", "--work-dir", "w"],
     "argument --work-dir: not allowed with argument --config"),
    (["--seed", "1"], "unrecognized arguments: --seed 1"),
], ids=["config-and-work-dir", "seed"])
def test_an_option_the_config_would_override_is_refused(tmp_path, capsys, monkeypatch,
                                                       argv, message):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *argv])
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# the command list reads the protocols at <work_dir>/corpus
@pytest.mark.parametrize("corpus, drop, problem", [
    ("corpus", None, "the protocols must be protocol_train.txt and protocol_eval.txt in"),
    ("work/corpus", "features", "missing configuration section 'features'"),
], ids=["corpus-beside-the-work-dir", "no-features"])
def test_a_config_the_run_cannot_take_is_refused_before_anything_is_written(
        tmp_path, capsys, monkeypatch, corpus, drop, problem):
    config = small_config(tmp_path / "work", tmp_path / corpus)
    config.pop(drop, None)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--config", str(cfg_path)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: {problem}") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_a_config_that_cannot_be_read_is_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--config", "none.json"])
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: 'none.json'\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("label, problem", [
    (None, "1 scored trial(s) absent from the protocol"),
    ("unknown", "1 scored trial(s) have no ground-truth label"),
], ids=["absent", "unlabeled"])
def test_a_score_protocol_mismatch_is_refused_as_eval_refuses_it(tmp_path, capsys, label,
                                                                  problem):
    eer_percent = runpy.run_path(str(SCRIPT))["eer_percent"]
    trials = [Trial("g1", "genuine", "s", "P00"), Trial("g2", "genuine", "s", "P00"),
              Trial("s1", "spoof", "s", "P00"), Trial("s2", "spoof", "s", "P00")]
    scores = tmp_path / "x.scores"
    write_scores(ScoreSet(("g1", "g2", "s1", "s2", "t9"), -np.arange(5.0)), scores)
    protocol = tmp_path / "protocol.txt"
    if label:
        trials.append(Trial("t9", label, "s", "P00"))
    write_protocol(trials, protocol)
    with pytest.raises(SystemExit) as exit_info:
        eer_percent(scores, protocol)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == f"error: {scores}: {problem}, e.g. ['t9']\n"
    write_protocol(trials[:4] + [Trial("t9", "spoof", "s", "P00")], protocol)
    assert eer_percent(scores, protocol) == 0.0


def test_a_labeled_trial_without_a_score_is_refused(tmp_path, capsys):
    eer_percent = runpy.run_path(str(SCRIPT))["eer_percent"]
    trials = [Trial("g1", "genuine", "s", "P00"), Trial("g2", "genuine", "s", "P00"),
              Trial("s1", "spoof", "s", "P00"), Trial("s2", "spoof", "s", "P00"),
              Trial("s3", "spoof", "s", "P00")]
    scores = tmp_path / "x.scores"
    write_scores(ScoreSet(("g1", "g2", "s1", "s2"), -np.arange(4.0)), scores)
    protocol = tmp_path / "protocol.txt"
    write_protocol(trials, protocol)
    with pytest.raises(SystemExit) as exit_info:
        eer_percent(scores, protocol)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (
        f"error: {scores}: 1 labeled trial(s) have no score, e.g. ['s3']\n")
