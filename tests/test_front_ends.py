"""Every configured front-end on degenerate input: each feature kind, with
and without its normalisation flag, either returns a finite dim x frames
matrix or refuses the input with a ValueError, which ``extract`` reports as
a failed trial."""

import json

import numpy as np
import pytest

from replaycm import cli, pipeline
from replaycm.audio_io import Waveform, write_wav
from replaycm.pipeline import FEATURE_KINDS

SR = 16000
N = 4000
_t = np.arange(N) / SR
DEGENERATE = {
    "silence": np.zeros(N),
    "dc": np.full(N, 0.5),
    "impulse": np.eye(1, N, N // 2)[0],
    "clipped-sine": np.clip(3.0 * np.sin(2 * np.pi * 440.0 * _t), -1.0, 1.0),
    "nyquist": (-1.0) ** np.arange(N),
    "100-samples": np.sin(2 * np.pi * 440.0 * np.arange(100) / SR),
    "1-sample": np.array([0.3]),
}


@pytest.mark.parametrize("normalised", [False, True], ids=["raw", "normalised"])
@pytest.mark.parametrize("kind", sorted(FEATURE_KINDS))
def test_degenerate_input_gives_a_finite_matrix_or_a_value_error(
        small_feature, kind, normalised):
    spec = small_feature(kind, normalised)
    noise = np.random.default_rng(0).uniform(-0.5, 0.5, N)
    dim = pipeline.compute_feature(spec, Waveform(noise, SR), 11).shape[0]
    for name, samples in DEGENERATE.items():
        try:
            values = pipeline.compute_feature(spec, Waveform(samples, SR), 11)
        except ValueError:
            continue
        assert values.ndim == 2 and values.shape[0] == dim and values.shape[1] >= 1, name
        assert np.all(np.isfinite(values)), name


@pytest.mark.parametrize("kind", ["lpcc", "deemd"])
def test_a_100_sample_trial_fails_extract_naming_the_trial(
        tmp_path, capsys, small_config, kind):
    work = tmp_path / "work"
    (work / "wav").mkdir(parents=True)
    write_wav(work / "wav" / "short.wav", Waveform(DEGENERATE["100-samples"], SR))
    protocol = work / "train.txt"
    protocol.write_text("short genuine S00 P00 - - -\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small_config(kind, work_dir=str(work))))
    rc = cli.main(["extract", "--config", str(config), "--feature", "f",
                   "--protocol", str(protocol)])
    err = capsys.readouterr().err
    assert rc == 2
    (line,) = [line for line in err.splitlines() if line.startswith("error:")]
    assert "trial short" in line and "100 samples" in line
    assert not list((work / "features" / "f").glob("*.rsft"))
