import sys
from pathlib import Path

import numpy as np
import pytest

from replaycm.config import parse_config
from replaycm.pipeline import FEATURE_KINDS

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))  # bench/ is no package: on sys.path for this import only
try:
    import workloads
finally:
    sys.path.remove(str(BENCH))

# One small configuration per feature kind, at 16 kHz; the delta-EEMD
# ensemble is two members so that every kind runs in milliseconds.
SMALL_FEATURES = {
    "cqcc": {"f_min": 500.0, "bins_per_octave": 12, "n_bins": 24, "hop_length": 256,
             "resample_bins": 48, "n_coeffs": 12},
    "lpcc": {"window_seconds": 0.032, "hop_seconds": 0.016, "lpc_order": 12, "n_coeffs": 20},
    "fft": {"window_seconds": 0.032, "hop_seconds": 0.016, "n_fft": 512},
    "cqt": {"f_min": 500.0, "bins_per_octave": 12, "n_bins": 24, "hop_length": 256},
    "dwt": {"frame_len": 64, "hop_length": 64, "levels": 3},
    "deemd": {"window_seconds": 0.032, "hop_seconds": 0.016, "n_fft": 512,
              "ensemble_size": 2},
}


def _small_config(kind: str, normalised: bool = False, work_dir: str = "work") -> dict:
    flag = FEATURE_KINDS[kind][1]
    return {
        "seed": 7,
        "paths": {"work_dir": work_dir, "audio_dir": f"{work_dir}/wav",
                  "protocol_train": f"{work_dir}/train.txt",
                  "protocol_eval": f"{work_dir}/eval.txt"},
        "features": {"f": {"type": kind, **SMALL_FEATURES[kind], flag: normalised}},
        "systems": {"s": {"model": "gmm", "feature": "f"}},
    }


@pytest.fixture(scope="session")
def bench_workloads():
    """The benchmark's workload definitions, ``bench/workloads.py``, whose
    ``desk`` workload is the desk preset."""
    return workloads


@pytest.fixture(params=workloads.workload_names())
def workload_name(request):
    """Each benchmark workload's name in turn."""
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_config():
    """Builds a configuration with one feature ``f`` of a given kind (its
    normalisation flag set as asked) and one GMM system on it:
    ``small_config(kind, normalised=False, work_dir="work")``."""
    return _small_config


@pytest.fixture
def small_feature():
    """Builds the FeatureSpec of ``small_config(kind, normalised)``."""
    return lambda kind, normalised=False: parse_config(
        _small_config(kind, normalised)).features["f"]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" in report.nodeid:
                name = report.nodeid.split("::")[-1]
                lines.append((name, outcome.upper()))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, outcome in sorted(lines):
            terminalreporter.write_line(f"{outcome:4s}  {name}")
