"""The benchmark's traced names stay bound in the package, and its
configurations still load.

``bench/workload_pass.TRACED`` names the functions the benchmark times by
patching them from outside.  A traced function that is renamed or no longer
bound at module level fails here, in the main suite, as well as in the
benchmark.  So does a feature kind whose front-end the tracer cannot see,
such as one that ``pipeline.FEATURE_KINDS`` binds as a function object.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import replaycm.cli  # noqa: F401  (imports every module the benchmark traces)
from replaycm import pipeline
from replaycm.audio_io import Waveform
from replaycm.config import parse_config
from replaycm.pipeline import FEATURE_KINDS

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_over_every_traced_name_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workload_pass

    def bound(name):
        module, func = name.rsplit(".", 1)
        return getattr(sys.modules[f"replaycm.{module}"], func)

    originals = {name: bound(name) for name in workload_pass.TRACED}
    tracer = workload_pass.install_tracer()
    try:
        for name, original in originals.items():
            assert bound(name) is not original, name
            assert bound(name).__wrapped__ is original, name
    finally:
        tracer.uninstall()
    assert {name: bound(name) for name in workload_pass.TRACED} == originals


def test_the_benchmark_imports_every_traced_module_through_the_cli():
    # a fresh process, as the benchmark's pass: importing the CLI alone must
    # import each module that a traced name is bound in
    script = ("import sys\n"
              f"sys.path.insert(0, {str(BENCH)!r})\n"
              "import workload_pass\n"
              "workload_pass.import_program()\n"
              "workload_pass.install_tracer().uninstall()\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


# The traced front-end functions, and the calls one compute_feature of each
# kind makes to them; the table must look them up when called, not bind them.
FRONT_ENDS = ("cepstral.cqcc", "cepstral.lpcc", "cepstral.cmvn", "spectral.fft_spectrogram",
              "spectral.cqt_magnitude", "spectral.dwt_scalogram", "eemd.eemd_first_imf")
FRONT_END_CALLS = {
    "cqcc": {"cepstral.cqcc": 1, "spectral.cqt_magnitude": 1},
    "lpcc": {"cepstral.lpcc": 1},
    "fft": {"spectral.fft_spectrogram": 1},
    "cqt": {"spectral.cqt_magnitude": 1},
    "dwt": {"spectral.dwt_scalogram": 1},
    "deemd": {"eemd.eemd_first_imf": 1, "spectral.fft_spectrogram": 2},
}


@pytest.mark.parametrize("normalised", [False, True], ids=["raw", "normalised"])
@pytest.mark.parametrize("kind", sorted(FEATURE_KINDS))
def test_every_feature_kind_reaches_its_traced_front_end(monkeypatch, small_feature,
                                                         kind, normalised):
    monkeypatch.syspath_prepend(str(BENCH))
    import workload_pass

    spec = small_feature(kind, normalised)
    wave = Waveform(np.random.default_rng(0).uniform(-0.5, 0.5, 4000), 16000)
    tracer = workload_pass.install_tracer()
    try:
        pipeline.compute_feature(spec, wave, 11)
    finally:
        tracer.uninstall()
    expected = dict(FRONT_END_CALLS[kind])
    if normalised and FEATURE_KINDS[kind][1] == "cmvn":
        expected["cepstral.cmvn"] = 1
    calls = {name: entry["calls"] for name, entry in tracer.summary().items()
             if name in FRONT_ENDS}
    assert calls == expected


def test_every_benchmark_workload_config_parses(bench_workloads, workload_name, tmp_path):
    # a key the parser stops accepting fails here, not only in a benchmark run
    workload = bench_workloads.Workload.load(workload_name)
    cfg = parse_config(workload.full_config(tmp_path))
    assert set(cfg.features) == set(workload.features)
    assert set(cfg.systems) == set(workload.systems)
    assert cfg.seed == workload.seed


def test_every_benchmark_command_line_parses(bench_workloads, workload_name, tmp_path):
    # an option the CLI stops accepting (extract's --jobs 1 among them) fails
    # here, not only in a benchmark run; no command is run
    parser = replaycm.cli.build_parser()
    workload = bench_workloads.Workload.load(workload_name)
    for _, argv in workload.commands(tmp_path, tmp_path / "config.json"):
        assert parser.parse_args(argv).command == argv[0]
