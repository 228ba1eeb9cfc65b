"""One pass of a workload in a fresh process: set up (imports, config,
``synth``), then call every pipeline command through ``replaycm.cli.main``
in sequence and time it.

Usage: python3 bench/workload_pass.py SPEC.json

SPEC holds ``workload`` (the fields of ``workloads.Workload``), ``work_dir``,
``record``, ``trace`` and ``spawned_at`` (the parent's
``time.monotonic()`` just before it started this process, so set-up time
counts from process start).  The pass writes its timings, exit codes and
provenance to ``record`` as JSON; the parent checks the outputs.  BLAS/OpenMP
thread counts come from the environment the parent sets.
"""

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED = [
    "corpus.generate_synth_corpus", "audio_io.write_wav",
    "spectral.cqt_magnitude", "cepstral.cqcc",
    "cepstral.lpcc", "cepstral.levinson_durbin", "cepstral.lpc_to_cepstrum", "cepstral.cmvn",
    "spectral.fft_spectrogram", "spectral.dwt_scalogram", "eemd.eemd_first_imf",
    "pipeline.extract_trial", "audio_io.load_wav",
    "containers.write_matrix", "containers.read_matrix", "containers.read_model",
    "containers.write_model", "containers.write_model_text",
    "gmm.gmm_em_train", "ivector.train_t_matrix", "svm.svm_train_linear", "fusion.fusion_train",
    "gmm.llr_score", "ivector.baum_welch_stats", "ivector.extract_ivector", "fusion.fusion_apply",
    "config.load_config", "metrics.compute_eer",
    "cli.cmd_synth", "cli.cmd_extract", "cli.cmd_train", "cli.cmd_score", "cli.cmd_fuse",
    "cli.cmd_eval",
]
COMMANDS = tuple(name for name in TRACED if name.startswith("cli.cmd_"))


def import_program():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import replaycm.cli

    if Path(replaycm.cli.__file__).resolve().parent.parent != src:
        raise ImportError(f"replaycm was imported from {replaycm.cli.__file__}, not {src}")
    return replaycm.cli


def provenance() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    with contextlib.suppress(TypeError, KeyError):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def install_tracer():
    from tracer import Tracer

    tracer = Tracer()
    tracer.install("replaycm", TRACED, commands=COMMANDS, measures={
        "containers.write_matrix": lambda args, kwargs: (
            "containers.write_matrix.bytes", os.path.getsize(args[0])),
    })
    return tracer


def run_command(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_stages(cli, commands, codes: list, eers: dict) -> dict[str, float]:
    """Run (stage, argv) commands in order, stopping at the first failure.

    Appends each exit code to ``codes``, stores the EER (%) each ``eval``
    prints in ``eers`` and returns the seconds spent per stage.
    """
    stage_s: dict[str, float] = {}
    for stage, argv in commands:
        t0 = time.perf_counter()
        code, out = run_command(cli, argv)
        stage_s[stage] = stage_s.get(stage, 0.0) + time.perf_counter() - t0
        codes.append((stage, code))
        if code != 0:
            break
        if stage == "eval":
            eers[Path(argv[1]).name] = float(out.split()[1].rstrip("%"))
    return stage_s


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    cli = import_program()
    from workloads import Workload

    workload = Workload(**spec["workload"])
    tracer = install_tracer() if spec["trace"] else None
    work = Path(spec["work_dir"])
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.full_config(work), indent=2), encoding="utf-8")
    codes = [("synth", run_command(cli, ["synth", "--config", str(config_path)])[0])]
    record = {"setup_s": time.monotonic() - spec["spawned_at"]}

    if codes[0][1] == 0:
        eers: dict[str, float] = {}
        start = time.perf_counter()
        stage_s = run_stages(cli, workload.commands(work, config_path), codes, eers)
        record.update(pipeline_s=time.perf_counter() - start, stage_s=stage_s, eer_pct=eers)
    record["commands"] = codes
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["provenance"] = provenance()
    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(spec["record"]).with_suffix(".spans.jsonl"))
        record["trace"] = tracer.summary()
        record["counters"] = dict(tracer.counters)
    Path(spec["record"]).write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
