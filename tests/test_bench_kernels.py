import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_kernels.py"


def documented_kernels() -> list[str]:
    """The kernel names of the script's docstring bullets."""
    docstring = ast.get_docstring(ast.parse(SCRIPT.read_text(encoding="utf-8")))
    return [name for line in docstring.splitlines() if line.startswith("- ")
            for name in re.findall(r"``(\w+)``", line.split(":")[0])]


def test_without_replaycm_on_the_path_it_says_how_to_run_it(tmp_path):
    # -E ignores PYTHONPATH and -S site-packages, so replaycm cannot be found
    done = subprocess.run([sys.executable, "-E", "-S", str(SCRIPT)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("error: replaycm is not importable; run from the repository "
                           "root as PYTHONPATH=src python scripts/bench_kernels.py\n")
    assert list(tmp_path.iterdir()) == []


def test_it_times_every_documented_kernel(tmp_path):
    done = subprocess.run([sys.executable, str(SCRIPT), "--repeats", "2"], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    kernels = json.loads(done.stdout)["kernels"]
    assert sorted(kernels) == sorted(documented_kernels())
    assert {"fft_spectrogram", "sift_member"} <= set(kernels)
    assert all(kernel["median_ms"] > 0 and kernel["repeats"] == 2
               for kernel in kernels.values())
    assert {name for name, kernel in kernels.items() if "peak_mib" in kernel} == {
        "gmm_em_iteration", "tmatrix_em_iteration", "ivec_system", "fft_spectrogram"}
    faulting = {name: kernel["minflt"] for name, kernel in kernels.items() if "minflt" in kernel}
    assert sorted(faulting) == ["gmm_em_iteration", "tmatrix_em_iteration"]
    assert all(isinstance(count, int) and count >= 0 for count in faulting.values())
    assert list(tmp_path.iterdir()) == []
