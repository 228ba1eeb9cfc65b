import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_kernels.py"


def test_without_replaycm_on_the_path_it_says_how_to_run_it(tmp_path):
    # -E ignores PYTHONPATH and -S site-packages, so replaycm cannot be found
    done = subprocess.run([sys.executable, "-E", "-S", str(SCRIPT)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("error: replaycm is not importable; run from the repository "
                           "root as PYTHONPATH=src python scripts/bench_kernels.py\n")
    assert list(tmp_path.iterdir()) == []
