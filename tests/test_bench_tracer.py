"""The benchmark's traced names stay bound in the package.

``bench/workload_pass.TRACED`` names the functions the benchmark times by
patching them from outside.  A traced function that is renamed or no longer
bound at module level fails here, in the main suite, as well as in the
benchmark.
"""

import sys
from pathlib import Path

import replaycm.cli  # noqa: F401  (imports every module the benchmark traces)

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
