"""The mutation suite reads the benchmark's workloads through the main
suite's ``bench_workloads`` fixture (``tests/conftest.py``)."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "replaycm_tests_conftest", Path(__file__).resolve().parents[1] / "tests" / "conftest.py")
_suite = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_suite)
bench_workloads = _suite.bench_workloads
