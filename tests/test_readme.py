"""The README's "Library use" example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README 'Library use' has no python block"
    return match.group(1)


def test_library_use_example_runs():
    namespace: dict = {}
    exec(compile(library_use_block(), "README.md:Library use", "exec"), namespace)
    feats, model = namespace["feats"], namespace["model"]
    assert feats.shape[0] == 20
    assert model.means.shape == (8, 20)
