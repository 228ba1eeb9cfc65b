"""The README's "Library use" example runs against the current API, and its
configuration table lists exactly the keys the loader accepts."""

import re
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

from replaycm.config import PathsConfig
from replaycm.corpus import CorpusConfig
from replaycm.pipeline import FEATURE_KINDS, SYSTEM_KINDS

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


def configuration_table() -> dict:
    """{(block, type or model tag): keys} of the README's configuration table.
    A row with no block continues the one above; a parenthesised remark in the
    keys column names no key."""
    section = README.read_text(encoding="utf-8").split("\n### Configuration\n", 1)[1]
    lines = section.split("\n|", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    table, block = {}, None
    for line in lines:
        block_cell, tag_cell, _, keys_cell = (c.strip() for c in line.strip("|").split("|"))
        block = block_cell.strip("`").split(".")[0] or block
        tag = re.search(r'"(?:type|model)": "([^"]+)"', tag_cell)
        keys = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", keys_cell))
        table[block, tag and tag.group(1)] = sorted(keys)
    return table


def flat_keys(cls) -> set:
    """The JSON keys of config dataclass ``cls``: the fields of a nested
    config dataclass are written in the same flat block."""
    hints = get_type_hints(cls)
    keys = set()
    for f in fields(cls):
        keys |= flat_keys(hints[f.name]) if is_dataclass(hints[f.name]) else {f.name}
    return keys


def test_configuration_table_lists_the_keys_the_loader_accepts():
    expected = {
        ("paths", None): flat_keys(PathsConfig),
        # the corpus block takes the seed and sample rate from the top level
        ("corpus", None): flat_keys(CorpusConfig) - {"seed", "sample_rate"},
    }
    for kind, (config_type, flag, _, _) in FEATURE_KINDS.items():
        expected["features", kind] = flat_keys(config_type) | {flag}
    for model, (spec_type, _, _) in SYSTEM_KINDS.items():
        expected["systems", model] = flat_keys(spec_type) - {"name"}
    assert configuration_table() == {key: sorted(keys) for key, keys in expected.items()}
