"""Pipeline configuration: a single JSON file with named feature blocks and
named system blocks, parsed into the owning modules' config dataclasses up
front so bad parameters fail at load time.

Each block's keys are the fields of its dataclass, read by introspection;
the fields of a nested config dataclass are written in the same flat block.
"""

from __future__ import annotations

import functools
import json
import zlib
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .corpus import CorpusConfig


class ConfigError(ValueError):
    """Invalid pipeline configuration."""


def derive_seed(root: int, *tags) -> int:
    """Stable 32-bit seed from a root seed plus string/int tags."""
    entropy = [int(root) & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, int):
            entropy.append(tag & 0xFFFFFFFF)
        else:
            entropy.append(zlib.crc32(str(tag).encode("utf-8")))
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass(frozen=True)
class PathsConfig:
    work_dir: str
    audio_dir: str
    protocol_train: str
    protocol_eval: str

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name):
                raise ConfigError(f"{f.name} must be a non-empty path")


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str
    config: object
    normalise: bool = False


@dataclass(frozen=True)
class GmmSystemSpec:
    name: str
    feature: str
    components: int = 32
    iterations: int = 10
    variance_floor: float | None = None
    phrase_dependent: bool = False

    def __post_init__(self):
        if self.components < 1 or self.iterations < 1:
            raise ConfigError("components and iterations must be >= 1")


@dataclass(frozen=True)
class IvecSystemSpec:
    name: str
    feature: str
    ubm_components: int = 32
    ubm_iterations: int = 10
    tv_rank: int = 20
    tv_iterations: int = 5
    svm_c: float = 1.0
    ubm_shared: bool = True
    t_shared: bool = True
    svm_shared: bool = True

    def __post_init__(self):
        if min(self.ubm_components, self.ubm_iterations,
               self.tv_rank, self.tv_iterations) < 1:
            raise ConfigError("counts must be >= 1")
        if self.svm_c <= 0:
            raise ConfigError("svm_c must be positive")
        if self.t_shared and not self.ubm_shared:
            raise ConfigError("a shared T-matrix requires a shared UBM")
        if self.svm_shared and not self.t_shared:
            raise ConfigError("a shared SVM requires a shared T-matrix")

    @property
    def phrase_dependent(self) -> bool:
        return not (self.ubm_shared and self.t_shared and self.svm_shared)


@dataclass(frozen=True)
class PipelineConfig:
    seed: int
    sample_rate: int
    paths: PathsConfig
    corpus: CorpusConfig
    features: dict[str, FeatureSpec]
    systems: dict[str, object]


_JSON_TYPES = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _checked(value, hint, where: str):
    """Check a JSON value against a field annotation; a list becomes a tuple.

    Nothing else is converted: the repr of a parsed feature config is part
    of the fingerprint stored in every feature container.
    """
    args = get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
    if get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)) and len(value) == len(get_args(hint)):
            return tuple(_checked(v, h, where) for v, h in zip(value, get_args(hint)))
        raise ConfigError(f"{where} must be a list of {len(get_args(hint))} numbers, "
                          f"got {value!r}")
    expected, accepts = _JSON_TYPES[hint]
    if not accepts(value):
        raise ConfigError(f"{where} must be {expected}, got {value!r}")
    return value


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a JSON object, got {type(value).__name__}")
    return value


@functools.cache
def _field_types(cls) -> tuple:
    """(field, resolved annotation) pairs of a config dataclass."""
    hints = get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls))


def _build(cls, block: dict, context: str, unused: set, **given):
    """Construct config dataclass ``cls`` from the flat JSON object ``block``.

    Fields in ``given`` are set by the caller. A field typed as a config
    dataclass is built from the same block, so nested settings are written
    flat. Every key taken from ``block`` is removed from ``unused``.
    """
    for f, hint in _field_types(cls):
        if f.name in given:
            continue
        if is_dataclass(hint):
            given[f.name] = _build(hint, block, context, unused)
        elif f.name in block:
            given[f.name] = _checked(block[f.name], hint, f"{context}: {f.name}")
            unused.discard(f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{context}: missing key {f.name!r}")
    try:
        return cls(**given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _reject_unused(unused: set, context: str) -> None:
    if unused:
        raise ConfigError(f"{context}: unknown key(s) {sorted(unused)}")


def _build_block(cls, block, context: str, tag: str | None = None, **given):
    unused = set(_object(block, context)) - {tag}
    built = _build(cls, block, context, unused, **given)
    _reject_unused(unused, context)
    return built


def _parse_feature(name: str, block, sample_rate: int) -> FeatureSpec:
    context = f"feature {name!r}"
    from .pipeline import FEATURE_KINDS  # pipeline imports this module

    kind = _object(block, context).get("type")
    if kind not in FEATURE_KINDS:
        raise ConfigError(f"{context}: unknown type {kind!r}")
    cls, flag, _, check = FEATURE_KINDS[kind]
    unused = set(block) - {"type", flag}
    spec = FeatureSpec(name, kind, _build(cls, block, context, unused),
                       _checked(block.get(flag, False), bool, f"{context}: {flag}"))
    _reject_unused(unused, context)
    try:  # refuse sizes no trial can meet now, not once per trial in extract
        check(spec.config, sample_rate)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc
    return spec


def _parse_system(name: str, block) -> object:
    context = f"system {name!r}"
    from .pipeline import SYSTEM_KINDS  # pipeline imports this module

    model = _object(block, context).get("model")
    if model not in SYSTEM_KINDS:
        raise ConfigError(f"{context}: unknown model {model!r}")
    return _build_block(SYSTEM_KINDS[model][0], block, context, "model", name=name)


def _reject_duplicate_keys(pairs):
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"duplicate key {key!r} in configuration")
        data[key] = value
    return data


def parse_config(data: dict) -> PipelineConfig:
    hints = {f.name: hint for f, hint in _field_types(PipelineConfig)}
    _reject_unused(set(_object(data, "configuration")) - set(hints), "configuration")
    for section in ("paths", "features", "systems"):
        if section not in data:
            raise ConfigError(f"missing configuration section {section!r}")
    seed = _checked(data.get("seed", 0), hints["seed"], "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    sample_rate = _checked(data.get("sample_rate", 16000), hints["sample_rate"],
                           "sample_rate")
    if sample_rate <= 0:
        raise ConfigError(f"sample_rate must be > 0, got {sample_rate}")
    paths = _build_block(PathsConfig, data["paths"], "paths")
    corpus = _build_block(CorpusConfig, data.get("corpus", {}), "corpus",
                          seed=seed, sample_rate=sample_rate)

    features = {
        name: _parse_feature(name, block, sample_rate)
        for name, block in _object(data["features"], "features").items()
    }
    systems = {}
    for name, block in _object(data["systems"], "systems").items():
        spec = _parse_system(name, block)
        if spec.feature not in features:
            raise ConfigError(
                f"system {name!r} references unknown feature {spec.feature!r}"
            )
        systems[name] = spec
    if not systems:
        raise ConfigError("at least one system must be configured")
    return PipelineConfig(
        seed=seed,
        sample_rate=sample_rate,
        paths=paths,
        corpus=corpus,
        features=features,
        systems=systems,
    )


def load_config(path) -> PipelineConfig:
    try:
        raw = json.loads(
            Path(path).read_text(encoding="utf-8"),
            object_pairs_hook=_reject_duplicate_keys,
        )
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return parse_config(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
