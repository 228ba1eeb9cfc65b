import json

import numpy as np
import pytest

from replaycm.audio_io import Waveform
from replaycm.cepstral import CqccConfig, LpccConfig
from replaycm.config import (
    ConfigError,
    FeatureSpec,
    GmmSystemSpec,
    IvecSystemSpec,
    PathsConfig,
    PipelineConfig,
    derive_seed,
    load_config,
    parse_config,
)
from replaycm.corpus import CorpusConfig
from replaycm.eemd import DeemdParams, SiftConfig
from replaycm.pipeline import FEATURE_KINDS
from replaycm.spectral import CqtConfig, DwtConfig, FftConfig, FramingConfig


def minimal_config(**overrides):
    data = {
        "seed": 1,
        "sample_rate": 16000,
        "paths": {
            "work_dir": "w", "audio_dir": "w/wav",
            "protocol_train": "w/train.txt", "protocol_eval": "w/eval.txt",
        },
        "features": {"f": {"type": "lpcc", "lpc_order": 10, "n_coeffs": 12}},
        "systems": {"s": {"model": "gmm", "feature": "f", "components": 2}},
    }
    data.update(overrides)
    return data


def test_parse_minimal_config():
    cfg = parse_config(minimal_config())
    assert cfg.seed == 1
    assert isinstance(cfg.features["f"].config, LpccConfig)
    assert cfg.systems["s"].components == 2


def test_all_feature_kinds_parse():
    features = {
        "a": {"type": "cqcc", "f_min": 100.0, "n_bins": 48, "n_coeffs": 10},
        "b": {"type": "lpcc"},
        "c": {"type": "fft", "window_seconds": 0.064, "n_fft": 1024, "mvn": True},
        "d": {"type": "cqt", "f_min": 200.0, "n_bins": 24},
        "e": {"type": "dwt", "frame_len": 64, "levels": 3},
        "g": {"type": "deemd", "ensemble_size": 5},
    }
    cfg = parse_config(minimal_config(features={**features}, systems={
        "s": {"model": "gmm", "feature": "b"}}))
    assert isinstance(cfg.features["a"].config, CqccConfig)
    assert isinstance(cfg.features["c"].config, FftConfig)
    assert isinstance(cfg.features["d"].config, CqtConfig)
    assert isinstance(cfg.features["e"].config, DwtConfig)
    assert isinstance(cfg.features["g"].config, DeemdParams)
    assert cfg.features["c"].normalise
    assert not cfg.features["b"].normalise


def test_unknown_feature_key_rejected():
    data = minimal_config()
    data["features"]["f"]["lpc_orderr"] = 5
    with pytest.raises(ConfigError, match="lpc_orderr"):
        parse_config(data)


def test_unknown_feature_type_rejected():
    data = minimal_config()
    data["features"]["f"]["type"] = "mfcc"
    with pytest.raises(ConfigError, match="mfcc"):
        parse_config(data)


def test_system_must_reference_known_feature():
    data = minimal_config()
    data["systems"]["s"]["feature"] = "missing"
    with pytest.raises(ConfigError, match="missing"):
        parse_config(data)


def test_shared_t_requires_shared_ubm():
    data = minimal_config()
    data["systems"]["s"] = {
        "model": "ivec-svm", "feature": "f",
        "ubm_shared": False, "t_shared": True, "svm_shared": False,
    }
    with pytest.raises(ConfigError, match="shared UBM"):
        parse_config(data)


def test_shared_svm_requires_shared_t():
    data = minimal_config()
    data["systems"]["s"] = {
        "model": "ivec-svm", "feature": "f",
        "ubm_shared": True, "t_shared": False, "svm_shared": True,
    }
    with pytest.raises(ConfigError, match="shared T-matrix"):
        parse_config(data)


def test_phrase_dependent_flag_derived():
    data = minimal_config()
    data["systems"]["s"] = {
        "model": "ivec-svm", "feature": "f",
        "ubm_shared": True, "t_shared": True, "svm_shared": False,
    }
    cfg = parse_config(data)
    assert cfg.systems["s"].phrase_dependent


def test_missing_section_rejected():
    data = minimal_config()
    del data["systems"]
    with pytest.raises(ConfigError, match="systems"):
        parse_config(data)


def test_empty_path_rejected():
    data = minimal_config()
    data["paths"]["work_dir"] = ""
    with pytest.raises(ConfigError, match="work_dir"):
        parse_config(data)


def test_duplicate_json_keys_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": 1, "seed": 2}')
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path)


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


def test_derive_seed_stable_and_distinct():
    a = derive_seed(7, "train", "sys", "genuine")
    b = derive_seed(7, "train", "sys", "genuine")
    c = derive_seed(7, "train", "sys", "spoof")
    assert a == b
    assert a != c
    assert 0 <= a < 2**32


def test_the_desk_preset_parses(bench_workloads):
    cfg = parse_config(bench_workloads.Workload.load("desk").full_config("work"))
    assert set(cfg.systems) == {"cqcc-gmm", "lpcc-ivec"}
    assert cfg.corpus.n_train_genuine == 100
    assert cfg.corpus.n_eval_genuine == 50


def test_the_desk_preset_builds_the_expected_tree(bench_workloads):
    cfg = parse_config(bench_workloads.Workload.load("desk", seed=5).full_config("work"))
    assert cfg == PipelineConfig(
        seed=5,
        sample_rate=16000,
        paths=PathsConfig(
            work_dir="work", audio_dir="work/corpus/wav",
            protocol_train="work/corpus/protocol_train.txt",
            protocol_eval="work/corpus/protocol_eval.txt",
        ),
        corpus=CorpusConfig(
            n_train_genuine=100, n_train_spoof=100, n_eval_genuine=50,
            n_eval_spoof=50, n_speakers=10, n_phrases=4, duration_seconds=1.2,
            sample_rate=16000, seed=5,
        ),
        features={
            "cqcc20": FeatureSpec("cqcc20", "cqcc", CqccConfig(
                cqt=CqtConfig(f_min=62.5, bins_per_octave=12, n_bins=84, hop_length=256),
                resample_bins=96, n_coeffs=20,
            )),
            "lpcc78": FeatureSpec("lpcc78", "lpcc", LpccConfig(
                framing=FramingConfig(window_seconds=0.128, hop_seconds=0.016),
                lpc_order=26, n_coeffs=78,
            )),
        },
        systems={
            "cqcc-gmm": GmmSystemSpec("cqcc-gmm", "cqcc20", components=32, iterations=10),
            "lpcc-ivec": IvecSystemSpec(
                "lpcc-ivec", "lpcc78", ubm_components=4, ubm_iterations=10,
                tv_rank=20, tv_iterations=5, svm_c=1.0,
            ),
        },
    )


EVERY_KEY = {
    "seed": 7,
    "sample_rate": 16000,
    "paths": {"work_dir": "w", "audio_dir": "w/a",
              "protocol_train": "w/t", "protocol_eval": "w/e"},
    "corpus": {
        "n_train_genuine": 3, "n_train_spoof": 4, "n_eval_genuine": 5,
        "n_eval_spoof": 6, "n_speakers": 2, "n_phrases": 3,
        "duration_seconds": 0.7,
        "cutoff_hz_range": [3000, 4000.5], "snr_db_range": [10.0, 20.0],
        "gain_range": [0.4, 0.8], "max_reflections": 3,
    },
    "features": {
        "a": {"type": "cqcc", "f_min": 100, "bins_per_octave": 24, "n_bins": 48,
              "hop_length": 128, "resample_bins": 64, "n_coeffs": 19, "cmvn": True},
        "b": {"type": "lpcc", "window_seconds": 0.032, "hop_seconds": 0.01,
              "window": "rectangular", "lpc_order": 12, "n_coeffs": 15, "cmvn": False},
        "c": {"type": "fft", "window_seconds": 0.064, "hop_seconds": 0.02,
              "window": "hann", "n_fft": 1024, "target_bins": 100, "mvn": True},
        "d": {"type": "cqt", "f_min": 200.0, "bins_per_octave": 12, "n_bins": 24,
              "hop_length": 512, "mvn": False},
        "e": {"type": "dwt", "frame_len": 128, "hop_length": 64, "levels": 3, "mvn": True},
        "g": {"type": "deemd", "window_seconds": 0.05, "hop_seconds": 0.025,
              "window": "rectangular", "n_fft": 4096, "target_bins": None,
              "ensemble_size": 3, "noise_strength_factor": 0.2,
              "max_sift_iters": 4, "sd_threshold": 0.3, "mvn": True},
    },
    "systems": {
        "s1": {"model": "gmm", "feature": "a", "components": 3, "iterations": 2,
               "variance_floor": 0.001, "phrase_dependent": True},
        "s2": {"model": "ivec-svm", "feature": "b", "ubm_components": 5,
               "ubm_iterations": 6, "tv_rank": 7, "tv_iterations": 8, "svm_c": 0.5,
               "ubm_shared": False, "t_shared": False, "svm_shared": False},
    },
}


def test_every_key_of_every_kind_builds_the_expected_tree():
    cfg = parse_config(json.loads(json.dumps(EVERY_KEY)))
    assert cfg == PipelineConfig(
        seed=7,
        sample_rate=16000,
        paths=PathsConfig(work_dir="w", audio_dir="w/a",
                          protocol_train="w/t", protocol_eval="w/e"),
        corpus=CorpusConfig(
            n_train_genuine=3, n_train_spoof=4, n_eval_genuine=5, n_eval_spoof=6,
            n_speakers=2, n_phrases=3, duration_seconds=0.7, sample_rate=16000,
            cutoff_hz_range=(3000, 4000.5), snr_db_range=(10.0, 20.0),
            gain_range=(0.4, 0.8), max_reflections=3, seed=7,
        ),
        features={
            "a": FeatureSpec("a", "cqcc", CqccConfig(
                cqt=CqtConfig(f_min=100, bins_per_octave=24, n_bins=48,
                              hop_length=128),
                resample_bins=64, n_coeffs=19,
            ), normalise=True),
            "b": FeatureSpec("b", "lpcc", LpccConfig(
                framing=FramingConfig(window_seconds=0.032, hop_seconds=0.01,
                                      window="rectangular"),
                lpc_order=12, n_coeffs=15,
            )),
            "c": FeatureSpec("c", "fft", FftConfig(
                framing=FramingConfig(window_seconds=0.064, hop_seconds=0.02),
                n_fft=1024, target_bins=100,
            ), normalise=True),
            "d": FeatureSpec("d", "cqt", CqtConfig(
                f_min=200.0, bins_per_octave=12, n_bins=24, hop_length=512,
            )),
            "e": FeatureSpec("e", "dwt", DwtConfig(
                frame_len=128, hop_length=64, levels=3,
            ), normalise=True),
            "g": FeatureSpec("g", "deemd", DeemdParams(
                fft=FftConfig(
                    framing=FramingConfig(window_seconds=0.05, hop_seconds=0.025,
                                          window="rectangular"),
                    n_fft=4096, target_bins=None,
                ),
                ensemble_size=3, noise_strength_factor=0.2,
                sift=SiftConfig(max_sift_iters=4, sd_threshold=0.3),
            ), normalise=True),
        },
        systems={
            "s1": GmmSystemSpec("s1", "a", components=3, iterations=2,
                                variance_floor=0.001, phrase_dependent=True),
            "s2": IvecSystemSpec("s2", "b", ubm_components=5, ubm_iterations=6,
                                 tv_rank=7, tv_iterations=8, svm_c=0.5,
                                 ubm_shared=False, t_shared=False, svm_shared=False),
        },
    )
    # values are not converted, so the fingerprint keeps the JSON spelling
    assert repr(cfg.features["a"].config.cqt.f_min) == "100"
    assert cfg.corpus.cutoff_hz_range == (3000, 4000.5)


def with_key(section, name, key, value):
    data = json.loads(json.dumps(EVERY_KEY))
    data[section][name][key] = value
    return data


@pytest.mark.parametrize("section, name, key, value, message", [
    ("features", "a", "cmvn", "false", "cmvn must be true or false"),
    ("systems", "s1", "phrase_dependent", "no", "phrase_dependent must be true or false"),
    ("systems", "s2", "ubm_shared", 0, "ubm_shared must be true or false"),
    ("features", "a", "n_bins", 48.0, "n_bins must be an integer"),
    ("systems", "s1", "components", True, "components must be an integer"),
    ("features", "a", "f_min", "100", "f_min must be a number"),
    ("systems", "s2", "svm_c", False, "svm_c must be a number"),
    ("features", "b", "window", 1, "window must be a string"),
    ("systems", "s1", "feature", ["a"], "feature must be a string"),
    ("corpus", None, "gain_range", [0.4, 0.8, 0.9], "gain_range must be a list of 2"),
    ("corpus", None, "snr_db_range", "10-20", "snr_db_range must be a list of 2"),
    ("corpus", None, "cutoff_hz_range", [3000, "4000"], "cutoff_hz_range must be a number"),
    ("features", "c", "n_fft", None, "n_fft must be an integer, got None"),
    ("features", "g", "sd_threshold", None, "sd_threshold must be a number, got None"),
])
def test_value_of_the_wrong_json_type_rejected(section, name, key, value, message):
    data = json.loads(json.dumps(EVERY_KEY))
    (data[section][name] if name else data[section])[key] = value
    context = {"features": "feature", "systems": "system"}.get(section, section)
    with pytest.raises(ConfigError, match=context) as info:
        parse_config(data)
    assert message in str(info.value)


def test_null_accepted_where_the_annotation_allows_none():
    cfg = parse_config(with_key("systems", "s1", "variance_floor", None))
    assert cfg.systems["s1"].variance_floor is None


def test_top_level_values_type_checked():
    with pytest.raises(ConfigError, match="seed must be an integer"):
        parse_config(minimal_config(seed="4"))
    with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
        parse_config(minimal_config(seed=-1))
    with pytest.raises(ConfigError, match="sample_rate must be an integer"):
        parse_config(minimal_config(sample_rate=16000.0))


@pytest.mark.parametrize("rate", [0, -16000])
def test_a_non_positive_sample_rate_is_refused_by_its_key(rate):
    with pytest.raises(ConfigError, match=rf"^sample_rate must be > 0, got {rate}$"):
        parse_config(minimal_config(sample_rate=rate))


@pytest.mark.parametrize("name, key", [
    ("c", "cmvn"), ("d", "cmvn"), ("e", "cmvn"), ("g", "cmvn"),
    ("a", "mvn"), ("b", "mvn"),
])
def test_normalisation_the_feature_ignores_rejected(name, key):
    with pytest.raises(ConfigError, match=f"feature '{name}': unknown key.*'{key}'"):
        parse_config(with_key("features", name, key, True))


@pytest.mark.parametrize("section, name, key", [
    ("features", "a", "model"),
    ("features", "a", "feature"),
    ("features", "a", "name"),
    ("systems", "s1", "cmvn"),
    ("systems", "s1", "mvn"),
    ("systems", "s1", "type"),
    ("systems", "s2", "phrase_dependent"),
    ("paths", None, "work_dirr"),
    ("corpus", None, "n_speaker"),
    ("corpus", None, "seed"),
    ("corpus", None, "sample_rate"),
])
def test_key_of_another_block_rejected_naming_the_block(section, name, key):
    data = json.loads(json.dumps(EVERY_KEY))
    (data[section][name] if name else data[section])[key] = True
    context = {"features": f"feature '{name}'", "systems": f"system '{name}'"}
    with pytest.raises(ConfigError,
                       match=f"{context.get(section, section)}: unknown key.*{key}"):
        parse_config(data)


@pytest.mark.parametrize("name", ["a", "c", "d", "e", "g"])
def test_a_power_floor_key_is_rejected_naming_the_block(name):
    # every front-end floors its power at spectral.POWER_FLOOR
    with pytest.raises(ConfigError, match=f"feature '{name}': unknown key.*'floor'"):
        parse_config(with_key("features", name, "floor", 1e-10))


def test_unknown_type_or_model_rejected_naming_the_block():
    with pytest.raises(ConfigError, match="feature 'a': unknown type 'mfcc'"):
        parse_config(with_key("features", "a", "type", "mfcc"))
    with pytest.raises(ConfigError, match="system 's1': unknown model 'svm'"):
        parse_config(with_key("systems", "s1", "model", "svm"))


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="sed"):
        parse_config(minimal_config(sed=4))


@pytest.mark.parametrize("section, name, value", [
    ("features", None, []),
    ("systems", None, "s"),
    ("paths", None, ["w"]),
    ("corpus", None, 3),
    ("features", "a", ["cqcc"]),
    ("systems", "s1", None),
])
def test_non_object_block_rejected(section, name, value):
    data = json.loads(json.dumps(EVERY_KEY))
    if name:
        data[section][name] = value
    else:
        data[section] = value
    with pytest.raises(ConfigError, match="must be a JSON object"):
        parse_config(data)


def test_non_object_configuration_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="configuration must be a JSON object"):
        load_config(path)


def test_dataclass_errors_name_the_block():
    with pytest.raises(ConfigError, match="feature 'c': n_fft must be a power of two"):
        parse_config(with_key("features", "c", "n_fft", 1000))
    with pytest.raises(ConfigError, match="system 's1': components and iterations"):
        parse_config(with_key("systems", "s1", "components", 0))
    with pytest.raises(ConfigError, match="paths: missing key 'audio_dir'"):
        parse_config(minimal_config(paths={
            "work_dir": "w", "protocol_train": "t", "protocol_eval": "e"}))
    with pytest.raises(ConfigError, match="system 's': missing key 'feature'"):
        parse_config(minimal_config(systems={"s": {"model": "gmm"}}))


NYQUIST = {"f_min": 500.0, "bins_per_octave": 12, "n_bins": 60}


@pytest.mark.parametrize("block, message", [
    ({"type": "lpcc", "window_seconds": 0.002, "lpc_order": 40},
     "lpc_order (40) must be smaller than the frame length (32)"),
    ({"type": "fft", "n_fft": 1024}, "n_fft (1024) must be >= frame length (2048)"),
    ({"type": "deemd", "n_fft": 1024}, "n_fft (1024) must be >= frame length (2048)"),
    ({"type": "cqt"}, "CQT kernel matrices would take 413.2 MiB, over the 64 MiB budget; "
     "the longest kernel is 141312 samples (8.83 s); raise f_min or lower bins_per_octave"),
    ({"type": "cqcc"}, "CQT kernel matrices would take 413.2 MiB, over the 64 MiB budget; "
     "the longest kernel is 141312 samples (8.83 s); raise f_min or lower bins_per_octave"),
    ({"type": "cqt", **NYQUIST},
     "CQT bin 48 center frequency 8000.00 Hz reaches the Nyquist frequency 8000.00 Hz"),
    ({"type": "cqcc", **NYQUIST, "resample_bins": 24, "n_coeffs": 12},
     "CQT bin 48 center frequency 8000.00 Hz reaches the Nyquist frequency 8000.00 Hz"),
], ids=["lpcc", "fft", "deemd", "cqt-budget", "cqcc-budget", "cqt-nyquist", "cqcc-nyquist"])
def test_the_loader_and_the_front_end_refuse_a_size_with_one_text(
        tmp_path, monkeypatch, block, message):
    # each refusal is written once, in the front-end's module: load_config
    # reports the text that the front-end, run on a 1.2 s wave at the same
    # rate with the load-time check switched off, raises
    kind = block["type"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(features={"k": block}, systems={
        "s": {"model": "gmm", "feature": "k"}})))
    with pytest.raises(ConfigError) as refused:
        load_config(path)
    assert str(refused.value) == f"{path}: feature 'k': {message}"
    _, _, front_end, _ = FEATURE_KINDS[kind]
    monkeypatch.setitem(FEATURE_KINDS, kind, FEATURE_KINDS[kind][:3] + (lambda cfg, rate: None,))
    cfg = load_config(path)
    wave = Waveform(np.random.default_rng(0).uniform(-0.5, 0.5, 19200), cfg.sample_rate)
    with pytest.raises(ValueError) as direct:
        front_end(wave, cfg.features["k"].config, 0)
    assert str(direct.value) == message


def test_every_feature_kind_is_checked_at_its_sample_rate_when_the_config_loads(
        monkeypatch):
    checked = []
    for kind, (cls, flag, front_end, _) in list(FEATURE_KINDS.items()):
        monkeypatch.setitem(FEATURE_KINDS, kind, (
            cls, flag, front_end, lambda cfg, rate: checked.append((type(cfg), rate))))
    data = minimal_config(sample_rate=22050,
                          features={kind: {"type": kind} for kind in FEATURE_KINDS})
    data["systems"]["s"]["feature"] = "lpcc"
    parse_config(data)
    assert sorted(checked, key=str) == sorted(
        ((cls, 22050) for cls, *_ in FEATURE_KINDS.values()), key=str)
