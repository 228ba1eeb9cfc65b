"""Artifact files: every writer replaces its file whole or leaves it as it
was, and every reader returns what it can trust or refuses the file by name.

The mutation fuzz tests are seeded loops, so a failure repeats; together they
stay well under a second.
"""

import ast
import os
import random
import re
import stat
import struct
from pathlib import Path

import numpy as np
import pytest

import replaycm
from replaycm import containers
from replaycm.audio_io import Waveform, write_wav
from replaycm.corpus import (
    LABELS,
    CorpusConfig,
    ProtocolError,
    Trial,
    generate_synth_corpus,
    parse_protocol,
    write_protocol,
)
from replaycm.metrics import ScoreFileError, ScoreSet, read_scores, write_scores

SRC = Path(replaycm.__file__).parent


def file_writes(path: Path):
    """(function, line, call) for each call in the module at ``path`` that
    opens a file to write: ``write_text``, ``write_bytes``, ``os.open`` and
    any ``open`` whose mode is not a constant of only 'r', 'b' and 't'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = {}
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                owner.setdefault(node, function.name)  # the outermost function
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("open", "fdopen"):
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
                modes = [None]  # os.open takes flags, not a mode
            else:  # builtin open(file, mode) or Path.open(mode)
                position = 1 if isinstance(func, ast.Name) else 0
                modes = node.args[position:position + 1] + [
                    k.value for k in node.keywords if k.arg == "mode"]
            if all(isinstance(m, ast.Constant) and isinstance(m.value, str)
                   and set(m.value) <= set("rbt") for m in modes):
                continue
        elif name not in ("write_text", "write_bytes"):
            continue
        yield owner.get(node), node.lineno, name


def test_only_write_artifact_opens_a_file_to_write():
    writes = {(module.name, function, call)
              for module in sorted(SRC.glob("*.py"))
              for function, _, call in file_writes(module)}
    assert writes == {("containers.py", "write_artifact", "open")}


def test_the_write_scan_sees_each_way_to_write(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(p, mode):\n"
        "    open(p).read(); open(p, 'rb'); p.open(); p.open(mode='r')\n"
        "    open(p, 'w'); open(p, mode='ab'); p.open('r+'); open(p, mode)\n"
        "    os.open(p, 0); p.write_text(''); p.write_bytes(b'')\n")
    assert [(line, call) for _, line, call in file_writes(module)] == [
        (3, "open"), (3, "open"), (3, "open"), (3, "open"),
        (4, "open"), (4, "write_text"), (4, "write_bytes")]


def _manifest(path: Path) -> None:
    generate_synth_corpus(CorpusConfig(
        n_train_genuine=1, n_train_spoof=0, n_eval_genuine=0, n_eval_spoof=0,
        n_speakers=1, n_phrases=1, duration_seconds=0.05, seed=1), path.parent)


# one call of each of the six writers, each writing the file it is given
WRITERS = {
    "wav": lambda path: write_wav(path, Waveform(np.linspace(-0.5, 0.5, 64), 16000)),
    "container": lambda path: containers.write_matrix(path, np.ones((3, 4)), {"name": "f"}),
    "model-text": lambda path: containers.write_model_text(
        path, "mean", {"mean": np.arange(3.0)}),
    "protocol": lambda path: write_protocol([Trial("t1", "genuine", "S1", "P1")], path),
    "manifest": _manifest,
    "scores": lambda path: write_scores(ScoreSet(("t1", "t2"), np.array([0.5, -1.0])), path),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_an_interrupted_write_leaves_the_earlier_file(tmp_path, monkeypatch, writer):
    target = tmp_path / "corpus" / "manifest.json"  # where _manifest's corpus puts it
    target.parent.mkdir()
    earlier = b"an earlier artifact\n"
    target.write_bytes(earlier)
    real = containers.write_artifact

    def interrupted(path, chunks):
        if Path(path) != target:
            return real(path, chunks)

        def cut():
            data = b"".join(chunks)
            yield data[: len(data) // 2]
            raise KeyboardInterrupt

        return real(path, cut())

    monkeypatch.setattr(containers, "write_artifact", interrupted)
    with pytest.raises(KeyboardInterrupt):
        WRITERS[writer](target)
    assert target.read_bytes() == earlier
    assert not list(tmp_path.rglob("*.tmp"))

    monkeypatch.setattr(containers, "write_artifact", real)
    WRITERS[writer](target)
    assert target.read_bytes() != earlier
    assert not list(tmp_path.rglob("*.tmp"))


def test_a_written_artifact_has_the_umask_mode(tmp_path):
    umask = os.umask(0o027)
    try:
        containers.write_artifact(tmp_path / "a", [b"x"])
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "a").stat().st_mode) == 0o640


def test_a_write_into_a_missing_directory_leaves_nothing(tmp_path):
    with pytest.raises(FileNotFoundError):
        containers.write_artifact(tmp_path / "absent" / "a", [b"x"])
    assert list(tmp_path.iterdir()) == []


# ---- mutation fuzzing of the readers ---------------------------------------

N_MUTANTS = 150
TEXT_BYTES = b" \t\n\r\x0b0123456789.-+eEinfatuglosp/\xff\xc3"
# float32 and float64 infinities and NaNs, little-endian
NON_FINITE = [b"\x00\x00\x80\x7f", b"\x00\x00\xc0\xff", b"\x00" * 6 + b"\xf0\xff",
              b"\x00" * 6 + b"\xf8\x7f"]


def mutate(data: bytes, rng: random.Random) -> bytes:
    """``data`` with one to three random byte-level edits."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        # half the new bytes come from the text records' own alphabet
        new = (rng.choice(TEXT_BYTES) if rng.random() < 0.5 else rng.randrange(256))
        edit = rng.choice(["set", "flip", "insert", "delete", "truncate", "append", "repeat",
                           "non-finite"])
        if edit == "non-finite":  # over one of the last values: a container's payload
            pattern = rng.choice(NON_FINITE)
            at = max(len(data) - len(pattern) * rng.randint(1, 4), 0)
            data[at:at + len(pattern)] = pattern
        elif edit == "set" and at < len(data):
            data[at] = new
        elif edit == "flip" and at < len(data):
            data[at] ^= 1 << rng.randrange(8)
        elif edit == "insert":
            data[at:at] = bytes([new])
        elif edit == "delete":
            del data[at:at + 1]
        elif edit == "truncate":
            del data[at:]
        elif edit == "append":
            data += bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
        elif edit == "repeat":
            data[at:at] = data[at:at + rng.randint(1, 16)]
    return bytes(data)


def check_feature(result):
    values, meta = result
    assert values.ndim == 2 and np.isfinite(values).all() and isinstance(meta, dict)
    return result


def check_model(result):
    kind, arrays = result
    assert kind != containers.FEATURE_KIND
    assert all(np.isfinite(arr).all() for arr in arrays.values())
    return result


def check_protocol(trials):
    ids = [t.trial_id for t in trials]
    assert len(set(ids)) == len(ids)
    assert all(t.label in LABELS and "/" not in t.trial_id + t.phrase_id for t in trials)
    return trials


def check_scores(score_set):
    assert len(set(score_set.trial_ids)) == len(score_set.trial_ids)
    assert np.isfinite(score_set.scores).all()
    return score_set


def equal(a, b) -> bool:
    if isinstance(a, ScoreSet):
        return a.trial_ids == b.trial_ids and np.array_equal(a.scores, b.scores)
    if isinstance(a, tuple) and isinstance(a[0], str):  # a model: (kind, arrays)
        return a[0] == b[0] and a[1].keys() == b[1].keys() and all(
            np.array_equal(a[1][k], b[1][k]) for k in a[1])
    if isinstance(a, tuple):  # a feature: (values, meta)
        return np.array_equal(a[0], b[0]) and a[1] == b[1]
    return a == b


# reader: (write the original, read, refusal type, check what it returns,
#          write back what it returned, or None where no writer takes it whole)
READERS = {
    "feature": (
        lambda path: containers.write_matrix(
            path, np.arange(12.0).reshape(3, 4) / 7, {"name": "f", "fingerprint": "abc"}),
        containers.read_matrix, containers.ContainerFormatError, check_feature,
        lambda path, result: containers.write_matrix(path, *result)),
    "model": (
        lambda path: containers.write_model(
            path, "gmm", {"weights": np.array([0.25, 0.75]), "means": np.ones((2, 3)),
                          "variances": np.full((2, 3), 0.5)}),
        containers.read_model, containers.ContainerFormatError, check_model, None),
    "protocol": (
        lambda path: write_protocol([
            Trial("T_0001", "genuine", "S01", "P01"),
            Trial("T_0002", "spoof", "S02", "P01", "env1", "dev2", "mic3"),
            Trial("T_0003", "unknown", "S01", "P02")], path),
        parse_protocol, ProtocolError, check_protocol,
        lambda path, trials: write_protocol(trials, path)),
    "scores": (
        lambda path: write_scores(ScoreSet(("T_0001", "T_0002", "T_0003"),
                                           np.array([1.5, -0.25, 3e-7])), path),
        read_scores, ScoreFileError, check_scores,
        lambda path, score_set: write_scores(score_set, path)),
}


def test_an_empty_array_of_huge_dimensions_is_refused_by_name(tmp_path):
    path = tmp_path / "huge.rsmd"
    path.write_bytes(containers.MAGIC + struct.pack("<BB4sI2sIB4sBB4I", 2, 4, b"mean", 2, b"{}",
                                                    1, 4, b"mean", 8, 4, 0, *[2**32 - 1] * 3))
    with pytest.raises(containers.ContainerFormatError,
                       match=rf"^{re.escape(str(path))}: array 'mean' of shape \(0, "):
        containers.read_model(path)


@pytest.mark.parametrize("reader", READERS)
def test_a_mutated_file_is_read_whole_or_refused_by_name(tmp_path, reader):
    """A mutant either reads to values that pass the reader's own checks (the
    original's, if the mutation kept them; values that the writer writes
    back and the reader reads again the same) or is refused with the
    module's error type naming the file.  No other exception escapes."""
    write, read, error, check, write_back = READERS[reader]
    original_path = tmp_path / "original"
    write(original_path)
    original_bytes = original_path.read_bytes()
    original = read(original_path)
    rng = random.Random(f"mutants of a {reader} file")
    path, again = tmp_path / f"mutant.{reader}", tmp_path / f"again.{reader}"
    outcomes = {"same": 0, "other": 0, "refused": 0}
    for _ in range(N_MUTANTS):
        data = mutate(original_bytes, rng)
        path.write_bytes(data)
        try:
            result = check(read(path))
        except error as exc:
            assert str(path) in str(exc), (data, exc)
            outcomes["refused"] += 1
            continue
        if equal(result, original):
            outcomes["same"] += 1
            continue
        assert data != original_bytes
        outcomes["other"] += 1
        if write_back is not None:
            write_back(again, result)
            assert equal(read(again), result), data
    assert outcomes["refused"] > 0 and outcomes["same"] + outcomes["other"] > 0, outcomes
