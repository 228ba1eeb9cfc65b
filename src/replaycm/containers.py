"""One binary container for features and models, and the writer of every artifact file.

Layout (integers little-endian): magic "RSCM" | version u8 | kind_len u8 |
kind (ASCII) | meta_len u32 | metadata (UTF-8 JSON object) | n_arrays u32 |
per array: name_len u8 | name (ASCII) | item size u8 (4 = float32,
8 = float64) | ndim u8 | dims u32[ndim] | row-major payload.

A feature is kind "feature" holding one 2-D float32 array "values"; a model
is its kind's float64 arrays with empty metadata.  Every field is required:
a proper prefix of a container, or one with bytes after its last array, is
refused, and so is a NaN or infinite value, on write and on read.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

MAGIC = b"RSCM"
FORMAT_VERSION = 2
FEATURE_KIND = "feature"


class ContainerFormatError(ValueError):
    """Corrupt or unsupported container file."""


def write_artifact(path, chunks) -> None:
    """Write the bytes ``chunks`` to ``path`` all or nothing, through a temp file beside it."""
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:  # named by the target, not the temp file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        if os.path.lexists(tmp):  # the write or the replace failed
            os.remove(tmp)


def _write(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    kind_b = kind.encode("ascii")
    if not 1 <= len(kind_b) <= 255:
        raise ValueError("container kind must be a short ASCII string")
    meta_b = json.dumps(meta, sort_keys=True).encode("utf-8")
    chunks = [MAGIC, struct.pack("<BB", FORMAT_VERSION, len(kind_b)), kind_b,
              struct.pack("<I", len(meta_b)), meta_b, struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        bad = arr.size - np.count_nonzero(np.isfinite(arr))
        if bad:
            raise ValueError(f"{path}: refusing to write array {name!r} with {bad} "
                             "non-finite value(s)")
        name_b = name.encode("ascii")
        chunks += [struct.pack("<B", len(name_b)), name_b,
                   struct.pack(f"<BB{arr.ndim}I", arr.dtype.itemsize, arr.ndim, *arr.shape),
                   arr.tobytes()]
    write_artifact(path, chunks)


def _read(path) -> tuple[str, dict, dict[str, np.ndarray]]:
    """The kind, metadata and arrays of the container at ``path``."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise ContainerFormatError(
                f"{path}: not a replaycm container (magic {magic!r}, expected {MAGIC!r})")
        offset = 4

        def take(n: int) -> bytes:
            nonlocal offset
            # a Python int sum cannot wrap, so a huge size reads as truncated
            chunk = fh.read(n) if offset + n <= size else b""
            if len(chunk) != n:
                raise ContainerFormatError(f"{path}: truncated container")
            offset += n
            return chunk

        def number(fmt: str) -> int:
            return struct.unpack(fmt, take(struct.calcsize(fmt)))[0]

        def ascii_text(n: int) -> str:
            try:
                return take(n).decode("ascii")
            except UnicodeDecodeError as exc:
                raise ContainerFormatError(
                    f"{path}: container kind or array name is not ASCII ({exc})") from exc

        version = number("<B")
        if version != FORMAT_VERSION:
            raise ContainerFormatError(f"{path}: unsupported container version {version}")
        kind = ascii_text(number("<B"))
        if not kind:  # which _write refuses to write
            raise ContainerFormatError(f"{path}: container kind is empty")
        try:
            meta = json.loads(take(number("<I")).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContainerFormatError(f"{path}: metadata is not UTF-8 JSON ({exc})") from exc
        if not isinstance(meta, dict):
            raise ContainerFormatError(
                f"{path}: metadata is a JSON {type(meta).__name__}, not an object")
        arrays = {}
        for _ in range(number("<I")):
            name = ascii_text(number("<B"))
            itemsize, ndim = number("<B"), number("<B")
            if itemsize not in (4, 8):
                raise ContainerFormatError(f"{path}: array {name!r} has item size {itemsize}")
            dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
            payload = take(math.prod(dims) * itemsize)
            try:  # a zero dimension fits any payload, but numpy refuses huge others
                arrays[name] = np.frombuffer(payload, dtype=f"<f{itemsize}").reshape(dims)
            except ValueError as exc:
                raise ContainerFormatError(
                    f"{path}: array {name!r} of shape {dims}: {exc}") from exc
            bad = arrays[name].size - np.count_nonzero(np.isfinite(arrays[name]))
            if bad:
                raise ContainerFormatError(
                    f"{path}: array {name!r} holds {bad} non-finite value(s)")
        if offset != size:
            raise ContainerFormatError(
                f"{path}: {size - offset} byte(s) after the last declared field")
    return kind, meta, arrays


def write_matrix(path, values: np.ndarray, meta: dict) -> None:
    """Write a 2-D matrix as a feature; a non-finite matrix is refused unwritten."""
    values = np.ascontiguousarray(values, dtype="<f4")
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {values.shape}")
    _write(path, FEATURE_KIND, meta, {"values": values})


def read_matrix(path) -> tuple[np.ndarray, dict]:
    """The float64 matrix and metadata of a feature container; any other
    container is refused."""
    kind, meta, arrays = _read(path)
    if kind != FEATURE_KIND or list(arrays) != ["values"] or arrays["values"].ndim != 2:
        raise ContainerFormatError(
            f"{path}: not a feature container (kind {kind!r}, arrays {list(arrays)})")
    return arrays["values"].astype(np.float64), meta


def write_model(path, kind: str, arrays: dict[str, np.ndarray]) -> None:
    _write(path, kind, {}, {name: np.ascontiguousarray(arr, dtype="<f8")
                            for name, arr in arrays.items()})


def read_model(path) -> tuple[str, dict[str, np.ndarray]]:
    """The kind and arrays of a model container; a feature is refused."""
    kind, _, arrays = _read(path)
    if kind == FEATURE_KIND:
        raise ContainerFormatError(f"{path}: a feature container, not a model")
    return kind, arrays


def write_model_text(path, kind: str, arrays: dict[str, np.ndarray]) -> None:
    """Human-readable companion dump of a model container."""
    lines = ["RSMD-TEXT v1", f"kind: {kind}"]  # versioned apart from the binary format
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        lines.append(f"array {name} shape {arr.shape}")
        flat = arr.reshape(-1)
        for start in range(0, flat.size, 8):
            chunk = flat[start : start + 8]
            lines.append("  " + " ".join(f"{v:.17g}" for v in chunk))
    write_artifact(path, [("\n".join(lines) + "\n").encode("utf-8")])
