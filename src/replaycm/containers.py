"""Binary containers for features ("RSFT") and models ("RSMD").

RSFT layout: magic "RSFT" | version u8 | rows u32 LE | cols u32 LE |
rows*cols float32 row-major | meta_len u32 LE | UTF-8 JSON metadata.
The metadata block is optional on read (older dumps may omit it).

RSMD layout: magic "RSMD" | version u8 | kind_len u8 | kind (ASCII) |
n_arrays u32 LE | per array: name_len u8 | name | ndim u32 | dims u32[ndim] |
float64 row-major payload.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"RSFT"
MODEL_MAGIC = b"RSMD"
FORMAT_VERSION = 1


class ContainerFormatError(ValueError):
    """Corrupt or unsupported container file."""


def _refuse_surplus(path, magic: str, surplus: int) -> None:
    """A file longer than its declared fields (two files concatenated, a
    partial overwrite of a longer file) is corrupt, not valid."""
    if surplus:
        raise ContainerFormatError(
            f"{path}: {surplus} byte(s) after the last declared {magic} field")


def write_matrix(path, values: np.ndarray, meta: dict) -> None:
    """Write a 2-D matrix as RSFT; a non-finite matrix is refused unwritten."""
    values = np.ascontiguousarray(values, dtype=np.float32)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {values.shape}")
    bad = values.size - np.count_nonzero(np.isfinite(values))
    if bad:
        raise ValueError(f"{path}: refusing to write a matrix with {bad} non-finite value(s)")
    rows, cols = values.shape
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<BII", FORMAT_VERSION, rows, cols))
        fh.write(values.tobytes())
        fh.write(struct.pack("<I", len(meta_blob)))
        fh.write(meta_blob)


def read_matrix(path) -> tuple[np.ndarray, dict]:
    data = Path(path).read_bytes()
    if len(data) < 13 or data[:4] != FEATURE_MAGIC:
        raise ContainerFormatError(f"{path}: not an RSFT feature container")
    version, rows, cols = struct.unpack_from("<BII", data, 4)
    if version != FORMAT_VERSION:
        raise ContainerFormatError(f"{path}: unsupported RSFT version {version}")
    start = 13
    end = start + rows * cols * 4
    if end > len(data):
        raise ContainerFormatError(f"{path}: truncated RSFT payload")
    values = np.frombuffer(data[start:end], dtype="<f4").reshape(rows, cols)
    meta: dict = {}
    if len(data) > end:  # a file that ends with the payload has no metadata
        if len(data) < end + 4:
            raise ContainerFormatError(f"{path}: truncated RSFT metadata length")
        (meta_len,) = struct.unpack_from("<I", data, end)
        blob = data[end + 4 : end + 4 + meta_len]
        if len(blob) != meta_len:
            raise ContainerFormatError(f"{path}: truncated RSFT metadata")
        meta = json.loads(blob.decode("utf-8"))
        _refuse_surplus(path, "RSFT", len(data) - (end + 4 + meta_len))
    return values.astype(np.float64), meta


def write_model(path, kind: str, arrays: dict[str, np.ndarray]) -> None:
    kind_b = kind.encode("ascii")
    if not 1 <= len(kind_b) <= 255:
        raise ValueError("model kind must be a short ASCII string")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<BB", FORMAT_VERSION, len(kind_b)))
        fh.write(kind_b)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            name_b = name.encode("ascii")
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            fh.write(struct.pack("<B", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def read_model(path) -> tuple[str, dict[str, np.ndarray]]:
    data = Path(path).read_bytes()
    if len(data) < 6 or data[:4] != MODEL_MAGIC:
        raise ContainerFormatError(f"{path}: not an RSMD model container")
    version, kind_len = struct.unpack_from("<BB", data, 4)
    if version != FORMAT_VERSION:
        raise ContainerFormatError(f"{path}: unsupported RSMD version {version}")
    offset = 6 + kind_len
    arrays: dict[str, np.ndarray] = {}
    try:
        # unpacking past the end of the data raises, so a cut kind or name
        # surfaces at the count that follows it
        (n_arrays,) = struct.unpack_from("<I", data, offset)
        kind = data[6:offset].decode("ascii")
        offset += 4
        for _ in range(n_arrays):
            (name_len,) = struct.unpack_from("<B", data, offset)
            offset += 1
            name = data[offset : offset + name_len].decode("ascii")
            offset += name_len
            (ndim,) = struct.unpack_from("<I", data, offset)
            offset += 4
            dims = struct.unpack_from(f"<{ndim}I", data, offset)
            offset += 4 * ndim
            count = int(np.prod(dims)) if ndim else 1
            end = offset + count * 8
            if end > len(data):
                raise ContainerFormatError(f"{path}: truncated RSMD payload")
            arrays[name] = np.frombuffer(data[offset:end], dtype="<f8").reshape(dims)
            offset = end
    except struct.error as exc:
        raise ContainerFormatError(f"{path}: truncated RSMD header") from exc
    _refuse_surplus(path, "RSMD", len(data) - offset)
    return kind, arrays


def write_model_text(path, kind: str, arrays: dict[str, np.ndarray]) -> None:
    """Human-readable companion dump of an RSMD container."""
    lines = [f"RSMD-TEXT v{FORMAT_VERSION}", f"kind: {kind}"]
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        lines.append(f"array {name} shape {arr.shape}")
        flat = arr.reshape(-1)
        for start in range(0, flat.size, 8):
            chunk = flat[start : start + 8]
            lines.append("  " + " ".join(f"{v:.17g}" for v in chunk))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
