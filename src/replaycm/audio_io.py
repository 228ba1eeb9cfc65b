"""WAV file input/output.

The toolkit's canonical audio format is 16 kHz / 16-bit / mono PCM; readers
accept any rate reported by the header and pipelines enforce the configured
rate at extraction time.  Only the ``fmt `` and ``data`` chunks are
interpreted; other chunks are skipped.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PCM_FULL_SCALE = 32768  # int16 <-> float scaling divisor
_PCM_FORMAT_TAG = 1


class WavFormatError(ValueError):
    """Malformed or unsupported WAV container."""


@dataclass(frozen=True)
class Waveform:
    """Mono audio signal: float64 samples (nominal range [-1, 1]) + sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must all be finite")
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        samples = samples.copy()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size

    def __reduce__(self):
        # unpickle through the constructor, so a copy is checked and read-only
        return Waveform, (self.samples, self.sample_rate)


def _iter_chunks(data: bytes):
    offset = 12
    while offset + 8 <= len(data):
        chunk_id = data[offset : offset + 4]
        (size,) = struct.unpack_from("<I", data, offset + 4)
        yield chunk_id, offset + 8, size
        # Chunk payloads are padded to an even byte count.
        offset += 8 + size + (size & 1)


def load_wav(path) -> Waveform:
    """Read a 16-bit mono PCM WAV file, scaling samples to [-1, 1]."""
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    for chunk_id, start, size in _iter_chunks(data):
        if chunk_id == b"fmt " and fmt is None:
            if size < 16:
                raise WavFormatError(f"{path}: fmt chunk too short ({size} bytes)")
            fmt = struct.unpack_from("<HHIIHH", data, start)
        elif chunk_id == b"data" and payload is None:
            if start + size > len(data):
                raise WavFormatError(
                    f"{path}: truncated data chunk "
                    f"(header declares {size} bytes, {len(data) - start} available)"
                )
            payload = data[start : start + size]

    if fmt is None:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if payload is None:
        raise WavFormatError(f"{path}: missing data chunk")

    format_tag, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if format_tag != _PCM_FORMAT_TAG:
        raise WavFormatError(
            f"{path}: unsupported encoding (format tag {format_tag}); only PCM is supported"
        )
    if channels != 1:
        raise WavFormatError(f"{path}: expected mono audio, got {channels} channels")
    if bits != 16:
        raise WavFormatError(f"{path}: expected 16-bit samples, got {bits}-bit")
    if len(payload) < 2:
        raise WavFormatError(f"{path}: empty data chunk")
    if len(payload) % 2:
        payload = payload[:-1]

    raw = np.frombuffer(payload, dtype="<i2")
    return Waveform(raw.astype(np.float64) / PCM_FULL_SCALE, sample_rate)


def write_wav(path, wave: Waveform) -> None:
    """Write a Waveform as 16-bit mono PCM, clipping out-of-range samples."""
    x = wave.samples
    n_clipped = int(np.count_nonzero((x < -1.0) | (x > 1.0)))
    if n_clipped:
        warnings.warn(
            f"write_wav: clipping {n_clipped} out-of-range sample(s) to [-1, 1]",
            stacklevel=2,
        )
        x = np.clip(x, -1.0, 1.0)

    quantized = np.clip(np.round(x * PCM_FULL_SCALE), -32768, 32767).astype("<i2")
    payload = quantized.tobytes()

    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack(
                "<IHHIIHH",
                16,
                _PCM_FORMAT_TAG,
                1,
                wave.sample_rate,
                wave.sample_rate * 2,
                2,
                16,
            ),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    Path(path).write_bytes(header + payload)
