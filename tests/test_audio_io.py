import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from replaycm.audio_io import PCM_FULL_SCALE, Waveform, WavFormatError, load_wav, write_wav


def wav_bytes(samples_i16, sample_rate=16000, channels=1, bits=16, fmt_tag=1,
              extra_chunk=None, truncate_data=0):
    """Hand-assembled RIFF/WAVE bytes, independent of the writer under test."""
    payload = struct.pack(f"<{len(samples_i16)}h", *samples_i16)
    if truncate_data:
        payload = payload[:-truncate_data]
    chunks = b"fmt " + struct.pack(
        "<IHHIIHH", 16, fmt_tag, channels, sample_rate,
        sample_rate * channels * bits // 8, channels * bits // 8, bits,
    )
    if extra_chunk is not None:
        chunks += extra_chunk
    chunks += b"data" + struct.pack("<I", len(samples_i16) * 2) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def test_zero_signal_loads_as_zeros(tmp_path):
    path = tmp_path / "zeros.wav"
    path.write_bytes(wav_bytes([0] * 16000))
    wave = load_wav(path)
    assert wave.sample_rate == 16000
    assert len(wave) == 16000
    assert np.all(wave.samples == 0.0)


def test_scaling_divides_by_full_scale(tmp_path):
    path = tmp_path / "half.wav"
    path.write_bytes(wav_bytes([16384]))
    assert load_wav(path).samples[0] == 0.5


def test_stereo_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    path.write_bytes(wav_bytes([0, 0], channels=2))
    with pytest.raises(WavFormatError, match="mono"):
        load_wav(path)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_wav("/nonexistent/missing.wav")


def test_non_pcm_rejected(tmp_path):
    path = tmp_path / "float.wav"
    path.write_bytes(wav_bytes([0, 0], fmt_tag=3))
    with pytest.raises(WavFormatError, match="PCM"):
        load_wav(path)


def test_truncated_data_chunk(tmp_path):
    path = tmp_path / "short.wav"
    path.write_bytes(wav_bytes([1, 2, 3, 4], truncate_data=4))
    with pytest.raises(WavFormatError, match="truncated"):
        load_wav(path)


def test_a_zero_sample_rate_is_refused_naming_the_file(tmp_path):
    path = tmp_path / "rate0.wav"
    path.write_bytes(wav_bytes([0] * 100, sample_rate=0))
    with pytest.raises(WavFormatError) as info:
        load_wav(path)
    assert str(info.value) == f"{path}: the fmt chunk gives a sample rate of 0 Hz"


def test_not_riff(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"JUNKJUNKJUNKJUNK")
    with pytest.raises(WavFormatError, match="RIFF"):
        load_wav(path)


def test_unknown_chunks_skipped(tmp_path):
    extra = b"LIST" + struct.pack("<I", 6) + b"junk00"
    path = tmp_path / "listed.wav"
    path.write_bytes(wav_bytes([16384, -16384], extra_chunk=extra))
    wave = load_wav(path)
    assert np.allclose(wave.samples, [0.5, -0.5])


def test_roundtrip_ramp(tmp_path):
    ramp = np.linspace(-0.99, 0.99, 100)
    path = tmp_path / "ramp.wav"
    write_wav(path, Waveform(ramp, 16000))
    back = load_wav(path)
    assert np.max(np.abs(back.samples - ramp)) <= 1.0 / PCM_FULL_SCALE


def test_full_scale_saturates(tmp_path):
    path = tmp_path / "one.wav"
    write_wav(path, Waveform([1.0, -1.0], 16000))
    raw = path.read_bytes()
    stored = struct.unpack("<2h", raw[44:48])
    assert stored == (32767, -32768)
    back = load_wav(path)
    assert back.samples[0] == 32767 / PCM_FULL_SCALE
    assert back.samples[1] == -1.0


def test_white_noise_roundtrip(tmp_path, rng):
    noise = rng.uniform(-1.0, 1.0, 16000)
    path = tmp_path / "noise.wav"
    write_wav(path, Waveform(noise, 16000))
    back = load_wav(path)
    assert np.all(np.abs(back.samples - noise) <= 1.0 / PCM_FULL_SCALE)
    assert np.all(np.isfinite(back.samples))


def test_out_of_range_clipped_with_warning(tmp_path):
    path = tmp_path / "hot.wav"
    with pytest.warns(UserWarning, match="clipping"):
        write_wav(path, Waveform([1.5, -2.0, 0.25], 16000))
    back = load_wav(path)
    assert back.samples[0] == 32767 / PCM_FULL_SCALE
    assert back.samples[1] == -1.0
    assert back.samples[2] == 0.25


def test_unwritable_path_raises(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    with pytest.raises(OSError):
        write_wav(blocker / "out.wav", Waveform([0.0, 0.1], 16000))


def test_waveform_invariants():
    with pytest.raises(ValueError):
        Waveform([], 16000)
    with pytest.raises(ValueError):
        Waveform([np.nan], 16000)
    with pytest.raises(ValueError):
        Waveform([0.0], 0)
    wave = Waveform([0.1, 0.2], 8000)
    with pytest.raises(ValueError):
        wave.samples[0] = 5.0  # immutable after construction


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
def test_roundtrip_error_within_one_lsb(tmp_path_factory, samples):
    path = tmp_path_factory.mktemp("wav") / "prop.wav"
    write_wav(path, Waveform(samples, 16000))
    back = load_wav(path)
    assert np.all(np.abs(back.samples - np.asarray(samples)) <= 1.0 / PCM_FULL_SCALE)
