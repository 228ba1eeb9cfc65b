"""Trial protocols, phrase partitioning, replay-channel simulation, and the
synthetic corpus generator used for desk-scale end-to-end verification.

"Genuine" utterances are harmonic, voiced-like tones (per-speaker
fundamental, per-phrase segment patterns, amplitude envelopes, light noise).
Spoofed trials pass a freshly rendered source utterance through a simulated
replay channel: impulse-response convolution, low-pass filtering, additive
noise at a target SNR, gain, and clipping.  Everything is reproducible from
the corpus seed.

A segment's harmonic sum  sum_h h^-rolloff sin(h phase + theta_h)  is rendered
as  Im(sum_h c_h z^h)  with  c_h = h^-rolloff e^{i theta_h}  and
z = e^{i phase}, evaluated by Horner's rule: one complex exponential per
sample and one multiply-add per harmonic.  A room impulse response is sparse
(a direct path plus a few reflections), so it is applied by shifting and
adding the input at each non-zero tap.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np

from . import containers, parallel
from .audio_io import Waveform, write_wav

LABELS = ("genuine", "spoof", "unknown")
UNSPECIFIED = "-"
LOWPASS_TAPS = 63


class ProtocolError(ValueError):
    """Malformed protocol file."""


@dataclass(frozen=True)
class Trial:
    trial_id: str
    label: str
    speaker_id: str
    phrase_id: str
    environment: str = UNSPECIFIED
    playback: str = UNSPECIFIED
    recording: str = UNSPECIFIED

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")


def read_records(path, n_fields: int, error: type[ValueError]):
    """("path:line", fields) for each non-blank line of a whitespace-separated
    file of trial records, trial id first.  A line with another field count,
    or a trial id seen on an earlier line, is refused with ``error``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from exc
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        where = f"{path}:{lineno}"
        if len(fields) != n_fields:
            raise error(f"{where}: expected {n_fields} whitespace-separated fields, "
                        f"got {len(fields)}")
        if fields[0] in first_line:
            raise error(f"{where}: duplicate trial_id {fields[0]!r} "
                        f"(first seen on line {first_line[fields[0]]})")
        first_line[fields[0]] = lineno
        yield where, fields


def parse_protocol(path) -> list[Trial]:
    """Parse one trial per line: id label speaker phrase env playback recording.
    A trial or phrase id may not contain '/'."""
    trials: list[Trial] = []
    for where, fields in read_records(path, 7, ProtocolError):
        trial_id, label, _, phrase_id = fields[:4]
        # trial and phrase ids name feature and model files
        for name, value in (("trial_id", trial_id), ("phrase_id", phrase_id)):
            if "/" in value:
                raise ProtocolError(f"{where}: {name} {value!r} contains '/'")
        if label not in LABELS:
            raise ProtocolError(f"{where}: unknown label token {label!r}")
        trials.append(Trial(*fields))
    return trials


def write_records(path, rows) -> None:
    """Write each row of fields as one space-separated line, as ``read_records`` reads."""
    containers.write_artifact(path, [("\n".join(map(" ".join, rows)) + "\n").encode("utf-8")])


def write_protocol(trials: list[Trial], path) -> None:
    write_records(path, [astuple(t) for t in trials])


def partition_by_phrase(trials: list[Trial]) -> dict[str, list[Trial]]:
    """Bucket trials by phrase_id; buckets are disjoint and exhaustive."""
    buckets: dict[str, list[Trial]] = {}
    for trial in trials:
        buckets.setdefault(trial.phrase_id, []).append(trial)
    return buckets


@dataclass(frozen=True)
class ReplayChannelConfig:
    impulse_response: tuple[float, ...]
    lowpass_cutoff: float
    noise_snr_db: float  # inf disables the additive noise
    gain: float

    def __post_init__(self):
        if not 1 <= len(self.impulse_response) <= 4096:
            raise ValueError("impulse response must have 1..4096 taps")
        if self.lowpass_cutoff <= 0:
            raise ValueError("lowpass cutoff must be positive")
        if self.gain <= 0:
            raise ValueError("gain must be positive")


def lowpass_fir(cutoff_hz: float, sample_rate: int, taps: int = LOWPASS_TAPS) -> np.ndarray:
    """Linear-phase windowed-sinc low-pass filter (Hamming window)."""
    if taps % 2 == 0:
        raise ValueError("taps must be odd for a symmetric filter")
    m = taps // 2
    n = np.arange(taps) - m
    nu = 2.0 * cutoff_hz / sample_rate
    h = nu * np.sinc(nu * n) * np.hamming(taps)
    return h / h.sum()


def simulate_replay(wave: Waveform, channel: ReplayChannelConfig, seed: int = 0) -> Waveform:
    """Replay-and-recapture simulation; output length equals input length."""
    if channel.lowpass_cutoff >= wave.sample_rate / 2:
        raise ValueError(
            f"lowpass cutoff {channel.lowpass_cutoff} Hz must be below the "
            f"Nyquist frequency {wave.sample_rate / 2} Hz"
        )
    x = wave.samples
    ir = np.asarray(channel.impulse_response, dtype=np.float64)
    # room IRs are sparse: shift and add the non-zero taps only
    y = np.zeros(x.size)
    for k in np.flatnonzero(ir[: x.size]):
        y[k:] += ir[k] * x[: x.size - k]
    y = np.convolve(y, lowpass_fir(channel.lowpass_cutoff, wave.sample_rate), mode="same")
    power = float(np.mean(y**2))
    if np.isfinite(channel.noise_snr_db) and power > 0.0:
        noise_std = np.sqrt(power * 10.0 ** (-channel.noise_snr_db / 10.0))
        rng = np.random.default_rng(seed)
        y = y + rng.standard_normal(y.size) * noise_std
    y = np.clip(y * channel.gain, -1.0, 1.0)
    return Waveform(y, wave.sample_rate)


@dataclass(frozen=True)
class CorpusConfig:
    n_train_genuine: int = 100
    n_train_spoof: int = 100
    n_eval_genuine: int = 50
    n_eval_spoof: int = 50
    n_speakers: int = 10
    n_phrases: int = 4
    duration_seconds: float = 1.2
    sample_rate: int = 16000
    cutoff_hz_range: tuple[float, float] = (3400.0, 4200.0)
    snr_db_range: tuple[float, float] = (20.0, 28.0)
    gain_range: tuple[float, float] = (0.5, 0.9)
    max_reflections: int = 5
    seed: int = 20170801

    def __post_init__(self):
        counts = (self.n_train_genuine, self.n_train_spoof,
                  self.n_eval_genuine, self.n_eval_spoof)
        if any(c < 0 for c in counts) or sum(counts) == 0:
            raise ValueError("trial counts must be non-negative and not all zero")
        if self.n_speakers < 1 or self.n_phrases < 1:
            raise ValueError("need at least one speaker and one phrase")
        if self.duration_seconds <= 0 or self.sample_rate <= 0:
            raise ValueError("duration and sample rate must be positive")
        # the replay channel draws each value uniformly from its range
        for name in ("cutoff_hz_range", "snr_db_range", "gain_range"):
            low, high = getattr(self, name)
            if not low <= high:
                raise ValueError(f"{name} must be [low, high] with low <= high, "
                                 f"got {[low, high]}")
        if self.cutoff_hz_range[0] <= 0 or self.cutoff_hz_range[1] >= self.sample_rate / 2:
            raise ValueError(f"cutoff_hz_range must lie between 0 and the Nyquist "
                             f"frequency {self.sample_rate / 2} Hz, got "
                             f"{list(self.cutoff_hz_range)}")
        if self.gain_range[0] <= 0:
            raise ValueError(f"gain_range must be positive, got {list(self.gain_range)}")
        if self.max_reflections < 1:
            raise ValueError(f"max_reflections must be >= 1, got {self.max_reflections}")


@dataclass(frozen=True)
class PhraseSpec:
    """Segment pattern of a synthetic phrase: (duration share, semitone offset,
    harmonic rolloff exponent) per segment."""

    segments: tuple[tuple[float, float, float], ...]


def make_phrase_specs(cfg: CorpusConfig) -> list[PhraseSpec]:
    specs = []
    for p in range(cfg.n_phrases):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 101, p]))
        n_segments = int(rng.integers(3, 6))
        shares = rng.uniform(0.6, 1.4, n_segments)
        shares /= shares.sum()
        semitones = rng.integers(-4, 8, n_segments).astype(float)
        rolloffs = rng.uniform(0.7, 1.4, n_segments)
        specs.append(
            PhraseSpec(tuple(zip(shares.tolist(), semitones.tolist(), rolloffs.tolist())))
        )
    return specs


def speaker_f0(cfg: CorpusConfig, speaker_index: int) -> float:
    spread = max(cfg.n_speakers - 1, 1)
    return 110.0 + 120.0 * speaker_index / spread


def _fricative_burst(n: int, sample_rate: int, rng: np.random.Generator) -> np.ndarray:
    """Band-limited (4.5-7.6 kHz) noise burst, unit RMS."""
    noise = rng.standard_normal(n)
    spectrum = np.fft.rfft(noise)
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    spectrum[(freqs < 4500.0) | (freqs > 7600.0)] = 0.0
    burst = np.fft.irfft(spectrum, n)
    rms = np.sqrt(np.mean(burst**2))
    return burst / rms if rms > 0 else burst


def render_genuine_utterance(
    f0_hz: float,
    phrase: PhraseSpec,
    duration_seconds: float,
    sample_rate: int,
    rng: np.random.Generator,
) -> Waveform:
    """Voiced-like harmonic segments, each ending in a fricative-like burst."""
    total = int(round(duration_seconds * sample_rate))
    pieces = []
    for share, semitones, rolloff in phrase.segments:
        n = max(int(round(total * share)), 16)
        t = np.arange(n) / sample_rate
        base = f0_hz * 2.0 ** (semitones / 12.0)
        vibrato = 1.0 + 0.008 * np.sin(
            2.0 * np.pi * 5.5 * t + rng.uniform(0, 2 * np.pi)
        )
        phase = 2.0 * np.pi * np.cumsum(base * vibrato) / sample_rate
        n_harmonics = max(min(int(7600.0 / base), 40), 1)
        harmonics = np.arange(1, n_harmonics + 1)
        coeffs = harmonics ** -rolloff * np.exp(1j * rng.uniform(0, 2 * np.pi, n_harmonics))
        # Im(sum_h c_h z^h) by Horner's rule (see the module docstring)
        z = np.exp(1j * phase)
        acc = np.full(n, coeffs[-1])
        for c in coeffs[-2::-1]:
            acc *= z
            acc += c
        acc *= z
        segment = acc.imag
        attack = max(int(0.08 * n), 1)
        decay = max(int(0.15 * n), 1)
        envelope = np.ones(n)
        envelope[:attack] = 0.5 - 0.5 * np.cos(np.pi * np.arange(attack) / attack)
        envelope[-decay:] *= 0.5 + 0.5 * np.cos(np.pi * np.arange(decay) / decay)
        segment = segment * envelope
        burst_len = max(int(0.12 * n), 8)
        burst_gain = rng.uniform(0.3, 0.45) * np.sqrt(np.mean(segment**2))
        burst_env = np.sin(np.pi * np.arange(burst_len) / burst_len) ** 2
        segment[-burst_len:] += (
            burst_gain * burst_env * _fricative_burst(burst_len, sample_rate, rng)
        )
        pieces.append(segment)
    x = np.concatenate(pieces)[:total]
    if x.size < total:
        x = np.pad(x, (0, total - x.size))

    peak = float(np.max(np.abs(x)))
    if peak > 0:
        x = x * (rng.uniform(0.55, 0.8) / peak)
    snr_db = rng.uniform(28.0, 38.0)
    noise_std = np.sqrt(np.mean(x**2) * 10.0 ** (-snr_db / 10.0))
    x = x + rng.standard_normal(total) * noise_std
    return Waveform(np.clip(x, -1.0, 1.0), sample_rate)


def make_replay_channel(cfg: CorpusConfig, rng: np.random.Generator) -> ReplayChannelConfig:
    """Random playback/recapture channel: a direct path plus sparse room
    reflections, then cutoff / SNR / gain draws."""
    n_reflections = int(rng.integers(1, cfg.max_reflections + 1))
    delays = rng.integers(40, 1200, n_reflections)
    amps = rng.uniform(0.05, 0.3, n_reflections) * rng.choice([-1.0, 1.0], n_reflections)
    ir = np.zeros(int(delays.max()) + 1)
    ir[0] = 1.0
    for delay, amp in zip(delays, amps):
        ir[int(delay)] += amp
    return ReplayChannelConfig(
        impulse_response=tuple(ir.tolist()),
        lowpass_cutoff=float(rng.uniform(*cfg.cutoff_hz_range)),
        noise_snr_db=float(rng.uniform(*cfg.snr_db_range)),
        gain=float(rng.uniform(*cfg.gain_range)),
    )


def _trial_plan(cfg: CorpusConfig) -> list[tuple[str, str, str, int]]:
    """(trial id, subset, label, global index) for every trial, in a fixed
    order."""
    plan = []
    for subset, label, count in (
        ("train", "genuine", cfg.n_train_genuine),
        ("train", "spoof", cfg.n_train_spoof),
        ("eval", "genuine", cfg.n_eval_genuine),
        ("eval", "spoof", cfg.n_eval_spoof),
    ):
        for _ in range(count):
            index = len(plan)
            plan.append((f"{subset}_{label[0]}_{index:04d}", subset, label, index))
    return plan


def _render_trial(cfg: CorpusConfig, phrases: list[PhraseSpec],
                  planned: tuple[str, str, str, int]) -> tuple[Trial, dict, Waveform]:
    """The protocol line, manifest entry and audio of one planned trial.

    A pure function of the config and the trial's index: every seed derives
    from the index, so trials render in any order or process alike.  A
    ValueError names the trial.
    """
    trial_id, subset, label, index = planned
    try:
        speaker_index = index % cfg.n_speakers
        phrase_index = (index // cfg.n_speakers) % cfg.n_phrases
        render_seed = [cfg.seed, 202, index]
        rng = np.random.default_rng(np.random.SeedSequence(render_seed))
        source = render_genuine_utterance(
            speaker_f0(cfg, speaker_index),
            phrases[phrase_index],
            cfg.duration_seconds,
            cfg.sample_rate,
            rng,
        )

        entry = {
            "trial_id": trial_id,
            "subset": subset,
            "label": label,
            "speaker_index": speaker_index,
            "phrase_index": phrase_index,
            "render_seed": render_seed,
            "wav": f"wav/{trial_id}.wav",
        }
        if label == "genuine":
            audio = source
            tags = (UNSPECIFIED, UNSPECIFIED, UNSPECIFIED)
        else:
            channel_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 303, index]))
            channel = make_replay_channel(cfg, channel_rng)
            replay_seed = int(np.random.SeedSequence([cfg.seed, 404, index]).generate_state(1)[0])
            audio = simulate_replay(source, channel, seed=replay_seed)
            tags = (
                f"env{int(channel_rng.integers(0, 8))}",
                f"dev{int(channel_rng.integers(0, 15))}",
                f"mic{int(channel_rng.integers(0, 16))}",
            )
            entry["channel"] = {
                "lowpass_cutoff": channel.lowpass_cutoff,
                "noise_snr_db": channel.noise_snr_db,
                "gain": channel.gain,
                "ir_taps": len(channel.impulse_response),
                "channel_seed": [cfg.seed, 303, index],
                "replay_seed": replay_seed,
            }
        trial = Trial(trial_id, label, f"S{speaker_index:02d}", f"P{phrase_index:02d}", *tags)
        return trial, entry, audio
    except ValueError as exc:
        raise type(exc)(f"trial {trial_id}: {exc}") from exc


def generate_synth_corpus(cfg: CorpusConfig, out_dir) -> dict:
    """Write WAVs, per-subset protocol files, and a manifest; returns the manifest.

    Deterministic: the same config (seed included) produces byte-identical
    output files.  Trials render on the workers of the enclosing
    ``parallel.workers()`` scope, if any; this process alone writes the
    files, each WAV as its trial arrives and the protocols and manifest in
    plan order, so the bytes are those of a serial render.
    """
    out = Path(out_dir)
    wav_dir = out / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)

    plan = _trial_plan(cfg)
    render = functools.partial(_render_trial, cfg, make_phrase_specs(cfg))
    rendered: list[tuple[Trial, dict] | None] = [None] * len(plan)
    with contextlib.closing(parallel.imap(render, plan)) as results:
        for index, (trial, entry, audio) in results:
            write_wav(wav_dir / f"{trial.trial_id}.wav", audio)
            rendered[index] = trial, entry

    for subset in ("train", "eval"):
        trials = [trial for trial, entry in rendered if entry["subset"] == subset]
        if trials:
            write_protocol(trials, out / f"protocol_{subset}.txt")

    manifest = {
        "config": asdict(cfg),
        "sample_rate": cfg.sample_rate,
        "trials": [entry for _, entry in rendered],
    }
    containers.write_artifact(out / "manifest.json", [
        (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8")])
    return manifest
