import hashlib
import json
import os
from collections import Counter

import numpy as np
import pytest

from replaycm import corpus, parallel
from replaycm.audio_io import Waveform, load_wav
from replaycm.corpus import (
    CorpusConfig,
    ProtocolError,
    ReplayChannelConfig,
    Trial,
    _fricative_burst,
    generate_synth_corpus,
    lowpass_fir,
    make_phrase_specs,
    parse_protocol,
    partition_by_phrase,
    render_genuine_utterance,
    simulate_replay,
    speaker_f0,
    write_protocol,
)

SMALL_CORPUS = CorpusConfig(
    n_train_genuine=6, n_train_spoof=6, n_eval_genuine=3, n_eval_spoof=3,
    n_speakers=3, n_phrases=2, duration_seconds=0.4, seed=11,
)
# SHA-256 of every file generate_synth_corpus(SMALL_CORPUS) writes (see
# tree_digest) when it renders as loop_render_oracle and
# convolve_replay_oracle do; a change to the draw order or the rendering of
# any trial changes it
SMALL_CORPUS_SHA256 = "fe8f2d9fdbe269395bcca5ad8647cd2b895896752c3cae535ebe7e3afb3a6855"


def render_trial_source(cfg, entry):
    """Re-render the clean source utterance recorded in a manifest entry."""
    rng = np.random.default_rng(np.random.SeedSequence(entry["render_seed"]))
    return render_genuine_utterance(
        speaker_f0(cfg, entry["speaker_index"]),
        make_phrase_specs(cfg)[entry["phrase_index"]],
        cfg.duration_seconds,
        cfg.sample_rate,
        rng,
    )


def tree_digest(root):
    """SHA-256 over the relative path, size and bytes of every file, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def loop_render_oracle(f0_hz, phrase, duration_seconds, sample_rate, rng):
    """render_genuine_utterance with one np.sin call per harmonic."""
    total = int(round(duration_seconds * sample_rate))
    pieces = []
    for share, semitones, rolloff in phrase:
        n = max(int(round(total * share)), 16)
        t = np.arange(n) / sample_rate
        base = f0_hz * 2.0 ** (semitones / 12.0)
        vibrato = 1.0 + 0.008 * np.sin(
            2.0 * np.pi * 5.5 * t + rng.uniform(0, 2 * np.pi)
        )
        phase = 2.0 * np.pi * np.cumsum(base * vibrato) / sample_rate
        n_harmonics = max(min(int(7600.0 / base), 40), 1)
        segment = np.zeros(n)
        for h in range(1, n_harmonics + 1):
            segment += (h ** -rolloff) * np.sin(h * phase + rng.uniform(0, 2 * np.pi))
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
    return np.clip(x, -1.0, 1.0)


def convolve_replay_oracle(wave, channel, seed):
    """simulate_replay with np.convolve for the impulse response."""
    x = wave.samples
    y = np.convolve(x, np.asarray(channel.impulse_response))[: x.size]
    y = np.convolve(y, lowpass_fir(channel.lowpass_cutoff, wave.sample_rate), mode="same")
    noise_std = np.sqrt(np.mean(y**2) * 10.0 ** (-channel.noise_snr_db / 10.0))
    y = y + np.random.default_rng(seed).standard_normal(y.size) * noise_std
    return np.clip(y * channel.gain, -1.0, 1.0)


class TestProtocol:
    def test_minimal_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("T_001 genuine S01 P05 - - -\n")
        trials = parse_protocol(path)
        assert trials == [Trial("T_001", "genuine", "S01", "P05", "-", "-", "-")]

    def test_fully_tagged_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("T_002 spoof S01 P05 balcony dev1 mic2\n")
        (trial,) = parse_protocol(path)
        assert trial.label == "spoof"
        assert (trial.environment, trial.playback, trial.recording) == (
            "balcony", "dev1", "mic2")

    def test_short_line_reports_line_number(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("T_001 genuine S01 P05 - - -\nT_002 spoof S01\n")
        with pytest.raises(ProtocolError, match=":2:"):
            parse_protocol(path)

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                           "\x85", "\u2028", "\r"])
    def test_only_a_newline_ends_a_line(self, tmp_path, separator):
        # str.splitlines would also end a line at each of these, and report
        # the short line as :3:; a trailing "\r" (CRLF) is whitespace
        path = tmp_path / "p.txt"
        path.write_bytes(f"T_001 genuine S01 P05 - - -{separator}\nT_002 spoof S01\n"
                         .encode("utf-8"))
        with pytest.raises(ProtocolError, match=":2: expected 7"):
            parse_protocol(path)

    def test_duplicate_trial_id(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("T genuine S P - - -\nT spoof S P - - -\n")
        with pytest.raises(ProtocolError, match="duplicate"):
            parse_protocol(path)

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("T bogus S P - - -\n")
        with pytest.raises(ProtocolError, match="label"):
            parse_protocol(path)

    def test_write_read_roundtrip(self, tmp_path):
        trials = [
            Trial("a", "genuine", "S1", "P1"),
            Trial("b", "spoof", "S2", "P2", "room", "dev", "mic"),
            Trial("c", "unknown", "S3", "P1"),
        ]
        path = tmp_path / "p.txt"
        write_protocol(trials, path)
        assert parse_protocol(path) == trials


class TestPartition:
    def test_single_phrase_single_bucket(self):
        trials = [Trial(f"t{i}", "genuine", "S", "P0") for i in range(5)]
        buckets = partition_by_phrase(trials)
        assert list(buckets) == ["P0"]
        assert buckets["P0"] == trials

    def test_three_phrases(self):
        trials = [Trial(f"t{i}", "genuine", "S", f"P{i % 3}") for i in range(9)]
        buckets = partition_by_phrase(trials)
        assert len(buckets) == 3
        assert sum(len(b) for b in buckets.values()) == 9

    def test_buckets_reassemble_input_multiset(self, rng):
        trials = [
            Trial(f"t{i}", "spoof", "S", f"P{rng.integers(0, 4)}") for i in range(30)
        ]
        buckets = partition_by_phrase(trials)
        rebuilt = [t for bucket in buckets.values() for t in bucket]
        assert Counter(t.trial_id for t in rebuilt) == Counter(t.trial_id for t in trials)
        for phrase, bucket in buckets.items():
            assert all(t.phrase_id == phrase for t in bucket)


class TestSimulateReplay:
    def test_near_identity_channel(self, rng):
        x = rng.uniform(-0.5, 0.5, 8000)
        wave = Waveform(x, 16000)
        channel = ReplayChannelConfig((1.0,), 7999.0, np.inf, 1.0)
        out = simulate_replay(wave, channel, seed=0)
        rms = np.sqrt(np.mean((out.samples - x) ** 2) / np.mean(x**2))
        assert rms <= 1e-3

    def test_zero_input_zero_output(self):
        wave = Waveform(np.zeros(4000), 16000)
        channel = ReplayChannelConfig((1.0, 0.3), 4000.0, 20.0, 0.8)
        out = simulate_replay(wave, channel, seed=1)
        assert np.all(out.samples == 0.0)

    def test_band_rejection_at_least_30db(self, rng):
        x = rng.standard_normal(16000) * 0.1
        wave = Waveform(x, 16000)
        channel = ReplayChannelConfig((1.0,), 4000.0, np.inf, 1.0)
        out = simulate_replay(wave, channel, seed=2)
        spectrum = np.abs(np.fft.rfft(out.samples)) ** 2
        freqs = np.fft.rfftfreq(out.samples.size, 1 / 16000)
        stop = spectrum[freqs >= 5000].mean()
        passband = spectrum[(freqs >= 500) & (freqs <= 3500)].mean()
        assert stop <= passband * 1e-3

    def test_duration_and_range_preserved(self, rng):
        x = rng.uniform(-1.0, 1.0, 5000)
        wave = Waveform(x, 16000)
        channel = ReplayChannelConfig(tuple(rng.uniform(-0.4, 1.0, 64)), 3500.0, 10.0, 2.0)
        out = simulate_replay(wave, channel, seed=3)
        assert len(out) == 5000
        assert np.all(np.isfinite(out.samples))
        assert np.all(np.abs(out.samples) <= 1.0)

    def test_deterministic_given_seed(self, rng):
        wave = Waveform(rng.uniform(-0.5, 0.5, 4000), 16000)
        channel = ReplayChannelConfig((1.0, 0.2), 4000.0, 18.0, 0.7)
        a = simulate_replay(wave, channel, seed=42)
        b = simulate_replay(wave, channel, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_cutoff_must_be_below_nyquist(self):
        wave = Waveform(np.zeros(100), 16000)
        channel = ReplayChannelConfig((1.0,), 9000.0, np.inf, 1.0)
        with pytest.raises(ValueError, match="Nyquist"):
            simulate_replay(wave, channel, seed=0)

    @pytest.mark.parametrize("ir_kind", ["dense", "one_tap", "longer_than_signal"])
    def test_matches_convolve_oracle(self, rng, ir_kind):
        x = rng.uniform(-0.5, 0.5, 900)
        ir = {
            "dense": rng.uniform(-0.4, 1.0, 64),
            "one_tap": np.array([0.7]),
            "longer_than_signal": rng.uniform(-0.3, 0.3, 1200),
        }[ir_kind]
        channel = ReplayChannelConfig(tuple(ir.tolist()), 3800.0, 25.0, 0.8)
        out = simulate_replay(Waveform(x, 16000), channel, seed=9)
        expected = convolve_replay_oracle(Waveform(x, 16000), channel, seed=9)
        np.testing.assert_allclose(out.samples, expected, rtol=0, atol=1e-12)

    def test_lowpass_fir_is_normalized_linear_phase(self):
        h = lowpass_fir(4000.0, 16000)
        assert h.size == 63
        assert np.isclose(h.sum(), 1.0)
        assert np.allclose(h, h[::-1])


class TestRenderGenuineUtterance:
    def test_matches_per_harmonic_loop_oracle(self):
        # at f0 110 Hz: 40 harmonics (the cap), 19 at +22 semitones and one
        # at +62, rendered from one generator so the draw order is checked too
        phrase = ((0.3, 0.0, 1.0), (0.3, 22.0, 0.9), (0.4, 62.0, 1.2))
        assert [max(min(int(7600.0 / (110.0 * 2.0 ** (s / 12.0))), 40), 1)
                for _, s, _ in phrase] == [40, 19, 1]
        rng, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
        out = render_genuine_utterance(110.0, phrase, 0.5, 16000, rng)
        expected = loop_render_oracle(110.0, phrase, 0.5, 16000, rng_ref)
        np.testing.assert_allclose(out.samples, expected, rtol=0, atol=1e-9)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


class TestGenerateCorpus:
    def test_counts_and_files(self, tmp_path):
        out = tmp_path / "corpus"
        manifest = generate_synth_corpus(SMALL_CORPUS, out)
        train = parse_protocol(out / "protocol_train.txt")
        evals = parse_protocol(out / "protocol_eval.txt")
        assert len(train) == 12 and len(evals) == 6
        assert len(manifest["trials"]) == 18
        wavs = sorted((out / "wav").glob("*.wav"))
        assert len(wavs) == 18
        ids = {t.trial_id for t in train} | {t.trial_id for t in evals}
        assert len(ids) == 18
        labels = Counter(t.label for t in train)
        assert labels == Counter(genuine=6, spoof=6)

    def test_byte_identical_regeneration(self, tmp_path):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        generate_synth_corpus(SMALL_CORPUS, out1)
        generate_synth_corpus(SMALL_CORPUS, out2)
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()

    def test_bytes_match_the_pinned_digest(self, tmp_path):
        generate_synth_corpus(SMALL_CORPUS, tmp_path / "c")
        assert tree_digest(tmp_path / "c") == SMALL_CORPUS_SHA256

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_forked_and_serial_renders_write_identical_files(self, tmp_path, monkeypatch,
                                                             cpus):
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        generate_synth_corpus(SMALL_CORPUS, tmp_path / "serial")  # outside a scope
        assert forks == []
        with parallel.workers():
            generate_synth_corpus(SMALL_CORPUS, tmp_path / "forked")
        assert len(forks) == cpus - 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert tree_digest(tmp_path / "forked") == tree_digest(tmp_path / "serial")
        assert tree_digest(tmp_path / "forked") == SMALL_CORPUS_SHA256

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_render_error_names_the_trial(self, tmp_path, monkeypatch, cpus):
        parent = os.getpid()
        render = corpus.render_genuine_utterance

        def fail_trial_3(*args):
            rng = args[-1]  # seeded from [seed, 202, trial index]
            if rng.bit_generator.seed_seq.entropy[2] == 3:
                where = "here" if os.getpid() == parent else "in a child"
                raise ValueError(f"cannot render {where}")
            return render(*args)

        monkeypatch.setattr(corpus, "render_genuine_utterance", fail_trial_3)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        # with two workers a child renders the odd trials
        where = "here" if cpus == 1 else "in a child"
        with pytest.raises(ValueError, match=f"^trial train_g_0003: cannot render {where}$"):
            with parallel.workers():
                generate_synth_corpus(SMALL_CORPUS, tmp_path / "c")
        assert not (tmp_path / "c" / "manifest.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_spoof_trials_lose_high_band_energy(self, tmp_path):
        out = tmp_path / "corpus"
        manifest = generate_synth_corpus(SMALL_CORPUS, out)

        def high_band_fraction(samples):
            spectrum = np.abs(np.fft.rfft(samples)) ** 2
            freqs = np.fft.rfftfreq(samples.size, 1 / SMALL_CORPUS.sample_rate)
            return spectrum[freqs >= 5000].sum() / spectrum.sum()

        for entry in manifest["trials"]:
            if entry["label"] != "spoof":
                continue
            replayed = load_wav(out / entry["wav"])
            source = render_trial_source(SMALL_CORPUS, entry)
            assert high_band_fraction(replayed.samples) < high_band_fraction(source.samples)

    def test_manifest_records_channel_draws(self, tmp_path):
        manifest = generate_synth_corpus(SMALL_CORPUS, tmp_path / "c")
        spoofs = [t for t in manifest["trials"] if t["label"] == "spoof"]
        assert spoofs
        for entry in spoofs:
            channel = entry["channel"]
            lo, hi = SMALL_CORPUS.cutoff_hz_range
            assert lo <= channel["lowpass_cutoff"] <= hi
            assert "replay_seed" in channel

    def test_manifest_json_loads(self, tmp_path):
        out = tmp_path / "c"
        generate_synth_corpus(SMALL_CORPUS, out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 11

    def test_phrase_specs_deterministic(self):
        a = make_phrase_specs(SMALL_CORPUS)
        b = make_phrase_specs(SMALL_CORPUS)
        assert a == b
        assert len(a) == SMALL_CORPUS.n_phrases
