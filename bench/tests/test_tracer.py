"""Tests of the benchmark's tracer and output check.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import copy
import math
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
from tracer import Span, Tracer
from workloads import Workload, workload_names


# ---- tracer mechanics ---------------------------------------------------
@pytest.fixture
def toy_package():
    """toy.a defines work/inner; toy.b binds both under other names."""
    a = types.ModuleType("toy.a")
    b = types.ModuleType("toy.b")

    def inner():
        time.sleep(0.002)

    def work():
        a.inner()
        time.sleep(0.001)

    def command(jobs):
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for future in [pool.submit(b.run) for _ in range(8)]:
                future.result()

    a.inner, a.work, a.command = inner, work, command
    b.run, b.helper = work, inner
    pkg = types.ModuleType("toy")
    sys.modules.update({"toy": pkg, "toy.a": a, "toy.b": b})
    yield a, b, (inner, work, command)
    for name in ("toy", "toy.a", "toy.b"):
        sys.modules.pop(name)


def test_wraps_every_namespace_and_restores(toy_package):
    a, b, (inner, work, command) = toy_package
    tracer = Tracer()
    tracer.install("toy", ["a.inner", "a.work", "a.command"], commands=("a.command",))
    assert a.inner is not inner and b.helper is a.inner
    assert b.run is a.work
    tracer.uninstall()
    assert (a.inner, a.work, a.command, b.run, b.helper) == (inner, work, command, work, inner)


def test_pool_threads_keep_their_own_stacks(toy_package):
    a, _, _ = toy_package
    tracer = Tracer()
    tracer.install("toy", ["a.inner", "a.work", "a.command"], commands=("a.command",))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        a.command(jobs=4)
    finally:
        sys.setswitchinterval(old)
        tracer.uninstall()

    by_id = {s.span_id: s for s in tracer.spans}
    (cmd,) = [s for s in tracer.spans if s.name == "a.command"]
    works = [s for s in tracer.spans if s.name == "a.work"]
    inners = [s for s in tracer.spans if s.name == "a.inner"]
    assert len(works) == len(inners) == 8
    assert all(w.parent == cmd.span_id and w.command == cmd.span_id for w in works)
    for span in inners:
        parent = by_id[span.parent]
        assert parent.name == "a.work" and parent.thread == span.thread
        assert parent.start <= span.start <= span.end <= parent.end
    own = tracer.self_times()
    assert min(own.values()) >= 0.0
    summary = tracer.summary()
    assert summary["a.work"]["calls"] == 8
    assert summary["a.inner"]["self_s"] >= 8 * 0.002


def test_self_time_subtracts_the_union_of_parallel_children():
    tracer = Tracer()
    tracer.spans = [
        Span(1, "cmd", 0.0, 10.0, None, 1, 1),
        Span(2, "trial", 1.0, 8.0, 1, 1, 2),
        Span(3, "trial", 2.0, 9.0, 1, 1, 3),
        Span(4, "kernel", 3.0, 5.0, 2, 1, 2),
    ]
    own = tracer.self_times()
    assert own == {1: pytest.approx(2.0), 2: pytest.approx(5.0), 3: pytest.approx(7.0),
                   4: pytest.approx(2.0)}


def test_exceptions_close_the_span(toy_package):
    a, _, _ = toy_package
    a.inner = lambda: 1 / 0
    tracer = Tracer()
    tracer.install("toy", ["a.inner"])
    with pytest.raises(ZeroDivisionError):
        a.inner()
    tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["a.inner"]
    assert tracer._stack() == []


def test_replaycm_aliases_are_traced():
    import replaycm.cepstral
    import replaycm.pipeline

    original = replaycm.cepstral.cqcc
    tracer = Tracer()
    tracer.install("replaycm", ["cepstral.cqcc"])
    try:
        assert replaycm.pipeline.cqcc is replaycm.cepstral.cqcc is not original
    finally:
        tracer.uninstall()
    assert replaycm.pipeline.cqcc is original


# ---- workload counts ----------------------------------------------------
def test_expected_counts_of_the_benchmark_workloads():
    desk, backend, frontends = (Workload.load(n) for n in ("desk", "backend", "frontends"))
    assert desk.expected_calls()["spectral.cqt_magnitude"] == 300
    assert frontends.expected_calls()["spectral.cqt_magnitude"] == 80
    assert backend.expected_calls()["spectral.cqt_magnitude"] == 0
    assert backend.expected_calls()["ivector.extract_ivector"] == 400
    assert desk.expected_calls()["ivector.extract_ivector"] == 500
    assert frontends.expected_calls()["spectral.fft_spectrogram"] == 120
    assert backend.expected_calls()["config.load_config"] == 9


def test_extract_tail_percentile_keeps_ten_samples_beyond_it():
    tail = run.tail_percentile()
    assert tail == 95
    beyond = {}
    for workload in (Workload.load(n) for n in workload_names()):
        durations = list(range(workload.extractions()))
        beyond[workload.name] = [sum(d > run.percentile(durations, pct) for d in durations)
                                 for pct in (tail, tail + 1)]
    assert min(at for at, _ in beyond.values()) >= 10
    assert min(above for _, above in beyond.values()) < 10


def small(name: str) -> Workload:
    """The workload's pipeline on a corpus small enough for a test; two
    speakers per phrase block so every phrase has both labels.  So few eval
    trials give no steady EER, so the ceiling is lifted."""
    workload = Workload.load(name, seed=7)
    config = copy.deepcopy(workload.config)
    config["corpus"].update(n_train_genuine=16, n_train_spoof=16, n_eval_genuine=8,
                            n_eval_spoof=8, n_speakers=2)
    return Workload(workload.name, workload.seed, config, eer_ceiling_pct=100.0)


@pytest.mark.parametrize("name", workload_names())
def test_traced_counts_match_the_workload(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    workload = small(name)
    result = run.run(workload, seconds=0, trace=True, run_dir=tmp_path)
    assert result["correct"], result
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    for function, expected in workload.expected_calls().items():
        assert metrics[f"{function}.calls"] == expected, function
    for key, value in metrics.items():
        if key.endswith(".self_s"):
            assert value >= 0.0, key
    n_cqt = workload.expected_calls()["spectral.cqt_magnitude"]
    assert metrics["spectral.cqt_magnitude.calls_per_trial"] == n_cqt / workload.n_trials
    assert math.isfinite(metrics["trace.overhead_s"])
    assert min(metrics[f"stage.{m}"] for m in
               ("extract_trials_per_s", "train_s", "score_trials_per_s")) > 0


# ---- output check -------------------------------------------------------
def fake_pass(tmp_path: Path, workload: Workload, drop: str | None = None) -> dict:
    """A pass directory with every output present, minus ``drop``."""
    work = tmp_path / "work"
    ids = {"train": ["t1", "t2"], "eval": ["e1", "e2"]}
    (work / "corpus").mkdir(parents=True)
    for subset, trial_ids in ids.items():
        (work / "corpus" / f"protocol_{subset}.txt").write_text(
            "".join(f"{t} genuine s p - - -\n" for t in trial_ids))
    for feature in workload.features:
        (work / "features" / feature).mkdir(parents=True)
        for tid in ids["train"] + ids["eval"]:
            (work / "features" / feature / f"{tid}.rsft").write_bytes(b"x")
    for name, subset in workload.score_files().items():
        lines = [f"{t} {0.5 if t != drop else math.nan}" for t in ids[subset]]
        (work / name).write_text("\n".join(lines) + "\n")
    return {"work": str(work), "commands": [("synth", 0), ("extract", 0)]}


def test_output_check_counts_bad_scores_and_missing_features(tmp_path):
    workload = Workload.load("desk")
    record = fake_pass(tmp_path, workload)
    assert run.check_pass(workload, record)[0] == 0
    (Path(record["work"]) / "features" / "cqcc20" / "e2.rsft").unlink()
    assert run.check_pass(workload, record)[0] == 1

    bad = fake_pass(tmp_path / "nan", workload, drop="e1")
    n_eval_files = sum(subset == "eval" for subset in workload.score_files().values())
    assert run.check_pass(workload, bad)[0] == n_eval_files

    with open(Path(bad["work"]) / "fused.eval.scores", "a") as fh:
        fh.write("e3\n")
    assert run.check_pass(workload, bad)[0] == n_eval_files + 1

    record["commands"].append(("train", 2))
    assert run.check_pass(workload, record)[0] == 1


def test_eer_above_the_ceiling_fails_the_pass():
    workload = Workload.load("backend")
    ceiling = workload.eer_ceiling_pct
    run.check_eer(workload, {"eer_pct": {"fused.eval.scores": ceiling}})
    with pytest.raises(run.CheckFailed):
        run.check_eer(workload, {"eer_pct": {"fused.eval.scores": ceiling + 1}})


def test_end_to_end_takes_the_fastest_pass_and_median_set_up():
    passes = [{"pipeline_s": p, "setup_s": s, "peak_rss_mb": 100.0}
              for p, s in ((12.0, 1.5), (10.0, 1.1), (14.0, 1.3))]
    metrics = run.end_to_end(passes)
    assert metrics["pipeline_s"] == (10.0, "s")
    assert metrics["setup_s"] == (1.3, "s")
    assert metrics["peak_rss_mb"] == (100.0, "MB")


def test_rerun_check_rejects_changed_scores(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    workload = Workload.load("desk")
    run.check_rerun(workload, {"a.scores": "1"})
    run.check_rerun(workload, {"a.scores": "1"})
    with pytest.raises(run.CheckFailed):
        run.check_rerun(workload, {"a.scores": "2"})
