"""Mutation suite: how many known faults the benchmark's quality gates refuse.

Each fault is a one-line defect, applied in process by patching a
``replaycm`` module attribute in every module that binds it (as
``bench/tracer.py`` patches the names it times), or one edit of a workload's
configuration.  The ``desk`` and ``backend`` workloads of
``bench/workloads.json`` run through ``cli.main`` once unmutated and once per
fault; a faulted run reuses the unmutated run's output of every stage before
the first one the fault can change, the corpus always.

The table gives each system's eval EER and the fused one, whether today's
gate refuses the run (the fused EER above the workload's ``eer_ceiling_pct``)
and whether a candidate per-system ceiling of 30 % would, and whether the
fault changed any score file at all, so that a patch that misses its target
reads "no effect", not "not refused".  The suite only counts: it changes no
gate.

Run from the repository root (about 17 s on 2 vCPUs; the table prints
without ``-s``):

    python -m pytest mutations
"""

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from replaycm import cepstral, cli, fusion, gmm, ivector, pipeline

WORKLOADS = ("desk", "backend")
STAGES = ("extract", "train", "score", "fuse-train", "fuse-apply")  # eval reads only
SYSTEM_CEILING_PCT = 30.0  # the candidate per-system gate
PHRASE = "P00"

# backend trains a rank-60 T from 30-40 utterances per phrase, and says so
pytestmark = pytest.mark.filterwarnings("ignore:training a rank-60 subspace")


def _rebind(monkeypatch, module, name: str, make) -> None:
    """Bind ``make(original)`` in place of ``module.name`` in every replaycm
    module that binds the original, as the tracer installs its wrappers."""
    original = getattr(module, name)
    replacement = make(original)
    for module_name, bound in list(sys.modules.items()):
        if module_name.split(".")[0] == "replaycm":
            for attr, value in list(vars(bound).items()):
                if value is original:
                    monkeypatch.setattr(bound, attr, replacement)


def _centred_only(normalize):
    """``center_length_normalize`` without its length normalisation."""
    def centred(vectors, mean=None):
        vectors = np.asarray(vectors, dtype=np.float64)
        mean = vectors.mean(axis=0) if mean is None else mean
        return vectors - mean, mean
    return centred


@dataclass(frozen=True)
class Fault:
    name: str
    stage: str  # the first stage whose output the fault can change
    patch: tuple = ()  # (module, attribute, make replacement from original)
    feature_edit: tuple = ()  # (workload, feature, key, value) of a config fault

    def apply(self, monkeypatch, config: dict) -> None:
        if self.patch:
            _rebind(monkeypatch, *self.patch)
        if self.feature_edit:
            _, feature, key, value = self.feature_edit
            config["features"][feature][key] = value

    def runs_on(self, workload: str) -> bool:
        return not self.feature_edit or self.feature_edit[0] == workload


FAULTS = (
    Fault("cmvn returns its input", "extract", (cepstral, "cmvn", lambda cmvn: lambda x: x)),
    Fault("GMM EM runs 1 iteration", "train",
          (gmm, "gmm_em_train",
           lambda train: lambda *args, **kwargs: train(*args, **{**kwargs, "iters": 1}))),
    Fault("no length normalisation", "train",
          (ivector, "center_length_normalize", _centred_only)),
    Fault("fusion ignores its weights", "fuse-train",
          (fusion, "fusion_apply", lambda apply: lambda model, scores: np.sum(scores, axis=1))),
    Fault(f"every phrase scored with {PHRASE}'s models", "score",
          (pipeline, "_score_key",
           lambda score_key: lambda cfg, spec, key, *rest: score_key(
               cfg, spec, key and PHRASE, *rest))),
    Fault("i-vectors not centred", "train",
          (ivector, "center_length_normalize",
           lambda normalize: lambda vectors, mean=None: normalize(
               vectors, np.zeros(np.shape(vectors)[1])))),
    Fault('"cmvn": false on lpcc20', "extract",
          feature_edit=("backend", "lpcc20", "cmvn", False)),
)

# Eval EERs in % (each system in workload order, then the fused one) and
# whether the fault changes any score file, as these faults measured when
# they were first recorded; every score file has been byte-identical since.
EXPECTED = {
    ("desk", "unmutated"): ((0, 4, 0), None),
    ("backend", "unmutated"): ((6, 18, 6), None),
    ("desk", "cmvn returns its input"): ((0, 4, 0), False),  # desk normalises nothing
    ("backend", "cmvn returns its input"): ((6, 42, 6), True),
    ("desk", "GMM EM runs 1 iteration"): ((0, 8, 0), True),
    ("backend", "GMM EM runs 1 iteration"): ((6, 12, 6), True),
    ("desk", "no length normalisation"): ((0, 16, 0), True),
    ("backend", "no length normalisation"): ((6, 14, 6), True),
    ("desk", "fusion ignores its weights"): ((0, 4, 0), True),
    ("backend", "fusion ignores its weights"): ((6, 18, 6), True),
    ("desk", "every phrase scored with P00's models"): ((0, 4, 0), False),  # no phrase systems
    ("backend", "every phrase scored with P00's models"): ((28, 46, 30), True),
    ("desk", "i-vectors not centred"): ((0, 2, 0), True),
    ("backend", "i-vectors not centred"): ((6, 18, 6), True),
    ("backend", '"cmvn": false on lpcc20'): ((6, 42, 6), True),
}


@dataclass(frozen=True)
class Row:
    eers: tuple  # eval EER (%) of each system, then the fused one
    applied: bool | None  # some score file differs from the unmutated run's
    fused_refused: bool  # today's gate
    system_refused: bool  # the candidate per-system ceiling


def _digests(workload, work: Path) -> dict:
    return {name: hashlib.sha256((work / name).read_bytes()).hexdigest()
            for name in workload.score_files()}


def _run(workload, work: Path, config: dict, first_stage: str, base: Path | None = None):
    """Run the workload's commands from ``first_stage`` on in ``work``; the
    output of the stages before it is the run in ``base``'s, linked."""
    work.mkdir()
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    first = STAGES.index(first_stage)
    if base is None:
        assert cli.main(["synth", "--config", str(config_path)]) == 0
    else:
        outputs = {"extract": ["features"], "train": ["models"],
                   "score": [name for name in workload.score_files()
                             if not name.startswith("fused.")]}
        for name in ["corpus"] + [out for stage in STAGES[:first]
                                  for out in outputs.get(stage, [])]:
            (work / name).symlink_to(base / name)
    for stage, argv in workload.commands(work, config_path):
        if stage in STAGES[first:]:
            assert cli.main(argv) == 0, argv


def _row(workload, work: Path, base_digests: dict | None) -> Row:
    protocol = work / "corpus/protocol_eval.txt"
    eers = tuple(100.0 * pipeline.evaluate(work / name, protocol)[0]
                 for name in workload.eval_score_files())
    applied = None if base_digests is None else _digests(workload, work) != base_digests
    return Row(eers, applied,
               eers[-1] > workload.eer_ceiling_pct, max(eers[:-1]) > SYSTEM_CEILING_PCT)


@pytest.fixture(scope="module")
def table(tmp_path_factory, bench_workloads) -> dict:
    """(workload, fault name) -> Row, "unmutated" included."""
    rows = {}
    for name in WORKLOADS:
        workload = bench_workloads.Workload.load(name)
        root = tmp_path_factory.mktemp(name)
        base = root / "unmutated"
        _run(workload, base, workload.full_config(base), STAGES[0])
        rows[name, "unmutated"] = _row(workload, base, None)
        base_digests = _digests(workload, base)
        for i, fault in enumerate(f for f in FAULTS if f.runs_on(name)):
            work = root / f"fault{i}"
            config = workload.full_config(work)
            with pytest.MonkeyPatch.context() as monkeypatch:
                fault.apply(monkeypatch, config)
                _run(workload, work, config, fault.stage, base)
            rows[name, fault.name] = _row(workload, work, base_digests)
    return rows


def test_every_fault_reads_its_recorded_eers_and_effect(table):
    found = {key: (tuple(round(eer, 6) for eer in row.eers), row.applied)
             for key, row in table.items()}
    assert found == EXPECTED


def test_the_gates_refuse_what_they_refused_when_first_counted(table):
    # today's fused gate refuses 0 of the 6 source faults on desk and 1 on
    # backend; the per-system ceiling refuses 2 of them and the config fault
    def refused(gate, workload):
        return sorted(fault for (name, fault), row in table.items()
                      if name == workload and getattr(row, gate))

    assert refused("fused_refused", "desk") == []
    assert refused("fused_refused", "backend") == ["every phrase scored with P00's models"]
    assert refused("system_refused", "desk") == []
    assert refused("system_refused", "backend") == [
        '"cmvn": false on lpcc20', "cmvn returns its input",
        "every phrase scored with P00's models"]


def test_report_the_table(table, capsys):
    def mark(row, refused):
        return "refused" if refused else ("no effect" if row.applied is False else "passes")

    lines = ["", f"{'fault':40s} {'workload':9s} {'EERs % (systems / fused)':26s} "
             f"{'fused gate':11s} per-system 30 %"]
    for (workload, fault), row in table.items():
        eers = " / ".join(f"{eer:g}" for eer in row.eers)
        lines.append(f"{fault:40s} {workload:9s} {eers:26s} "
                     f"{mark(row, row.fused_refused):11s} {mark(row, row.system_refused)}")
    with capsys.disabled():
        print("\n".join(lines))
