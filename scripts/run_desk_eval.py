#!/usr/bin/env python3
"""End-to-end desk experiment on the bundled synthetic replay corpus.

Synthesizes the corpus, extracts every configured feature, trains every
configured system, scores both subsets, trains a fusion of all systems on
the training scores when there are two or more, and reports per-system and
fused equal error rates for the evaluation subset, with stage timings.

Without --config the desk preset (CQCC-GMM and LPCC i-vector + SVM) is
written to <work-dir>/desk_config.json and run. Every setting, the seed and
the paths included, comes from the config: protocols from its paths, and
score files and the fusion model go to its work_dir.

Usage:
    python scripts/run_desk_eval.py [--work-dir work | --config cfg.json]
"""

import argparse
import json
import sys
import time
from pathlib import Path

from replaycm import cli, pipeline
from replaycm.config import ConfigError, default_desk_config, load_config
from replaycm.corpus import parse_protocol


def run(*args):
    code = cli.main([str(a) for a in args])
    if code != 0:
        sys.exit(code)


def eer_percent(score_path, trials):
    """The EER (%) that ``eval`` reports for a score file, or its refusal."""
    try:
        return 100.0 * pipeline.evaluate(score_path, trials)[0]
    except ValueError as exc:
        sys.exit(f"error: {exc}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--work-dir", default="work",
                        help="work directory of the generated desk config")
    source.add_argument("--config", default=None,
                        help="existing pipeline config (default: generated)")
    args = parser.parse_args()

    if args.config:
        cfg_path = Path(args.config)
    else:
        work = Path(args.work_dir)
        work.mkdir(parents=True, exist_ok=True)
        cfg_path = work / "desk_config.json"
        cfg_path.write_text(
            json.dumps(default_desk_config(str(work)), indent=2)
        )
        print(f"config -> {cfg_path}")
    try:
        cfg = load_config(cfg_path)
    except ConfigError as exc:
        sys.exit(f"error: {exc}")
    work = Path(cfg.paths.work_dir)
    protocols = {"train": cfg.paths.protocol_train, "eval": cfg.paths.protocol_eval}
    systems = list(cfg.systems)
    fused = len(systems) >= 2

    timings = {}

    start = time.time()
    run("synth", "--config", cfg_path)
    timings["synth"] = time.time() - start

    start = time.time()
    for feature in cfg.features:
        for protocol in protocols.values():
            run("extract", "--config", cfg_path, "--feature", feature,
                "--protocol", protocol)
    timings["extract"] = time.time() - start

    start = time.time()
    for system in systems:
        run("train", "--config", cfg_path, "--system", system)
    timings["train"] = time.time() - start

    start = time.time()
    for system in systems:
        for tag, protocol in protocols.items():
            run("score", "--config", cfg_path, "--system", system,
                "--protocol", protocol,
                "--out-scores", work / f"{system}.{tag}.scores")
    timings["score"] = time.time() - start

    if fused:
        start = time.time()
        run("fuse", *[work / f"{s}.train.scores" for s in systems],
            "--protocol", protocols["train"],
            "--out-model", work / "fusion.rsmd",
            "--out-scores", work / "fused.train.scores")
        run("fuse", *[work / f"{s}.eval.scores" for s in systems],
            "--apply", work / "fusion.rsmd",
            "--out-scores", work / "fused.eval.scores")
        timings["fuse"] = time.time() - start

    eval_trials = parse_protocol(protocols["eval"])
    print()
    print(f"{'system':24s}  eval EER")
    for system in systems:
        print(f"{system:24s}  {eer_percent(work / f'{system}.eval.scores', eval_trials):6.2f}%")
    if fused:
        label = f"fusion ({len(systems)}-way)"
        print(f"{label:24s}  {eer_percent(work / 'fused.eval.scores', eval_trials):6.2f}%")
    print()
    total = sum(timings.values())
    for stage, seconds in timings.items():
        print(f"{stage:8s} {seconds:6.1f}s")
    print(f"{'total':8s} {total:6.1f}s")


if __name__ == "__main__":
    main()
