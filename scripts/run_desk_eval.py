#!/usr/bin/env python3
"""End-to-end desk experiment on the bundled synthetic replay corpus.

Synthesizes the corpus and runs the config's command list, bench/workloads.py's
``Workload.commands``: it extracts every configured feature, trains and scores
every configured system on both subsets and, with two or more systems, fuses
them on the training scores. Reports per-system and fused equal error rates
for the evaluation subset, with stage timings.

Without --config the desk preset, the desk workload of bench/workloads.json,
is written to <work-dir>/desk_config.json and run. Every setting, the seed
and the paths included, comes from the config; its protocols must lie in
<work_dir>/corpus, where the command list reads them.

Usage:
    python scripts/run_desk_eval.py [--work-dir work | --config cfg.json]
"""

import argparse
import json
import sys
import time
from pathlib import Path

from replaycm import cli, pipeline
from replaycm.config import ConfigError, load_config

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
try:
    from workloads import Workload
finally:
    sys.path.remove(str(BENCH))


def refuse(message):
    """Exit 2 with one ``error:`` line, as the CLI refuses."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def eer_percent(score_path, protocol):
    """The EER (%) that ``eval`` reports for a score file, or its refusal."""
    try:
        return 100.0 * pipeline.evaluate(score_path, protocol)[0]
    except ValueError as exc:
        refuse(exc)


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
        cfg_path.write_text(json.dumps(Workload.load("desk").full_config(work), indent=2))
        print(f"config -> {cfg_path}")
    try:
        cfg = load_config(cfg_path)
    except (ConfigError, OSError) as exc:
        refuse(exc)
    work = Path(cfg.paths.work_dir)
    protocols = (cfg.paths.protocol_train, cfg.paths.protocol_eval)
    if [Path(p) for p in protocols] != [work / "corpus/protocol_train.txt",
                                        work / "corpus/protocol_eval.txt"]:
        refuse(f"{cfg_path}: the protocols must be protocol_train.txt and "
               f"protocol_eval.txt in {work / 'corpus'}, not {protocols[0]} and {protocols[1]}")
    # the script gates nothing, so no EER ceiling applies
    workload = Workload(cfg_path.stem, cfg.seed,
                        json.loads(cfg_path.read_text(encoding="utf-8")), 100.0)

    timings = {}
    commands = [("synth", ["synth", "--config", str(cfg_path)]),
                *workload.commands(work, cfg_path)]
    for stage, argv in commands:
        if stage != "eval":
            start = time.perf_counter()
            code = cli.main(argv)
            if code:
                sys.exit(code)
            stage = stage.split("-")[0]  # fuse-train and fuse-apply time as fuse
            timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - start

    print()
    print(f"{'system':24s}  eval EER")
    labels = [*workload.systems, f"fusion ({len(workload.systems)}-way)"]
    for label, name in zip(labels, workload.eval_score_files()):
        print(f"{label:24s}  {eer_percent(work / name, protocols[1]):6.2f}%")
    print()
    for stage, seconds in timings.items():
        print(f"{stage:8s} {seconds:6.1f}s")
    print(f"{'total':8s} {sum(timings.values()):6.1f}s")


if __name__ == "__main__":
    main()
