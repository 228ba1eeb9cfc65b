"""Command-line front end.

Subcommands: synth, extract, train, score, fuse, eval, dump.  Diagnostics go to
stderr; data goes to files or stdout.  A command that takes ``--config`` reads
every setting, the seed and the paths included, from that one file.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

import numpy as np

from . import containers, parallel, pipeline, spectral
from .config import ConfigError, load_config
from .corpus import ProtocolError, generate_synth_corpus, parse_protocol
from .fusion import fusion_apply, fusion_train
from .metrics import ScoreSet, write_scores


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _configured(args, table: dict, what: str):
    """The ``table`` entry named by ``--<what>``, or a refusal naming the config file."""
    name = getattr(args, what)
    if name not in table:
        raise ConfigError(f"{args.config}: {what} {name!r} is not configured")
    return table[name]


def _configured_corpus_dir(paths) -> Path:
    """The directory ``synth`` writes so that ``extract`` and ``train`` find
    the corpus: paths.audio_dir, paths.protocol_train and paths.protocol_eval
    must be <dir>/wav, <dir>/protocol_train.txt and <dir>/protocol_eval.txt."""
    corpus = Path(paths.audio_dir).parent
    layout = {"audio_dir": corpus / "wav",
              "protocol_train": corpus / "protocol_train.txt",
              "protocol_eval": corpus / "protocol_eval.txt"}
    for key, expected in layout.items():
        if Path(getattr(paths, key)) != expected:
            raise ConfigError(
                f"paths.{key} is {getattr(paths, key)!r}, but synth writes the "
                f"corpus as <dir>/wav, <dir>/protocol_train.txt and "
                f"<dir>/protocol_eval.txt of one directory (expected {expected})"
            )
    return corpus


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    out_dir = _configured_corpus_dir(cfg.paths)
    generate_synth_corpus(cfg.corpus, out_dir)
    print(out_dir / "manifest.json")
    return 0


def cmd_extract(args) -> int:
    cfg = load_config(args.config)
    spec = _configured(args, cfg.features, "feature")
    trials = parse_protocol(args.protocol)
    pipeline.feature_dir(cfg, spec.name).mkdir(parents=True, exist_ok=True)
    failures = []
    for trial in trials:  # looked up on the module, so a tracer sees every call
        try:
            pipeline.extract_trial(cfg, spec, trial)
        except ChildProcessError:
            raise  # a dead ΔEEMD worker fails the command, not one trial
        except (ValueError, OSError) as exc:
            failures.append((trial.trial_id, str(exc)))
    for tid, msg in failures:
        _err(f"extraction failed for trial {tid}: {msg}")
    _info(f"extracted {len(trials) - len(failures)} feature file(s), "
          f"{len(failures)} failure(s)")
    if failures and not args.keep_going:
        return 2
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    _configured(args, cfg.systems, "system")
    protocol = args.protocol or cfg.paths.protocol_train
    trials = parse_protocol(protocol)
    try:
        diagnostics = pipeline.train_system(cfg, args.system, trials)
    except ProtocolError as exc:  # the protocol lacks a class to train on
        raise ProtocolError(f"{protocol}: {exc}") from exc
    for key in sorted(diagnostics):
        _info(f"{args.system}: {key} = {diagnostics[key]:.6f}")
    _info(f"models written to {pipeline.model_dir(cfg, args.system)}")
    return 0


def cmd_score(args) -> int:
    cfg = load_config(args.config)
    _configured(args, cfg.systems, "system")
    score_set = pipeline.score_system(cfg, args.system, parse_protocol(args.protocol))
    write_scores(score_set, args.out_scores)
    _info(f"scored {len(score_set)} trial(s) -> {args.out_scores}")
    return 0


def cmd_fuse(args) -> int:
    if args.apply:
        for option, value in (("--protocol", args.protocol), ("--out-model", args.out_model)):
            if value is not None:
                raise ValueError(f"{option} trains a fusion, so it cannot be used with --apply")
    elif not args.protocol:
        raise ValueError("training a fusion requires --protocol with labels")
    trial_ids, columns, labels = pipeline.read_score_files(args.scores, args.protocol)
    matrix = np.array(columns).T
    if args.apply:
        model = pipeline.load_model(args.apply, "fusion")
        if model.weights.size != len(args.scores):
            raise ValueError(f"{args.apply}: the fusion model was trained on "
                             f"{model.weights.size} system(s), not the "
                             f"{len(args.scores)} score file(s) given")
    try:  # too few trials of a class, or a fit or fused score that is not finite
        if not args.apply:
            model = fusion_train(matrix, labels)
        fused = fusion_apply(model, matrix)
    except ValueError as exc:
        raise ValueError(f"{args.apply or args.scores[0]}: {exc}") from exc
    if args.out_model:
        pipeline.save_model(args.out_model, "fusion", model)
        _info(f"fusion model -> {args.out_model}")
    write_scores(ScoreSet(trial_ids, fused), args.out_scores)
    _info(f"fused {len(trial_ids)} trial(s) from {len(args.scores)} system(s) "
          f"-> {args.out_scores}")
    return 0


def cmd_eval(args) -> int:
    eer, threshold, cost, min_cost = pipeline.evaluate(args.scores, args.protocol)
    print(f"EER {100.0 * eer:.2f}% threshold {threshold:.6g} "
          f"Cllr {cost:.4f} min-Cllr {min_cost:.4f}")
    return 0


def cmd_dump(args) -> int:
    kind, arrays = containers.read_model(args.model)
    containers.write_model_text(args.out, kind, arrays)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replaycm",
        description="Replay-attack detection toolkit: synthesize a corpus, "
        "extract features, train and score detectors, fuse and evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True,
                       help="pipeline configuration (JSON), the source of every setting")

    p = sub.add_parser("synth", help="generate the synthetic replay corpus where "
                       "the configured paths point")
    add_config(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extract features for every trial")
    add_config(p)
    p.add_argument("--feature", required=True, help="configured feature name "
                   f"(types: {', '.join(pipeline.FEATURE_KINDS)})")
    p.add_argument("--protocol", required=True)
    p.add_argument("--jobs", type=int, choices=[1], default=1,
                   help="1 only, kept for scripts that pass it; trials run one by one")
    p.add_argument("--keep-going", action="store_true",
                   help="exit 0 even if some trials failed")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a configured system")
    add_config(p)
    p.add_argument("--system", required=True)
    p.add_argument("--protocol", default=None,
                   help="training protocol (default: paths.protocol_train)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a protocol with a trained system")
    add_config(p)
    p.add_argument("--system", required=True)
    p.add_argument("--protocol", required=True)
    p.add_argument("--out-scores", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("fuse", help="train or apply a score-level fusion")
    p.add_argument("scores", nargs="+", help="per-system score files")
    p.add_argument("--protocol", default=None, help="labels for fusion training")
    p.add_argument("--apply", default=None, help="apply an existing fusion model")
    p.add_argument("--out-model", default=None)
    p.add_argument("--out-scores", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="report the equal error rate, Cllr and min-Cllr "
                       "of a score file")
    p.add_argument("scores")
    p.add_argument("--protocol", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("dump", help="write a model file as human-readable text")
    p.add_argument("model", help="model file (.rsmd)")
    p.add_argument("out", help="text file to write")
    p.set_defaults(func=cmd_dump)
    return parser


def main(argv=None) -> int:
    """Run one command.  A user error (bad config, input or file: ValueError
    or OSError) exits 2 with one ``error:`` line; any other exception is a
    bug, so it exits 1 with its traceback."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with parallel.workers():  # no worker outlives the command
            return args.func(args)
    except (ValueError, OSError) as exc:
        _err(str(exc))
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    finally:  # nor do its CQT kernels, lest they raise every later in-process command's RSS
        spectral._cqt_kernels.cache_clear()


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
