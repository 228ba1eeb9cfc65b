"""Command-line front end.

Subcommands: synth, extract, train, score, fuse, eval, dump.  Diagnostics go to
stderr; data goes to files or stdout.  Every command is deterministic given
the configuration file and seeds.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import containers, pipeline
from .config import FEATURE_KINDS, ConfigError, load_config
from .corpus import generate_synth_corpus, parse_protocol
from .fusion import fusion_apply, fusion_train
from .metrics import ScoreSet, compute_eer, read_scores, write_scores


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _info(message: str) -> None:
    print(message, file=sys.stderr)


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
                f"<dir>/protocol_eval.txt of one directory (expected {expected}); "
                "fix the paths or pass --out-dir"
            )
    return corpus


def cmd_synth(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    out_dir = Path(args.out_dir) if args.out_dir else _configured_corpus_dir(cfg.paths)
    try:
        generate_synth_corpus(cfg.corpus, out_dir)
    except OSError as exc:
        _err(f"cannot write corpus under {out_dir}: {exc}")
        return 2
    print(out_dir / "manifest.json")
    return 0


def cmd_extract(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    if args.feature not in cfg.features:
        raise ConfigError(f"feature {args.feature!r} is not configured")
    spec = cfg.features[args.feature]
    trials = parse_protocol(args.protocol)
    audio_dir = Path(args.audio_dir or cfg.paths.audio_dir)
    out_dir = Path(args.out_dir) if args.out_dir else pipeline.feature_dir(cfg, spec.name)
    out_dir.mkdir(parents=True, exist_ok=True)

    def work(trial):
        try:
            pipeline.extract_trial(cfg, spec, trial, audio_dir, out_dir)
            return trial.trial_id, None
        except (ValueError, OSError) as exc:  # report per-trial failures, keep going
            return trial.trial_id, str(exc)

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(work, trials))
    else:
        results = [work(t) for t in trials]

    failures = [(tid, msg) for tid, msg in results if msg is not None]
    for tid, msg in failures:
        _err(f"extraction failed for trial {tid}: {msg}")
    _info(f"extracted {len(results) - len(failures)} feature file(s), "
          f"{len(failures)} failure(s)")
    if failures and not args.keep_going:
        return 2
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    if args.system not in cfg.systems:
        raise ConfigError(f"system {args.system!r} is not configured")
    trials = parse_protocol(args.protocol or cfg.paths.protocol_train)
    diagnostics = pipeline.train_system(cfg, args.system, trials)
    for key in sorted(diagnostics):
        _info(f"{args.system}: {key} = {diagnostics[key]:.6f}")
    _info(f"models written to {pipeline.model_dir(cfg, args.system)}")
    return 0


def cmd_score(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    if args.system not in cfg.systems:
        raise ConfigError(f"system {args.system!r} is not configured")
    trials = parse_protocol(args.protocol)
    score_set = pipeline.score_system(cfg, args.system, trials)
    write_scores(score_set, args.out_scores)
    _info(f"scored {len(score_set)} trial(s) -> {args.out_scores}")
    return 0


def _aligned_score_matrix(paths: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    sets = [read_scores(p) for p in paths]
    reference = sets[0]
    ref_ids = set(reference.trial_ids)
    for path, other in zip(paths[1:], sets[1:]):
        other_ids = set(other.trial_ids)
        if other_ids != ref_ids:
            missing = sorted(ref_ids - other_ids)[:5]
            extra = sorted(other_ids - ref_ids)[:5]
            raise ValueError(
                f"score files are misaligned: {path} differs from {paths[0]} "
                f"(missing e.g. {missing}, unexpected e.g. {extra})"
            )
    columns = []
    for score_set in sets:
        lookup = score_set.as_dict()
        columns.append([lookup[tid] for tid in reference.trial_ids])
    return reference.trial_ids, np.array(columns).T


def cmd_fuse(args) -> int:
    trial_ids, matrix = _aligned_score_matrix(args.scores)
    if args.apply:
        model = pipeline.load_model(args.apply, "fusion")
    else:
        if not args.protocol:
            raise ValueError("training a fusion requires --protocol with labels")
        trials = parse_protocol(args.protocol)
        labels = pipeline.labels_vector(trials, trial_ids)
        model = fusion_train(matrix, labels, l2=args.l2)
        if args.out_model:
            pipeline.save_model(args.out_model, "fusion", model)
            _info(f"fusion model -> {args.out_model}")
    fused = fusion_apply(model, matrix)
    write_scores(ScoreSet(trial_ids, fused), args.out_scores)
    _info(f"fused {len(trial_ids)} trial(s) from {len(args.scores)} system(s) "
          f"-> {args.out_scores}")
    return 0


def cmd_eval(args) -> int:
    score_set = read_scores(args.scores)
    trials = parse_protocol(args.protocol)
    labeled_ids = {t.trial_id for t in trials if t.label in ("genuine", "spoof")}
    scored_ids = set(score_set.trial_ids)
    if scored_ids != labeled_ids:
        unscored = sorted(labeled_ids - scored_ids)[:5]
        unlabeled = sorted(scored_ids - labeled_ids)[:5]
        raise ValueError(
            "scores and labeled protocol trials do not match "
            f"(labeled-but-unscored e.g. {unscored}, scored-but-unlabeled "
            f"e.g. {unlabeled})"
        )
    labels = pipeline.labels_vector(trials, score_set.trial_ids)
    genuine = score_set.scores[labels > 0]
    spoof = score_set.scores[labels < 0]
    eer, threshold = compute_eer(genuine, spoof)
    print(f"EER {100.0 * eer:.2f}% threshold {threshold:.6g}")
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

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="pipeline configuration (JSON)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configuration seed")

    p = sub.add_parser("synth", help="generate the synthetic replay corpus")
    add_common(p)
    p.add_argument("--out-dir", default=None,
                   help="corpus directory (default: the parent of paths.audio_dir, "
                   "which must hold both protocols)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extract features for every trial")
    add_common(p)
    p.add_argument("--feature", required=True,
                   help=f"configured feature name (types: {', '.join(FEATURE_KINDS)})")
    p.add_argument("--protocol", required=True)
    p.add_argument("--audio-dir", default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--keep-going", action="store_true",
                   help="exit 0 even if some trials failed")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a configured system")
    add_common(p)
    p.add_argument("--system", required=True)
    p.add_argument("--protocol", default=None,
                   help="training protocol (default: paths.protocol_train)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a protocol with a trained system")
    add_common(p)
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
    p.add_argument("--l2", type=float, default=1e-6)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="report the equal error rate of a score file")
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
        return args.func(args)
    except (ValueError, OSError) as exc:
        _err(str(exc))
        return 2
    except Exception:
        traceback.print_exc()
        return 1


def entrypoint() -> None:
    sys.exit(main())
