"""Command-line front end.

Subcommands:
  gen-corpus            write a synthetic corpus for the configured task
  fit-teacher           train and freeze a teacher on the corpus
  predistill            supervised warm-start of the student
  train                 one RL run of sweep-k (estimator/K from flags)
  sweep-k               full pipeline over every (variant, seed)
  sweep-bias-variance   bias/variance of the K-step return across K
  oracle-check          enumeration-oracle self-checks
  emit-plots            turn emitted CSVs into gnuplot data + manifest

Exit codes: 0 success, 2 configuration error, 3 stage failure,
4 oracle-check failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import models, pipeline, tasks, teacher as teacher_mod, trainer
from .config import ConfigError, ExperimentConfig, load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_ORACLE = 4


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kstepkd", description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=str, default=None, help="JSON experiment config")
    parser.add_argument("--out", type=str, default=None, help="sets out_dir")
    parser.add_argument("--seed", type=int, default=None, help="sets seeds to [SEED]")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus file")
    p.add_argument("--n", type=int, default=None, help="number of sequences")

    sub.add_parser("fit-teacher", help="fit and checkpoint the teacher")
    sub.add_parser("predistill", help="teacher + supervised student warm-start")

    p = sub.add_parser("train", help="single RL training run")
    p.add_argument("--estimator", choices=("llmr", *trainer.ESTIMATORS), default="kstep")
    p.add_argument("--k", type=int, default=2)

    sub.add_parser("sweep-k", help="full pipeline over all variants and seeds")

    p = sub.add_parser("sweep-bias-variance", help="bias/variance sweep over K")
    p.add_argument("--samples-per-input", type=int, default=None,
                   help="sets sweep.samples_per_input")

    sub.add_parser("oracle-check", help="run enumeration-oracle self checks")

    p = sub.add_parser("emit-plots", help="emit gnuplot data from CSVs")
    p.add_argument("csvs", nargs="+", help="input CSV paths")
    return parser


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def _overrides(args: argparse.Namespace) -> dict[str, object]:
    """The settings the command line gives, as a config layer over the file's."""
    over: dict[str, object] = {}
    if args.out is not None:
        over["out_dir"] = args.out
    if args.seed is not None:
        over["seeds"] = [args.seed]
    if getattr(args, "samples_per_input", None) is not None:
        over["sweep"] = {"samples_per_input": args.samples_per_input}
    return over


def _cmd_gen_corpus(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    params = cfg.raw["corpus"]
    n = args.n if args.n is not None else params["n_sequences"]
    if n < 1:
        raise ConfigError("--n must be >= 1")
    rng = np.random.default_rng(params["seed"])
    corpus = tasks.gen_corpus(cfg.task(), n, rng, max_len=cfg.horizon)
    path = _out_dir(cfg) / "corpus.txt"
    tasks.write_corpus(path, corpus)
    print(f"wrote {len(corpus)} sequences to {path}")
    return EXIT_OK


def _cmd_fit_teacher(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    splits = pipeline.build_corpus(cfg)
    seed = cfg.seeds[0]
    fitted = pipeline.fit_seed_teacher(cfg, splits, seed)
    path = _out_dir(cfg) / "teacher.json"
    teacher_mod.save_teacher(fitted, path)
    print(f"wrote teacher checkpoint to {path}")
    return EXIT_OK


def _cmd_predistill(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    splits = pipeline.build_corpus(cfg)
    teacher, student = pipeline.fit_seed(cfg, splits, cfg.seeds[0])
    out = _out_dir(cfg)
    teacher_mod.save_teacher(teacher, out / "teacher.json")
    models.save_model(student, out / "student_predistill.json")
    print(f"wrote pre-distilled student to {out / 'student_predistill.json'}")
    return EXIT_OK


def _cmd_train(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    seed = cfg.seeds[0]
    name, estimator, k = pipeline.variant(args.estimator, args.k)
    try:
        trainer.check_variant(estimator, args.k)  # the flag's K, whatever the estimator
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from exc
    splits = pipeline.build_corpus(cfg)
    # the sweep's own training and test evaluation, for one (variant, seed)
    (outcome,), test_returns = pipeline.train_seeds(
        cfg, splits, {seed: pipeline.fit_seed(cfg, splits, seed)}, [(name, estimator, k)]
    )[seed]
    if isinstance(outcome, Exception):
        raise pipeline.StageError(f"rl:{name}", seed, outcome) from outcome
    best, log, _ = outcome
    out = _out_dir(cfg)
    models.save_model(best, out / "student_rl.json")
    pipeline.write_table(out / "trainlog.csv", trainer.TRAINLOG_HEADER, log)
    print(f"final greedy test return: {test_returns[0]:.6f}")
    print(f"wrote trainlog to {out / 'trainlog.csv'}")
    return EXIT_OK


def _cmd_sweep_k(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = pipeline.run_pipeline(cfg)
    print(f"pipeline artifacts in {out}")
    return EXIT_OK


def _cmd_sweep_bias_variance(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = _out_dir(cfg) / "bias_variance.csv"
    pipeline.sweep_bias_variance(cfg, out_path=out)
    print(f"wrote bias/variance sweep to {out}")
    return EXIT_OK


def _cmd_oracle_check(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = _out_dir(cfg) / "oracle_report.csv"
    ok = pipeline.oracle_check(out_path=out, seed=cfg.seeds[0])
    print(f"oracle report in {out}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_ORACLE


def _cmd_emit_plots(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = pipeline.emit_plots(args.csvs, _out_dir(cfg) / "plots")
    print(f"plot data in {out}")
    return EXIT_OK


_COMMANDS = {
    "gen-corpus": _cmd_gen_corpus,
    "fit-teacher": _cmd_fit_teacher,
    "predistill": _cmd_predistill,
    "train": _cmd_train,
    "sweep-k": _cmd_sweep_k,
    "sweep-bias-variance": _cmd_sweep_bias_variance,
    "oracle-check": _cmd_oracle_check,
    "emit-plots": _cmd_emit_plots,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        cfg = load_config(args.config, _overrides(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, pipeline.SchemaError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except pipeline.StageError as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_STAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
