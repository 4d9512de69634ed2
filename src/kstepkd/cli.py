"""Command-line front end.

Subcommands:
  gen-corpus            write a synthetic corpus for the configured task
  fit-teacher           train and freeze a teacher on the corpus
  predistill            supervised warm-start of the student
  train                 one RL run (estimator/K from flags)
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
    parser.add_argument("--out", type=str, default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override (single-seed ops)")
    parser.add_argument("--threads", type=int, default=1,
                        help="sweep-k worker processes, one seed per task (>= 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus file")
    p.add_argument("--n", type=int, default=None, help="number of sequences")

    sub.add_parser("fit-teacher", help="fit and checkpoint the teacher")
    sub.add_parser("predistill", help="teacher + supervised student warm-start")

    p = sub.add_parser("train", help="single RL training run")
    p.add_argument("--estimator", choices=trainer.ESTIMATORS, default="kstep")
    p.add_argument("--k", type=int, default=2)

    sub.add_parser("sweep-k", help="full pipeline over all variants and seeds")

    p = sub.add_parser("sweep-bias-variance", help="bias/variance sweep over K")
    p.add_argument("--samples-per-input", type=int, default=None)

    sub.add_parser("oracle-check", help="run enumeration-oracle self checks")

    p = sub.add_parser("emit-plots", help="emit gnuplot data from CSVs")
    p.add_argument("csvs", nargs="+", help="input CSV paths")
    return parser


def _out_dir(cfg: ExperimentConfig, args: argparse.Namespace) -> Path:
    out = Path(args.out) if args.out else cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seed(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    return args.seed if args.seed is not None else cfg.seeds[0]


def _cmd_gen_corpus(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    params = cfg.corpus_params()
    n = args.n if args.n is not None else int(params["n_sequences"])
    if n < 1:
        raise ConfigError("--n must be >= 1")
    rng = np.random.default_rng(int(params["seed"]))
    corpus = tasks.gen_corpus(cfg.task(), n, rng, max_len=cfg.horizon)
    path = _out_dir(cfg, args) / "corpus.txt"
    tasks.write_corpus(path, corpus)
    print(f"wrote {len(corpus)} sequences to {path}")
    return EXIT_OK


def _cmd_fit_teacher(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    splits = pipeline.build_corpus(cfg)
    seed = _seed(cfg, args)
    fitted = pipeline.fit_seed_teacher(cfg, splits, seed)
    path = _out_dir(cfg, args) / "teacher.json"
    teacher_mod.save_teacher(fitted, path)
    print(f"wrote teacher checkpoint to {path}")
    return EXIT_OK


def _cmd_predistill(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    splits = pipeline.build_corpus(cfg)
    seed = _seed(cfg, args)
    fitted = pipeline.fit_seed_teacher(cfg, splits, seed)
    student0 = pipeline.init_seed_student(cfg, seed)
    student = pipeline.predistill_student(cfg, student0, fitted, splits, seed)
    out = _out_dir(cfg, args)
    teacher_mod.save_teacher(fitted, out / "teacher.json")
    models.save_model(student, out / "student_predistill.json")
    print(f"wrote pre-distilled student to {out / 'student_predistill.json'}")
    return EXIT_OK


def _cmd_train(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    seed = _seed(cfg, args)
    name, estimator, k = pipeline.variant(args.estimator, args.k)
    try:
        rl_cfg = cfg.rl_config(estimator, k, seed)
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from exc
    splits = pipeline.build_corpus(cfg)
    fitted = pipeline.fit_seed_teacher(cfg, splits, seed)
    student0 = pipeline.init_seed_student(cfg, seed)
    student = pipeline.predistill_student(cfg, student0, fitted, splits, seed)
    try:
        best, log = trainer.train(student, fitted, splits.train_states, rl_cfg, splits.val_states)
    except Exception as exc:
        raise pipeline.StageError(f"rl:{name}", seed, exc) from exc
    out = _out_dir(cfg, args)
    models.save_model(best, out / "student_rl.json")
    log.to_csv(out / "trainlog.csv")
    final = trainer.evaluate_greedy(best, fitted, splits.test_states, cfg.horizon)
    print(f"final greedy test return: {final:.6f}")
    print(f"wrote trainlog to {out / 'trainlog.csv'}")
    return EXIT_OK


def _cmd_sweep_k(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    if args.out:
        cfg = ExperimentConfig({**cfg.raw, "out_dir": args.out})
    out = pipeline.run_pipeline(cfg, threads=args.threads)
    print(f"pipeline artifacts in {out}")
    return EXIT_OK


def _cmd_sweep_bias_variance(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = _out_dir(cfg, args) / "bias_variance.csv"
    pipeline.sweep_bias_variance(cfg, args.samples_per_input, out_path=out)
    print(f"wrote bias/variance sweep to {out}")
    return EXIT_OK


def _cmd_oracle_check(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = _out_dir(cfg, args) / "oracle_report.csv"
    ok = pipeline.oracle_check(out_path=out, seed=_seed(cfg, args))
    print(f"oracle report in {out}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_ORACLE


def _cmd_emit_plots(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = pipeline.emit_plots(args.csvs, _out_dir(cfg, args) / "plots")
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
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        cfg = load_config(args.config)
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
