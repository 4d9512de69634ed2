"""End-to-end orchestration: corpus -> teacher -> pre-distill -> RL, sweeps,
and plot-data emission.

Artifact layout under the configured output directory:

    config.json                      resolved configuration (deterministic)
    metadata.json                    timestamps, numpy version, CPU count and
                                     BLAS thread variables; every other file is
                                     byte-reproducible from config and those
    corpus.txt                       generated corpus
    summary.csv                      one row per (variant, seed)
    runs/<variant>/seed<N>/
        teacher.json                 frozen teacher checkpoint
        student_predistill.json      student after supervised warm-start
        student_rl.json              best student from the RL stage
        trainlog.csv                 per-iteration training log
        eval.json                    final greedy return on held-out inputs

Variants are named ``llmr`` (one-step), ``kstep_k<K>`` for K > 1, and the two
batch-baseline competitors.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import models, oracle, returns as ret, tasks, teacher as teacher_mod, trainer
from .config import ConfigError, ExperimentConfig
from .models import LogitModel
from .returns import ReturnConfig
from .seqmdp import State, TrajectoryBatch, Vocabulary, decode, initial_state
from .teacher import FrozenModelTeacher


class StageError(RuntimeError):
    def __init__(self, stage: str, seed: int | None, cause: Exception | str):
        detail = f"stage {stage!r} failed" + (f" (seed {seed})" if seed is not None else "")
        super().__init__(f"{detail}: {cause}")
        self.stage = stage
        self.seed = seed
        self.cause = str(cause)

    def __reduce__(self):
        # pool workers send exceptions back pickled; the default reduction
        # would call __init__ with the message alone
        return (type(self), (self.stage, self.seed, self.cause))


SUMMARY_HEADER = ("variant", "k", "seed", "best_val_return", "test_return")
BIAS_VARIANCE_HEADER = ("K", "student_kl_bucket", "mean_bias", "mean_variance")


# -- data plumbing -----------------------------------------------------------


@dataclass(frozen=True)
class DataSplits:
    corpus: list[list[int]]
    train_states: list[State]
    val_states: list[State]
    test_states: list[State]
    train_lines: list[list[int]]


def build_corpus(cfg: ExperimentConfig) -> DataSplits:
    params = cfg.corpus_params()
    task = cfg.task()
    rng = np.random.default_rng(int(params["seed"]))
    corpus = tasks.gen_corpus(task, int(params["n_sequences"]), rng, max_len=cfg.horizon)
    states = tasks.conditioning_states(task, corpus)
    # validate() keeps n_val + n_test below n_sequences, so train is non-empty
    n_test, n_val = int(params["n_test"]), int(params["n_val"])
    n_train = len(corpus) - n_val - n_test
    return DataSplits(
        corpus=corpus,
        train_states=states[:n_train],
        val_states=states[n_train : n_train + n_val],
        test_states=states[n_train + n_val :],
        train_lines=corpus[:n_train],
    )


def fit_seed_teacher(cfg: ExperimentConfig, splits: DataSplits, seed: int) -> FrozenModelTeacher:
    params = cfg.teacher_fit_params()
    rng = np.random.default_rng([seed, 101])
    try:
        fitted, _ = teacher_mod.fit_teacher(
            splits.train_lines, cfg.vocab, cfg.arch("teacher"), epochs=int(params["epochs"]),
            lr=float(params["lr"]), rng=rng, init_scale=float(params["init_scale"]),
        )
    except Exception as exc:
        raise StageError("fit-teacher", seed, exc) from exc
    return fitted


def init_seed_student(cfg: ExperimentConfig, seed: int) -> LogitModel:
    rng = np.random.default_rng([seed, 202])
    return models.init_model(cfg.arch("student"), cfg.vocab.size, rng)


def predistill_student(
    cfg: ExperimentConfig,
    student: LogitModel,
    teacher: FrozenModelTeacher,
    splits: DataSplits,
    seed: int,
    epochs: int | None = None,
) -> LogitModel:
    pcfg = cfg.predistill_config(epochs)
    try:
        out, _ = trainer.predistill(student, teacher, splits.train_states, pcfg)
    except Exception as exc:
        raise StageError("predistill", seed, exc) from exc
    return out


# -- single-seed pipeline ------------------------------------------------------


def variant(estimator: str, k: int) -> tuple[str, str, int]:
    """The (name, estimator, k) triple of one RL run; every estimator but
    kstep is one-step, so its k is 1."""
    if estimator != "kstep":
        return estimator, estimator, 1
    return f"kstep_k{k}", estimator, k


def variant_list(cfg: ExperimentConfig) -> list[tuple[str, str, int]]:
    """(name, estimator, k) triples for the configured sweep."""
    variants = [variant("llmr" if k == 1 else "kstep", k) for k in cfg.k_list]
    if cfg.include_baselines:
        variants += [variant("mean_baseline", 1), variant("minvar_baseline", 1)]
    return variants


def run_seed(
    raw_cfg: dict[str, Any], seed: int, out_dir: str, splits: DataSplits
) -> list[dict[str, Any]]:
    """Full pipeline for one seed on the sweep's corpus splits: teacher,
    pre-distilled student, and the RL runs of every variant, trained as one
    population.  Returns summary rows; writes all per-run artifacts.  A
    failed RL run is the stage ``rl:<variant>`` of the first failed variant,
    raised after the artifacts of the variants before it."""
    cfg = ExperimentConfig(raw_cfg)
    seed_teacher = fit_seed_teacher(cfg, splits, seed)
    student0 = init_seed_student(cfg, seed)
    student_pd = predistill_student(cfg, student0, seed_teacher, splits, seed)

    specs = variant_list(cfg)
    try:
        outcomes = trainer.train_population(
            student_pd, seed_teacher, splits.train_states,
            [cfg.rl_config(estimator, k, seed) for _, estimator, k in specs],
            val_inputs=splits.val_states,
        )
    except Exception as exc:
        # the shared first evaluation: in series, the first variant fails
        raise StageError(f"rl:{specs[0][0]}", seed, exc) from exc
    # the variants before the first failed one, whose artifacts are written
    done = next((i for i, out in enumerate(outcomes) if isinstance(out, Exception)), len(specs))
    bests = [best for best, _, _ in outcomes[:done]]
    test_returns = trainer.evaluate_population(
        models.ModelStack.of(bests), seed_teacher, splits.test_states, cfg.horizon
    ) if bests else []

    # the first failed variant's directory holds the shared checkpoints too
    run_dirs = [Path(out_dir) / "runs" / name / f"seed{seed}" for name, _, _ in specs[: done + 1]]
    for run_dir in run_dirs:
        run_dir.mkdir(parents=True, exist_ok=True)
    teacher_mod.save_teacher(seed_teacher, *(d / "teacher.json" for d in run_dirs))
    models.save_model(student_pd, *(d / "student_predistill.json" for d in run_dirs))

    rows: list[dict[str, Any]] = []
    for (name, _, k), out, run_dir in zip(specs, outcomes, run_dirs):
        if isinstance(out, Exception):
            raise StageError(f"rl:{name}", seed, out) from out
        best, log, best_val = out
        models.save_model(best, run_dir / "student_rl.json")
        log.to_csv(run_dir / "trainlog.csv")
        test_return = test_returns[len(rows)]
        (run_dir / "eval.json").write_text(
            json.dumps({"variant": name, "k": k, "seed": seed,
                        "test_return": test_return, "best_val_return": best_val})
            + "\n"
        )
        rows.append(
            {"variant": name, "k": k, "seed": seed,
             "best_val_return": best_val, "test_return": test_return}
        )
    return rows


# the sweep's splits in a pool worker, set once per worker by ``_init_worker``
_worker_splits: DataSplits | None = None


def _init_worker(splits: DataSplits) -> None:
    global _worker_splits
    _worker_splits = splits


def _run_seed_in_worker(raw_cfg: dict[str, Any], seed: int, out_dir: str) -> list[dict[str, Any]]:
    return run_seed(raw_cfg, seed, out_dir, _worker_splits)


def run_pipeline(cfg: ExperimentConfig, threads: int = 1) -> Path:
    out_dir = cfg.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(cfg.raw, indent=2, sort_keys=True) + "\n")
    # the batched matrix products round differently at another BLAS thread
    # count, so the artifacts reproduce byte for byte only at the same setting
    meta = {"started_unix": time.time(), "numpy_version": np.__version__,
            "cpu_count": os.cpu_count()}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        meta[var] = os.environ.get(var)
    (out_dir / "metadata.json").write_text(json.dumps(meta) + "\n")
    splits = build_corpus(cfg)
    tasks.write_corpus(out_dir / "corpus.txt", splits.corpus)

    all_rows: list[dict[str, Any]] = []
    if threads > 1:
        # the splits reach each worker once, as its initializer's argument:
        # inherited under fork, pickled once per worker otherwise
        with ProcessPoolExecutor(
            max_workers=threads, initializer=_init_worker, initargs=(splits,)
        ) as pool:
            futures = [
                pool.submit(_run_seed_in_worker, cfg.raw, seed, str(out_dir)) for seed in cfg.seeds
            ]
            for fut in futures:
                all_rows.extend(fut.result())
    else:
        for seed in cfg.seeds:
            all_rows.extend(run_seed(cfg.raw, seed, str(out_dir), splits))

    all_rows.sort(key=lambda r: (r["variant"], r["seed"]))
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for r in all_rows:
            writer.writerow(
                (r["variant"], r["k"], r["seed"],
                 repr(float(r["best_val_return"])), repr(float(r["test_return"])))
            )
    meta["finished_unix"] = time.time()
    (out_dir / "metadata.json").write_text(json.dumps(meta) + "\n")
    return out_dir


# -- bias/variance sweep -------------------------------------------------------


def mean_kl_to_teacher(
    student: LogitModel, teacher: FrozenModelTeacher, batch: TrajectoryBatch
) -> float:
    """Mean KL(student || teacher softmax) over every step state of the batch."""
    mask = batch.step_mask
    s_lp = models.log_softmax(student.batch_logits(batch.step_contexts(student.window)[mask]))
    t_lp = models.log_softmax(teacher.batch_q_values(batch.step_contexts(teacher.window)[mask]))
    return float(np.mean((np.exp(s_lp) * (s_lp - t_lp)).sum(axis=1)))


@dataclass(frozen=True)
class BiasVarianceRow:
    k: int
    bucket: str  # measured KL (repr) or "iid"
    mean_bias: float
    mean_variance: float


def bias_variance_rows_for_student(
    cfg: ExperimentConfig,
    student: LogitModel,
    teacher: FrozenModelTeacher,
    inputs: Sequence[State],
    samples_per_input: int,
    seed: int,
    k_list: Sequence[int] | None = None,
) -> tuple[list[tuple[int, float, float]], float]:
    """Per-K (k, mean_bias, mean_variance) over shared sampled rollouts, plus
    the measured mean KL(student || teacher) over the states that the samples
    of the first 16 inputs visit.

    The same trajectories score every K, so cross-K differences are paired,
    not resampled.
    """
    if samples_per_input < 2:
        raise ValueError("samples_per_input must be >= 2")
    rng = np.random.default_rng([seed, 303])
    rc = ReturnConfig(k=1, clip_range=cfg.clip_range)
    # input-major rows: the samples of input i are rows i*spi .. (i+1)*spi - 1
    initial = [s0 for s0 in inputs for _ in range(samples_per_input)]
    batch = decode(student.batch_logits, student.window, initial, cfg.horizon, rng=rng)
    q, m = ret.batch_q_terms(batch, teacher)
    n_kl = min(16, len(inputs)) * samples_per_input
    kl_rows = TrajectoryBatch(
        batch.vocab, batch.tokens[:n_kl], batch.prefix_width, batch.lengths[:n_kl]
    )
    kl = mean_kl_to_teacher(student, teacher, kl_rows)

    def returns_at_0(k: int) -> np.ndarray:
        # the clipped K-step return at t=0, one row of samples per input
        g0 = ret.kstep_from_batch_terms(q, m, batch.lengths, k)[:, 0]
        return ret.clip_returns(g0, rc).reshape(len(inputs), samples_per_input)

    g = returns_at_0(1)
    rows = []
    for k in (cfg.k_list if k_list is None else k_list):
        g_hat = returns_at_0(k)
        # mean over inputs of the per-input sample variance and mean bias
        var = float(np.mean(g_hat.var(axis=1, ddof=1)))
        bias = float(np.mean((g_hat - g).mean(axis=1)))
        rows.append((k, bias, var))
    return rows, kl


def sweep_bias_variance(
    cfg: ExperimentConfig, samples_per_input: int | None = None, out_path: str | Path | None = None
) -> list[BiasVarianceRow]:
    """Bias/variance of the K-step return across K and student quality.

    MDP mode: students pre-distilled for each configured epoch bucket, scored
    on shared rollouts; the bucket column records the measured KL to the
    teacher.  iid mode: the Gaussian surrogate; the bucket column is "iid".
    """
    sweep = cfg.sweep_params()
    spi = int(sweep["samples_per_input"]) if samples_per_input is None else samples_per_input
    if spi < 2:
        raise ConfigError("samples_per_input must be >= 2")
    rows: list[BiasVarianceRow] = []

    if sweep["iid_mode"]:
        n = int(sweep["iid_samples"])
        terms = int(sweep["iid_num_terms"])
        var_sa, var_s = float(sweep["iid_var_sa"]), float(sweep["iid_var_s"])
        for k in cfg.k_list:
            rng = np.random.default_rng([cfg.seeds[0], 404, k])
            g, gh = ret.iid_gaussian_samples(terms, k, var_sa, var_s, n, rng)
            rows.append(
                BiasVarianceRow(
                    k=k,
                    bucket="iid",
                    mean_bias=float(gh.mean() - g.mean()),
                    mean_variance=float(gh.var(ddof=1)),
                )
            )
    else:
        seed = cfg.seeds[0]
        splits = build_corpus(cfg)
        seed_teacher = fit_seed_teacher(cfg, splits, seed)
        student0 = init_seed_student(cfg, seed)
        n_inputs = int(sweep["n_inputs"])
        inputs = [splits.train_states[i % len(splits.train_states)] for i in range(n_inputs)]
        for epochs in sweep["kl_bucket_epochs"]:
            student = predistill_student(cfg, student0, seed_teacher, splits, seed, int(epochs))
            try:
                per_k, kl = bias_variance_rows_for_student(
                    cfg, student, seed_teacher, inputs, spi, seed
                )
            except Exception as exc:
                raise StageError("bias-variance", seed, exc) from exc
            for k, bias, var in per_k:
                rows.append(
                    BiasVarianceRow(k=k, bucket=repr(kl), mean_bias=bias, mean_variance=var)
                )

    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(BIAS_VARIANCE_HEADER)
            for r in rows:
                writer.writerow((r.k, r.bucket, repr(r.mean_bias), repr(r.mean_variance)))
    return rows


# -- oracle check ----------------------------------------------------------------


def oracle_check(out_path: str | Path | None = None, seed: int = 0) -> bool:
    """Gradient-identity and Monte-Carlo convergence checks on small instances.

    Returns True when every check passes; writes a (metric, value, threshold,
    status) report when a path is given.
    """
    rng = np.random.default_rng([seed, 505])
    vocab = Vocabulary(size=3, bos_id=0, eos_id=2)
    rows: list[tuple[str, str, str, str]] = []
    ok = True

    for i in range(3):
        policy = models.init_model(models.ModelArch("linear", window=2), vocab.size, rng, scale=0.5)
        q_model = models.init_model(models.ModelArch("linear", window=2), vocab.size, rng, scale=1.0)
        teacher = FrozenModelTeacher(q_model)
        spec = oracle.EnumerationSpec(vocab, horizon=3, initial=initial_state(vocab))
        report = oracle.check_gradient(policy, spec, teacher, ReturnConfig(k=2))
        ok &= report.passed
        rows.append(
            (
                f"gradient_check[{i}].max_rel_error",
                repr(report.max_rel_error),
                repr(report.threshold),
                "pass" if report.passed else "fail",
            )
        )

    policy = models.init_model(models.ModelArch("linear", window=2), vocab.size, rng, scale=0.3)
    q_model = models.init_model(models.ModelArch("linear", window=2), vocab.size, rng, scale=1.0)
    teacher = FrozenModelTeacher(q_model)
    spec = oracle.EnumerationSpec(vocab, horizon=3, initial=initial_state(vocab))
    conv = oracle.montecarlo_convergence(
        policy, spec, teacher, ReturnConfig(k=2), n_samples=4000, rng=rng
    )
    ok &= not conv.any_flagged
    rows.extend(conv.csv_rows())

    if out_path is not None:
        oracle.write_report_csv(out_path, rows)
    return bool(ok)


# -- plot emission ----------------------------------------------------------------


class SchemaError(ValueError):
    """A CSV does not match any documented schema."""


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows or len(rows) < 2:
        raise SchemaError(f"{path}: empty CSV (no data rows)")
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise SchemaError(f"{path}: line {i} has {len(row)} fields, header {len(rows[0])}")
    return rows[0], rows[1:]


def _number(path: Path, text: str, cast: type = float) -> float:
    try:
        return cast(text)
    except ValueError:
        raise SchemaError(f"{path}: {text!r} is not a number") from None


def emit_plots(csv_paths: Sequence[str | Path], out_dir: str | Path) -> Path:
    """Turn known CSVs into gnuplot-ready whitespace data plus a manifest.

    Recognized schemas: the training log, the bias/variance sweep, and the
    pipeline summary.  Anything else is a SchemaError naming the first
    unexpected column.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    panels: list[dict[str, Any]] = []
    for path in map(Path, csv_paths):
        header, rows = _read_csv(path)
        stem = path.stem
        if header == list(trainer.TRAINLOG_HEADER):
            dat = out / f"{stem}_learning_curve.dat"
            with open(dat, "w") as fh:
                fh.write("# iter mean_G mean_Ghat eval_return\n")
                for r in rows:
                    fh.write(f"{r[0]} {r[1]} {r[2]} {r[5]}\n")
            panels.append(
                {
                    "name": f"{stem}_learning_curve",
                    "x": "iteration",
                    "y": "return",
                    "series": [
                        {"label": "mean sampled return", "file": dat.name, "columns": [1, 2]},
                        {"label": "mean k-step return", "file": dat.name, "columns": [1, 3]},
                        {"label": "greedy eval return", "file": dat.name, "columns": [1, 4]},
                    ],
                }
            )
        elif header == list(BIAS_VARIANCE_HEADER):
            buckets: dict[str, list[list[str]]] = {}
            for r in rows:
                buckets.setdefault(r[1], []).append(r)
            var_dat = out / f"{stem}_variance.dat"
            bias_dat = out / f"{stem}_bias.dat"
            with open(var_dat, "w") as vfh, open(bias_dat, "w") as bfh:
                vfh.write("# K variance (one block per bucket)\n")
                bfh.write("# K bias (one block per bucket)\n")
                for bucket in sorted(buckets):
                    vfh.write(f"# bucket {bucket}\n")
                    bfh.write(f"# bucket {bucket}\n")
                    for r in sorted(buckets[bucket], key=lambda r: _number(path, r[0], int)):
                        vfh.write(f"{r[0]} {r[3]}\n")
                        bfh.write(f"{r[0]} {r[2]}\n")
                    vfh.write("\n")
                    bfh.write("\n")
            panels.append(
                {
                    "name": f"{stem}_variance",
                    "x": "K",
                    "y": "variance of k-step return",
                    "series": [
                        {"label": f"kl bucket {b}", "file": var_dat.name, "block": i}
                        for i, b in enumerate(sorted(buckets))
                    ],
                }
            )
            panels.append(
                {
                    "name": f"{stem}_bias",
                    "x": "K",
                    "y": "mean bias of k-step return",
                    "series": [
                        {"label": f"kl bucket {b}", "file": bias_dat.name, "block": i}
                        for i, b in enumerate(sorted(buckets))
                    ],
                }
            )
        elif header == list(SUMMARY_HEADER):
            dat = out / f"{stem}_final_returns.dat"
            by_variant: dict[str, list[float]] = {}
            for r in rows:
                by_variant.setdefault(r[0], []).append(_number(path, r[4]))
            with open(dat, "w") as fh:
                fh.write("# variant mean_test_return n_seeds\n")
                for variant in sorted(by_variant):
                    vals = by_variant[variant]
                    fh.write(f"{variant} {np.mean(vals)!r} {len(vals)}\n")
            panels.append(
                {
                    "name": f"{stem}_final_returns",
                    "x": "variant",
                    "y": "mean greedy test return",
                    "series": [{"label": "seed mean", "file": dat.name, "columns": [1, 2]}],
                }
            )
        else:
            known = (
                set(trainer.TRAINLOG_HEADER) | set(BIAS_VARIANCE_HEADER) | set(SUMMARY_HEADER)
            )
            bad = next((c for c in header if c not in known), header[0])
            raise SchemaError(f"{path}: unrecognized schema (offending column {bad!r})")
    (out / "manifest.json").write_text(json.dumps({"panels": panels}, indent=2) + "\n")
    return out
