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

Variants are named ``llmr`` (the K-step estimator at K = 1, the one-step
return), ``kstep_k<K>`` for K > 1, and the two batch-baseline competitors.

Every CSV is written by ``write_table``.  A sweep runs in one process: it
fits each seed's teacher and pre-distilled student in seed order, trains
every variant of every seed as one population (``train_seeds``), and writes
each seed's files in seed order.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from . import models, oracle, returns as ret, tasks, teacher as teacher_mod, trainer
from .config import ExperimentConfig
from .models import LogitModel
from .returns import ReturnConfig
from .seqmdp import State, TrajectoryBatch, Vocabulary, decode, initial_state
from .teacher import FrozenModelTeacher, TeacherStack


class StageError(RuntimeError):
    def __init__(self, stage: str, seed: int | None, cause: Exception | str):
        detail = f"stage {stage!r} failed" + (f" (seed {seed})" if seed is not None else "")
        super().__init__(f"{detail}: {cause}")
        self.stage = stage
        self.seed = seed


SUMMARY_HEADER = ("variant", "k", "seed", "best_val_return", "test_return")
BIAS_VARIANCE_HEADER = ("K", "student_kl_bucket", "mean_bias", "mean_variance")
ORACLE_REPORT_HEADER = ("metric", "value", "threshold", "status")


# -- tables ------------------------------------------------------------------


def _spell(value: Any) -> Any:
    """A float, Python or numpy, as its shortest round-trip repr; anything
    else as it is."""
    return repr(float(value)) if isinstance(value, (float, np.floating)) else value


def table_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """The CSV text of a table: the header, then each row, every float
    spelled by ``_spell``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([_spell(v) for v in row] for row in rows)
    return buf.getvalue()


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    Path(path).write_text(table_text(header, rows), newline="")


# -- data plumbing -----------------------------------------------------------


@dataclass(frozen=True)
class DataSplits:
    corpus: list[list[int]]
    train_states: list[State]
    val_states: list[State]
    test_states: list[State]
    train_lines: list[list[int]]


def build_corpus(cfg: ExperimentConfig) -> DataSplits:
    params = cfg.raw["corpus"]
    task = cfg.task()
    rng = np.random.default_rng(params["seed"])
    corpus = tasks.gen_corpus(task, params["n_sequences"], rng, max_len=cfg.horizon)
    states = tasks.conditioning_states(task, corpus)
    # validate() keeps n_val + n_test below n_sequences, so train is non-empty
    n_test, n_val = params["n_test"], params["n_val"]
    n_train = len(corpus) - n_val - n_test
    return DataSplits(
        corpus=corpus,
        train_states=states[:n_train],
        val_states=states[n_train : n_train + n_val],
        test_states=states[n_train + n_val :],
        train_lines=corpus[:n_train],
    )


def fit_seed_teacher(cfg: ExperimentConfig, splits: DataSplits, seed: int) -> FrozenModelTeacher:
    params = cfg.raw["teacher_fit"]
    rng = np.random.default_rng([seed, 101])
    try:
        fitted, _ = teacher_mod.fit_teacher(
            splits.train_lines, cfg.vocab, cfg.arch("teacher"), epochs=params["epochs"],
            lr=params["lr"], rng=rng, init_scale=params["init_scale"],
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
    spec = cfg.raw["predistill"]
    try:
        out, _ = trainer.predistill(
            student, teacher, splits.train_states, cfg.horizon,
            spec["epochs"] if epochs is None else epochs, spec["lr"],
        )
    except Exception as exc:
        raise StageError("predistill", seed, exc) from exc
    return out


def fit_seed(
    cfg: ExperimentConfig, splits: DataSplits, seed: int
) -> tuple[FrozenModelTeacher, LogitModel]:
    """A seed's frozen teacher and pre-distilled student: ``fit-teacher``, ``predistill``."""
    seed_teacher = fit_seed_teacher(cfg, splits, seed)
    return seed_teacher, predistill_student(
        cfg, init_seed_student(cfg, seed), seed_teacher, splits, seed
    )


# -- sweep pipeline ------------------------------------------------------------


def variant(estimator: str, k: int) -> tuple[str, str, int]:
    """The (name, estimator, k) triple of one RL run.  ``llmr`` names the
    K-step estimator at K = 1, the one-step return of LLMR: ``("llmr", any
    k)`` and ``("kstep", 1)`` both give ``("llmr", "kstep", 1)``.  Every
    estimator but kstep is one-step, so its k is 1."""
    if estimator == "llmr" or (estimator, k) == ("kstep", 1):
        return "llmr", "kstep", 1
    if estimator != "kstep":
        return estimator, estimator, 1
    return f"kstep_k{k}", estimator, k


def variant_list(cfg: ExperimentConfig) -> list[tuple[str, str, int]]:
    """(name, estimator, k) triples for the configured sweep."""
    variants = [variant("kstep", k) for k in cfg.k_list]
    if cfg.include_baselines:
        variants += [variant("mean_baseline", 1), variant("minvar_baseline", 1)]
    return variants


def train_seeds(
    cfg: ExperimentConfig, splits: DataSplits, fitted: trainer.Fitted,
    specs: Sequence[tuple[str, str, int]],
) -> dict[int, tuple[list[trainer.Outcome], list[float]]]:
    """The RL runs of every variant of ``specs`` ((name, estimator, k)
    triples) of every seed of ``fitted`` (seed -> (teacher, pre-distilled
    student)), trained as one population: each seed's runs start from its
    student and are scored by its teacher.  Then one greedy evaluation on
    the test split of every seed's best students up to its first failed
    variant; a non-finite test return fails its run.  Returns, per seed,
    its variants' outcomes and the test returns before its first failed
    variant."""
    trained = trainer.train_population(
        fitted, splits.train_states, cfg.rl_config(), [(e, k) for _, e, k in specs],
        val_inputs=splits.val_states,
    )
    # each seed's variants before its first failed one, whose artifacts are written
    done = [next((i for i, out in enumerate(runs) if isinstance(out, Exception)), len(specs))
            for runs in trained.values()]
    bests = [best for runs, n in zip(trained.values(), done) for best, _, _ in runs[:n]]
    test_returns = trainer.evaluate_population(
        models.ModelStack.of(bests), TeacherStack.of([t for t, _ in fitted.values()]),
        splits.test_states, cfg.horizon, np.repeat(np.arange(len(fitted)), done),
    ) if bests else []
    edges = np.cumsum([0, *done]).tolist()
    out = {}
    for (seed, runs), lo, hi in zip(trained.items(), edges, edges[1:]):
        tests = test_returns[lo:hi]
        bad = next((i for i, value in enumerate(tests) if not np.isfinite(value)), len(tests))
        if bad < len(tests):
            runs[bad] = FloatingPointError(f"non-finite test_return ({tests[bad]})")
        out[seed] = (runs, tests[:bad])
    return out


def _write_seed(
    out_dir: Path, cfg: ExperimentConfig, seed: int, teacher: FrozenModelTeacher,
    student: LogitModel, outcomes: list[trainer.Outcome], test_returns: list[float],
) -> list[tuple[Any, ...]]:
    """Writes a seed's run directories, each made once, and returns its
    summary rows.  A failed RL run is raised as the stage ``rl:<variant>``
    of the first failed variant, after the files of the variants before it
    and the shared checkpoints of its own directory."""
    specs = variant_list(cfg)
    done = len(test_returns)
    shared = {"teacher.json": teacher_mod.teacher_text(teacher),
              "student_predistill.json": models.model_text(student)}
    rows: list[tuple[Any, ...]] = []
    for i, (name, _, k) in enumerate(specs[: done + 1]):
        files = dict(shared)
        if i < done:
            best, log, best_val = outcomes[i]
            files["student_rl.json"] = models.model_text(best)
            files["trainlog.csv"] = table_text(trainer.TRAINLOG_HEADER, log)
            files["eval.json"] = json.dumps({"variant": name, "k": k, "seed": seed,
                                             "test_return": test_returns[i],
                                             "best_val_return": best_val}) + "\n"
            rows.append((name, k, seed, best_val, test_returns[i]))
        # os.path, not pathlib: pathlib interns every path component, and
        # these short-lived names resized the interpreter's table of
        # interned strings (about 1 MB each time) every few sweeps
        run_dir = os.path.join(out_dir, "runs", name, f"seed{seed}")
        os.makedirs(run_dir, exist_ok=True)
        for file_name, text in files.items():
            with open(os.path.join(run_dir, file_name), "w", newline="") as fh:
                fh.write(text)
    if done < len(specs):
        raise StageError(f"rl:{specs[done][0]}", seed, outcomes[done])
    return rows


def run_pipeline(cfg: ExperimentConfig, threads: int = 1) -> Path:
    """The full sweep, in this process: ``threads`` is accepted, as
    ``bench/workloads.py`` passes it, and starts nothing.  Seeds are fitted
    in seed order up to the first failed fit; those before it are trained
    and written before its error is raised.  A seed's first failed RL
    variant is raised after that seed's files; no later seed is written."""
    out_dir = cfg.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(cfg.raw, indent=2, sort_keys=True) + "\n")
    # every other file matches byte for byte at 1 and 2 BLAS threads on the
    # configs tests/test_blas_threads.py runs; other settings are untested
    meta = {"started_unix": time.time(), "numpy_version": np.__version__,
            "cpu_count": os.cpu_count()}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        meta[var] = os.environ.get(var)
    (out_dir / "metadata.json").write_text(json.dumps(meta) + "\n")
    splits = build_corpus(cfg)
    tasks.write_corpus(out_dir / "corpus.txt", splits.corpus)

    fitted = {}
    fit_error = None
    for seed in cfg.seeds:
        try:
            fitted[seed] = fit_seed(cfg, splits, seed)
        except StageError as exc:
            fit_error = exc
            break
    rows = []
    trained = train_seeds(cfg, splits, fitted, variant_list(cfg)) if fitted else {}
    for seed, results in trained.items():
        rows += _write_seed(out_dir, cfg, seed, *fitted[seed], *results)
    if fit_error is not None:
        raise fit_error

    rows.sort(key=lambda r: (r[0], r[2]))
    write_table(out_dir / "summary.csv", SUMMARY_HEADER, rows)
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


class BiasVarianceRow(NamedTuple):
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
    batch = decode(student.batch_logits, student.window, initial, cfg.horizon,
                   rng.random((len(initial), cfg.horizon)))
    q, m = ret.batch_q_terms(batch, teacher)
    n_kl = min(16, len(inputs)) * samples_per_input
    kl_rows = TrajectoryBatch(
        batch.vocab, batch.tokens[:n_kl], batch.prefix_width, batch.lengths[:n_kl]
    )

    def returns_at_0(k: int) -> np.ndarray:
        # the clipped K-step return at t=0, one row of samples per input;
        # clipping would hide an overflowed return, so it is checked first
        g0 = ret.kstep_from_batch_terms(q, m, batch.lengths, k)[:, 0]
        if not np.isfinite(g0).all():
            name = "G" if k == 1 else f"Ghat (K={k})"
            raise FloatingPointError(f"non-finite unclipped {name} at t=0")
        return ret.clip_returns(g0, rc).reshape(len(inputs), samples_per_input)

    g = returns_at_0(1)
    kl = mean_kl_to_teacher(student, teacher, kl_rows)
    if not np.isfinite(kl):
        raise FloatingPointError(f"non-finite mean KL to the teacher ({kl})")
    rows = []
    for k in (cfg.k_list if k_list is None else k_list):
        g_hat = returns_at_0(k)
        # mean over inputs of the per-input sample variance and mean bias
        var = float(np.mean(g_hat.var(axis=1, ddof=1)))
        bias = float(np.mean((g_hat - g).mean(axis=1)))
        rows.append((k, bias, var))
    return rows, kl


def sweep_bias_variance(
    cfg: ExperimentConfig, out_path: str | Path | None = None
) -> list[BiasVarianceRow]:
    """Bias/variance of the K-step return across K and student quality.

    MDP mode: students pre-distilled for each configured epoch bucket, scored
    on shared rollouts; the bucket column records the measured KL to the
    teacher.  iid mode: the Gaussian surrogate; the bucket column is "iid".
    """
    sweep = cfg.sweep_params()
    rows: list[BiasVarianceRow] = []

    if sweep["iid_mode"]:
        n, terms = sweep["iid_samples"], sweep["iid_num_terms"]
        var_sa, var_s = sweep["iid_var_sa"], sweep["iid_var_s"]
        for k in cfg.k_list:
            rng = np.random.default_rng([cfg.seeds[0], 404, k])
            try:
                g, gh = ret.iid_gaussian_samples(terms, k, var_sa, var_s, n, rng)
                bias, var = float(gh.mean() - g.mean()), float(gh.var(ddof=1))
            except Exception as exc:
                raise StageError("bias-variance", cfg.seeds[0], exc) from exc
            rows.append(BiasVarianceRow(k, "iid", bias, var))
    else:
        seed = cfg.seeds[0]
        splits = build_corpus(cfg)
        seed_teacher = fit_seed_teacher(cfg, splits, seed)
        student0 = init_seed_student(cfg, seed)
        n_train = len(splits.train_states)
        inputs = [splits.train_states[i % n_train] for i in range(sweep["n_inputs"])]
        for epochs in sweep["kl_bucket_epochs"]:
            student = predistill_student(cfg, student0, seed_teacher, splits, seed, epochs)
            try:
                per_k, kl = bias_variance_rows_for_student(
                    cfg, student, seed_teacher, inputs, sweep["samples_per_input"], seed
                )
            except Exception as exc:
                raise StageError("bias-variance", seed, exc) from exc
            rows += [BiasVarianceRow(k, repr(kl), bias, var) for k, bias, var in per_k]

    if out_path is not None:
        write_table(out_path, BIAS_VARIANCE_HEADER, rows)
    return rows


# -- oracle check ----------------------------------------------------------------


def oracle_check(out_path: str | Path | None = None, seed: int = 0) -> bool:
    """Gradient-identity and Monte-Carlo convergence checks on small instances.

    Returns True when every check passes; writes a (metric, value, threshold,
    status) report when a path is given.
    """
    rng = np.random.default_rng([seed, 505])
    vocab = Vocabulary(size=3, bos_id=0, eos_id=2)
    rows: list[tuple[str, float, float, str]] = []
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
                report.max_rel_error,
                report.threshold,
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
        write_table(out_path, ORACLE_REPORT_HEADER, rows)
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
    unexpected column, as is a plotted value that is not a number.
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
                    for text in (r[0], r[1], r[2], r[5]):
                        _number(path, text)
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
                for text in (r[2], r[3]):
                    _number(path, text)
                buckets.setdefault(r[1], []).append(r)
            # one file and panel of the variance column, then one of the bias
            for what, col, label in (("variance", 3, "variance of k-step return"),
                                     ("bias", 2, "mean bias of k-step return")):
                dat = out / f"{stem}_{what}.dat"
                with open(dat, "w") as fh:
                    fh.write(f"# K {what} (one block per bucket)\n")
                    for bucket in sorted(buckets):
                        fh.write(f"# bucket {bucket}\n")
                        for r in sorted(buckets[bucket], key=lambda r: _number(path, r[0], int)):
                            fh.write(f"{r[0]} {r[col]}\n")
                        fh.write("\n")
                panels.append({"name": f"{stem}_{what}", "x": "K", "y": label, "series": [
                    {"label": f"kl bucket {b}", "file": dat.name, "block": i}
                    for i, b in enumerate(sorted(buckets))
                ]})
        elif header == list(SUMMARY_HEADER):
            dat = out / f"{stem}_final_returns.dat"
            by_variant: dict[str, list[float]] = {}
            for r in rows:
                by_variant.setdefault(r[0], []).append(_number(path, r[4]))
            with open(dat, "w") as fh:
                fh.write("# variant mean_test_return n_seeds\n")
                for variant in sorted(by_variant):
                    vals = by_variant[variant]
                    fh.write(f"{variant} {_spell(np.mean(vals))} {len(vals)}\n")
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
