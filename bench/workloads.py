"""The benchmark's three workloads and the checks on their outputs.

Each workload call is made from this process and timed from outside.  Its
outputs are checked operation by operation; a failed check or a raised
exception counts that operation as failed and never stops the benchmark.

  sweep          pipeline.run_pipeline over nproc seeds (the ``sweep-k
                 --threads N`` path), artifacts in a scratch directory
  bias-variance  pipeline.sweep_bias_variance in MDP mode
  oracle         the exactness battery: exact moments at the largest
                 enumerable instance, finite-difference gradient checks at
                 the C5 shapes, and pipeline.oracle_check

Sizes are the defaults of ``kstepkd.config.DEFAULTS`` scaled down so that a
run fits in seconds; SCALED lists every override.
"""

from __future__ import annotations

import csv
import math
import resource
import shutil
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from kstepkd import models, oracle, pipeline, returns
from kstepkd.config import ExperimentConfig, from_dict
from kstepkd.returns import ReturnConfig
from kstepkd.seqmdp import Vocabulary, initial_state
from kstepkd.teacher import FrozenModelTeacher

# Overrides of the default config, per workload, so that a call takes
# seconds.  sweep keeps every stage and all 7 variants, with 5 of the 300
# teacher-fit epochs, all 30 pre-distillation epochs and 20 of the 400
# REINFORCE iterations (one greedy eval per RL run).  Each worker's nproc
# BLAS threads oversubscribe the cores in the batched fits: on 2 cores a
# pool call takes about 6.2 s with them against 4.9 s with one BLAS thread
# per worker, run in turn on the same machine.  The fit is kept short
# because its epochs under oversubscription switch between a fast mode and a
# mode about 5 times slower, in runs of several epochs whose share changes
# from call to call and from minute to minute: at 15 epochs a call took 4.4
# to 9.4 s and five 55-s runs had a spread of 0.17, where at 5 epochs the
# slow mode is rare and a run's calls stay within about a fifth of their mean.
# bias-variance runs 1/5 of the teacher-fit epochs and of the inputs.
SCALED: dict[str, dict[str, Any]] = {
    "sweep": {
        "teacher_fit": {"epochs": 5},
        "rl": {"iterations": 20, "eval_every": 20},
    },
    "bias-variance": {
        "teacher_fit": {"epochs": 60},
        "sweep": {"n_inputs": 40},
    },
}

# The tiny config of acceptance test C11, for the harness self-test.
TINY: dict[str, Any] = {
    "vocab_size": 6,
    "horizon": 8,
    "window": 2,
    "task": {"kind": "markov_chain", "order": 1, "transition_seed": 3,
             "eos_prob": 0.1, "cond_len": 1},
    "teacher": {"kind": "mlp1", "hidden": 8},
    "student": {"kind": "mlp1", "hidden": 4},
    "teacher_fit": {"epochs": 25, "lr": 1.0},
    "predistill": {"epochs": 2, "lr": 0.5},
    "rl": {"iterations": 6, "lr": 0.02, "batch_size": 2, "eval_every": 3},
    "k_list": [1, 2],
    "corpus": {"n_sequences": 24, "n_val": 4, "n_test": 4},
    "sweep": {"n_inputs": 4, "samples_per_input": 4, "kl_bucket_epochs": [0, 2]},
}


def _merge(base: dict[str, Any], over: dict[str, Any]) -> dict[str, Any]:
    out = dict(base)
    for key, value in over.items():
        out[key] = _merge(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


def config_overrides(workload: str, seed: int, nproc: int, tiny: bool) -> dict[str, Any]:
    """The config a workload runs, as overrides of the defaults.  The seed
    picks the corpus and the pipeline seeds (nproc of them on sweep)."""
    n_seeds = nproc if workload == "sweep" else 1
    return _merge(TINY if tiny else SCALED.get(workload, {}), {
        "seeds": [seed * n_seeds + i for i in range(n_seeds)],
        "corpus": {"seed": seed},
    })


@dataclass
class Outcome:
    """One top-level call: its wall and CPU seconds (this process and its
    reaped workers), and the operations attempted and failed."""

    wall: float = 0.0
    cpu: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    @contextmanager
    def timed(self):
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        try:
            yield
        finally:
            self.wall = time.perf_counter() - wall0
            self.cpu = cpu_seconds() - cpu0


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _raised(outcome: Outcome, n_ops: int, label: str) -> None:
    detail = traceback.format_exc(limit=3).strip().splitlines()[-1]
    for _ in range(n_ops):
        outcome.record(False, f"{label}: {detail}")


# -- sweep -------------------------------------------------------------------

RUN_ARTIFACTS = ("teacher.json", "student_predistill.json", "student_rl.json",
                 "trainlog.csv", "eval.json")


def check_sweep(cfg: ExperimentConfig, out_dir: Path, outcome: Outcome) -> None:
    """One operation per seed: its summary rows are all there and finite, and
    every one of its run directories holds its artifacts."""
    variants = [name for name, _, _ in pipeline.variant_list(cfg)]
    with open(out_dir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for seed in cfg.seeds:
        mine = [r for r in rows if r["seed"] == str(seed)]
        ok = sorted(r["variant"] for r in mine) == sorted(variants)
        ok &= all(math.isfinite(float(r[col])) for r in mine
                  for col in ("best_val_return", "test_return"))
        ok &= all((out_dir / "runs" / v / f"seed{seed}" / name).is_file()
                  for v in variants for name in RUN_ARTIFACTS)
        outcome.record(ok, f"seed {seed}: summary rows or artifacts wrong")


def run_sweep(over: dict[str, Any], threads: int, scratch: Path) -> Outcome:
    outcome = Outcome()
    out_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=scratch))
    try:
        cfg = from_dict(_merge(over, {"out_dir": str(out_dir)}))
        try:
            with outcome.timed():
                pipeline.run_pipeline(cfg, threads=threads)
            check_sweep(cfg, out_dir, outcome)
        except Exception:
            _raised(outcome, len(cfg.seeds) - outcome.attempted, "run_pipeline or its check")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return outcome


# -- bias-variance -------------------------------------------------------------


def check_bias_variance(cfg: ExperimentConfig, rows: list, outcome: Outcome) -> None:
    """One operation per KL bucket: |K| rows, each with a finite bias and a
    finite, non-negative variance."""
    n_k = len(cfg.k_list)
    buckets = cfg.sweep_params()["kl_bucket_epochs"]
    complete = len(rows) == n_k * len(buckets)
    for b in range(len(buckets)):
        chunk = rows[b * n_k : (b + 1) * n_k]
        ok = complete and [r.k for r in chunk] == cfg.k_list and len({r.bucket for r in chunk}) == 1
        ok &= all(math.isfinite(r.mean_bias) and math.isfinite(r.mean_variance)
                  and r.mean_variance >= 0.0 for r in chunk)
        outcome.record(ok, f"kl bucket {b}: {len(rows)} rows in all, or a variance not finite and >= 0")


def run_bias_variance(over: dict[str, Any]) -> Outcome:
    outcome = Outcome()
    cfg = from_dict(_merge(over, {"sweep": {"iid_mode": False}}))
    try:
        with outcome.timed():
            rows = pipeline.sweep_bias_variance(cfg)
        check_bias_variance(cfg, rows, outcome)
    except Exception:
        n_buckets = len(cfg.sweep_params()["kl_bucket_epochs"])
        _raised(outcome, n_buckets - outcome.attempted, "sweep_bias_variance or its check")
    return outcome


# -- oracle --------------------------------------------------------------------

VOCAB3 = Vocabulary(size=3, bos_id=0, eos_id=2)
VOCAB5 = Vocabulary(size=5, bos_id=0, eos_id=4)


def c5_draws() -> list[tuple[models.LogitModel, FrozenModelTeacher, int]]:
    """The 20 (policy, teacher, horizon) draws of acceptance test C5."""
    rng = np.random.default_rng(2718)
    draws = []
    for i in range(20):
        if i % 2 == 0:
            arch, horizon = models.ModelArch("linear", window=2), 3
        else:
            arch, horizon = models.ModelArch("mlp1", window=2, hidden=4), 4
        policy = models.init_model(arch, VOCAB3.size, rng, scale=0.6)
        teacher = FrozenModelTeacher(
            models.init_model(models.ModelArch("linear", window=2), VOCAB3.size, rng, scale=1.0)
        )
        draws.append((policy, teacher, horizon))
    return draws


def oracle_instance(seed: int, tiny: bool):
    """Spec, mlp1 policy and linear teacher at the largest instance the size
    bounds allow (V=5, H=6: 5461 trajectories); V=3, H=3 when tiny."""
    vocab, horizon = (VOCAB3, 3) if tiny else (VOCAB5, oracle.MAX_HORIZON)
    rng = np.random.default_rng([seed, 606])
    policy = models.init_model(models.ModelArch("mlp1", window=2, hidden=4), vocab.size, rng, 0.6)
    teacher = FrozenModelTeacher(
        models.init_model(models.ModelArch("linear", window=2), vocab.size, rng, 1.0)
    )
    return oracle.EnumerationSpec(vocab, horizon, initial_state(vocab)), policy, teacher


def _exact_k1_bias(spec, policy, teacher) -> bool:
    exact = oracle.exact_moments(spec, policy, teacher, ReturnConfig(k=1))
    return bool(np.all(exact.bias == 0.0) and np.all(np.isfinite(exact.var_g_hat)))


def _baseline_identity(spec, policy, teacher) -> bool:
    cfg = ReturnConfig(k=2)
    trajs = oracle.enumerate_trajectories(spec, policy)
    ok = abs(sum(p for _, p in trajs) - 1.0) < 1e-9
    for traj, _ in trajs:
        est = returns.estimate(traj, teacher, cfg)
        implied = returns.implied_baseline(traj, teacher, cfg)
        ok &= np.array_equal(est.g_actual - est.g_hat, implied)
        ok &= np.array_equal(est.baseline, implied)
    return bool(ok)


def oracle_checks(seed: int, tiny: bool) -> list[tuple[str, Callable[[], bool]]]:
    """The battery's operations, built before the timed call.  The seed picks
    the large instance, four consecutive C5 draws and oracle_check's seed."""
    spec, policy, teacher = oracle_instance(seed, tiny)
    draws = c5_draws()
    checks = [
        ("exact K=1 bias is 0", lambda: _exact_k1_bias(spec, policy, teacher)),
        ("G - Ghat equals the implied baseline bitwise",
         lambda: _baseline_identity(spec, policy, teacher)),
    ]
    for j in range(2 if tiny else 4):
        i = (4 * seed + j) % len(draws)
        pol, teach, horizon = draws[i]

        def grad_check(pol=pol, teach=teach, horizon=horizon) -> bool:
            spec3 = oracle.EnumerationSpec(VOCAB3, horizon, initial_state(VOCAB3))
            report = oracle.check_gradient(pol, spec3, teach, ReturnConfig(k=2), fd_step=1e-5)
            return report.max_rel_error < 1e-6

        checks.append((f"C5 draw {i}: gradient rel error < 1e-6", grad_check))
    checks.append(("pipeline.oracle_check", lambda: pipeline.oracle_check(seed=seed) is True))
    return checks


def run_oracle(checks: list[tuple[str, Callable[[], bool]]]) -> Outcome:
    outcome = Outcome()
    with outcome.timed():
        for label, check in checks:
            try:
                ok = check()
            except Exception:
                _raised(outcome, 1, label)
                continue
            outcome.record(ok, label)
    return outcome


def prepare(workload: str, seed: int, nproc: int, tiny: bool,
            scratch: Path) -> Callable[[int], Outcome]:
    """Build a workload's inputs from the seed.  The result runs one timed
    top-level call, with ``threads`` pipeline workers on sweep."""
    if workload == "oracle":
        checks = oracle_checks(seed, tiny)
        return lambda threads: run_oracle(checks)
    over = config_overrides(workload, seed, nproc, tiny)
    if workload == "sweep":
        return lambda threads: run_sweep(over, threads, scratch)
    if workload == "bias-variance":
        return lambda threads: run_bias_variance(over)
    raise ValueError(f"unknown workload {workload!r}")
