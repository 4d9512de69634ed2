"""Two-stage distillation: supervised warm-start, then REINFORCE ascent.

Pre-distillation trains the student by cross-entropy on teacher-greedy
sequences (hard targets).  The RL stage samples one trajectory per input from
the student, scores each step with a pluggable return estimator, and ascends
the score-weighted log-probability gradient.

Estimators:
  kstep            clipped K-step approximate return
  llmr             alias of kstep with K = 1 (plain one-step accumulation)
  mean_baseline    actual return minus the leave-one-out batch mean at each
                   step; the baseline never depends on the trajectory's own
                   actions, so the estimator stays unbiased
  minvar_baseline  actual return minus the squared-gradient-norm-weighted
                   batch baseline b* = sum_i G_i ||w_i||^2 / sum_i ||w_i||^2
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import models as models_mod
from . import returns as ret
from .models import LogitModel
from .returns import DEFAULT_CLIP_RANGE, ReturnConfig
from .seqmdp import State, decode
from .teacher import FrozenModelTeacher

ESTIMATORS = ("kstep", "llmr", "mean_baseline", "minvar_baseline")


class NonFiniteGradientError(RuntimeError):
    """A trajectory produced a non-finite gradient contribution."""


@dataclass(frozen=True)
class TrainConfig:
    stage: str
    lr: float
    batch_size: int = 8
    iterations: int = 0
    epochs: int = 0
    horizon: int = 20
    seed: int = 0
    estimator: str = "kstep"
    k: int = 1
    clip_range: tuple[float, float] = DEFAULT_CLIP_RANGE
    eval_every: int = 50

    def __post_init__(self) -> None:
        if self.stage not in ("predistill", "rl"):
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.stage == "rl" and self.lr < 0:
            raise ValueError("rl lr must be non-negative (0 skips the update)")
        if self.stage == "predistill" and self.epochs > 0 and not self.lr > 0:
            raise ValueError("predistill lr must be positive when epochs > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0 or self.iterations < 0:
            raise ValueError(f"{self.stage} epochs and iterations must be >= 0")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.estimator == "llmr" and self.k != 1:
            raise ValueError("llmr is the one-step estimator; k must be 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")

    @property
    def return_config(self) -> ReturnConfig:
        k = 1 if self.estimator == "llmr" else self.k
        return ReturnConfig(k=k, clip_range=self.clip_range)


@dataclass(frozen=True)
class TrainRecord:
    iteration: int
    mean_return_actual: float
    mean_return_khat: float
    grad_norm: float
    policy_entropy: float
    eval_greedy_return: float


TRAINLOG_HEADER = ("iter", "mean_G", "mean_Ghat", "grad_norm", "entropy", "eval_return")


@dataclass
class TrainLog:
    records: list[TrainRecord] = field(default_factory=list)

    def append(self, record: TrainRecord) -> None:
        for name in (
            "mean_return_actual",
            "mean_return_khat",
            "grad_norm",
            "policy_entropy",
            "eval_greedy_return",
        ):
            if not np.isfinite(getattr(record, name)):
                raise NonFiniteGradientError(f"non-finite {name} at iteration {record.iteration}")
        self.records.append(record)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRAINLOG_HEADER)
            for r in self.records:
                writer.writerow(
                    (
                        r.iteration,
                        repr(r.mean_return_actual),
                        repr(r.mean_return_khat),
                        repr(r.grad_norm),
                        repr(r.policy_entropy),
                        repr(r.eval_greedy_return),
                    )
                )


# -- pre-distillation --------------------------------------------------------


def teacher_greedy_targets(
    teacher: FrozenModelTeacher, inputs: Sequence[State], horizon: int, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Context/target training rows from teacher-greedy continuations,
    with contexts extracted at the consumer's window width.  Rows run input
    by input, step by step within an input."""
    batch = decode(teacher.batch_q_values, teacher.window, inputs, horizon)
    mask = batch.step_mask
    return batch.step_contexts(window)[mask], batch.actions[mask]


def predistill(
    student: LogitModel,
    teacher: FrozenModelTeacher,
    inputs: Sequence[State],
    cfg: TrainConfig,
) -> tuple[LogitModel, list[float]]:
    """Cross-entropy training on teacher-greedy sequences (hard targets).

    Full-batch descent over the distinct contexts and their target counts;
    the targets are deterministic, so the result depends only on (student,
    teacher, inputs, cfg).  Returns the updated student and the mean CE loss
    per epoch.
    """
    if cfg.stage != "predistill":
        raise ValueError("predistill requires cfg.stage == 'predistill'")
    contexts, counts = models_mod.target_counts(
        *teacher_greedy_targets(teacher, inputs, cfg.horizon, student.window),
        student.vocab_size,
    )
    losses: list[float] = []
    for _ in range(cfg.epochs):
        loss, grad = student.cross_entropy_grad(contexts, counts)
        losses.append(loss)
        student = student.apply_update(-grad, cfg.lr)
    return student, losses


# -- estimator signals ---------------------------------------------------------


def estimator_signals(
    g: np.ndarray,
    g_hat: np.ndarray,
    lengths: np.ndarray,
    sq_norms: np.ndarray | None,
    cfg: TrainConfig,
) -> np.ndarray:
    """The configured estimator's learning signal at every step, zero past
    each row's length, from the unclipped actual and K-step returns [B, H]
    of the same rows (``kstep_from_batch_terms``).  The kstep estimators
    clip Ghat; both baselines are subtracted from clipped G and pool the
    rows still running at each step, and ``sq_norms`` [B, H] (||d log pi||^2
    per step) weights the min-variance one."""
    rc = cfg.return_config
    mask = np.arange(g.shape[1]) < lengths[:, None]
    if cfg.estimator in ("kstep", "llmr"):
        return np.where(mask, ret.clip_returns(g_hat, rc), 0.0)
    g = np.where(mask, ret.clip_returns(g, rc), 0.0)
    alive = mask.sum(axis=0)
    if cfg.estimator == "mean_baseline":
        # leave-one-out mean of the other running rows; none for a lone row
        others = np.maximum(alive - 1, 1)
        baseline = np.where(alive > 1, (g.sum(axis=0) - g) / others, 0.0)
    else:  # minvar_baseline
        w = np.where(mask, sq_norms, 0.0)
        denom = w.sum(axis=0)
        baseline = np.divide(
            (w * g).sum(axis=0), denom, out=np.zeros_like(denom), where=denom > 0.0
        )
    return np.where(mask, g - baseline, 0.0)


# -- REINFORCE ----------------------------------------------------------------


def reinforce_step(
    student: LogitModel,
    teacher: FrozenModelTeacher,
    batch: Sequence[State],
    cfg: TrainConfig,
    rng: np.random.Generator,
    iteration: int = 0,
    eval_return: float = 0.0,
    return_trajectories: bool = False,
):
    """One sampled-batch policy update.

    Samples one trajectory per input in lockstep, weights each step's
    log-prob gradient by the configured estimator signal over the batch size,
    sums them in one backward pass, and ascends.
    Returns (student, record); the sampled ``TrajectoryBatch`` is
    appended when ``return_trajectories`` is set.
    """
    if cfg.stage != "rl":
        raise ValueError("reinforce_step requires cfg.stage == 'rl'")
    trajs = decode(student.batch_logits, student.window, batch, cfg.horizon, rng=rng)
    mask = trajs.step_mask
    step_contexts = trajs.step_contexts(student.window)
    contexts, actions = step_contexts[mask], trajs.actions[mask]
    sq_norms = None
    if cfg.estimator == "minvar_baseline":
        sq_norms = np.zeros(mask.shape)
        sq_norms[mask] = student.score_sq_norms(contexts, actions)
    q, m = ret.batch_q_terms(trajs, teacher)
    rc = cfg.return_config
    g = ret.kstep_from_batch_terms(q, m, trajs.lengths, 1)
    g_hat = g if rc.k == 1 else ret.kstep_from_batch_terms(q, m, trajs.lengths, rc.k)
    signals = estimator_signals(g, g_hat, trajs.lengths, sq_norms, cfg) / len(batch)

    accum, log_probs = student.weighted_logit_grad(contexts, actions, signals[mask])
    if not np.all(np.isfinite(accum)):
        # name the first trajectory whose own share of the sum is non-finite:
        # its signals are, or its scores overflow (a non-finite weight always
        # yields a non-finite share)
        for i, n in enumerate(trajs.lengths.tolist()):
            c, a, w = step_contexts[i, :n], trajs.actions[i, :n], signals[i, :n]
            if not np.all(np.isfinite(student.weighted_logit_grad(c, a, w)[0])):
                raise NonFiniteGradientError(
                    f"non-finite gradient from trajectory {i} (actions {tuple(a.tolist())})"
                )
        raise NonFiniteGradientError(f"non-finite sum of {len(batch)} trajectory gradients")

    new_student = student.apply_update(accum, cfg.lr) if cfg.lr > 0 else student

    record = TrainRecord(
        iteration=iteration,
        mean_return_actual=float(np.mean(g[:, 0])),
        mean_return_khat=float(np.mean(ret.clip_returns(g_hat[:, 0], rc))),
        grad_norm=float(np.linalg.norm(accum)),
        policy_entropy=float(np.mean(-(np.exp(log_probs) * log_probs).sum(axis=1))),
        eval_greedy_return=eval_return,
    )
    if return_trajectories:
        return new_student, record, trajs
    return new_student, record


def evaluate_greedy(
    student: LogitModel, teacher: FrozenModelTeacher, inputs: Sequence[State], horizon: int
) -> float:
    """Mean actual return of greedy rollouts over a fixed input set."""
    batch = decode(student.batch_logits, student.window, inputs, horizon)
    q, m = ret.batch_q_terms(batch, teacher)
    # left to right in input order: the mean must not depend on numpy's
    # pairwise summation, which groups terms by the batch size
    total = 0.0
    for g0 in ret.kstep_from_batch_terms(q, m, batch.lengths, 1)[:, 0].tolist():
        total += g0
    return total / len(inputs)


def train(
    student: LogitModel,
    teacher: FrozenModelTeacher,
    inputs: Sequence[State],
    cfg: TrainConfig,
    val_inputs: Sequence[State] | None = None,
) -> tuple[LogitModel, TrainLog]:
    """Run cfg.iterations REINFORCE updates over shuffled input batches.

    Each update consumes batch_size inputs.  The best student by greedy
    validation return is kept and returned.  Deterministic given cfg.seed.
    An iteration whose policy entropy is exactly 0.0 raises
    FloatingPointError: every sampled softmax is then one-hot, so every
    score and every further update is exactly 0 (a diverged step).
    """
    if cfg.stage != "rl":
        raise ValueError("train requires cfg.stage == 'rl'")
    if not inputs:
        raise ValueError("train requires a non-empty input set")
    log = TrainLog()
    if cfg.iterations == 0:
        return student, log

    val = list(val_inputs) if val_inputs else list(inputs)
    rng = np.random.default_rng(cfg.seed)
    order: list[int] = []

    eval_return = evaluate_greedy(student, teacher, val, cfg.horizon)
    best_student, best_eval = student, eval_return

    for iteration in range(cfg.iterations):
        while len(order) < cfg.batch_size:
            order.extend(int(i) for i in rng.permutation(len(inputs)))
        batch = [inputs[i] for i in order[: cfg.batch_size]]
        del order[: cfg.batch_size]

        student, record = reinforce_step(
            student, teacher, batch, cfg, rng, iteration=iteration, eval_return=eval_return
        )
        if record.policy_entropy == 0.0:
            raise FloatingPointError(
                f"policy collapsed at iteration {iteration}: entropy 0.0, so every "
                "sampled score and update is 0"
            )
        if (iteration + 1) % cfg.eval_every == 0 or iteration + 1 == cfg.iterations:
            eval_return = evaluate_greedy(student, teacher, val, cfg.horizon)
            if eval_return > best_eval:
                best_student, best_eval = student, eval_return
            record = replace(record, eval_greedy_return=eval_return)
        log.append(record)

    return best_student, log
