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
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import models as models_mod
from . import returns as ret
from .models import LogitModel
from .returns import ReturnConfig
from .seqmdp import State, Trajectory, greedy_decode, rollout, step_arrays
from .teacher import DEFAULT_CLIP_RANGE, TeacherQ

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
    grad_accum: int = 1
    seed: int = 0
    estimator: str = "kstep"
    k: int = 1
    clip_range: tuple[float, float] = DEFAULT_CLIP_RANGE
    optimizer: str = "sgd"
    eval_every: int = 50

    def __post_init__(self) -> None:
        if self.stage not in ("predistill", "rl"):
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.lr < 0:
            raise ValueError("lr must be non-negative (0 skips the update)")
        if self.batch_size < 1 or self.grad_accum < 1:
            raise ValueError("batch_size and grad_accum must be >= 1")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.estimator == "llmr" and self.k != 1:
            raise ValueError("llmr is the one-step estimator; k must be 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

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
    teacher: TeacherQ, inputs: Sequence[State], horizon: int, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Context/target training rows from teacher-greedy continuations,
    with contexts extracted at the consumer's window width.  Rows run input
    by input, step by step within an input."""
    batch = greedy_decode(teacher.batch_q_values, teacher.window, inputs, horizon)
    mask = batch.step_mask
    return batch.step_contexts(window)[mask], batch.actions[mask]


def predistill(
    student: LogitModel,
    teacher: TeacherQ,
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


def _per_step_signals(
    trajs: Sequence[Trajectory],
    terms: Sequence[tuple[np.ndarray, np.ndarray]],
    sq_norms: Sequence[np.ndarray] | None,
    cfg: TrainConfig,
) -> list[np.ndarray]:
    rc = cfg.return_config
    if cfg.estimator in ("kstep", "llmr"):
        return [ret.clip_returns(ret.kstep_from_terms(q, m, rc.k), rc) for q, m in terms]

    g_all = [ret.clip_returns(ret.actual_from_terms(q, m), rc) for q, m in terms]
    signals = [g.copy() for g in g_all]
    max_len = max(traj.num_steps for traj in trajs)
    for t in range(max_len):
        alive = [i for i, traj in enumerate(trajs) if traj.num_steps > t]
        if cfg.estimator == "mean_baseline":
            total = sum(g_all[i][t] for i in alive)
            for i in alive:
                if len(alive) > 1:
                    baseline = (total - g_all[i][t]) / (len(alive) - 1)
                else:
                    baseline = 0.0
                signals[i][t] = g_all[i][t] - baseline
        else:  # minvar_baseline
            weights = np.array([sq_norms[i][t] for i in alive])
            denom = float(weights.sum())
            if denom > 0.0:
                baseline = float(sum(w * g_all[i][t] for w, i in zip(weights, alive)) / denom)
            else:
                baseline = 0.0
            for i in alive:
                signals[i][t] = g_all[i][t] - baseline
    return signals


# -- REINFORCE ----------------------------------------------------------------


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def _adam_direction(grad: np.ndarray, state: AdamState) -> tuple[np.ndarray, AdamState]:
    t = state.t + 1
    m = state.beta1 * state.m + (1 - state.beta1) * grad
    v = state.beta2 * state.v + (1 - state.beta2) * grad * grad
    m_hat = m / (1 - state.beta1**t)
    v_hat = v / (1 - state.beta2**t)
    return m_hat / (np.sqrt(v_hat) + state.eps), replace(state, m=m, v=v, t=t)


def reinforce_step(
    student: LogitModel,
    teacher: TeacherQ,
    batch: Sequence[State],
    cfg: TrainConfig,
    rng: np.random.Generator,
    iteration: int = 0,
    eval_return: float = 0.0,
    opt_state: AdamState | None = None,
    return_trajectories: bool = False,
):
    """One sampled-batch policy update.

    Samples one trajectory per input, weights each step's log-prob gradient by
    the configured estimator signal over the batch size, sums them in one
    backward pass, and ascends.
    Returns (student, record, opt_state); sampled trajectories are appended
    when ``return_trajectories`` is set.
    """
    if cfg.stage != "rl":
        raise ValueError("reinforce_step requires cfg.stage == 'rl'")
    trajs = [rollout(student, s0, cfg.horizon, mode="sample", rng=rng) for s0 in batch]
    contexts, actions = step_arrays(trajs, student.window)
    bounds = np.cumsum([traj.num_steps for traj in trajs])[:-1]
    sq_norms = None
    if cfg.estimator == "minvar_baseline":
        sq_norms = np.split(student.score_sq_norms(contexts, actions), bounds)
    terms = ret.trajectories_q_terms(trajs, teacher)
    signals = _per_step_signals(trajs, terms, sq_norms, cfg)

    weights = np.concatenate(signals) / len(batch)
    accum, log_probs = student.weighted_logit_grad(contexts, actions, weights)
    if not np.all(np.isfinite(accum)):
        # name the first trajectory whose own share of the sum is non-finite:
        # its signals are, or its scores overflow (a non-finite weight always
        # yields a non-finite share)
        shares = zip(*(np.split(x, bounds) for x in (contexts, actions, weights)))
        for i, (traj, (c, a, w)) in enumerate(zip(trajs, shares)):
            if not np.all(np.isfinite(student.weighted_logit_grad(c, a, w)[0])):
                raise NonFiniteGradientError(
                    f"non-finite gradient from trajectory {i} (actions {traj.actions})"
                )
        raise NonFiniteGradientError(f"non-finite sum of {len(trajs)} trajectory gradients")

    if cfg.optimizer == "adam":
        if opt_state is None:
            opt_state = AdamState(m=np.zeros(student.num_params), v=np.zeros(student.num_params))
        direction, opt_state = _adam_direction(accum, opt_state)
    else:
        direction = accum

    new_student = student.apply_update(direction, cfg.lr) if cfg.lr > 0 else student

    rc = cfg.return_config
    mean_g = float(np.mean([ret.actual_from_terms(q, m)[0] for q, m in terms]))
    mean_gh = float(
        np.mean([ret.clip_returns(ret.kstep_from_terms(q, m, rc.k), rc)[0] for q, m in terms])
    )
    record = TrainRecord(
        iteration=iteration,
        mean_return_actual=mean_g,
        mean_return_khat=mean_gh,
        grad_norm=float(np.linalg.norm(accum)),
        policy_entropy=float(np.mean(-(np.exp(log_probs) * log_probs).sum(axis=1))),
        eval_greedy_return=eval_return,
    )
    if return_trajectories:
        return new_student, record, opt_state, trajs
    return new_student, record, opt_state


def save_train_state(
    path: str | Path, student: LogitModel, opt_state: AdamState | None = None
) -> None:
    """Checkpoint the student in the model format, plus optimizer moments."""
    data = models_mod.model_to_dict(student)
    if opt_state is not None:
        data["optimizer"] = {
            "type": "adam",
            "m": [float(x) for x in opt_state.m],
            "v": [float(x) for x in opt_state.v],
            "t": opt_state.t,
            "beta1": opt_state.beta1,
            "beta2": opt_state.beta2,
            "eps": opt_state.eps,
        }
    with open(path, "w") as fh:
        fh.write(json.dumps(data) + "\n")


def load_train_state(path: str | Path) -> tuple[LogitModel, AdamState | None]:
    with open(path) as fh:
        data = json.load(fh)
    opt = data.pop("optimizer", None)
    model = models_mod.model_from_dict(data)
    if opt is None:
        return model, None
    state = AdamState(
        m=np.array(opt["m"], dtype=np.float64),
        v=np.array(opt["v"], dtype=np.float64),
        t=int(opt["t"]),
        beta1=float(opt["beta1"]),
        beta2=float(opt["beta2"]),
        eps=float(opt["eps"]),
    )
    return model, state


def evaluate_greedy(
    student: LogitModel, teacher: TeacherQ, inputs: Sequence[State], horizon: int
) -> float:
    """Mean actual return of greedy rollouts over a fixed input set."""
    batch = greedy_decode(student.batch_logits, student.window, inputs, horizon)
    q, m = ret.batch_q_terms(batch, teacher)
    # left to right in input order: the mean must not depend on numpy's
    # pairwise summation, which groups terms by the batch size
    total = 0.0
    for g0 in ret.actual_from_batch_terms(q, m)[:, 0].tolist():
        total += g0
    return total / len(inputs)


def train(
    student: LogitModel,
    teacher: TeacherQ,
    inputs: Sequence[State],
    cfg: TrainConfig,
    val_inputs: Sequence[State] | None = None,
) -> tuple[LogitModel, TrainLog]:
    """Run cfg.iterations REINFORCE updates over shuffled input batches.

    Each update consumes batch_size * grad_accum inputs (accumulating
    micro-batches into a single step is arithmetically one larger batch).
    The best student by greedy validation return is kept and returned.
    Deterministic given cfg.seed.
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
    per_update = cfg.batch_size * cfg.grad_accum
    order: list[int] = []
    opt_state: AdamState | None = None

    eval_return = evaluate_greedy(student, teacher, val, cfg.horizon)
    best_student, best_eval = student, eval_return

    for iteration in range(cfg.iterations):
        while len(order) < per_update:
            order.extend(int(i) for i in rng.permutation(len(inputs)))
        batch = [inputs[i] for i in order[:per_update]]
        del order[:per_update]

        student, record, opt_state = reinforce_step(
            student, teacher, batch, cfg, rng,
            iteration=iteration, eval_return=eval_return, opt_state=opt_state,
        )
        if (iteration + 1) % cfg.eval_every == 0 or iteration + 1 == cfg.iterations:
            eval_return = evaluate_greedy(student, teacher, val, cfg.horizon)
            if eval_return > best_eval:
                best_student, best_eval = student, eval_return
            record = replace(record, eval_greedy_return=eval_return)
        log.append(record)

    return best_student, log
