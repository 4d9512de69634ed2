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
from .models import LogitModel, ModelStack
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


def _check_finite(record: TrainRecord) -> None:
    for name in (
        "mean_return_actual",
        "mean_return_khat",
        "grad_norm",
        "policy_entropy",
        "eval_greedy_return",
    ):
        if not np.isfinite(getattr(record, name)):
            raise NonFiniteGradientError(f"non-finite {name} at iteration {record.iteration}")


@dataclass
class TrainLog:
    records: list[TrainRecord] = field(default_factory=list)

    def append(self, record: TrainRecord) -> None:
        _check_finite(record)
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
    per step) weights the min-variance one.  Stacks [R, B, H] of R runs
    (with lengths [R, B]) pool each run's baselines over its own rows."""
    rc = cfg.return_config
    mask = np.arange(g.shape[-1]) < lengths[..., None]
    if cfg.estimator in ("kstep", "llmr"):
        return np.where(mask, ret.clip_returns(g_hat, rc), 0.0)
    g = np.where(mask, ret.clip_returns(g, rc), 0.0)
    alive = mask.sum(axis=-2, keepdims=True)
    if cfg.estimator == "mean_baseline":
        # leave-one-out mean of the other running rows; none for a lone row
        others = np.maximum(alive - 1, 1)
        baseline = np.where(alive > 1, (g.sum(axis=-2, keepdims=True) - g) / others, 0.0)
    else:  # minvar_baseline
        w = np.where(mask, sq_norms, 0.0)
        denom = w.sum(axis=-2, keepdims=True)
        baseline = np.divide(
            (w * g).sum(axis=-2, keepdims=True), denom, out=np.zeros_like(denom),
            where=denom > 0.0,
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


def _left_to_right_mean(values: list[float]) -> float:
    # in input order: the mean must not depend on numpy's pairwise
    # summation, which groups terms by the batch size
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def evaluate_greedy(
    student: LogitModel, teacher: FrozenModelTeacher, inputs: Sequence[State], horizon: int
) -> float:
    """Mean actual return of greedy rollouts over a fixed input set."""
    batch = decode(student.batch_logits, student.window, inputs, horizon)
    q, m = ret.batch_q_terms(batch, teacher)
    return _left_to_right_mean(ret.kstep_from_batch_terms(q, m, batch.lengths, 1)[:, 0].tolist())


def evaluate_population(
    stack: ModelStack, teacher: FrozenModelTeacher, inputs: Sequence[State], horizon: int
) -> list[float]:
    """``evaluate_greedy`` of every model of the stack, from one greedy
    decode over R x len(inputs) rows; bitwise the solo values."""
    n = len(inputs)
    run = np.repeat(np.arange(len(stack.params)), n)
    batch = decode(stack.batch_logits, stack.window, list(inputs) * len(stack.params), horizon,
                   run=run)
    q, m = ret.batch_q_terms(batch, teacher, run)
    g0 = ret.kstep_from_batch_terms(q, m, batch.lengths, 1)[:, 0].tolist()
    return [_left_to_right_mean(g0[lo : lo + n]) for lo in range(0, len(g0), n)]


def _collapse(iteration: int) -> FloatingPointError:
    return FloatingPointError(
        f"policy collapsed at iteration {iteration}: entropy 0.0, so every "
        "sampled score and update is 0"
    )


@dataclass
class _Run:
    """The state one training run carries between iterations, apart from
    its current student: generator, input order, log, the best student by
    greedy validation return and the latest such return, and, once it has
    failed, the error that stopped it."""

    cfg: TrainConfig
    rng: np.random.Generator
    best: LogitModel
    best_eval: float
    eval_return: float
    log: TrainLog = field(default_factory=TrainLog)
    order: list[int] = field(default_factory=list)
    error: Exception | None = None

    def next_batch(self, inputs: Sequence[State]) -> list[State]:
        """The next batch_size inputs of reshuffled passes over the inputs."""
        size = self.cfg.batch_size
        while len(self.order) < size:
            self.order.extend(int(i) for i in self.rng.permutation(len(inputs)))
        batch = [inputs[i] for i in self.order[:size]]
        del self.order[:size]
        return batch

    def eval_due(self, iteration: int) -> bool:
        return (iteration + 1) % self.cfg.eval_every == 0 or iteration + 1 == self.cfg.iterations

    def step(
        self,
        student: LogitModel,
        teacher: FrozenModelTeacher,
        batch: Sequence[State],
        val: Sequence[State],
        iteration: int,
    ) -> LogitModel:
        """One iteration of ``train``: the update, the collapse check, the
        greedy evaluation with keep-best when due, and the log row.  Returns
        the updated student."""
        student, record = reinforce_step(
            student, teacher, batch, self.cfg, self.rng, iteration=iteration,
            eval_return=self.eval_return,
        )
        if record.policy_entropy == 0.0:
            raise _collapse(iteration)
        if self.eval_due(iteration):
            self.eval_return = evaluate_greedy(student, teacher, val, self.cfg.horizon)
            if self.eval_return > self.best_eval:
                self.best, self.best_eval = student, self.eval_return
            record = replace(record, eval_greedy_return=self.eval_return)
        self.log.append(record)
        return student


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
    if cfg.iterations == 0:
        return student, TrainLog()

    val = list(val_inputs) if val_inputs else list(inputs)
    eval_return = evaluate_greedy(student, teacher, val, cfg.horizon)
    run = _Run(cfg, np.random.default_rng(cfg.seed), student, eval_return, eval_return)
    for iteration in range(cfg.iterations):
        student = run.step(student, teacher, run.next_batch(inputs), val, iteration)
    return run.best, run.log


# -- population training --------------------------------------------------------


def _lockstep_step(
    stack: ModelStack,
    teacher: FrozenModelTeacher,
    batches: Sequence[Sequence[State]],
    runs: Sequence[_Run],
    iteration: int,
) -> tuple[ModelStack, list[tuple[float, float, float, float]]]:
    """``reinforce_step`` of every run of the stack at once: one population
    decode, teacher scoring and K-step recursion with each row's own K, each
    estimator's signals for its runs as one [R, B, H] stack, and one
    backward into [R, P].  Returns the updated stack and, per run, the
    record's (mean_G, mean_Ghat, grad_norm, entropy).  Raises when a
    gradient or an updated parameter is not finite, without naming the
    run."""
    cfgs = [run.cfg for run in runs]
    cfg, n_runs = cfgs[0], len(cfgs)
    b = cfg.batch_size
    run = np.repeat(np.arange(n_runs), b)
    trajs = decode(
        stack.batch_logits, stack.window, [s for batch in batches for s in batch], cfg.horizon,
        rng=[r.rng for r in runs], run=run,
    )
    mask = trajs.step_mask
    contexts, actions = trajs.step_contexts(stack.window)[mask], trajs.actions[mask]
    step_run = np.repeat(run, trajs.lengths)
    q, m = ret.batch_q_terms(trajs, teacher, run)
    g = ret.kstep_from_batch_terms(q, m, trajs.lengths, 1)
    k = np.repeat([c.return_config.k for c in cfgs], b)
    g_hat = g if np.all(k == 1) else ret.kstep_from_batch_terms(q, m, trajs.lengths, k)

    shape = (n_runs, b, g.shape[1])
    sq_norms = None
    if any(c.estimator == "minvar_baseline" for c in cfgs):
        sq_norms = np.zeros(mask.shape)
        sq_norms[mask] = stack.score_sq_norms(contexts, actions, step_run)
        sq_norms = sq_norms.reshape(shape)
    groups: dict[str, list[int]] = {}
    for r, c in enumerate(cfgs):
        groups.setdefault(c.estimator, []).append(r)
    g3, g_hat3, lengths = g.reshape(shape), g_hat.reshape(shape), trajs.lengths.reshape(shape[:2])
    signals = np.empty(shape)
    for rows in groups.values():
        signals[rows] = estimator_signals(
            g3[rows], g_hat3[rows], lengths[rows],
            None if sq_norms is None else sq_norms[rows], cfgs[rows[0]],
        )
    signals = signals.reshape(g.shape) / b

    accum, log_probs = stack.weighted_logit_grad(contexts, actions, signals[mask], step_run)
    if not np.all(np.isfinite(accum)):
        raise NonFiniteGradientError("non-finite gradient in a lockstep step")
    new_stack = stack.apply_update(accum, cfg.lr) if cfg.lr > 0 else stack

    entropy = -(np.exp(log_probs) * log_probs).sum(axis=1)
    ends = np.searchsorted(step_run, np.arange(n_runs + 1)).tolist()
    mean_g = g[:, 0].reshape(shape[:2]).mean(axis=1)
    mean_g_hat = ret.clip_returns(g_hat[:, 0], cfg.return_config).reshape(shape[:2]).mean(axis=1)
    stats = [
        (float(mean_g[r]), float(mean_g_hat[r]), float(np.linalg.norm(accum[r])),
         float(np.mean(entropy[ends[r] : ends[r + 1]])))
        for r in range(n_runs)
    ]
    return new_stack, stats


def _lockstep_iteration(
    stack: ModelStack,
    teacher: FrozenModelTeacher,
    batches: Sequence[Sequence[State]],
    runs: Sequence[_Run],
    val: Sequence[State],
    iteration: int,
) -> ModelStack:
    """``_Run.step`` of every run at once.  Unless every run completes the
    iteration, this raises and changes nothing of any run but its
    generator, so that the iteration can be replayed run by run."""
    new_stack, stats = _lockstep_step(stack, teacher, batches, runs, iteration)
    if any(entropy == 0.0 for *_, entropy in stats):
        raise _collapse(iteration)
    due = runs[0].eval_due(iteration)
    if due:
        evals = evaluate_population(new_stack, teacher, val, runs[0].cfg.horizon)
    else:
        evals = [run.eval_return for run in runs]
    records = [TrainRecord(iteration, *st, ev) for st, ev in zip(stats, evals)]
    for record in records:
        _check_finite(record)
    for r, (run, record) in enumerate(zip(runs, records)):
        run.eval_return = record.eval_greedy_return
        if due and run.eval_return > run.best_eval:
            run.best, run.best_eval = new_stack.model(r), run.eval_return
        run.log.append(record)
    return new_stack


def train_population(
    student: LogitModel,
    teacher: FrozenModelTeacher,
    inputs: Sequence[State],
    cfgs: Sequence[TrainConfig],
    val_inputs: Sequence[State] | None = None,
) -> list[tuple[LogitModel, TrainLog, float] | Exception]:
    """``train`` for every config at once, from one student: R runs in one
    REINFORCE loop over a ``ModelStack``.

    The configs may differ only in (estimator, k).  Each run keeps its own
    generator and input order, so it samples, updates, evaluates and keeps
    its best student bitwise as its solo ``train`` does.  An iteration in
    which any run fails is replayed run by run from the same draws, so that
    each failing run raises exactly its solo error; a failed run is dropped
    and the others go on.

    Returns, per config, (best student, log, greedy validation return of
    the best student), or the exception that stopped the run.  The
    validation return is computed even at zero iterations.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("train_population requires at least one config")
    if len({replace(c, estimator="kstep", k=1) for c in cfgs}) > 1:
        raise ValueError("population runs may differ only in estimator and k")
    cfg = cfgs[0]
    if cfg.stage != "rl":
        raise ValueError("train_population requires cfg.stage == 'rl'")
    if not inputs:
        raise ValueError("train_population requires a non-empty input set")

    val = list(val_inputs) if val_inputs else list(inputs)
    # every run starts from the same student, so one evaluation serves all
    eval_return = evaluate_greedy(student, teacher, val, cfg.horizon)
    runs = [_Run(c, np.random.default_rng(c.seed), student, eval_return, eval_return)
            for c in cfgs]
    live, stack = runs, ModelStack.of([student] * len(runs))
    for iteration in range(cfg.iterations):
        batches = [run.next_batch(inputs) for run in live]
        states = [run.rng.bit_generator.state for run in live]
        try:
            stack = _lockstep_iteration(stack, teacher, batches, live, val, iteration)
        except (ValueError, FloatingPointError, NonFiniteGradientError):
            # replay the iteration run by run from the same draws
            students = []
            for r, run in enumerate(live):
                run.rng.bit_generator.state = states[r]
                try:
                    students.append(run.step(stack.model(r), teacher, batches[r], val, iteration))
                except Exception as exc:  # this run's stage failure; the others go on
                    run.error = exc
            live = [run for run in live if run.error is None]
            if not live:
                break
            stack = ModelStack.of(students)
    return [(run.best, run.log, run.best_eval) if run.error is None else run.error
            for run in runs]
