"""Two-stage distillation: supervised warm-start, then REINFORCE ascent.

Pre-distillation trains the student by cross-entropy on teacher-greedy
sequences (hard targets).  The RL stage samples one trajectory per input from
the student, scores each step with a pluggable return estimator, and ascends
the score-weighted log-probability gradient.

Estimators:
  kstep            clipped K-step approximate return; at K = 1 the one-step
                   return of LLMR (Li, Hao & Mou, 2024)
  mean_baseline    actual return minus the leave-one-out batch mean at each
                   step; the baseline never depends on the trajectory's own
                   actions, so the estimator stays unbiased
  minvar_baseline  actual return minus the squared-gradient-norm-weighted
                   batch baseline b* = sum_i G_i ||w_i||^2 / sum_i ||w_i||^2
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import models as models_mod
from . import returns as ret
from .models import LogitModel, ModelStack
from .returns import DEFAULT_CLIP_RANGE, ReturnConfig
from .seqmdp import State, decode
from .teacher import FrozenModelTeacher, TeacherStack

ESTIMATORS = ("kstep", "mean_baseline", "minvar_baseline")


class NonFiniteGradientError(RuntimeError):
    """A trajectory produced a non-finite gradient contribution."""


@dataclass(frozen=True)
class TrainConfig:
    """The RL settings that every run of a population shares."""

    lr: float
    batch_size: int = 8
    iterations: int = 0
    horizon: int = 20
    clip_range: tuple[float, float] = DEFAULT_CLIP_RANGE
    eval_every: int = 50

    def __post_init__(self) -> None:
        if not self.lr >= 0:
            raise ValueError("rl lr must be non-negative (0 skips the update)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.iterations < 0:
            raise ValueError("rl iterations must be >= 0")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        ReturnConfig(clip_range=self.clip_range)  # raises on a bad clip range


def check_variant(estimator: str, k: int) -> None:
    """Raises ValueError unless (estimator, k) is a run's variant: one of
    ``ESTIMATORS`` at a K of at least 1."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


class TrainRecord(NamedTuple):
    iteration: int
    mean_return_actual: float
    mean_return_khat: float
    grad_norm: float
    policy_entropy: float
    eval_greedy_return: float


# an RL run's (best student, log, best validation return), or its error
Outcome = tuple[LogitModel, list[TrainRecord], float] | Exception
# each seed's frozen teacher and pre-distilled student
Fitted = Mapping[int, tuple[FrozenModelTeacher, LogitModel]]


# one column per TrainRecord field, in field order: a record is its trainlog row
TRAINLOG_HEADER = ("iter", "mean_G", "mean_Ghat", "grad_norm", "entropy", "eval_return")


def _check_finite(iteration: int, values: np.ndarray) -> None:
    """Names the first non-finite field, in run order, of an iteration's
    log values [R, 5] (each run's record after ``iteration``)."""
    bad = ~np.isfinite(values)
    if bad.any():
        name = TrainRecord._fields[1 + int(np.argwhere(bad)[0, 1])]
        raise NonFiniteGradientError(f"non-finite {name} at iteration {iteration}")


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
    horizon: int,
    epochs: int,
    lr: float,
) -> tuple[LogitModel, list[float]]:
    """Cross-entropy training on teacher-greedy sequences (hard targets):
    ``models.fit_targets`` on the teacher's greedy continuations of the
    inputs.  The targets are deterministic, so the result depends only on
    the arguments.  Returns the updated student and the mean CE loss per
    epoch, and raises FloatingPointError on a divergent fit.
    """
    return models_mod.fit_targets(
        student, *teacher_greedy_targets(teacher, inputs, horizon, student.window), epochs, lr
    )


# -- estimator signals ---------------------------------------------------------


def estimator_signals(
    g: np.ndarray,
    g_hat: np.ndarray,
    lengths: np.ndarray,
    sq_norms: np.ndarray | None,
    estimator: str,
    clip_range: tuple[float, float],
) -> np.ndarray:
    """The estimator's learning signal at every step, zero past
    each row's length, from the unclipped actual and K-step returns [B, H]
    of the same rows (``kstep_from_batch_terms``).  The kstep estimators
    clip Ghat; both baselines are subtracted from clipped G and pool the
    rows still running at each step, and ``sq_norms`` [B, H] (||d log pi||^2
    per step) weights the min-variance one.  Stacks [R, B, H] of R runs
    (with lengths [R, B]) pool each run's baselines over its own rows."""
    lo, hi = clip_range
    mask = np.arange(g.shape[-1]) < lengths[..., None]
    if estimator == "kstep":
        return np.where(mask, np.clip(g_hat, lo, hi), 0.0)
    g = np.where(mask, np.clip(g, lo, hi), 0.0)
    alive = mask.sum(axis=-2, keepdims=True)
    if estimator == "mean_baseline":
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


def _lockstep_step(
    stack: ModelStack,
    teachers: TeacherStack,
    batches: Sequence[Sequence[State]],
    cfg: TrainConfig,
    variants: Sequence[tuple[str, int]],
    rngs: Sequence[np.random.Generator],
    member: np.ndarray,
) -> tuple[ModelStack, np.ndarray]:
    """One sampled-batch policy update of every run of the stack, run r on
    batches[r] with its (estimator, k) variants[r] and generator rngs[r],
    scored by teacher member[r] of the stack of teachers.

    One population decode samples one trajectory per input, run r from a
    [B, H] block of uniforms drawn by one ``rngs[r].random`` call, then one
    teacher scoring and one recursion for G and each row's K-step Ghat, the
    signals as one [R, B, H] stack, and one backward into [R, P] from the
    scores of one forward pass, which the min-variance baseline's norms
    share.  Each distinct estimator's signals are computed on the whole
    stack, and each run takes its own estimator's: every reduction runs
    over one run's B rows, so a run's signals are bitwise those of the run
    alone.  Returns the ascended stack and, per run, the record's (mean_G,
    mean_Ghat, grad_norm, entropy) as [R, 4].
    """
    n_runs, b = len(variants), len(batches[0])
    # each row's run, run-major; one [B, H] block of uniforms per run
    run = np.repeat(np.arange(n_runs), b)
    u = np.concatenate([g.random((b, cfg.horizon)) for g in rngs])
    trajs = decode(stack.layout(run).batch_logits, stack.window,
                   [s for batch in batches for s in batch], cfg.horizon, u)
    mask = trajs.step_mask
    scores = stack.layout(np.repeat(run, trajs.lengths)).scores(
        trajs.step_contexts(stack.window)[mask], trajs.actions[mask]
    )
    q, m = ret.batch_q_terms(trajs, teachers, np.repeat(member, b))
    # G (K = 1) and Ghat (each row's K) as one recursion over the rows twice
    k = np.repeat([k for _, k in variants], b)
    both = ret.kstep_from_batch_terms(
        np.concatenate([q, q]), np.concatenate([m, m]), np.concatenate([trajs.lengths] * 2),
        np.concatenate([np.ones_like(k), k]),
    )
    g, g_hat = both[: len(q)], both[len(q) :]

    shape = (n_runs, b, g.shape[1])
    names = [estimator for estimator, _ in variants]
    estimators = np.array(names)[:, None, None]
    sq_norms = None
    if "minvar_baseline" in names:
        sq_norms = np.zeros(mask.shape)
        sq_norms[mask] = scores.sq_norms()
        sq_norms = sq_norms.reshape(shape)
    g3, g_hat3, lengths = g.reshape(shape), g_hat.reshape(shape), trajs.lengths.reshape(shape[:2])
    signals = np.zeros(shape)
    for name in dict.fromkeys(names):
        picked = estimator_signals(g3, g_hat3, lengths, sq_norms, name, cfg.clip_range)
        signals = np.where(estimators == name, picked, signals)
    signals = signals.reshape(g.shape) / b

    accum = scores.weighted_grad(signals[mask])
    finite = np.all(np.isfinite(accum), axis=1)
    if not finite.all():
        # in the first run with a non-finite gradient, name its first
        # trajectory whose own share of the sum, from the same scores keyed
        # by trajectory, is non-finite: its signals are, or its scores
        # overflow (a non-finite weight always yields a non-finite share)
        r = int(np.flatnonzero(~finite)[0])
        trajectory = np.repeat(np.arange(n_runs * b), trajs.lengths)
        shares = scores.weighted_grad(signals[mask], trajectory)[r * b : (r + 1) * b]
        for i in np.flatnonzero(~np.isfinite(shares).all(axis=1)).tolist():
            actions = tuple(trajs.actions[r * b + i, : lengths[r, i]].tolist())
            raise NonFiniteGradientError(
                f"non-finite gradient from trajectory {i} (actions {actions})"
            )
        raise NonFiniteGradientError(f"non-finite sum of {b} trajectory gradients")
    new_stack = stack.apply_update(accum, cfg.lr) if cfg.lr > 0 else stack

    entropy = -(np.exp(scores.log_probs) * scores.log_probs).sum(axis=1)
    mean_g = g[:, 0].reshape(shape[:2]).mean(axis=1)
    mean_g_hat = np.clip(g_hat[:, 0], *cfg.clip_range).reshape(shape[:2]).mean(axis=1)
    grad_norm = [np.linalg.norm(grad) for grad in accum]
    mean_entropy = [np.mean(entropy[lo:hi]) for lo, hi in scores.layout.bounds]
    return new_stack, np.column_stack([mean_g, mean_g_hat, grad_norm, mean_entropy])


def _left_to_right_mean(values: list[float]) -> float:
    # in input order: the mean must not depend on numpy's pairwise
    # summation, which groups terms by the batch size; finite terms whose
    # sum overflows are added again, each divided first
    total = 0.0
    for v in values:
        total += v
    if np.isfinite(total) or not np.all(np.isfinite(values)):
        return total / len(values)
    total = 0.0
    for v in values:
        total += v / len(values)
    return total


def evaluate_population(
    stack: ModelStack, teachers: TeacherStack, inputs: Sequence[State], horizon: int,
    member: np.ndarray,
) -> list[float]:
    """Mean actual return of greedy rollouts over a fixed input set, for
    every model of the stack, from one greedy decode over R x len(inputs)
    rows; model r is scored by teacher member[r] of the stack of teachers."""
    n = len(inputs)
    run = np.repeat(np.arange(len(stack.params)), n)
    batch = decode(stack.layout(run).batch_logits, stack.window, list(inputs) * len(stack.params),
                   horizon)
    q, m = ret.batch_q_terms(batch, teachers, np.repeat(member, n))
    g0 = ret.kstep_from_batch_terms(q, m, batch.lengths, 1)[:, 0].tolist()
    return [_left_to_right_mean(g0[lo : lo + n]) for lo in range(0, len(g0), n)]


# -- training loop --------------------------------------------------------------


def _collapse(iteration: int) -> FloatingPointError:
    return FloatingPointError(
        f"policy collapsed at iteration {iteration}: entropy 0.0, so every "
        "sampled score and update is 0"
    )


@dataclass
class _Run:
    """The state one training run carries between iterations, apart from
    its current student: its (estimator, k), teacher index (``member``),
    generator, input order, log, the best student by greedy validation
    return and the latest such return, and once failed, its error."""

    variant: tuple[str, int]
    member: int
    rng: np.random.Generator
    best: LogitModel
    best_eval: float
    eval_return: float
    log: list[TrainRecord] = field(default_factory=list)
    order: list[int] = field(default_factory=list)
    error: Exception | None = None

    def next_batch(self, inputs: Sequence[State], size: int) -> list[State]:
        """The next ``size`` inputs of reshuffled passes over the inputs."""
        while len(self.order) < size:
            self.order.extend(self.rng.permutation(len(inputs)).tolist())
        batch = [inputs[i] for i in self.order[:size]]
        del self.order[:size]
        return batch


def _lockstep_iteration(
    stack: ModelStack,
    teachers: TeacherStack,
    batches: Sequence[Sequence[State]],
    runs: Sequence[_Run],
    val: Sequence[State],
    cfg: TrainConfig,
    iteration: int,
) -> ModelStack:
    """One iteration of every run: the update, the collapse check, the
    greedy evaluation with keep-best when due, one finiteness check of
    every run's log row, and the rows.  Unless every run completes the
    iteration, this raises and changes nothing of any run but its
    generator, so that the iteration can be replayed run by run."""
    member = np.array([run.member for run in runs])
    new_stack, stats = _lockstep_step(stack, teachers, batches, cfg, [run.variant for run in runs],
                                      [run.rng for run in runs], member)
    if (stats[:, 3] == 0.0).any():
        raise _collapse(iteration)
    due = (iteration + 1) % cfg.eval_every == 0 or iteration + 1 == cfg.iterations
    if due:
        evals = evaluate_population(new_stack, teachers, val, cfg.horizon, member)
    else:
        evals = [run.eval_return for run in runs]
    values = np.column_stack([stats, evals])
    _check_finite(iteration, values)
    for r, (run, row) in enumerate(zip(runs, values.tolist())):
        run.eval_return = row[4]
        if due and run.eval_return > run.best_eval:
            run.best, run.best_eval = new_stack.model(r), run.eval_return
        run.log.append(TrainRecord(iteration, *row))
    return new_stack


def train_population(
    fitted: Fitted,
    inputs: Sequence[State],
    cfg: TrainConfig,
    variants: Sequence[tuple[str, int]],
    val_inputs: Sequence[State],
) -> dict[int, list[Outcome]]:
    """cfg.iterations REINFORCE updates over shuffled input batches for
    every seed of ``fitted`` (seed -> (teacher, student)) under every
    (estimator, k) of ``variants``: R runs in one loop over a ``ModelStack``.

    Run (seed, variant) starts from the seed's student, is scored by its
    teacher and draws from ``default_rng(seed)``.  Each run keeps its own
    generator and input order, so it samples, updates, evaluates and keeps
    its best student by greedy validation return bitwise as it would alone.
    Validation runs on ``val_inputs``.  An iteration whose policy entropy is
    exactly 0.0 fails the run with FloatingPointError: every sampled softmax
    is then one-hot, so every score and every further update is exactly 0
    (a diverged step).  An iteration in which any run fails is replayed run
    by run from the same draws, so that each failing run raises exactly its
    error alone; a failed run is dropped and the others go on.  A student
    whose first evaluation fails, or is not finite, fails all its runs.

    Returns, per seed and in variant order, each run's (best student, log,
    greedy validation return of the best student), or the exception that
    stopped the run.  The validation return is computed even at zero
    iterations.
    """
    if not fitted or not variants:
        raise ValueError("train_population requires at least one seed and one variant")
    for estimator, k in variants:
        check_variant(estimator, k)
    if not inputs:
        raise ValueError("train_population requires a non-empty input set")
    val = list(val_inputs)
    if not val:
        raise ValueError("train_population requires a non-empty validation set")

    table = TeacherStack.of([teacher for teacher, _ in fitted.values()])
    runs: dict[int, list[_Run]] = {}
    for j, (seed, (_, student)) in enumerate(fitted.items()):
        # a student's runs share its one first evaluation, or its error
        try:
            first = evaluate_population(
                ModelStack.of([student]), table, val, cfg.horizon, np.array([j]))[0]
            if not np.isfinite(first):
                raise FloatingPointError(f"non-finite eval_greedy_return ({first}) "
                                         "before the first iteration")
        except Exception as exc:  # this student's runs fail; the others go on
            first = exc
        error = first if isinstance(first, Exception) else None
        runs[seed] = [_Run(v, j, np.random.default_rng(seed), student, first, first, error=error)
                      for v in variants]
    live = [run for seed_runs in runs.values() for run in seed_runs if run.error is None]
    stack = ModelStack.of([run.best for run in live]) if live else None
    for iteration in range(cfg.iterations if live else 0):
        batches = [run.next_batch(inputs, cfg.batch_size) for run in live]
        states = [run.rng.bit_generator.state for run in live]
        try:
            stack = _lockstep_iteration(stack, table, batches, live, val, cfg, iteration)
        except (ValueError, FloatingPointError, NonFiniteGradientError):
            # replay the iteration run by run from the same draws
            updated = []
            for r, run in enumerate(live):
                run.rng.bit_generator.state = states[r]
                try:
                    one = _lockstep_iteration(ModelStack.of([stack.model(r)]), table,
                                              [batches[r]], [run], val, cfg, iteration)
                    updated.append(one.model(0))
                except Exception as exc:  # this run's stage failure; the others go on
                    run.error = exc
            live = [run for run in live if run.error is None]
            if not live:
                break
            stack = ModelStack.of(updated)
    return {seed: [(run.best, run.log, run.best_eval) if run.error is None else run.error
                   for run in seed_runs]
            for seed, seed_runs in runs.items()}
