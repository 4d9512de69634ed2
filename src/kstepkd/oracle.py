"""Exhaustive-enumeration and finite-difference oracles.

On instances small enough to enumerate every maximal trajectory, the
expectations, variances, and biases of the return estimators - and the exact
policy gradient - are computable as finite probability-weighted sums.  These
serve as ground truth for the Monte-Carlo machinery and for the policy
gradient identity itself.

The enumeration is one ``TrajectoryBatch``, scored and sampled with the
pipeline's own batched code, so the oracle checks the code the pipeline trains
with; ``enumerate_trajectories`` is the per-state reference it is tested against.

Per-step moments condition on the step existing: trajectories shorter than
t+1 steps are excluded from step-t statistics and the surviving probabilities
are renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import returns as ret
from .models import LogitModel, ModelStack, context_code
from .returns import ReturnConfig
from .seqmdp import State, Trajectory, TrajectoryBatch, TrajectoryStep, Vocabulary
from .seqmdp import check_prefix_tokens, decode, log_softmax, step
from .teacher import FrozenModelTeacher


class SizeBoundError(ValueError):
    """The requested enumeration exceeds the configured size bounds."""


MAX_VOCAB = 5
MAX_HORIZON = 6
MAX_TRAJECTORIES = 10**6
# runs x V^horizon per stacked enumeration of the finite-difference check,
# a bound on the rows it scores at once (2^18 rows of an mlp1 of hidden 32
# hold 64 MB of activations)
FD_STACK_ROWS = 2**18
# the largest relative error ``check_gradient`` passes, and the largest
# |z| that ``montecarlo_convergence`` does not flag
GRADIENT_THRESHOLD = 1e-6
Z_THRESHOLD = 4.0


@dataclass(frozen=True)
class EnumerationSpec:
    vocab: Vocabulary
    horizon: int
    initial: State

    def __post_init__(self) -> None:
        if self.vocab.size > MAX_VOCAB:
            raise SizeBoundError(f"vocab size {self.vocab.size} exceeds {MAX_VOCAB}")
        if self.horizon > MAX_HORIZON or self.horizon < 1:
            raise SizeBoundError(f"horizon {self.horizon} outside [1, {MAX_HORIZON}]")
        if self.vocab.size**self.horizon > MAX_TRAJECTORIES:
            raise SizeBoundError("trajectory count bound exceeded")
        if self.initial.is_terminal:
            raise ValueError("initial state must not be terminal")
        if self.initial.vocab != self.vocab:
            raise ValueError("initial state and spec must share one vocabulary")
        check_prefix_tokens(np.array(self.initial.prefix, dtype=np.int64), self.vocab)


def enumerate_trajectories(
    spec: EnumerationSpec, policy: LogitModel
) -> list[tuple[Trajectory, float]]:
    """Every maximal trajectory (EOS-terminated or horizon-truncated) with its
    exact path probability under the policy.  Probabilities sum to 1."""
    out: list[tuple[Trajectory, float]] = []
    _expand(spec, policy, spec.initial, [], 0.0, out)
    return out


def _expand(
    spec: EnumerationSpec, policy: LogitModel, state: State, steps: list, logp: float, out: list
) -> None:
    # module level, not nested: a self-referencing closure would hold ``out``
    # in a reference cycle that only the cyclic collector frees
    # the step log-probs as Python floats, memoized with the distribution
    log_probs = policy.distribution(state).lp
    for action in range(spec.vocab.size):
        nxt = step(state, action)
        steps.append(TrajectoryStep(state, action, log_probs[action]))
        path_logp = logp + log_probs[action]
        if nxt.is_terminal or len(steps) == spec.horizon:
            out.append((Trajectory(tuple(steps), nxt), float(np.exp(path_logp))))
        else:
            _expand(spec, policy, nxt, steps, path_logp, out)
        steps.pop()


def enumerate_batch(
    spec: EnumerationSpec, model: LogitModel | ModelStack
) -> tuple[TrajectoryBatch, np.ndarray]:
    """Every maximal trajectory as one ``TrajectoryBatch``, and its exact
    path probability under each of the model's R runs [R, N] (R = 1 for a
    ``LogitModel``).  The token tree does not depend on the policy, so it
    is built once, depth by depth: one forward pass scores the paths still
    running, each repeats once per action, and the path log-probs
    accumulate left to right as in ``enumerate_trajectories``.  The forward
    pass takes the contexts repeated run by run, laid out with their run
    index, so each run's rows are the one-run call's rows."""
    runs = len(np.atleast_2d(model.params))
    vocab, prefix, window = spec.vocab, spec.initial.prefix, model.window
    p = max(window, len(prefix))
    running = np.full((1, p + spec.horizon), vocab.bos_id, dtype=np.int64)
    running[0, p - len(prefix) : p] = prefix
    logp = np.zeros((runs, 1))
    finished = []
    for t in range(spec.horizon):
        contexts, n = running[:, p + t - window : p + t], len(running)
        layout = model.layout(np.repeat(np.arange(runs), n))
        lp = log_softmax(layout.batch_logits(np.tile(contexts, (runs, 1))))
        lp = lp.reshape(runs, n * vocab.size)
        running = np.repeat(running, vocab.size, axis=0)
        running[:, p + t] = np.tile(np.arange(vocab.size), n)
        logp = np.repeat(logp, vocab.size, axis=1) + lp
        done = (running[:, p + t] == vocab.eos_id) | (t + 1 == spec.horizon)
        finished.append((running[done], logp[:, done], np.full(int(done.sum()), t + 1)))
        running, logp = running[~done], logp[:, ~done]
    tokens, logps, lengths = zip(*finished)
    batch = TrajectoryBatch(vocab, np.concatenate(tokens), p, np.concatenate(lengths))
    return batch, np.exp(np.concatenate(logps, axis=1))


@dataclass(frozen=True)
class ExactMoments:
    """Exact per-step moments (conditioned on step existence) and the exact
    gradient of the expected return under both learning signals."""

    expected_g: np.ndarray
    expected_g_hat: np.ndarray
    var_g: np.ndarray
    var_g_hat: np.ndarray
    bias: np.ndarray
    step_prob: np.ndarray  # probability that a trajectory has more than t steps
    grad_j_actual: np.ndarray
    grad_j_kstep: np.ndarray


def _enumerated_returns(
    spec: EnumerationSpec, policy: LogitModel, teacher: FrozenModelTeacher, ks: Sequence[int]
) -> tuple[TrajectoryBatch, np.ndarray, list[np.ndarray]]:
    """The enumeration, its path probabilities and the unclipped K-step
    returns [N, H] for each K in ``ks`` (K = 1 is the actual return G)."""
    batch, (probs,) = enumerate_batch(spec, policy)
    q, m = ret.batch_q_terms(batch, teacher)
    return batch, probs, [ret.kstep_from_batch_terms(q, m, batch.lengths, k) for k in ks]


def exact_moments(
    spec: EnumerationSpec, policy: LogitModel, teacher: FrozenModelTeacher, cfg: ReturnConfig
) -> ExactMoments:
    # at K = 1 Ghat is G: one recursion, and G's moments and gradient serve both
    batch, probs, gs = _enumerated_returns(spec, policy, teacher, sorted({1, cfg.k}))
    gs = [ret.clip_returns(g, cfg) for g in gs]
    pw = probs[:, None] * batch.step_mask
    step_prob = pw.sum(axis=0)
    means = [(pw * g).sum(axis=0) / step_prob for g in gs]
    var = [(pw * (g - mean) ** 2).sum(axis=0) / step_prob for g, mean in zip(gs, means)]
    grads = _weighted_score_sums(policy, batch, *(pw * g for g in gs))
    return ExactMoments(
        expected_g=means[0], expected_g_hat=means[-1], var_g=var[0], var_g_hat=var[-1],
        bias=means[-1] - means[0], step_prob=step_prob,
        grad_j_actual=grads[0], grad_j_kstep=grads[-1],
    )


def _weighted_score_sums(
    policy: LogitModel, batch: TrajectoryBatch, *weights: np.ndarray
) -> list[np.ndarray]:
    """For each of the weights [N, H], the sum over the batch's steps of
    weight x d log pi(a|c) / d params, in one backward call each.  Steps
    sharing a (context, action) row share the score, so their weights are
    summed first, keyed by the row's code: an enumeration has ~10^4 steps
    but at most V^(window+1) rows.  The rows present are scored once, in
    code order, for all the weights."""
    mask = batch.step_mask
    rows = np.column_stack([batch.step_contexts(policy.window)[mask], batch.actions[mask]])
    code = context_code(rows, policy.vocab_size)
    n_codes = policy.vocab_size ** rows.shape[1]
    present = np.flatnonzero(np.bincount(code, minlength=n_codes))
    distinct = np.column_stack(np.unravel_index(present, (policy.vocab_size,) * rows.shape[1]))
    scores = policy.layout().scores(distinct[:, :-1], distinct[:, -1])
    return [
        scores.weighted_grad(np.bincount(code, weights=w[mask], minlength=n_codes)[present])[0]
        for w in weights
    ]


# -- policy gradient check ---------------------------------------------------


def exact_objective(
    spec: EnumerationSpec, policy: LogitModel, teacher: FrozenModelTeacher
) -> float:
    """J = E[G_0], the exact expected (unclipped) return from the initial state."""
    _, probs, (g,) = _enumerated_returns(spec, policy, teacher, (1,))
    return float(probs @ g[:, 0])


def _exact_policy_gradient(
    spec: EnumerationSpec, policy: LogitModel, teacher: FrozenModelTeacher
) -> np.ndarray:
    # unbiased per-step form with unclipped G; clipping would couple prefix
    # and suffix terms and break the exact identity against d/dtheta of J
    batch, probs, (g,) = _enumerated_returns(spec, policy, teacher, (1,))
    (grad,) = _weighted_score_sums(policy, batch, probs[:, None] * batch.step_mask * g)
    return grad


@dataclass(frozen=True)
class GradientCheckReport:
    analytic: np.ndarray
    finite_diff: np.ndarray
    rel_errors: np.ndarray
    max_rel_error: float
    passed: bool


def check_gradient(
    policy: LogitModel,
    spec: EnumerationSpec,
    teacher: FrozenModelTeacher,
    cfg: ReturnConfig,
    fd_step: float = 1e-5,
) -> GradientCheckReport:
    """Exact enumeration gradient vs central finite differences of J(theta).

    The enumeration serves every J at once: run 0 of a stack holds the
    policy, runs 1..P its +fd_step copies and runs P+1..2P its -fd_step
    copies (``FD_STACK_ROWS`` bounds the runs per enumeration), and each
    run's path probabilities equal the one-run enumeration's bitwise."""
    base = policy.params
    n = len(base)
    params = np.tile(base, (2 * n + 1, 1))
    params[1 + np.arange(n), np.arange(n)] = base + fd_step
    params[1 + n + np.arange(n), np.arange(n)] = base - fd_step
    arch = (policy.kind, policy.vocab_size, policy.window, policy.hidden)
    block = max(1, FD_STACK_ROWS // spec.vocab.size**spec.horizon)
    parts = []
    for lo in range(0, len(params), block):
        stack = ModelStack(*arch, params[lo : lo + block])
        batch, probs = enumerate_batch(spec, stack)
        parts.append(probs)
    probs = np.concatenate(parts)
    q, m = ret.batch_q_terms(batch, teacher)
    g = ret.kstep_from_batch_terms(q, m, batch.lengths, 1)
    # one dot per run, as exact_objective takes: a matrix-vector product
    # would round J differently
    j = np.array([run_probs @ g[:, 0] for run_probs in probs[1:]])
    fd = (j[:n] - j[n:]) / (2.0 * fd_step)
    # unbiased per-step form with unclipped G, as in _exact_policy_gradient
    (analytic,) = _weighted_score_sums(policy, batch, probs[0][:, None] * batch.step_mask * g)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    rel = np.abs(analytic - fd) / denom
    max_rel = float(rel.max())
    return GradientCheckReport(analytic, fd, rel, max_rel, bool(max_rel < GRADIENT_THRESHOLD))


# -- Monte-Carlo convergence --------------------------------------------------


@dataclass(frozen=True)
class ConvergenceEntry:
    metric: str
    sample_mean: float
    exact: float
    std_error: float
    z_score: float | None
    flagged: bool


@dataclass(frozen=True)
class ConvergenceReport:
    n_samples: int
    entries: tuple[ConvergenceEntry, ...]

    @property
    def any_flagged(self) -> bool:
        return any(e.flagged for e in self.entries)

    def csv_rows(self) -> list[tuple[str, float, float, str]]:
        """(metric, z, threshold, status) report rows; z is NaN where undefined."""
        return [
            (
                f"z:{e.metric}",
                float("nan") if e.z_score is None else e.z_score,
                Z_THRESHOLD,
                "fail" if e.flagged else "pass",
            )
            for e in self.entries
        ]

    def __str__(self) -> str:
        lines = [f"monte-carlo convergence, n={self.n_samples}"]
        for e in self.entries:
            z = "n/a" if e.z_score is None else f"{e.z_score:+.3f}"
            mark = "FLAG" if e.flagged else "ok"
            lines.append(
                f"  {e.metric}: mean={e.sample_mean:.6g} exact={e.exact:.6g} z={z} [{mark}]"
            )
        return "\n".join(lines)


def _entry(metric: str, values: np.ndarray, exact: float) -> ConvergenceEntry:
    mean = float(values.mean())
    if len(values) < 2:
        return ConvergenceEntry(metric, mean, exact, float("inf"), None, False)
    se = float(values.std(ddof=1) / np.sqrt(len(values)))
    if se == 0.0:
        z = 0.0 if mean == exact else float("inf")
    else:
        z = (mean - exact) / se
    return ConvergenceEntry(metric, mean, exact, se, z, bool(abs(z) > Z_THRESHOLD))


def montecarlo_convergence(
    policy: LogitModel,
    spec: EnumerationSpec,
    teacher: FrozenModelTeacher,
    cfg: ReturnConfig,
    n_samples: int,
    rng: np.random.Generator,
) -> ConvergenceReport:
    """Sample-mean convergence of Ghat_0 and of the gradient estimator toward
    their enumeration-exact values, reported as z-scores."""
    exact = exact_moments(spec, policy, teacher, cfg)
    batch = decode(policy.batch_logits, policy.window, [spec.initial] * n_samples, spec.horizon,
                   rng.random((n_samples, spec.horizon)))
    q, m = ret.batch_q_terms(batch, teacher)
    gh = ret.clip_returns(ret.kstep_from_batch_terms(q, m, batch.lengths, cfg.k), cfg)
    # each sample's gradient estimate, from one backward keyed by sample
    mask = batch.step_mask
    scores = policy.layout().scores(batch.step_contexts(policy.window)[mask], batch.actions[mask])
    grads = scores.weighted_grad(gh[mask], np.repeat(np.arange(n_samples), batch.lengths))
    entries = [_entry("g_hat_0", gh[:, 0], float(exact.expected_g_hat[0]))]
    entries += [
        _entry(f"grad[{i}]", grads[:, i], float(exact.grad_j_kstep[i]))
        for i in range(policy.num_params)
    ]
    return ConvergenceReport(n_samples, tuple(entries))
