"""Exhaustive-enumeration and finite-difference oracles.

On instances small enough to enumerate every maximal trajectory, the
expectations, variances, and biases of the return estimators - and the exact
policy gradient - are computable as finite probability-weighted sums.  These
serve as ground truth for the Monte-Carlo machinery and for the policy
gradient identity itself.

Per-step moments condition on the step existing: trajectories shorter than
t+1 steps are excluded from step-t statistics and the surviving probabilities
are renormalized.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import returns as ret
from .models import LogitModel
from .returns import ReturnConfig
from .seqmdp import Policy, State, Trajectory, TrajectoryStep, Vocabulary, rollout, step
from .teacher import FrozenModelTeacher


class SizeBoundError(ValueError):
    """The requested enumeration exceeds the configured size bounds."""


MAX_VOCAB = 5
MAX_HORIZON = 6
MAX_TRAJECTORIES = 10**6


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


def enumerate_trajectories(
    spec: EnumerationSpec, policy: Policy
) -> list[tuple[Trajectory, float]]:
    """Every maximal trajectory (EOS-terminated or horizon-truncated) with its
    exact path probability under the policy.  Probabilities sum to 1."""
    out: list[tuple[Trajectory, float]] = []
    vocab_ids = range(spec.vocab.size)

    def expand(state: State, steps: list[TrajectoryStep], logp: float) -> None:
        dist = policy.distribution(state)
        for action in vocab_ids:
            nxt = step(state, action)
            record = TrajectoryStep(state, action, float(dist.log_probs[action]))
            steps.append(record)
            path_logp = logp + record.logprob
            if nxt.is_terminal or len(steps) == spec.horizon:
                out.append((Trajectory(tuple(steps), nxt), float(np.exp(path_logp))))
            else:
                expand(nxt, steps, path_logp)
            steps.pop()

    expand(spec.initial, [], 0.0)
    return out


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


def exact_moments(
    spec: EnumerationSpec, policy: LogitModel, teacher: FrozenModelTeacher, cfg: ReturnConfig
) -> ExactMoments:
    trajs = enumerate_trajectories(spec, policy)
    max_len = max(traj.num_steps for traj, _ in trajs)
    per_traj = []
    for traj, prob in trajs:
        est = ret.estimate(traj, teacher, cfg)
        per_traj.append((traj, prob, est.g_actual_clipped, est.g_hat_clipped))

    expected_g = np.zeros(max_len)
    expected_g_hat = np.zeros(max_len)
    var_g = np.zeros(max_len)
    var_g_hat = np.zeros(max_len)
    step_prob = np.zeros(max_len)
    for t in range(max_len):
        total = sum(p for traj, p, _, _ in per_traj if traj.num_steps > t)
        step_prob[t] = total
        eg = sum(p * g[t] for traj, p, g, _ in per_traj if traj.num_steps > t) / total
        egh = sum(p * gh[t] for traj, p, _, gh in per_traj if traj.num_steps > t) / total
        vg = sum(p * (g[t] - eg) ** 2 for traj, p, g, _ in per_traj if traj.num_steps > t) / total
        vgh = (
            sum(p * (gh[t] - egh) ** 2 for traj, p, _, gh in per_traj if traj.num_steps > t)
            / total
        )
        expected_g[t], expected_g_hat[t] = eg, egh
        var_g[t], var_g_hat[t] = vg, vgh

    grad_actual = _weighted_score_sum(policy, ((traj, p * g) for traj, p, g, _ in per_traj))
    grad_kstep = _weighted_score_sum(policy, ((traj, p * gh) for traj, p, _, gh in per_traj))

    return ExactMoments(
        expected_g=expected_g,
        expected_g_hat=expected_g_hat,
        var_g=var_g,
        var_g_hat=var_g_hat,
        bias=expected_g_hat - expected_g,
        step_prob=step_prob,
        grad_j_actual=grad_actual,
        grad_j_kstep=grad_kstep,
    )


def _weighted_score_sum(
    policy: LogitModel, weighted: Iterable[tuple[Trajectory, np.ndarray]]
) -> np.ndarray:
    """Sum over the steps of (trajectory, per-step weights) pairs of weight x
    d log pi(a|c) / d params, in one backward call.  Steps sharing a (context,
    action) row share the score, so their weights are summed first, in step
    order: an enumeration has ~10^4 steps but at most V^(window+1) rows."""
    summed: dict[tuple[int, ...], float] = {}
    for traj, w in weighted:
        for s, wt in zip(traj.steps, w):
            key = (*s.state.last_tokens(policy.window), s.action)
            summed[key] = summed.get(key, 0.0) + wt
    rows = np.array(list(summed), dtype=np.int64)
    return policy.weighted_logit_grad(rows[:, :-1], rows[:, -1], np.array(list(summed.values())))[0]


# -- policy gradient check ---------------------------------------------------


def exact_objective(spec: EnumerationSpec, policy: Policy, teacher: FrozenModelTeacher) -> float:
    """J = E[G_0], the exact expected (unclipped) return from the initial state."""
    total = 0.0
    for traj, prob in enumerate_trajectories(spec, policy):
        total += prob * float(ret.actual_return(traj, teacher)[0])
    return total


def _exact_policy_gradient(
    spec: EnumerationSpec, policy: LogitModel, teacher: FrozenModelTeacher
) -> np.ndarray:
    # unbiased per-step form with unclipped G; clipping would couple prefix
    # and suffix terms and break the exact identity against d/dtheta of J
    trajs = enumerate_trajectories(spec, policy)
    return _weighted_score_sum(policy, ((t, p * ret.actual_return(t, teacher)) for t, p in trajs))


@dataclass(frozen=True)
class GradientCheckReport:
    analytic: np.ndarray
    finite_diff: np.ndarray
    rel_errors: np.ndarray
    max_rel_error: float
    passed: bool
    threshold: float

    def csv_rows(self) -> list[tuple[str, str, str, str]]:
        rows = [
            (
                "max_rel_error",
                repr(self.max_rel_error),
                repr(self.threshold),
                "pass" if self.passed else "fail",
            )
        ]
        for i, e in enumerate(self.rel_errors):
            rows.append((f"rel_error[{i}]", repr(float(e)), repr(self.threshold), ""))
        return rows


def check_gradient(
    policy: LogitModel,
    spec: EnumerationSpec,
    teacher: FrozenModelTeacher,
    cfg: ReturnConfig,
    fd_step: float = 1e-5,
    threshold: float = 1e-6,
) -> GradientCheckReport:
    """Exact enumeration gradient vs central finite differences of J(theta)."""
    analytic = _exact_policy_gradient(spec, policy, teacher)
    fd = np.zeros_like(analytic)
    base = policy.params
    for i in range(len(base)):
        bumped = base.copy()
        bumped[i] = base[i] + fd_step
        j_plus = exact_objective(spec, policy.with_params(bumped), teacher)
        bumped[i] = base[i] - fd_step
        j_minus = exact_objective(spec, policy.with_params(bumped), teacher)
        fd[i] = (j_plus - j_minus) / (2.0 * fd_step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    rel = np.abs(analytic - fd) / denom
    max_rel = float(rel.max())
    return GradientCheckReport(
        analytic=analytic,
        finite_diff=fd,
        rel_errors=rel,
        max_rel_error=max_rel,
        passed=bool(max_rel < threshold),
        threshold=threshold,
    )


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
    z_threshold: float

    @property
    def any_flagged(self) -> bool:
        return any(e.flagged for e in self.entries)

    def csv_rows(self) -> list[tuple[str, str, str, str]]:
        rows = []
        for e in self.entries:
            value = repr(e.z_score) if e.z_score is not None else "nan"
            rows.append(
                (
                    f"z:{e.metric}",
                    value,
                    repr(self.z_threshold),
                    "fail" if e.flagged else "pass",
                )
            )
        return rows

    def __str__(self) -> str:
        lines = [f"monte-carlo convergence, n={self.n_samples}"]
        for e in self.entries:
            z = "n/a" if e.z_score is None else f"{e.z_score:+.3f}"
            mark = "FLAG" if e.flagged else "ok"
            lines.append(
                f"  {e.metric}: mean={e.sample_mean:.6g} exact={e.exact:.6g} z={z} [{mark}]"
            )
        return "\n".join(lines)


def _entry(metric: str, values: np.ndarray, exact: float, z_threshold: float) -> ConvergenceEntry:
    mean = float(values.mean())
    if len(values) < 2:
        return ConvergenceEntry(metric, mean, exact, float("inf"), None, False)
    se = float(values.std(ddof=1) / np.sqrt(len(values)))
    if se == 0.0:
        z = 0.0 if mean == exact else float("inf")
    else:
        z = (mean - exact) / se
    return ConvergenceEntry(metric, mean, exact, se, z, bool(abs(z) > z_threshold))


def montecarlo_convergence(
    policy: LogitModel,
    spec: EnumerationSpec,
    teacher: FrozenModelTeacher,
    cfg: ReturnConfig,
    n_samples: int,
    rng: np.random.Generator,
    z_threshold: float = 4.0,
) -> ConvergenceReport:
    """Sample-mean convergence of Ghat_0 and of the gradient estimator toward
    their enumeration-exact values, reported as z-scores."""
    exact = exact_moments(spec, policy, teacher, cfg)
    g_hat_0 = np.empty(n_samples)
    grad_samples = np.empty((n_samples, policy.num_params))
    for i in range(n_samples):
        traj = rollout(policy, spec.initial, spec.horizon, mode="sample", rng=rng)
        est = ret.estimate(traj, teacher, cfg)
        gh = est.g_hat_clipped
        g_hat_0[i] = gh[0]
        grad_samples[i] = _weighted_score_sum(policy, [(traj, gh)])

    entries = [_entry("g_hat_0", g_hat_0, float(exact.expected_g_hat[0]), z_threshold)]
    for i in range(policy.num_params):
        entries.append(
            _entry(
                f"grad[{i}]",
                grad_samples[:, i],
                float(exact.grad_j_kstep[i]),
                z_threshold,
            )
        )
    return ConvergenceReport(n_samples, tuple(entries), z_threshold)


def write_report_csv(path: str | Path, rows: Sequence[tuple[str, str, str, str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("metric", "value", "threshold", "status"))
        writer.writerows(rows)
