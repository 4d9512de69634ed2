"""Return estimators over teacher Q-surfaces, and their diagnostics.

Definitions used throughout, for a trajectory with steps t = 0..T (T is the
last step index):

    q[t] = q(s_t, a_t)                   Q-value of the action actually taken
    m[t] = max_a q(s_t, a)               best Q available at the visited state

The actual return accumulates induced rewards backward, with no continuation
term after the final action (the episode is over, whether by EOS or horizon):

    G[T] = q[T]
    G[t] = (q[t] - m[t+1]) + G[t+1]

The K-step return replaces runs of one-step differences with a single jump
whenever at least K steps remain, assuming near-optimal intermediate actions:

    Ghat[T] = q[T]
    Ghat[t] = (q[t] - m[t+1]) + Ghat[t+1]      if T - t < K
    Ghat[t] = (q[t] - m[t+K]) + Ghat[t+K]      otherwise

The two differ exactly by the Q-value shortfall of the skipped steps:
G[t] - Ghat[t] = sum over skipped j of (q[j] - m[j]), each term <= 0.  That
difference is the implied baseline, reported pre-clip so the decomposition
G = Ghat + baseline is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import context_code
from .seqmdp import Trajectory, TrajectoryBatch
from .teacher import FrozenModelTeacher, TeacherStack

DEFAULT_CLIP_RANGE = (-100.0, 100.0)


@dataclass(frozen=True)
class ReturnConfig:
    k: int = 1
    clip_range: tuple[float, float] = DEFAULT_CLIP_RANGE

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        lo, hi = self.clip_range
        if not lo < hi:
            raise ValueError(f"bad clip range {self.clip_range}")


def clip_returns(values: np.ndarray, cfg: ReturnConfig) -> np.ndarray:
    lo, hi = cfg.clip_range
    return np.clip(values, lo, hi)


def q_terms(
    teacher: FrozenModelTeacher | TeacherStack, contexts: np.ndarray, actions: np.ndarray,
    member: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(q_taken, max_q) for int contexts [N, teacher.window] and actions [N]:
    two gathers from the teacher's Q table, the same bits in any call; with
    ``member`` [N], from the rows of each row's teacher in a ``TeacherStack``."""
    idx = context_code(contexts, teacher.vocab_size)
    if member is not None:
        idx += member * teacher.vocab_size**teacher.window
    return teacher.q[idx, actions], teacher.max_q[idx]


def trajectory_q_terms(
    traj: Trajectory, teacher: FrozenModelTeacher
) -> tuple[np.ndarray, np.ndarray]:
    """(q_taken, max_q) per step state, checked by ``q_values`` and read
    from the memoized distribution: the per-state reference for the batched forms."""
    q, m = [], []
    for s in traj.steps:
        teacher.q_values(s.state)
        dist = teacher.model.distribution(s.state)
        q.append(dist.row[s.action])
        m.append(dist.max)
    return np.array(q), np.array(m)


def batch_q_terms(
    batch: TrajectoryBatch, teacher: FrozenModelTeacher | TeacherStack,
    member: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(q_taken, max_q) as [B, H] arrays, zero past each row's length; with
    ``member`` [B], each trajectory's teacher in a ``TeacherStack``."""
    mask = batch.step_mask
    q, m = np.zeros((2, *mask.shape))
    q[mask], m[mask] = q_terms(
        teacher, batch.step_contexts(teacher.window)[mask], batch.actions[mask],
        None if member is None else np.repeat(member, batch.lengths),
    )
    return q, m


def actual_return(traj: Trajectory, teacher: FrozenModelTeacher) -> np.ndarray:
    """Per-step cumulative induced reward G[t], unclipped: the K-step return
    at K = 1."""
    return kstep_from_terms(*trajectory_q_terms(traj, teacher), 1)


def kstep_from_terms(q: np.ndarray | list, m: np.ndarray | list, k: int) -> np.ndarray:
    """Ghat [n] from float64 term arrays q, m [n] (n >= 1), or lists of
    their Python floats; K = 1 gives the actual return G.  The
    per-trajectory reference for ``kstep_from_batch_terms``.

    The recursion runs on Python floats, whose + and - round as numpy's
    float64 scalars do, so the bits are those of a numpy recursion; a
    non-finite term gives the same inf or nan, and no RuntimeWarning."""
    if isinstance(q, np.ndarray):
        q, m = q.tolist(), m.tolist()
    g = q[:]
    last = len(q) - 1
    for t in range(last - 1, -1, -1):
        if last - t < k:
            g[t] = (q[t] - m[t + 1]) + g[t + 1]
        else:
            g[t] = (q[t] - m[t + k]) + g[t + k]
    return np.array(g)


def kstep_from_batch_terms(
    q: np.ndarray, m: np.ndarray, lengths: np.ndarray, k: int | np.ndarray
) -> np.ndarray:
    """``kstep_from_terms`` for every row of [B, H] term arrays at once, with
    the same per-element operations; row i ends at step lengths[i] - 1
    (lengths >= 1).  ``k`` is one K for every row, or an int array [B] of
    each row's own K.  K = 1 gives the actual return G.  The result is zero
    past each row's length, whatever the terms hold there."""
    b, h = q.shape
    rows = np.arange(b)
    last = lengths - 1
    g = np.zeros((b, h))
    g[rows, last] = q[rows, last]
    # step t of row i reads the flat [B x H] index of the step it jumps to
    # (a jump of K lands at t + K <= last, inside the row) and is written
    # only where t < last
    steps = np.arange(h)
    k_col = np.reshape(k, (-1, 1))
    jump = np.where(last[:, None] - steps < k_col, steps + 1, steps + k_col) + (rows * h)[:, None]
    live = steps < last[:, None]
    m_flat, g_flat = m.ravel(), g.ravel()
    # columns at or past every row's last step keep their values
    for t in range(int(last.max()) - 1, -1, -1):
        nxt = jump[:, t]
        np.copyto(g[:, t], (q[:, t] - m_flat[nxt]) + g_flat[nxt], where=live[:, t])
    return g


def implied_baseline(
    traj: Trajectory, teacher: FrozenModelTeacher, cfg: ReturnConfig
) -> np.ndarray:
    """The baseline the K-step estimator implicitly subtracts: G - Ghat, pre-clip."""
    q, m = trajectory_q_terms(traj, teacher)
    q, m = q.tolist(), m.tolist()  # the recursions' floats, converted once
    return kstep_from_terms(q, m, 1) - kstep_from_terms(q, m, cfg.k)


def skipped_gaps_from_terms(q: np.ndarray, m: np.ndarray, k: int) -> np.ndarray:
    """Termwise form of the baseline from term arrays q, m [n]: per t, the
    sum of (q[j] - m[j]) over the steps j the K-step recursion jumps over
    from t.  Equals implied_baseline."""
    n = len(q)
    last = n - 1
    out = np.empty(n, dtype=np.float64)
    out[last] = 0.0
    for t in range(last - 1, -1, -1):
        if last - t < k:
            out[t] = out[t + 1]
        else:
            out[t] = np.sum(q[t + 1 : t + k] - m[t + 1 : t + k]) + out[t + k]
    return out


@dataclass(frozen=True)
class ReturnEstimate:
    """Per-step signals for one trajectory.

    ``g_hat`` and ``g_actual`` are pre-clip so that
    ``g_hat == g_actual - baseline`` holds identically; the clipped learning
    signals are exposed separately.
    """

    g_hat: np.ndarray
    g_actual: np.ndarray
    baseline: np.ndarray
    config: ReturnConfig

    @property
    def g_hat_clipped(self) -> np.ndarray:
        return clip_returns(self.g_hat, self.config)

    @property
    def g_actual_clipped(self) -> np.ndarray:
        return clip_returns(self.g_actual, self.config)


def estimate(traj: Trajectory, teacher: FrozenModelTeacher, cfg: ReturnConfig) -> ReturnEstimate:
    q, m = trajectory_q_terms(traj, teacher)
    q, m = q.tolist(), m.tolist()
    g = kstep_from_terms(q, m, 1)
    g_hat = kstep_from_terms(q, m, cfg.k)
    return ReturnEstimate(g_hat=g_hat, g_actual=g, baseline=g - g_hat, config=cfg)


# -- iid surrogate for the variance law -------------------------------------

# The variance comparison between G and Ghat has a closed form when the
# (q, max) pairs entering each summand are iid across steps.  Real MDP
# trajectories violate that, so the law is checked on this surrogate, which
# draws every q-term ~ N(0, var_sa) and every max-term ~ N(0, var_s)
# independently and assembles the two estimators from their term counts:
# num_terms for G, floor((num_terms-1)/k) + 1 for Ghat.


def iid_term_count_kstep(num_terms: int, k: int) -> int:
    return (num_terms - 1) // k + 1


def predicted_var_actual(num_terms: int, var_sa: float, var_s: float) -> float:
    return num_terms * (var_sa + var_s)


def predicted_var_kstep(num_terms: int, k: int, var_sa: float, var_s: float) -> float:
    return iid_term_count_kstep(num_terms, k) * (var_sa + var_s)


def iid_gaussian_samples(
    num_terms: int,
    k: int,
    var_sa: float,
    var_s: float,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n_samples of (G, Ghat) from the iid construction."""
    if num_terms < 1 or k < 1:
        raise ValueError("num_terms and k must be >= 1")
    sd_q, sd_m = np.sqrt(var_sa), np.sqrt(var_s)
    c_kstep = iid_term_count_kstep(num_terms, k)
    g = sd_q * rng.standard_normal((n_samples, num_terms)).sum(axis=1)
    g -= sd_m * rng.standard_normal((n_samples, num_terms)).sum(axis=1)
    g_hat = sd_q * rng.standard_normal((n_samples, c_kstep)).sum(axis=1)
    g_hat -= sd_m * rng.standard_normal((n_samples, c_kstep)).sum(axis=1)
    return g, g_hat
