"""Deterministic sequence-generation MDP.

States are token prefixes, actions are vocabulary tokens, and the transition
appends the chosen token to the prefix.  An episode ends when the end-of-sequence
token is emitted or when the rollout horizon is reached.  Conditioning inputs
(source tokens) are modeled by prepending them to the initial prefix; only
generated tokens count toward a state's ``length``.

Every pipeline path, greedy or sampled, and the enumeration oracle run on the
integer-array ``TrajectoryBatch``; :func:`decode` rolls many inputs out in
lockstep with one scoring call per step.  Per-state ``Trajectory`` objects
from :func:`rollout` remain only as the reference the batches are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Protocol, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided


class TerminalStateError(ValueError):
    """Raised when an action is applied to (or queried at) a terminal state."""


@dataclass(frozen=True)
class Vocabulary:
    """Token inventory: ids 0..size-1 with designated BOS and EOS ids."""

    size: int
    eos_id: int
    bos_id: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"vocabulary size must be >= 2, got {self.size}")
        if not (0 <= self.eos_id < self.size and 0 <= self.bos_id < self.size):
            raise ValueError("eos_id and bos_id must be valid token ids")
        if self.eos_id == self.bos_id:
            raise ValueError("eos_id and bos_id must differ")


@dataclass(frozen=True)
class State:
    """A token prefix.  ``length`` counts generated tokens only.

    EOS ends an episode immediately, so a generated EOS is always the last
    prefix token; terminality is therefore a check on the final token.
    """

    vocab: Vocabulary
    prefix: tuple[int, ...]
    length: int = 0

    @property
    def is_terminal(self) -> bool:
        return len(self.prefix) > 0 and self.prefix[-1] == self.vocab.eos_id

    def last_tokens(self, n: int) -> tuple[int, ...]:
        """Last ``n`` prefix tokens, left-padded with BOS."""
        if len(self.prefix) >= n:
            return self.prefix[-n:]
        return (self.vocab.bos_id,) * (n - len(self.prefix)) + self.prefix


def initial_state(vocab: Vocabulary, conditioning: tuple[int, ...] = ()) -> State:
    """Fresh episode start: BOS followed by optional conditioning tokens."""
    return State(vocab, (vocab.bos_id,) + tuple(conditioning), length=0)


def step(state: State, action: int) -> State:
    if state.is_terminal:
        raise TerminalStateError(f"cannot step from terminal state {state.prefix}")
    if not (0 <= action < state.vocab.size):
        raise ValueError(f"action {action} out of range for vocab size {state.vocab.size}")
    return State(state.vocab, state.prefix + (action,), state.length + 1)


@dataclass(frozen=True)
class TrajectoryStep:
    state: State
    action: int
    logprob: float


@dataclass(frozen=True)
class Trajectory:
    """An episode: the per-step (state, action, logprob) records plus the
    state reached after the final action."""

    steps: tuple[TrajectoryStep, ...]
    terminal_state: State

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def actions(self) -> tuple[int, ...]:
        return tuple(s.action for s in self.steps)

    @property
    def logprobs(self) -> np.ndarray:
        return np.array([s.logprob for s in self.steps], dtype=np.float64)


class Policy(Protocol):
    """Anything that maps a non-terminal state to an action distribution."""

    def distribution(self, state: State):  # -> models.PolicyDistribution
        ...


def _sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    # inverse-CDF draw; clamp guards the final partial-sum rounding below 1.0
    cdf = np.cumsum(probs)
    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
    return min(idx, len(probs) - 1)


def rollout(
    policy: Policy,
    initial: State,
    horizon: int,
    mode: str = "sample",
    rng: np.random.Generator | None = None,
) -> Trajectory:
    """Roll one episode from ``initial`` for at most ``horizon`` actions.

    ``greedy`` picks the argmax logit (ties to the lowest token id); ``sample``
    draws from the policy's softmax using ``rng``.  The log-probability of the
    chosen action under the policy is recorded either way.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if initial.is_terminal:
        raise TerminalStateError("rollout must start from a non-terminal state")
    if mode not in ("sample", "greedy"):
        raise ValueError(f"unknown rollout mode {mode!r}")
    if mode == "sample" and rng is None:
        raise ValueError("sample mode requires an rng")

    steps: list[TrajectoryStep] = []
    state = initial
    for _ in range(horizon):
        dist = policy.distribution(state)
        if mode == "greedy":
            action = int(np.argmax(dist.logits))
        else:
            action = _sample_index(dist.probs, rng)
        logprob = float(dist.log_probs[action])
        if not np.isfinite(logprob):
            raise ValueError(f"non-finite log-probability for action {action}")
        steps.append(TrajectoryStep(state, action, logprob))
        state = step(state, action)
        if state.is_terminal:
            break
    return Trajectory(tuple(steps), state)


# -- lockstep decoding over integer arrays ------------------------------------


@dataclass(frozen=True)
class TrajectoryBatch:
    """B trajectories as integer arrays.

    ``tokens`` is int [B, P+H]: each initial prefix right-aligned in the first
    P columns and left-padded with BOS, then the generated tokens, then BOS
    filler past the row's ``lengths`` entry.  The context before step t at
    any window is a slice of the token rows.
    """

    vocab: Vocabulary
    tokens: np.ndarray
    prefix_width: int
    lengths: np.ndarray

    @property
    def horizon(self) -> int:
        return self.tokens.shape[1] - self.prefix_width

    @property
    def actions(self) -> np.ndarray:
        """int [B, H]; entries at t >= lengths[i] are filler."""
        return self.tokens[:, self.prefix_width :]

    @property
    def step_mask(self) -> np.ndarray:
        """bool [B, H]: step t exists in row i."""
        return np.arange(self.horizon) < self.lengths[:, None]

    def step_contexts(self, window: int) -> np.ndarray:
        """int [B, H, window]: the last ``window`` tokens before each step,
        BOS-padded like ``State.last_tokens`` (a read-only view)."""
        tokens, p = self.tokens, self.prefix_width
        if window > p:
            pad = np.full((tokens.shape[0], window - p), self.vocab.bos_id, dtype=tokens.dtype)
            tokens, p = np.concatenate([pad, tokens], axis=1), window
        # the window view made directly: ``sliding_window_view``'s checks
        # cost about three times as much at a decode's size
        s0, s1 = tokens.strides
        return as_strided(tokens[:, p - window :], shape=(len(tokens), self.horizon, window),
                          strides=(s0, s1, s1), writeable=False)


def decode(
    score: Callable[[np.ndarray], np.ndarray],
    window: int,
    initial: Sequence[State],
    horizon: int,
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
    run: np.ndarray | None = None,
) -> TrajectoryBatch:
    """Rollouts of every initial state in lockstep.

    ``score`` maps int contexts [N, window] to logits [N, V], one call per
    step.  With ``run`` (each row's run index, sorted, fixed for the
    decode) the rows are a population of runs, and ``score`` must keep each
    run's rows apart, as ``RowLayout.batch_logits`` of the layout of ``run``
    does: each step scores every row, finished or not, so that every run
    keeps one row count, and so one product shape, for the whole decode;
    ``run`` itself only routes the draws.  A caller whose one run must
    match that run inside a population passes ``run`` too.  Without
    ``run`` the rows are one policy's, and once a row has ended each step
    scores only the rows still running.  Either way a finished row's tokens
    and length stay frozen, and only the rows still running take an action.

    Without ``rng`` each takes the argmax (ties to the lowest token id), as
    ``rollout(mode="greedy")`` does per state.  With ``rng`` each running
    row draws its action from the softmax by inverse CDF, from one
    ``rng.random(n_running)`` per step in row order, so a single row draws
    exactly as ``rollout(mode="sample")``.  With ``run``, ``rng`` holds one
    generator per run, and each step draws ``rng[r].random(n_running_r)``
    for the runs in order, so every run draws exactly as its rows would
    alone.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not initial:
        raise ValueError("decode requires at least one initial state")
    vocab = initial[0].vocab
    prefixes = []
    for s in initial:
        # ``s.is_terminal`` inlined: this loop runs once per row
        sv, prefix = s.vocab, s.prefix
        if prefix and prefix[-1] == sv.eos_id:
            raise TerminalStateError("rollout must start from a non-terminal state")
        if sv is not vocab and sv != vocab:
            raise ValueError("initial states must share one vocabulary")
        prefixes.append(prefix)
    b, p = len(initial), max(window, max(map(len, prefixes)))
    bos = (vocab.bos_id,)
    tokens = np.full((b, p + horizon), vocab.bos_id, dtype=np.int64)
    # each prefix right-aligned in the first p columns, BOS-padded
    padded = chain.from_iterable([bos * (p - len(x)) + x for x in prefixes])
    tokens[:, :p] = np.fromiter(padded, np.int64, b * p).reshape(b, p)
    # a row's length is written when it ends; the rest run the horizon
    lengths = np.full(b, horizon, dtype=np.int64)
    alive = np.arange(b)
    if rng is not None and run is not None:
        counts = np.bincount(run, minlength=len(rng)).tolist()
    for t in range(horizon):
        contexts = tokens[:, p + t - window : p + t]
        if run is None and len(alive) < b:
            contexts = contexts.take(alive, axis=0)
        logits = score(contexts)
        if logits.shape != (len(contexts), vocab.size):
            raise ValueError(
                f"scores have shape {logits.shape}, expected ({len(contexts)}, {vocab.size})"
            )
        if len(logits) > len(alive):
            logits = logits.take(alive, axis=0)
        z = logits - logits.max(axis=1, keepdims=True)
        if rng is None:
            actions = np.argmax(logits, axis=1)
            # log_softmax at the argmax, whose shifted logit is exactly 0
            lp = -np.log(np.exp(z).sum(axis=1))
        else:
            # the same log_softmax and inverse-CDF draw as rollout; the
            # clamp guards the final partial sum rounding below 1.0
            log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            cdf = np.cumsum(np.exp(log_probs), axis=1)
            if run is None:
                u = rng.random(len(alive))
            else:
                u = np.concatenate([g.random(n) for g, n in zip(rng, counts)])
            actions = np.minimum((cdf <= u[:, None]).sum(axis=1), vocab.size - 1)
            lp = log_probs[np.arange(len(alive)), actions]
        finite = np.isfinite(lp)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise ValueError(f"non-finite log-probability for action {int(actions[bad])}")
        if len(alive) == b:
            tokens[:, p + t] = actions
        else:
            tokens[alive, p + t] = actions
        ended = actions == vocab.eos_id
        if np.count_nonzero(ended):
            lengths[alive[ended]] = t + 1
            alive = alive[~ended]
            if not len(alive):
                break
            if rng is not None and run is not None:
                counts = np.bincount(run[alive], minlength=len(rng)).tolist()
    return TrajectoryBatch(vocab, tokens, p, lengths)
