"""Teacher Q-value sources and the reward they induce.

A teacher assigns a Q-value to every (state, action) pair; its pre-softmax
logits are the Q-surface.  Inverting the Bellman optimality recursion turns
that surface into a step-wise reward:

    r(s, a) = q(s, a) - max_a' q(s', a')        with s' = step(s, a)

Terminal states contribute no continuation value: max_q(terminal) = 0, which
makes the final step's reward its raw Q-value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import models
from .models import LogitModel, ModelArch, PolicyDistribution
from .seqmdp import State, TerminalStateError, Vocabulary, initial_state, step


class MissingContextError(KeyError):
    """A tabular teacher was queried at a context it has no entry for."""


DEFAULT_CLIP_RANGE = (-100.0, 100.0)


class TeacherQ:
    """Interface shared by frozen-model and tabular teachers."""

    window: int
    vocab_size: int

    def q_values(self, state: State) -> np.ndarray:
        raise NotImplementedError

    def batch_q_values(self, contexts: np.ndarray) -> np.ndarray:
        """Q-vectors [N, vocab_size] for int contexts [N, window] of
        non-terminal states (the last ``window`` tokens, BOS-padded)."""
        raise NotImplementedError

    def q_value(self, state: State, action: int) -> float:
        if state.is_terminal:
            raise TerminalStateError("q_value is undefined at terminal states")
        return float(self.q_values(state)[action])

    def max_q(self, state: State) -> float:
        if state.is_terminal:
            return 0.0
        return float(self.q_values(state).max())

    def distribution(self, state: State) -> PolicyDistribution:
        """Boltzmann policy over the teacher's own Q-values."""
        q = self.q_values(state)
        lp = models.log_softmax(q)
        return PolicyDistribution(logits=q, probs=np.exp(lp), log_probs=lp)


@dataclass(frozen=True)
class FrozenModelTeacher(TeacherQ):
    model: LogitModel

    @property
    def window(self) -> int:
        return self.model.window

    @property
    def vocab_size(self) -> int:
        return self.model.vocab_size

    def q_values(self, state: State) -> np.ndarray:
        if state.is_terminal:
            raise TerminalStateError("q_values is undefined at terminal states")
        return self.model.logits(state)

    def batch_q_values(self, contexts: np.ndarray) -> np.ndarray:
        return self.model.batch_logits(contexts)


@dataclass(frozen=True)
class TabularTeacher(TeacherQ):
    """Explicit context -> logit-vector table.  Unseen contexts are an error,
    never a silent default; callers must guarantee coverage."""

    table: dict[tuple[int, ...], np.ndarray]
    window: int
    vocab_size: int

    def __post_init__(self) -> None:
        for ctx, q in self.table.items():
            if len(ctx) != self.window:
                raise ValueError(f"context {ctx} does not match window {self.window}")
            if q.shape != (self.vocab_size,) or not np.all(np.isfinite(q)):
                raise ValueError(f"bad logit vector for context {ctx}")
            q.flags.writeable = False

    def _row(self, ctx: tuple[int, ...]) -> np.ndarray:
        try:
            return self.table[ctx]
        except KeyError:
            raise MissingContextError(f"tabular teacher has no entry for context {ctx}") from None

    def q_values(self, state: State) -> np.ndarray:
        if state.is_terminal:
            raise TerminalStateError("q_values is undefined at terminal states")
        return self._row(state.last_tokens(self.window))

    def batch_q_values(self, contexts: np.ndarray) -> np.ndarray:
        rows = [self._row(ctx) for ctx in map(tuple, contexts.tolist())]
        return np.array(rows, dtype=np.float64).reshape(len(rows), self.vocab_size)


@dataclass(frozen=True)
class InducedReward:
    teacher: TeacherQ
    clip_range: tuple[float, float] = DEFAULT_CLIP_RANGE

    def __post_init__(self) -> None:
        lo, hi = self.clip_range
        if not lo < hi:
            raise ValueError(f"bad clip range {self.clip_range}")

    def reward(self, state: State, action: int, next_state: State) -> float:
        expected = step(state, action)
        if next_state.prefix != expected.prefix or next_state.length != expected.length:
            raise ValueError(
                f"next_state {next_state.prefix} is not step({state.prefix}, {action})"
            )
        raw = self.teacher.q_value(state, action) - self.teacher.max_q(next_state)
        lo, hi = self.clip_range
        return float(min(max(raw, lo), hi))


# -- teacher fitting -------------------------------------------------------


def _corpus_training_rows(
    corpus: list[list[int]], vocab: Vocabulary, window: int
) -> tuple[np.ndarray, np.ndarray]:
    contexts: list[tuple[int, ...]] = []
    targets: list[int] = []
    for seq in corpus:
        state = initial_state(vocab)
        for tok in seq:
            contexts.append(state.last_tokens(window))
            targets.append(tok)
            state = step(state, tok)
    return np.asarray(contexts, dtype=np.int64), np.asarray(targets, dtype=np.int64)


def fit_teacher(
    corpus: list[list[int]],
    vocab: Vocabulary,
    arch: ModelArch,
    epochs: int,
    lr: float,
    rng: np.random.Generator,
    init_scale: float = 0.1,
) -> tuple[FrozenModelTeacher, list[float]]:
    """Train a next-token model on an EOS-terminated corpus and freeze it.

    Full-batch gradient descent on the mean cross-entropy, over the distinct
    contexts and their target counts (the same loss as over every row).
    Returns the frozen teacher and the loss of every epoch.  A divergent fit
    raises FloatingPointError: a non-finite epoch loss, or a last epoch's loss
    above the first's (with a sane lr the loss is, statistically,
    non-increasing).
    """
    if not corpus:
        raise ValueError("fit_teacher requires a non-empty corpus")
    for i, seq in enumerate(corpus):
        if not seq or seq[-1] != vocab.eos_id:
            raise ValueError(f"corpus sequence {i} does not end with eos")
    model = models.init_model(arch, vocab.size, rng, scale=init_scale)
    contexts, counts = models.target_counts(
        *_corpus_training_rows(corpus, vocab, arch.window), vocab.size
    )
    losses: list[float] = []
    for epoch in range(epochs):
        loss, grad = model.cross_entropy_grad(contexts, counts)
        if not np.isfinite(loss):
            raise FloatingPointError(f"teacher fit diverged: loss {loss} at epoch {epoch}")
        losses.append(loss)
        model = model.apply_update(-grad, lr)
    if losses and losses[-1] > losses[0]:
        raise FloatingPointError(f"teacher fit diverged: loss rose {losses[0]!r} -> {losses[-1]!r}")
    return FrozenModelTeacher(model), losses


# -- serialization ---------------------------------------------------------


def save_teacher(teacher: TeacherQ, path: str | Path) -> None:
    if isinstance(teacher, FrozenModelTeacher):
        data = models.model_to_dict(teacher.model)
        data["frozen"] = True
    elif isinstance(teacher, TabularTeacher):
        data = {
            "format_version": models.CHECKPOINT_FORMAT_VERSION,
            "kind": "tabular",
            "frozen": True,
            "vocab_size": teacher.vocab_size,
            "window": teacher.window,
            "table": {
                ",".join(map(str, ctx)): [float(x) for x in q]
                for ctx, q in sorted(teacher.table.items())
            },
        }
    else:
        raise TypeError(f"cannot serialize teacher of type {type(teacher)!r}")
    Path(path).write_text(json.dumps(data) + "\n")


def load_teacher(path: str | Path) -> TeacherQ:
    data = json.loads(Path(path).read_text())
    if not data.get("frozen"):
        raise ValueError("checkpoint is not marked frozen; refusing to load as a teacher")
    if data["kind"] == "tabular":
        table = {
            tuple(int(t) for t in key.split(",")): np.array(q, dtype=np.float64)
            for key, q in data["table"].items()
        }
        return TabularTeacher(table, int(data["window"]), int(data["vocab_size"]))
    payload = {k: v for k, v in data.items() if k != "frozen"}
    return FrozenModelTeacher(models.model_from_dict(payload))
