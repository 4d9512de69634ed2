"""The frozen teacher, its fitting and its checkpoints.

A teacher is a frozen logit model: its pre-softmax logits at a state are the
Q-values of every action there.  They depend only on the last ``window``
tokens, so the teacher tabulates them once, read-only: ``q`` [V^window, V]
at row ``context_code(context)``, the context read as a base-V number, and
each row's maximum ``max_q``.  Batched scoring is a gather from them;
``q_values(state)`` stays the per-state model call.  A ``TeacherStack``
holds the tables of several teachers as one, in the same layout.
``returns`` turns Q-values into induced step rewards and returns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import models
from .models import MAX_TABLE_FLOATS, LogitModel, ModelArch, PolicyDistribution
from .seqmdp import State, TerminalStateError, Vocabulary, initial_state, step


def check_table_size(vocab_size: int, window: int) -> None:
    # V^(w+1) one factor at a time, stopping past the limit: the power of a
    # huge window would take seconds to compute
    floats = 1
    for _ in range(window + 1):
        floats *= vocab_size
        if floats > MAX_TABLE_FLOATS:
            raise ValueError(
                f"teacher Q table of {vocab_size}^{window + 1} > {MAX_TABLE_FLOATS} floats"
            )


@dataclass(frozen=True)
class FrozenModelTeacher:
    model: LogitModel
    q: np.ndarray = field(init=False, repr=False, compare=False)
    max_q: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        v, n = self.vocab_size, self.window
        check_table_size(v, n)
        # one call per first token: each product stays below BLAS's threading size
        blocks = np.indices((v,) * n).reshape(n, v, -1).transpose(1, 2, 0)
        q = np.concatenate([self.model.batch_logits(block) for block in blocks])
        for name, table in (("q", q), ("max_q", q.max(axis=1))):
            table.flags.writeable = False
            object.__setattr__(self, name, table)

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
        """Q-vectors [N, vocab_size] for int contexts [N, window] of
        non-terminal states (the last ``window`` tokens, BOS-padded)."""
        return self.q[models.context_code(contexts, self.vocab_size)]

    def distribution(self, state: State) -> PolicyDistribution:
        """Boltzmann policy over the teacher's own Q-values, checked by ``q_values``."""
        self.q_values(state)
        return self.model.distribution(state)


class TeacherStack(NamedTuple):
    """S teachers' Q tables as one, for teachers of one window and
    vocabulary: ``q`` [S * V^window, V] holds teacher s's row for context
    code c at s * V^window + c, and ``max_q`` each row's maximum."""

    q: np.ndarray
    max_q: np.ndarray
    vocab_size: int
    window: int

    @classmethod
    def of(cls, teachers: Sequence[FrozenModelTeacher]) -> TeacherStack:
        if len({(t.window, t.vocab_size) for t in teachers}) > 1:
            raise ValueError("stacked teachers must share window and vocabulary")
        q, max_q = (np.concatenate([getattr(t, name) for t in teachers]) for name in ("q", "max_q"))
        return cls(q, max_q, teachers[0].vocab_size, teachers[0].window)


# -- teacher fitting -------------------------------------------------------


def _corpus_training_rows(
    corpus: list[list[int]], vocab: Vocabulary, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """(context, target) rows for every corpus token, line by line: the
    context is the last ``window`` tokens of BOS plus the line so far,
    BOS-padded.  The lines stand in one array, each after ``window`` BOS,
    so the contexts are the windows ending just before each token."""
    bos = [vocab.bos_id] * window
    padded = np.fromiter(chain.from_iterable(bos + list(seq) for seq in corpus), np.int64)
    lengths = [n for seq in corpus for n in (window, len(seq))]
    is_token = np.repeat(np.tile([False, True], len(corpus)), lengths)
    positions = np.flatnonzero(is_token)
    targets = padded[positions]
    # a pad is never EOS, so a token after an EOS token follows it in its line
    after_eos = is_token[1:] & (padded[:-1] == vocab.eos_id)
    if after_eos.any() or not np.all((targets >= 0) & (targets < vocab.size)):
        # replay the lines token by token: ``step`` raises the error of the
        # first bad token (TerminalStateError after EOS, else ValueError)
        for seq in corpus:
            state = initial_state(vocab)
            for tok in seq:
                state = step(state, tok)
    contexts = sliding_window_view(padded, window)[positions - window]
    return contexts, targets


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

    ``models.fit_targets`` on every corpus token after its context: returns
    the frozen teacher and the loss of every epoch, and raises
    FloatingPointError on a divergent fit.
    """
    if not corpus:
        raise ValueError("fit_teacher requires a non-empty corpus")
    for i, seq in enumerate(corpus):
        if not seq or seq[-1] != vocab.eos_id:
            raise ValueError(f"corpus sequence {i} does not end with eos")
    model, losses = models.fit_targets(
        models.init_model(arch, vocab.size, rng, scale=init_scale),
        *_corpus_training_rows(corpus, vocab, arch.window), epochs, lr,
    )
    return FrozenModelTeacher(model), losses


# -- serialization ---------------------------------------------------------


def teacher_text(teacher: FrozenModelTeacher) -> str:
    """The frozen checkpoint's JSON text."""
    return json.dumps({**models.model_to_dict(teacher.model), "frozen": True}) + "\n"


def save_teacher(teacher: FrozenModelTeacher, path: str | Path) -> None:
    Path(path).write_text(teacher_text(teacher))


def load_teacher(path: str | Path) -> FrozenModelTeacher:
    data = json.loads(Path(path).read_text())
    if not data.get("frozen"):
        raise ValueError("checkpoint is not marked frozen; refusing to load as a teacher")
    payload = {k: v for k, v in data.items() if k != "frozen"}
    return FrozenModelTeacher(models.model_from_dict(payload))
