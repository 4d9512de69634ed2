"""Synthetic sequence tasks and corpus files.

Three task families generate EOS-terminated token sequences:

  markov_chain   tokens drawn from a seeded order-n chain over the non-special
                 vocabulary, with a fixed per-step EOS probability; sequences
                 that reach the length cap get EOS appended
  copy           source tokens followed by the same tokens, then EOS
  reverse        source tokens followed by their reversal, then EOS

Corpus file format: one sequence per line, space-separated decimal token ids,
final token = EOS id.  For conditional tasks the conditioning prefix (the part
a generator sees before producing anything) is recoverable from the line:
the first ``length`` tokens for copy/reverse, the first ``cond_len`` tokens
for markov_chain.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .seqmdp import State, Vocabulary, initial_state


def _content_tokens(vocab: Vocabulary) -> list[int]:
    return [t for t in range(vocab.size) if t not in (vocab.bos_id, vocab.eos_id)]


@dataclass(frozen=True)
class MarkovChainTask:
    """Order-n chain with per-context rows derived deterministically from a seed.

    Each context (the last ``order`` tokens, BOS-padded) hashes to its own
    generator stream, so rows never have to be tabulated up front and any
    context's distribution can be recomputed exactly.  Sampling caches each
    visited context's CDF.
    """

    vocab: Vocabulary
    order: int = 1
    transition_seed: int = 0
    eos_prob: float = 0.1
    cond_len: int = 2
    _cdfs: dict[tuple[int, ...], list[float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not 0.0 <= self.eos_prob < 1.0:
            raise ValueError("eos_prob must be in [0, 1)")
        if self.cond_len < 0:
            raise ValueError("cond_len must be >= 0")

    def transition_row(self, context: tuple[int, ...]) -> np.ndarray:
        """P(next token | context) over the full vocabulary (BOS mass = 0)."""
        if len(context) != self.order:
            raise ValueError(f"context must have length {self.order}")
        rng = np.random.default_rng([self.transition_seed, self.order, *context])
        content = _content_tokens(self.vocab)
        weights = rng.dirichlet(np.ones(len(content)))
        row = np.zeros(self.vocab.size, dtype=np.float64)
        row[content] = (1.0 - self.eos_prob) * weights
        row[self.vocab.eos_id] = self.eos_prob
        return row

    def _cdf(self, context: tuple[int, ...]) -> list[float]:
        cdf = self._cdfs.get(context)
        if cdf is None:
            row = self.transition_row(context)
            # the checks Generator.choice makes on p, once per row
            if not (np.all(np.isfinite(row)) and np.all(row >= 0.0)):
                raise ValueError(f"transition row for {context} is not a distribution")
            if abs(math.fsum(row) - 1.0) > math.sqrt(np.finfo(np.float64).eps):
                raise ValueError(f"transition row for {context} does not sum to 1")
            cdf = row.cumsum()
            cdf /= cdf[-1]
            cdf = cdf.tolist()
            self._cdfs[context] = cdf
        return cdf

    def sample_sequence(self, rng: np.random.Generator, max_len: int) -> list[int]:
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        seq: list[int] = []
        ctx = (self.vocab.bos_id,) * self.order
        while True:
            if len(seq) == max_len - 1:
                seq.append(self.vocab.eos_id)
                return seq
            # Generator.choice(V, p=row)'s own arithmetic (a right-side
            # search of the CDF), on the cached CDF
            tok = bisect.bisect_right(self._cdf(ctx), rng.random())
            seq.append(tok)
            if tok == self.vocab.eos_id:
                return seq
            ctx = (ctx + (tok,))[-self.order :]

    def conditioning_prefix(self, line: list[int]) -> tuple[int, ...]:
        usable = max(0, len(line) - 1)  # never condition on the final EOS
        return tuple(line[: min(self.cond_len, usable)])


@dataclass(frozen=True)
class CopyTask:
    vocab: Vocabulary
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if not _content_tokens(self.vocab):
            raise ValueError("copy task needs at least one non-special token")

    def _source(self, rng: np.random.Generator) -> list[int]:
        content = _content_tokens(self.vocab)
        return [int(t) for t in rng.choice(content, size=self.length)]

    def target(self, source: list[int]) -> list[int]:
        return list(source)

    def sample_sequence(self, rng: np.random.Generator, max_len: int | None = None) -> list[int]:
        src = self._source(rng)
        return src + self.target(src) + [self.vocab.eos_id]

    def conditioning_prefix(self, line: list[int]) -> tuple[int, ...]:
        return tuple(line[: self.length])


@dataclass(frozen=True)
class ReverseTask(CopyTask):
    def target(self, source: list[int]) -> list[int]:
        return list(reversed(source))


Task = MarkovChainTask | CopyTask | ReverseTask


def gen_corpus(task: Task, n_sequences: int, rng: np.random.Generator, max_len: int) -> list[list[int]]:
    if n_sequences < 1:
        raise ValueError("n_sequences must be >= 1")
    return [task.sample_sequence(rng, max_len) for _ in range(n_sequences)]


def write_corpus(path: str | Path, corpus: list[list[int]]) -> None:
    path = Path(path)
    try:
        with open(path, "w") as fh:
            for seq in corpus:
                fh.write(" ".join(str(t) for t in seq) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write corpus to {path}: {exc}") from exc


def read_corpus(path: str | Path) -> list[list[int]]:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read corpus from {path}: {exc}") from exc
    return [[int(tok) for tok in line.split()] for line in lines if line.strip()]


def conditioning_states(task: Task, corpus: list[list[int]]) -> list[State]:
    """Initial rollout states: BOS plus each line's conditioning prefix."""
    return [initial_state(task.vocab, task.conditioning_prefix(line)) for line in corpus]
