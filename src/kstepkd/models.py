"""Small differentiable logit models over fixed-width token contexts.

A model maps the last ``window`` tokens of a state prefix (left-padded with
BOS) to one logit per vocabulary token, through either a single linear layer
or a one-hidden-layer tanh network.  Parameters live in one flat float64
vector and all gradients are computed analytically, so the same code path
serves both the student policy and frozen neural teachers.

The conceptual input is the concatenation of ``window`` one-hot vectors.
Because exactly one entry per slot is hot, forward and backward passes gather
and scatter columns instead of materializing the encoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .seqmdp import State

CHECKPOINT_FORMAT_VERSION = 1


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


@dataclass(frozen=True)
class PolicyDistribution:
    """Softmax distribution over the vocabulary at one state."""

    logits: np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray


def _distribution_from_logits(logits: np.ndarray) -> PolicyDistribution:
    lp = log_softmax(logits)
    return PolicyDistribution(logits=logits, probs=np.exp(lp), log_probs=lp)


@dataclass(frozen=True)
class ModelArch:
    """Architecture declaration: kind, context window, hidden width (mlp1 only)."""

    kind: str
    window: int = 3
    hidden: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "mlp1"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.kind == "mlp1" and self.hidden < 1:
            raise ValueError("mlp1 requires hidden >= 1")
        if self.kind == "linear" and self.hidden != 0:
            raise ValueError("linear model takes no hidden width")


def encode_context(context: tuple[int, ...], vocab_size: int) -> np.ndarray:
    """Dense one-hot-per-slot encoding (the per-state gradient reference's
    input; hot paths gather columns)."""
    n = len(context)
    enc = np.zeros(n * vocab_size, dtype=np.float64)
    for j, tok in enumerate(context):
        enc[j * vocab_size + tok] = 1.0
    return enc


def _slot_sum(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """sum_j table[idx[:, j]] for int idx [N, window], accumulated slot by
    slot: bitwise ``table[idx].sum(axis=1)``, without that gather's
    [N, window, width] intermediate."""
    acc = table[idx[:, 0]]
    for j in range(1, idx.shape[1]):
        acc += table[idx[:, j]]
    return acc


@dataclass(frozen=True)
class LogitModel:
    kind: str
    vocab_size: int
    window: int
    hidden: int
    params: np.ndarray

    def __post_init__(self) -> None:
        expected = param_count(self.arch, self.vocab_size)
        if self.params.shape != (expected,):
            raise ValueError(
                f"parameter vector has shape {self.params.shape}, expected ({expected},)"
            )
        if not np.all(np.isfinite(self.params)):
            raise ValueError("model parameters must be finite")
        self.params.flags.writeable = False
        # params never change after construction, so layer views and the
        # per-slot column offsets can be fixed up front (hot-path win)
        object.__setattr__(self, "_offsets", np.arange(self.window) * self.vocab_size)
        if self.kind == "linear":
            v, n = self.vocab_size, self.window
            views = (self.params[: v * n * v].reshape(v, n * v), self.params[v * n * v :])
        else:
            v, n, h = self.vocab_size, self.window, self.hidden
            o = h * n * v
            views = (
                self.params[:o].reshape(h, n * v),
                self.params[o : o + h],
                self.params[o + h : o + h + v * h].reshape(v, h),
                self.params[o + h + v * h :],
            )
        object.__setattr__(self, "_views", views)

    @property
    def arch(self) -> ModelArch:
        return ModelArch(self.kind, self.window, self.hidden)

    @property
    def num_params(self) -> int:
        return self.params.shape[0]

    # -- forward ---------------------------------------------------------

    def context(self, state: State) -> tuple[int, ...]:
        if state.vocab.size != self.vocab_size:
            raise ValueError("state vocabulary does not match model vocab_size")
        return state.last_tokens(self.window)

    def logits(self, state: State) -> np.ndarray:
        cols = self._offsets + self.context(state)
        if self.kind == "linear":
            w, b = self._views
            return w[:, cols].sum(axis=1) + b
        w1, b1, w2, b2 = self._views
        h = np.tanh(w1[:, cols].sum(axis=1) + b1)
        return w2 @ h + b2

    def distribution(self, state: State) -> PolicyDistribution:
        return _distribution_from_logits(self.logits(state))

    def _forward(self, cols: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
        """Hidden activations [N, hidden] (None for linear) and logits [N, V]
        for gathered columns [N, window]."""
        if self.kind == "linear":
            w, b = self._views
            return None, _slot_sum(w.T, cols) + b
        w1, b1, w2, b2 = self._views
        h = np.tanh(_slot_sum(w1.T, cols) + b1)
        return h, h @ w2.T + b2

    def batch_logits(self, contexts: np.ndarray) -> np.ndarray:
        """Logits for an int array of contexts with shape [batch, window]."""
        return self._forward(contexts + self._offsets)[1]

    # -- gradients -------------------------------------------------------

    def _first_layer_cotangent(self, h: np.ndarray | None, dz: np.ndarray) -> np.ndarray:
        """dz itself for linear; du = (dz @ w2) * tanh' for mlp1."""
        if h is None:
            return dz
        w2 = self._views[2]
        return (dz @ w2) * (1.0 - h * h)

    def _backward(self, cols: np.ndarray, h: np.ndarray | None, dz: np.ndarray) -> np.ndarray:
        """Parameter gradient of sum_i dz_i . logits_i, for logit cotangents
        dz [N, V] at the gathered columns [N, window] and hidden activations
        of one forward pass."""
        grad = np.zeros_like(self.params)
        d1 = self._first_layer_cotangent(h, dz)
        width, nv = d1.shape[1], self.window * self.vocab_size
        o = width * nv
        g1t = grad[:o].reshape(width, nv).T
        # a column repeats across rows, so accumulate with np.add.at (row order)
        for j in range(self.window):
            np.add.at(g1t, cols[:, j], d1)
        grad[o : o + width] = d1.sum(axis=0)
        if h is not None:
            o += width
            grad[o : o + self.vocab_size * width] = (dz.T @ h).ravel()
            grad[o + self.vocab_size * width :] = dz.sum(axis=0)
        return grad

    def _scores(
        self, contexts: np.ndarray, actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
        """Columns, hidden activations, log-probs [N, V] and the logit score
        err = onehot(a) - pi, whose backward is d log pi(a|c) / d params."""
        cols = contexts + self._offsets
        h, z = self._forward(cols)
        lp = log_softmax(z)
        err = -np.exp(lp)
        err[np.arange(len(actions)), actions] += 1.0
        return cols, h, lp, err

    def weighted_logit_grad(
        self, contexts: np.ndarray, actions: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """sum_i w_i d log pi(a_i|c_i) / d params over int contexts
        [N, window], actions [N] and weights [N], plus the log-probs [N, V]
        of the same forward pass."""
        cols, h, lp, err = self._scores(contexts, actions)
        return self._backward(cols, h, err * weights[:, None]), lp

    def score_sq_norms(self, contexts: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """||d log pi(a_i|c_i) / d params||^2 per row, in closed form: the
        encoding x has ``window`` ones, so ||outer(d1, x)||^2 = window ||d1||^2.
        linear (window+1)||err||^2; mlp1 ||err||^2 (1+||h||^2) + (window+1)||du||^2."""
        _, h, _, err = self._scores(contexts, actions)
        e2 = (err * err).sum(axis=1)
        if h is None:
            return (self.window + 1) * e2
        du = self._first_layer_cotangent(h, err)
        return e2 * (1.0 + (h * h).sum(axis=1)) + (self.window + 1) * (du * du).sum(axis=1)

    def grad_log_prob(self, state: State, action: int) -> np.ndarray:
        """d log pi(action|state) / d params, flat, same length as params.
        The per-state reference for the batched backward, on the dense
        encoding of the context."""
        x = encode_context(self.context(state), self.vocab_size)
        if self.kind == "linear":
            w, b = self._views
            err = -softmax(w @ x + b)
            err[action] += 1.0
            return np.concatenate([np.outer(err, x).ravel(), err])
        w1, b1, w2, b2 = self._views
        h = np.tanh(w1 @ x + b1)
        err = -softmax(w2 @ h + b2)
        err[action] += 1.0
        du = (w2.T @ err) * (1.0 - h * h)
        return np.concatenate([np.outer(du, x).ravel(), du, np.outer(err, h).ravel(), err])

    def cross_entropy_grad(
        self, contexts: np.ndarray, counts: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Mean next-token cross-entropy over counted rows and its parameter
        gradient.

        ``contexts`` is int [C, window] and ``counts`` [C, vocab_size] holds
        how often each target follows each context (``target_counts``), so
        the loss is -sum n log pi / N over N = counts.sum() rows.  The
        returned gradient is of that mean loss (descend it to fit the targets).
        """
        row_totals = counts.sum(axis=1)
        total = row_totals.sum()
        cols = contexts + self._offsets
        h, z = self._forward(cols)
        lp = log_softmax(z)
        loss = float(-(counts * lp).sum() / total)
        dz = (np.exp(lp) * row_totals[:, None] - counts) / total
        return loss, self._backward(cols, h, dz)

    # -- updates ---------------------------------------------------------

    def with_params(self, params: np.ndarray) -> LogitModel:
        return replace(self, params=np.array(params, dtype=np.float64))

    def apply_update(self, grad: np.ndarray, lr: float) -> LogitModel:
        """Gradient ascent: params + lr * grad."""
        if grad.shape != self.params.shape:
            raise ValueError(
                f"gradient length {grad.shape} does not match parameters {self.params.shape}"
            )
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        return self.with_params(self.params + lr * grad)


@dataclass(frozen=True)
class ModelStack:
    """R models of one architecture with their parameters stacked [R, P]:
    the population form of ``LogitModel``.

    Each batched call takes the run index of every row, sorted, so that the
    rows of a run are contiguous.  Gathers, scatters and elementwise steps
    run on all rows at once.  Each matrix product and sum over rows runs
    once per run, on that run's rows: BLAS rounds a row of a product
    differently at another row count, so this keeps every run bitwise equal
    to the ``LogitModel`` call on its rows alone.
    """

    kind: str
    vocab_size: int
    window: int
    hidden: int
    params: np.ndarray

    def __post_init__(self) -> None:
        expected = param_count(ModelArch(self.kind, self.window, self.hidden), self.vocab_size)
        if self.params.ndim != 2 or self.params.shape[1] != expected:
            raise ValueError(
                f"stacked parameters have shape {self.params.shape}, expected (R, {expected})"
            )
        if not np.all(np.isfinite(self.params)):
            raise ValueError("model parameters must be finite")
        self.params.flags.writeable = False
        object.__setattr__(self, "_offsets", np.arange(self.window) * self.vocab_size)
        object.__setattr__(self, "_edges", np.arange(len(self.params) + 1))
        r, v, n, h = len(self.params), self.vocab_size, self.window, self.hidden
        width = v if self.kind == "linear" else h
        o = width * n * v
        w1 = self.params[:, :o].reshape(r, width, n * v)
        # the first layer's columns as rows of one table, run-major: a row's
        # slot j reads table row run * n * v + column (``_table_rows``)
        object.__setattr__(self, "_table", w1.transpose(0, 2, 1).reshape(r * n * v, width))
        object.__setattr__(self, "_b1", self.params[:, o : o + width])
        if self.kind == "mlp1":
            o += h
            object.__setattr__(self, "_w2", self.params[:, o : o + v * h].reshape(r, v, h))
            object.__setattr__(self, "_b2", self.params[:, o + v * h :])

    @classmethod
    def of(cls, models: Sequence[LogitModel]) -> ModelStack:
        """The stack of models of one architecture and vocabulary, in order."""
        first = models[0]
        for m in models[1:]:
            if (m.arch, m.vocab_size) != (first.arch, first.vocab_size):
                raise ValueError("stacked models must share architecture and vocabulary")
        params = np.stack([m.params for m in models])
        return cls(first.kind, first.vocab_size, first.window, first.hidden, params)

    def model(self, r: int) -> LogitModel:
        """Run r's model."""
        return LogitModel(self.kind, self.vocab_size, self.window, self.hidden, self.params[r].copy())

    def apply_update(self, grad: np.ndarray, lr: float) -> ModelStack:
        """Gradient ascent on every run: params + lr * grad [R, P]."""
        return replace(self, params=self.params + lr * grad)

    def _bounds(self, run: np.ndarray) -> list[tuple[int, int]]:
        """(start, end) of each run's rows, for sorted run indices."""
        edges = np.searchsorted(run, self._edges).tolist()
        return list(zip(edges[:-1], edges[1:]))

    def _table_rows(self, contexts: np.ndarray, run: np.ndarray) -> np.ndarray:
        return contexts + self._offsets + (run * (self.window * self.vocab_size))[:, None]

    def _forward(
        self, rows: np.ndarray, run: np.ndarray, bounds: list[tuple[int, int]]
    ) -> tuple[np.ndarray | None, np.ndarray]:
        u = _slot_sum(self._table, rows) + self._b1[run]
        if self.kind == "linear":
            return None, u
        h = np.tanh(u)
        z = np.empty((len(h), self.vocab_size))
        for r, (lo, hi) in enumerate(bounds):
            np.matmul(h[lo:hi], self._w2[r].T, out=z[lo:hi])
        return h, z + self._b2[run]

    def batch_logits(self, contexts: np.ndarray, run: np.ndarray) -> np.ndarray:
        """Logits [N, V] for int contexts [N, window], row i under model run[i]."""
        return self._forward(self._table_rows(contexts, run), run, self._bounds(run))[1]

    def _first_layer_cotangent(
        self, h: np.ndarray | None, dz: np.ndarray, bounds: list[tuple[int, int]]
    ) -> np.ndarray:
        if h is None:
            return dz
        du = np.empty_like(h)
        for r, (lo, hi) in enumerate(bounds):
            np.matmul(dz[lo:hi], self._w2[r], out=du[lo:hi])
        return du * (1.0 - h * h)

    def _scores(self, contexts: np.ndarray, actions: np.ndarray, run: np.ndarray):
        """``LogitModel._scores`` with each row under its run's model, with
        table rows in place of columns, plus the run bounds."""
        rows, bounds = self._table_rows(contexts, run), self._bounds(run)
        h, z = self._forward(rows, run, bounds)
        lp = log_softmax(z)
        err = -np.exp(lp)
        err[np.arange(len(actions)), actions] += 1.0
        return rows, bounds, h, lp, err

    def weighted_logit_grad(
        self, contexts: np.ndarray, actions: np.ndarray, weights: np.ndarray, run: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per run, sum_i w_i d log pi(a_i|c_i) / d params over its rows, as
        [R, P], plus the log-probs [N, V] of the same forward pass."""
        rows, bounds, h, lp, err = self._scores(contexts, actions, run)
        dz = err * weights[:, None]
        d1 = self._first_layer_cotangent(h, dz, bounds)
        nv, width = self.window * self.vocab_size, d1.shape[1]
        o = width * nv
        grad = np.zeros_like(self.params)
        # the first layer's scatter for all runs into one table (in row
        # order, as LogitModel._backward), then laid out as each run's
        # [width, nv]
        g1t = np.zeros((len(self.params) * nv, width))
        for j in range(self.window):
            np.add.at(g1t, rows[:, j], d1)
        grad[:, :o] = g1t.reshape(len(self.params), nv, width).transpose(0, 2, 1).reshape(-1, o)
        for r, (lo, hi) in enumerate(bounds):
            grad[r, o : o + width] = d1[lo:hi].sum(axis=0)
            if h is not None:
                p = o + width + self.vocab_size * width
                grad[r, o + width : p] = (dz[lo:hi].T @ h[lo:hi]).ravel()
                grad[r, p:] = dz[lo:hi].sum(axis=0)
        return grad, lp

    def score_sq_norms(
        self, contexts: np.ndarray, actions: np.ndarray, run: np.ndarray
    ) -> np.ndarray:
        """``LogitModel.score_sq_norms`` with each row under its run's model."""
        _, bounds, h, _, err = self._scores(contexts, actions, run)
        e2 = (err * err).sum(axis=1)
        if h is None:
            return (self.window + 1) * e2
        du = self._first_layer_cotangent(h, err, bounds)
        return e2 * (1.0 + (h * h).sum(axis=1)) + (self.window + 1) * (du * du).sum(axis=1)


def target_counts(
    contexts: np.ndarray, targets: np.ndarray, vocab_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of int contexts [N, window], sorted, and the count
    [C, vocab_size] of each target after each of them: the sufficient
    statistics of a hard-target cross-entropy over the N rows."""
    distinct, inverse = np.unique(contexts, axis=0, return_inverse=True)
    flat = inverse.reshape(-1) * vocab_size + targets
    counts = np.bincount(flat, minlength=len(distinct) * vocab_size)
    return distinct, counts.reshape(len(distinct), vocab_size).astype(np.float64)


def param_count(arch: ModelArch, vocab_size: int) -> int:
    v, n = vocab_size, arch.window
    if arch.kind == "linear":
        return v * n * v + v
    h = arch.hidden
    return h * n * v + h + v * h + v


def zero_model(arch: ModelArch, vocab_size: int) -> LogitModel:
    return LogitModel(
        arch.kind, vocab_size, arch.window, arch.hidden,
        np.zeros(param_count(arch, vocab_size), dtype=np.float64),
    )


def init_model(
    arch: ModelArch, vocab_size: int, rng: np.random.Generator, scale: float = 0.1
) -> LogitModel:
    params = rng.uniform(-scale, scale, size=param_count(arch, vocab_size))
    return LogitModel(arch.kind, vocab_size, arch.window, arch.hidden, params)


# -- checkpoints ---------------------------------------------------------


def model_to_dict(model: LogitModel) -> dict:
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": model.kind,
        "vocab_size": model.vocab_size,
        "window": model.window,
        "hidden_width": model.hidden,
        "parameters": [float(x) for x in model.params],
    }


def model_from_dict(data: dict) -> LogitModel:
    version = data.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r}")
    if data.get("kind") not in ("linear", "mlp1"):
        raise ValueError(f"unsupported checkpoint kind {data.get('kind')!r}")
    return LogitModel(
        data["kind"],
        int(data["vocab_size"]),
        int(data["window"]),
        int(data["hidden_width"]),
        np.array(data["parameters"], dtype=np.float64),
    )


def save_model(model: LogitModel, path: str | Path) -> None:
    # json emits shortest round-trip float reprs, so reloads are bit-identical
    Path(path).write_text(json.dumps(model_to_dict(model)) + "\n")


def load_model(path: str | Path) -> LogitModel:
    return model_from_dict(json.loads(Path(path).read_text()))
