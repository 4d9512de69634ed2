"""Small differentiable logit models over fixed-width token contexts.

A model maps the last ``window`` tokens of a state prefix (left-padded with
BOS) to one logit per vocabulary token, through either a single linear layer
or a one-hidden-layer tanh network.  Parameters live in one flat float64
vector and all gradients are computed analytically, so the same code path
serves both the student policy and frozen neural teachers.

The conceptual input is the concatenation of ``window`` one-hot vectors.
Because exactly one entry per slot is hot, forward and backward passes gather
and scatter columns instead of materializing the encoding.  The batched
passes are written once, over rows that each belong to one model of a
``ModelStack``; ``LogitModel`` runs them as the stack of one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence

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


class ContextEntry(NamedTuple):
    """A context's read-only distribution, and its log-probs, logits (``row``) and max as floats."""

    dist: PolicyDistribution
    log_probs: list[float]
    row: list[float]
    max: float


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


def _checked(context: tuple[int, ...], vocab_size: int) -> tuple[int, ...]:
    """The context, checked: a token outside [0, V), which indexing would
    wrap (-1) or fail on (V), raises ValueError, as in ``context_code``."""
    if not all(0 <= tok < vocab_size for tok in context):
        raise ValueError(f"context {context} holds a token outside [0, {vocab_size})")
    return context


MAX_TABLE_FLOATS = 2**24  # the most codes, vocab_size^width, a context code may take


def context_code(rows: np.ndarray, vocab_size: int) -> np.ndarray:
    """Each int row of [N, width] read as one base-V number, first slot most
    significant: its index [N] among all V^width rows in lexicographic order.
    Raises ValueError on a token outside [0, V), or, before any work, when
    the V^width codes exceed ``MAX_TABLE_FLOATS``."""
    width = rows.shape[1]
    if vocab_size**width > MAX_TABLE_FLOATS:
        raise ValueError(f"context code of {vocab_size}^{width} > {MAX_TABLE_FLOATS} values")
    return np.ravel_multi_index(rows.T, (vocab_size,) * width)


def _slot_sum(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """sum_j table[idx[:, j]] for int idx [N, window], accumulated slot by
    slot: bitwise ``table[idx].sum(axis=1)``, without that gather's
    [N, window, width] intermediate.  ``take`` gathers the rows fancy
    indexing would, in a half to a third of the time."""
    acc = table.take(idx[:, 0], axis=0)
    for j in range(1, idx.shape[1]):
        acc += table.take(idx[:, j], axis=0)
    return acc


def _scatter_rows(idx: np.ndarray, d1: np.ndarray, n_rows: int) -> np.ndarray:
    """sum over i, j of d1[i] into table row idx[i, j], as [n_rows, width],
    for int idx [N, window] whose slots address disjoint table rows: per
    slot, one ``np.bincount`` over the flat index row * width + column.
    Each adds in row order from 0.0, as an unbuffered scatter-add does, and
    each table row takes sums from one slot only, so the result is bitwise
    that of a scatter-add slot by slot.  One bincount over every slot would
    first build window x N x width indices and weights; at the teacher-fit
    shape that took about three times as long."""
    width = d1.shape[1]
    cols, weights = np.arange(width), d1.ravel()
    sums = np.zeros(n_rows * width)
    for j in range(idx.shape[1]):
        flat = np.add.outer(idx[:, j] * width, cols).ravel()
        sums += np.bincount(flat, weights=weights, minlength=n_rows * width)
    return sums.reshape(n_rows, width)


def _run_products(a: np.ndarray, b: np.ndarray, layout: RowLayout, width: int) -> np.ndarray:
    """a[lo:hi] @ b[r] for each run r's rows (lo, hi), as [N, width].  Equal
    runs make one stacked product over [R, n, .] views; its slice r is the
    same gemm call, on the same strides, as run r's own product, so both
    ways agree bitwise.  Ragged runs loop over the runs."""
    out = np.empty((len(a), width))
    if layout.stacked:
        r = len(layout.bounds)
        n = len(a) // r
        np.matmul(a.reshape(r, n, a.shape[1]), b, out=out.reshape(r, n, width))
        return out
    for r, (lo, hi) in enumerate(layout.bounds):
        np.matmul(a[lo:hi], b[r], out=out[lo:hi])
    return out


class _RunRows:
    """The batched forward, backward and scores of R models of one
    architecture, each written once, over rows that each belong to one run.

    Which run each row belongs to is a ``RowLayout`` (``layout``), fixed
    for a given ``run``.  The first layer's columns of all runs are rows of
    one run-major table: row i's slot j reads table row run[i] * window * V
    + column.  Gathers, scatters and elementwise steps run on all rows at
    once.  Each matrix product and sum over rows runs per run, on that
    run's rows: BLAS rounds a row of a product differently at another row
    count, so this keeps every run bitwise equal to the call on its rows
    alone.  When every run holds the same row count, as in a population
    decode, the runs' products are one stacked ``np.matmul``, whose slices
    are gemm calls of each run's own shape (``_run_products``).  The
    backward's sums can instead be keyed by finer segments of the rows
    within their runs, such as trajectories, while the forward and the
    cotangents stay the runs' (``Scores.weighted_grad``).
    """

    def _set_layers(self) -> None:
        """Freezes the (finite) parameters and fixes their layer views, read
        as [R, P]: the first-layer table [R * window * V, width], b1
        [R, width] and, for mlp1, w2 [R, V, hidden] and b2 [R, V].  At R = 1
        every one is a view of the parameter vector."""
        if not np.all(np.isfinite(self.params)):
            raise ValueError("model parameters must be finite")
        self.params.flags.writeable = False
        params = self.params.reshape(-1, self.params.shape[-1])
        r, v, n = len(params), self.vocab_size, self.window
        width = v if self.kind == "linear" else self.hidden
        o = width * n * v
        w1 = params[:, :o].reshape(r, width, n * v)
        object.__setattr__(self, "_offsets", np.arange(n) * v)
        object.__setattr__(self, "_edges", np.arange(r + 1))
        object.__setattr__(self, "_table", w1.transpose(0, 2, 1).reshape(r * n * v, width))
        object.__setattr__(self, "_b1", params[:, o : o + width])
        if self.kind == "mlp1":
            o += width
            object.__setattr__(self, "_w2", params[:, o : o + v * width].reshape(r, v, width))
            object.__setattr__(self, "_b2", params[:, o + v * width :])

    def layout(self, run: np.ndarray | None = None) -> RowLayout:
        """The layout of rows under models run[i], for ``run`` sorted, or of
        any number of rows all under model 0 (None)."""
        mlp1 = self.kind == "mlp1"
        if run is None:
            return RowLayout(self, self._offsets, [(0, None)], False, self._b1[0],
                             self._b2[0] if mlp1 else None)
        edges = np.searchsorted(run, self._edges).tolist()
        bounds = list(zip(edges[:-1], edges[1:]))
        sizes = {hi - lo for lo, hi in bounds}
        return RowLayout(
            self, self._offsets + (run * (self.window * self.vocab_size))[:, None], bounds,
            len(bounds) > 1 and len(sizes) == 1, self._b1.take(run, axis=0),
            self._b2.take(run, axis=0) if mlp1 else None,
        )

    def _forward(
        self, rows: np.ndarray, layout: RowLayout
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Hidden activations [N, hidden] (None for linear) and logits [N, V]
        at table rows [N, window]."""
        u = _slot_sum(self._table, rows) + layout.b1
        if self.kind == "linear":
            return None, u
        h = np.tanh(u)
        z = _run_products(h, self._w2.transpose(0, 2, 1), layout, self.vocab_size)
        return h, z + layout.b2

    def _first_layer_cotangent(
        self, h: np.ndarray | None, dz: np.ndarray, layout: RowLayout
    ) -> np.ndarray:
        """dz itself for linear; du = (dz @ w2) * tanh' for mlp1."""
        if h is None:
            return dz
        return _run_products(dz, self._w2, layout, self.hidden) * (1.0 - h * h)

    def _backward(
        self, rows: np.ndarray, layout: RowLayout, h: np.ndarray | None, dz: np.ndarray,
        segment: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per run, the parameter gradient of sum_i dz_i . logits_i over its
        rows, as [R, P], for logit cotangents dz [N, V] at the table rows and
        hidden activations of one forward pass.  With a sorted ``segment``
        key [N] nested in the runs, the sums are per segment instead, as
        [S, P] for S = segment[-1] + 1; the cotangent stays the runs'."""
        d1 = self._first_layer_cotangent(h, dz, layout)
        nv, width = self.window * self.vocab_size, d1.shape[1]
        bounds = layout.bounds
        if segment is not None:
            # a table row's column within its run, moved to its segment's table
            rows = rows % nv + (segment * nv)[:, None]
            edges = np.searchsorted(segment, np.arange(segment.max(initial=-1) + 2)).tolist()
            bounds = list(zip(edges[:-1], edges[1:]))
        n_out, o = len(bounds), width * nv
        # a table row repeats across rows, so accumulate by row, then lay
        # the table out as each run's (or segment's) [width, nv]
        g1t = _scatter_rows(rows, d1, n_out * nv)
        grad = np.zeros((n_out, self.params.shape[-1]))
        grad[:, :o] = g1t.reshape(n_out, nv, width).transpose(0, 2, 1).reshape(n_out, o)
        for r, (lo, hi) in enumerate(bounds):
            grad[r, o : o + width] = d1[lo:hi].sum(axis=0)
            if h is not None:
                p = o + width + self.vocab_size * width
                grad[r, o + width : p] = (dz[lo:hi].T @ h[lo:hi]).ravel()
                grad[r, p:] = dz[lo:hi].sum(axis=0)
        return grad


class RowLayout(NamedTuple):
    """Which run each row of a batched call belongs to, worked out once for
    a fixed ``run`` and shared by every call on those rows (``_RunRows.layout``):
    each row's table-row offsets [N, window] (slot offset + run * window * V),
    each run's (start, end) rows, whether the runs (more than one) are of
    equal size and so take one stacked product, and each row's b1 and b2.
    The layout of one run holds every row under model 0 ((0, None) rows,
    the per-slot offsets and model 0's biases), so it fits any row count."""

    model: _RunRows
    offsets: np.ndarray
    bounds: list[tuple[int, int | None]]
    stacked: bool
    b1: np.ndarray
    b2: np.ndarray | None

    def batch_logits(self, contexts: np.ndarray) -> np.ndarray:
        """Logits [N, V] of int contexts [N, window] laid out as this layout's rows."""
        return self.model._forward(contexts + self.offsets, self)[1]

    def scores(self, contexts: np.ndarray, actions: np.ndarray) -> Scores:
        """The scores at int contexts [N, window] and actions [N]."""
        rows = contexts + self.offsets
        h, z = self.model._forward(rows, self)
        lp = log_softmax(z)
        err = -np.exp(lp)
        err[np.arange(len(actions)), actions] += 1.0
        return Scores(self, rows, h, lp, err)


@dataclass(frozen=True)
class Scores:
    """The logit score err = onehot(a) - pi at (context, action) rows, from
    one forward pass of a ``RowLayout``.  The backward of err is
    d log pi(a|c) / d params, so the squared norms and every weighted
    gradient of the rows share it, summed per run or per segment of rows."""

    layout: RowLayout
    rows: np.ndarray
    hidden: np.ndarray | None
    log_probs: np.ndarray
    err: np.ndarray

    def sq_norms(self) -> np.ndarray:
        """||d log pi(a_i|c_i) / d params||^2 per row, in closed form: the
        encoding x has ``window`` ones, so ||outer(d1, x)||^2 = window ||d1||^2.
        linear (window+1)||err||^2; mlp1 ||err||^2 (1+||h||^2) + (window+1)||du||^2.
        du comes from the rows' layout, each run's own product."""
        h, err, n = self.hidden, self.err, self.layout.model.window
        e2 = (err * err).sum(axis=1)
        if h is None:
            return (n + 1) * e2
        du = self.layout.model._first_layer_cotangent(h, err, self.layout)
        return e2 * (1.0 + (h * h).sum(axis=1)) + (n + 1) * (du * du).sum(axis=1)

    def weighted_grad(self, weights: np.ndarray, segment: np.ndarray | None = None) -> np.ndarray:
        """Per run, sum_i w_i d log pi(a_i|c_i) / d params over its rows, for
        weights [N]: [R, P].  With a segment key [N] (sorted, 0..S-1, each
        segment within one run), the sums are per segment instead: [S, P],
        row s the gradient of segment s's rows, say one trajectory's, under
        its run's model."""
        dz = self.err * weights[:, None]
        return self.layout.model._backward(self.rows, self.layout, self.hidden, dz, segment)


@dataclass(frozen=True)
class LogitModel(_RunRows):
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
        # params never change after construction, so the layer views can be
        # fixed up front: the batched code's, and the per-state references'
        # (``_slots`` holds one [V, width] view of the table per slot)
        self._set_layers()
        views = (self._table.T, self._b1[0])
        if self.kind == "mlp1":
            views += (self._w2[0], self._b2[0])
        object.__setattr__(self, "_views", views)
        slots = self._table.reshape(self.window, self.vocab_size, -1)
        object.__setattr__(self, "_slots", tuple(slots))
        # ``entry``'s results by padded context: at most one per distinct
        # context that this instance's per-state calls visit
        object.__setattr__(self, "_memo", {})

    @property
    def arch(self) -> ModelArch:
        return ModelArch(self.kind, self.window, self.hidden)

    @property
    def num_params(self) -> int:
        return self.params.shape[0]

    # -- per-state references ----------------------------------------------

    def context(self, state: State) -> tuple[int, ...]:
        if state.vocab.size != self.vocab_size:
            raise ValueError("state vocabulary does not match model vocab_size")
        return _checked(state.last_tokens(self.window), self.vocab_size)

    def entry(self, state: State) -> ContextEntry:
        # memoized by context (``context(state)``, padded inline): a miss
        # checks the tokens, adds the context's table rows slot by slot as in
        # ``_slot_sum``, then b1, and takes ``log_softmax``, then ``exp``
        if state.vocab.size != self.vocab_size:
            raise ValueError("state vocabulary does not match model vocab_size")
        prefix, n, slots = state.prefix, self.window, self._slots
        pad = n - len(prefix)
        tokens = prefix[-n:] if pad <= 0 else (state.vocab.bos_id,) * pad + prefix
        e = self._memo.get(tokens)
        if e is not None:
            return e
        _checked(tokens, self.vocab_size)
        u = slots[0][tokens[0]]
        for j in range(1, n):
            u = u + slots[j][tokens[j]]
        views = self._views
        u = u + views[1]
        z = u if self.kind == "linear" else views[2] @ np.tanh(u) + views[3]
        lp = log_softmax(z)
        dist = PolicyDistribution(logits=z, probs=np.exp(lp), log_probs=lp)
        for a in (z, dist.probs, lp):
            a.flags.writeable = False
        e = self._memo[tokens] = ContextEntry(dist, lp.tolist(), z.tolist(), float(z.max()))
        return e

    def logits(self, state: State) -> np.ndarray:
        return self.entry(state).dist.logits

    def distribution(self, state: State) -> PolicyDistribution:
        return self.entry(state).dist

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

    # -- batched: the one-run case of ``_RunRows`` ---------------------------

    def batch_logits(self, contexts: np.ndarray) -> np.ndarray:
        """Logits for an int array of contexts with shape [batch, window]."""
        return self.layout().batch_logits(contexts)

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
        rows = contexts + self._offsets
        layout = self.layout()
        h, z = self._forward(rows, layout)
        lp = log_softmax(z)
        loss = float(-(counts * lp).sum() / total)
        dz = (np.exp(lp) * row_totals[:, None] - counts) / total
        return loss, self._backward(rows, layout, h, dz)[0]

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
class ModelStack(_RunRows):
    """R models of one architecture with their parameters stacked [R, P]:
    the population form of ``LogitModel``.  Batched calls go through the
    ``layout`` of the run index of every row, sorted (``_RunRows``)."""

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
        self._set_layers()

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


def target_counts(
    contexts: np.ndarray, targets: np.ndarray, vocab_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of int contexts [N, window], sorted (code order), and
    the count [C, vocab_size] of each target after each of them, from one
    bincount over the (context, target) codes: the sufficient statistics of
    a hard-target cross-entropy over the N rows."""
    window = contexts.shape[1]
    code = context_code(np.column_stack([contexts, targets]), vocab_size)
    counts = np.bincount(code, minlength=vocab_size ** (window + 1)).reshape(-1, vocab_size)
    present = np.flatnonzero(counts.any(axis=1))
    distinct = np.column_stack(np.unravel_index(present, (vocab_size,) * window))
    return distinct, counts[present].astype(np.float64)


def fit_targets(
    model: LogitModel, contexts: np.ndarray, targets: np.ndarray, epochs: int, lr: float
) -> tuple[LogitModel, list[float]]:
    """Full-batch descent on the mean cross-entropy of hard targets after
    int contexts [N, window], over the distinct contexts and their target
    counts (the same loss as over every row).  Returns the fitted model and
    the loss of every epoch.  A divergent fit raises FloatingPointError: a
    non-finite epoch loss, or a last epoch's loss above the first's (with a
    sane lr the loss is, statistically, non-increasing)."""
    distinct, counts = target_counts(contexts, targets, model.vocab_size)
    losses: list[float] = []
    for epoch in range(epochs):
        loss, grad = model.cross_entropy_grad(distinct, counts)
        if not np.isfinite(loss):
            raise FloatingPointError(f"fit diverged: loss {loss} at epoch {epoch}")
        losses.append(loss)
        model = model.apply_update(-grad, lr)
    if losses and losses[-1] > losses[0]:
        raise FloatingPointError(f"fit diverged: loss rose {losses[0]!r} -> {losses[-1]!r}")
    return model, losses


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
        "parameters": model.params.tolist(),
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


def model_text(model: LogitModel) -> str:
    """The checkpoint's JSON text."""
    # json emits shortest round-trip float reprs, so reloads are bit-identical
    return json.dumps(model_to_dict(model)) + "\n"


def save_model(model: LogitModel, path: str | Path) -> None:
    Path(path).write_text(model_text(model))


def load_model(path: str | Path) -> LogitModel:
    return model_from_dict(json.loads(Path(path).read_text()))
