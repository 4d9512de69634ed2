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

    @property
    def entropy(self) -> float:
        return float(-np.dot(self.probs, self.log_probs))


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
    """Dense one-hot-per-slot encoding (used by tests; hot paths gather columns)."""
    n = len(context)
    enc = np.zeros(n * vocab_size, dtype=np.float64)
    for j, tok in enumerate(context):
        enc[j * vocab_size + tok] = 1.0
    return enc


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

    def _columns(self, context: tuple[int, ...]) -> np.ndarray:
        return self._offsets + context

    def logits(self, state: State) -> np.ndarray:
        cols = self._columns(self.context(state))
        if self.kind == "linear":
            w, b = self._views
            return w[:, cols].sum(axis=1) + b
        w1, b1, w2, b2 = self._views
        h = np.tanh(w1[:, cols].sum(axis=1) + b1)
        return w2 @ h + b2

    def distribution(self, state: State) -> PolicyDistribution:
        return _distribution_from_logits(self.logits(state))

    def batch_logits(self, contexts: np.ndarray) -> np.ndarray:
        """Logits for an int array of contexts with shape [batch, window]."""
        cols = contexts + self._offsets
        if self.kind == "linear":
            w, b = self._views
            return w.T[cols].sum(axis=1) + b
        w1, b1, w2, b2 = self._views
        h = np.tanh(w1.T[cols].sum(axis=1) + b1)
        return h @ w2.T + b2

    # -- gradients -------------------------------------------------------

    def grad_log_prob(self, state: State, action: int) -> np.ndarray:
        """d log pi(action|state) / d params, flat, same length as params."""
        return self._grad_log_prob_probs(state, action)[0]

    def grad_log_prob_with_entropy(self, state: State, action: int) -> tuple[np.ndarray, float]:
        """Gradient of log pi(action|state) plus the policy entropy at the
        state, from a single forward pass."""
        grad, probs = self._grad_log_prob_probs(state, action)
        with np.errstate(divide="ignore"):
            logp = np.log(probs)
        entropy = float(-np.dot(probs, np.where(probs > 0.0, logp, 0.0)))
        return grad, entropy

    def _grad_log_prob_probs(self, state: State, action: int) -> tuple[np.ndarray, np.ndarray]:
        cols = self._columns(self.context(state))
        grad = np.zeros_like(self.params)
        if self.kind == "linear":
            w, b = self._views
            z = w[:, cols].sum(axis=1) + b
            probs = softmax(z)
            err = -probs
            err[action] += 1.0
            v, n = self.vocab_size, self.window
            gw = grad[: v * n * v].reshape(v, n * v)
            gw[:, cols] = err[:, None]
            grad[v * n * v :] = err
            return grad, probs
        w1, b1, w2, b2 = self._views
        h = np.tanh(w1[:, cols].sum(axis=1) + b1)
        z = w2 @ h + b2
        probs = softmax(z)
        err = -probs
        err[action] += 1.0
        dh = w2.T @ err
        du = dh * (1.0 - h * h)
        v, n, hid = self.vocab_size, self.window, self.hidden
        o = 0
        gw1 = grad[o : o + hid * n * v].reshape(hid, n * v)
        gw1[:, cols] = du[:, None]
        o += hid * n * v
        grad[o : o + hid] = du
        o += hid
        grad[o : o + v * hid] = np.outer(err, h).ravel()
        o += v * hid
        grad[o : o + v] = err
        return grad, probs

    def cross_entropy_grad(
        self, contexts: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Mean next-token cross-entropy over a batch and its parameter gradient.

        ``contexts`` is int [batch, window], ``targets`` int [batch].  The
        returned gradient is of the mean loss (descend it to fit the targets).
        """
        batch = contexts.shape[0]
        cols = contexts + self._offsets
        grad = np.zeros_like(self.params)
        rows = np.arange(batch)
        if self.kind == "linear":
            w, b = self._views
            z = w.T[cols].sum(axis=1) + b
            lp = log_softmax(z)
            loss = float(-lp[rows, targets].mean())
            dz = np.exp(lp)
            dz[rows, targets] -= 1.0
            dz /= batch
            v, n = self.vocab_size, self.window
            gwt = grad[: v * n * v].reshape(v, n * v).T
            for j in range(self.window):
                np.add.at(gwt, cols[:, j], dz)
            grad[v * n * v :] = dz.sum(axis=0)
            return loss, grad
        w1, b1, w2, b2 = self._views
        h = np.tanh(w1.T[cols].sum(axis=1) + b1)
        z = h @ w2.T + b2
        lp = log_softmax(z)
        loss = float(-lp[rows, targets].mean())
        dz = np.exp(lp)
        dz[rows, targets] -= 1.0
        dz /= batch
        dh = dz @ w2
        du = dh * (1.0 - h * h)
        v, n, hid = self.vocab_size, self.window, self.hidden
        o = 0
        gw1t = grad[o : o + hid * n * v].reshape(hid, n * v).T
        for j in range(self.window):
            np.add.at(gw1t, cols[:, j], du)
        o += hid * n * v
        grad[o : o + hid] = du.sum(axis=0)
        o += hid
        grad[o : o + v * hid] = (dz.T @ h).ravel()
        o += v * hid
        grad[o : o + v] = dz.sum(axis=0)
        return loss, grad

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
