"""Experiment configuration: strict JSON with defaults, resolved once.

A config file may set any subset of the known keys; unknown keys at any level
are errors (silent typos would invalidate whole sweeps).  The defaults below
are the desk-scale setup every CLI subcommand starts from.  Loading resolves
every setting in one pass: the command line's settings override the file's,
and each value takes its default's kind and is checked against its lower
bound in ``MINIMUM``.  ``ExperimentConfig.raw`` so holds typed values that
every stage reads as they are; ``validate`` checks the rules between settings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .models import ModelArch
from .seqmdp import Vocabulary
from .tasks import CopyTask, MarkovChainTask, ReverseTask, Task
from .teacher import check_table_size
from .trainer import TrainConfig


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, invalid value, bad shape)."""


DEFAULTS: dict[str, Any] = {
    "task": {
        "kind": "markov_chain",
        "order": 1,
        "transition_seed": 7,
        "eos_prob": 0.02,
        "cond_len": 2,
        "length": 4,  # copy/reverse only
    },
    "vocab_size": 12,
    "horizon": 20,
    "window": 3,
    "teacher": {"kind": "mlp1", "hidden": 32},
    "student": {"kind": "mlp1", "hidden": 8},
    "teacher_fit": {"epochs": 300, "lr": 2.0, "init_scale": 0.1},
    "predistill": {"epochs": 30, "lr": 1.0},
    "rl": {
        "iterations": 400,
        "lr": 0.01,
        "batch_size": 4,
        "eval_every": 50,
    },
    "clip_range": [-100.0, 100.0],
    "k_list": [1, 2, 4, 8, 16],
    "seeds": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
    "include_baselines": True,
    "corpus": {"n_sequences": 600, "seed": 1234, "n_val": 32, "n_test": 64},
    "sweep": {
        "samples_per_input": 32,
        "n_inputs": 200,
        "kl_bucket_epochs": [0, 1, 2, 5],
        "iid_mode": False,
        "iid_num_terms": 16,
        "iid_var_sa": 1.0,
        "iid_var_s": 0.5,
        "iid_samples": 100000,
    },
    "out_dir": "runs",
}


# The lower bound of each numeric setting that has one, every entry of a list
# setting included.  A vocabulary holds BOS, EOS and at least one content token.
MINIMUM: dict[str, int] = {
    "vocab_size": 3, "horizon": 1, "k_list": 1, "seeds": 0,
    "task.transition_seed": 0, "corpus.seed": 0, "corpus.n_val": 1, "corpus.n_test": 1,
    "sweep.samples_per_input": 2, "sweep.iid_samples": 2, "sweep.n_inputs": 1,
    "sweep.iid_num_terms": 1, "sweep.iid_var_sa": 0, "sweep.iid_var_s": 0,
    "sweep.kl_bucket_epochs": 0,
    "teacher_fit.epochs": 0, "teacher_fit.init_scale": 0, "predistill.epochs": 0,
}


def _setting(value: Any, default: Any, name: str) -> Any:
    """``value`` in the kind of its default, list entries too: a bool or str
    as given, an int from an integral number, a float from any number a
    float holds (JSON's NaN and Infinity are refused); then checked against
    its ``MINIMUM``."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"config key {name!r} must be a list, got {value!r}")
        return [_setting(entry, default[0], name) for entry in value]
    if isinstance(default, (bool, str)):
        if not isinstance(value, type(default)):
            kind = type(default).__name__
            raise ConfigError(f"config key {name!r} must be a {kind}, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {name!r} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config key {name!r} must be finite, got {value!r}")
    if isinstance(default, int):
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"config key {name!r} must be an integer, got {value!r}")
        value = int(value)
    else:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"config key {name!r} is too large for a float") from None
    if name in MINIMUM and value < MINIMUM[name]:
        raise ConfigError(f"{name} must be >= {MINIMUM[name]}")
    return value


def _resolve(defaults: dict[str, Any], layers: list[Any], path: str) -> dict[str, Any]:
    """The settings of ``defaults`` overridden by each layer in turn (the
    config file, then the command line): a new dict in which every setting
    has its default's kind and meets its lower bound."""
    for layer in layers:
        if not isinstance(layer, dict):
            raise ConfigError(f"config key {path[:-1]!r} must be an object")
        for key in layer:
            if key not in defaults:
                raise ConfigError(f"unknown config key {path + key!r}")
    resolved = {}
    for key, default in defaults.items():
        given = [layer[key] for layer in layers if key in layer]
        if isinstance(default, dict):
            resolved[key] = _resolve(default, given, path + key + ".")
        else:
            resolved[key] = _setting(given[-1] if given else default, default, path + key)
    return resolved


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict[str, Any] = field(repr=False)  # resolved: every setting typed

    # -- derived views -----------------------------------------------------

    @property
    def vocab(self) -> Vocabulary:
        size = self.raw["vocab_size"]
        return Vocabulary(size=size, bos_id=0, eos_id=size - 1)

    @property
    def horizon(self) -> int:
        return self.raw["horizon"]

    @property
    def window(self) -> int:
        return self.raw["window"]

    @property
    def clip_range(self) -> tuple[float, float]:
        lo, hi = self.raw["clip_range"]
        return (lo, hi)

    @property
    def k_list(self) -> list[int]:
        return self.raw["k_list"]

    @property
    def seeds(self) -> list[int]:
        return self.raw["seeds"]

    @property
    def include_baselines(self) -> bool:
        return self.raw["include_baselines"]

    @property
    def out_dir(self) -> Path:
        return Path(self.raw["out_dir"])

    def task(self) -> Task:
        spec = self.raw["task"]
        kind = spec["kind"]
        if kind == "markov_chain":
            return MarkovChainTask(
                vocab=self.vocab,
                order=spec["order"],
                transition_seed=spec["transition_seed"],
                eos_prob=spec["eos_prob"],
                cond_len=spec["cond_len"],
            )
        if kind == "copy":
            return CopyTask(vocab=self.vocab, length=spec["length"])
        if kind == "reverse":
            return ReverseTask(vocab=self.vocab, length=spec["length"])
        raise ConfigError(f"unknown task kind {kind!r}")

    def arch(self, which: str) -> ModelArch:
        spec = self.raw[which]
        return ModelArch(kind=spec["kind"], window=self.window, hidden=spec["hidden"])

    def rl_config(self) -> TrainConfig:
        spec = self.raw["rl"]
        return TrainConfig(
            lr=spec["lr"], batch_size=spec["batch_size"], iterations=spec["iterations"],
            horizon=self.horizon, clip_range=self.clip_range, eval_every=spec["eval_every"],
        )

    def sweep_params(self) -> dict[str, Any]:
        return self.raw["sweep"]

    def validate(self) -> None:
        """The rules between settings; each setting's kind and lower bound
        are checked as it is resolved."""
        if len(self.raw["clip_range"]) != 2:
            raise ConfigError("clip_range must be two numbers [lo, hi]")
        lo, hi = self.clip_range
        if not lo < hi:
            raise ConfigError("clip_range must satisfy lo < hi")
        for name in ("k_list", "seeds"):
            if not self.raw[name]:
                raise ConfigError(f"{name} must be non-empty")
        buckets = self.raw["sweep"]["kl_bucket_epochs"]
        for name, entries in (("k_list", self.k_list), ("seeds", self.seeds),
                              ("sweep.kl_bucket_epochs", buckets)):
            if len(entries) != len(set(entries)):
                raise ConfigError(f"{name} entries must be distinct")
        corpus = self.raw["corpus"]
        if corpus["n_val"] + corpus["n_test"] >= corpus["n_sequences"]:
            raise ConfigError("corpus.n_sequences too small for the val/test splits")
        fit = self.raw["teacher_fit"]
        if fit["epochs"] > 0 and not fit["lr"] > 0.0:
            raise ConfigError("teacher_fit.lr must be positive when epochs > 0")
        # the bias/variance sweep pre-distils for each bucket's epochs
        pd = self.raw["predistill"]
        if max([pd["epochs"], *buckets]) > 0 and not pd["lr"] > 0.0:
            raise ConfigError("predistill.lr must be positive when any epochs > 0")
        try:
            self.task()
            self.arch("teacher")
            self.arch("student")
            check_table_size(self.vocab.size, self.window)
            self.rl_config()
        except (ValueError, KeyError) as exc:
            raise ConfigError(str(exc)) from exc


def from_dict(data: dict[str, Any], overrides: dict[str, Any] | None = None) -> ExperimentConfig:
    """The validated config of ``DEFAULTS`` overridden by ``data``, then by
    ``overrides`` (the command line's settings).  Neither is modified."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    raw = _resolve(DEFAULTS, [data, overrides or {}], "")
    for which in ("teacher", "student"):
        # a linear model has no hidden layer, so its width defaults to 0
        if raw[which]["kind"] == "linear" and "hidden" not in data.get(which, {}):
            raw[which]["hidden"] = 0
    cfg = ExperimentConfig(raw)
    cfg.validate()
    return cfg


def load_config(
    path: str | Path | None, overrides: dict[str, Any] | None = None
) -> ExperimentConfig:
    if path is None:
        return from_dict({}, overrides)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return from_dict(data, overrides)
