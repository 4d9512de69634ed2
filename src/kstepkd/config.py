"""Experiment configuration: strict JSON with defaults.

A config file may set any subset of the known keys; unknown keys at any level
are errors (silent typos would invalidate whole sweeps).  The defaults below
are the desk-scale setup every CLI subcommand starts from.
"""

from __future__ import annotations

import copy
import json
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


def _merge(defaults: dict[str, Any], override: dict[str, Any], path: str) -> dict[str, Any]:
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path + key!r} must be an object")
            merged[key] = _merge(defaults[key], value, path + key + ".")
        else:
            merged[key] = value
    return merged


def _check_value(value: Any, default: Any, name: str) -> None:
    """ConfigError unless ``value`` has the kind of its default: a bool or
    str for a bool or str default, an integer (an integral float too) for an
    int, any int or float for a float."""
    if isinstance(default, (bool, str)):
        if not isinstance(value, type(default)):
            kind = type(default).__name__
            raise ConfigError(f"config key {name!r} must be a {kind}, got {value!r}")
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {name!r} must be a number, got {value!r}")
    if isinstance(default, int) and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"config key {name!r} must be an integer, got {value!r}")


def _check_types(defaults: dict[str, Any], raw: dict[str, Any], path: str) -> None:
    """Checks every setting of a merged config, list entries too, against
    the kind of its default."""
    for key, default in defaults.items():
        value, name = raw[key], path + key
        if isinstance(default, dict):
            _check_types(default, value, name + ".")
        elif isinstance(default, list):
            if not isinstance(value, list):
                raise ConfigError(f"config key {name!r} must be a list, got {value!r}")
            for entry in value:
                _check_value(entry, default[0], name)
        else:
            _check_value(value, default, name)


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict[str, Any] = field(repr=False)

    # -- derived views -----------------------------------------------------

    @property
    def vocab(self) -> Vocabulary:
        size = int(self.raw["vocab_size"])
        return Vocabulary(size=size, bos_id=0, eos_id=size - 1)

    @property
    def horizon(self) -> int:
        return int(self.raw["horizon"])

    @property
    def window(self) -> int:
        return int(self.raw["window"])

    @property
    def clip_range(self) -> tuple[float, float]:
        lo, hi = self.raw["clip_range"]
        return (float(lo), float(hi))

    @property
    def k_list(self) -> list[int]:
        return [int(k) for k in self.raw["k_list"]]

    @property
    def seeds(self) -> list[int]:
        return [int(s) for s in self.raw["seeds"]]

    @property
    def include_baselines(self) -> bool:
        return bool(self.raw["include_baselines"])

    @property
    def out_dir(self) -> Path:
        return Path(self.raw["out_dir"])

    def task(self) -> Task:
        spec = self.raw["task"]
        kind = spec["kind"]
        if kind == "markov_chain":
            return MarkovChainTask(
                vocab=self.vocab,
                order=int(spec["order"]),
                transition_seed=int(spec["transition_seed"]),
                eos_prob=float(spec["eos_prob"]),
                cond_len=int(spec["cond_len"]),
            )
        if kind == "copy":
            return CopyTask(vocab=self.vocab, length=int(spec["length"]))
        if kind == "reverse":
            return ReverseTask(vocab=self.vocab, length=int(spec["length"]))
        raise ConfigError(f"unknown task kind {kind!r}")

    def arch(self, which: str) -> ModelArch:
        spec = self.raw[which]
        return ModelArch(kind=spec["kind"], window=self.window, hidden=int(spec["hidden"]))

    def teacher_fit_params(self) -> dict[str, Any]:
        return dict(self.raw["teacher_fit"])

    def predistill_config(self, epochs: int | None = None) -> TrainConfig:
        spec = self.raw["predistill"]
        return TrainConfig(
            stage="predistill",
            lr=float(spec["lr"]),
            epochs=int(spec["epochs"]) if epochs is None else epochs,
            horizon=self.horizon,
            clip_range=self.clip_range,
        )

    def rl_config(self, estimator: str, k: int, seed: int) -> TrainConfig:
        spec = self.raw["rl"]
        return TrainConfig(
            stage="rl",
            lr=float(spec["lr"]),
            batch_size=int(spec["batch_size"]),
            iterations=int(spec["iterations"]),
            horizon=self.horizon,
            seed=seed,
            estimator=estimator,
            k=k,
            clip_range=self.clip_range,
            eval_every=int(spec["eval_every"]),
        )

    def corpus_params(self) -> dict[str, Any]:
        return dict(self.raw["corpus"])

    def sweep_params(self) -> dict[str, Any]:
        return dict(self.raw["sweep"])

    def validate(self) -> None:
        _check_types(DEFAULTS, self.raw, "")
        if len(self.raw["clip_range"]) != 2:
            raise ConfigError("clip_range must be two numbers [lo, hi]")
        if int(self.raw["vocab_size"]) < 3:
            raise ConfigError("vocab_size must be >= 3 (BOS, EOS, and content)")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if not self.k_list:
            raise ConfigError("k_list must be non-empty")
        if any(k < 1 for k in self.k_list):
            raise ConfigError("k_list entries must be >= 1")
        if len(self.k_list) != len(set(self.k_list)):
            raise ConfigError("k_list entries must be distinct")
        seeds = self.seeds
        if not seeds:
            raise ConfigError("seeds must be non-empty")
        if len(seeds) != len(set(seeds)):
            raise ConfigError("seeds must be distinct")
        if min(seeds) < 0:
            raise ConfigError("seeds must be >= 0")
        lo, hi = self.clip_range
        if not lo < hi:
            raise ConfigError("clip_range must satisfy lo < hi")
        corpus = self.corpus_params()
        for name, seed in (("corpus.seed", corpus["seed"]),
                           ("task.transition_seed", self.raw["task"]["transition_seed"])):
            if int(seed) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for key in ("n_val", "n_test"):
            if int(corpus[key]) < 1:
                raise ConfigError(f"corpus.{key} must be >= 1 (greedy eval averages over it)")
        if int(corpus["n_val"]) + int(corpus["n_test"]) >= int(corpus["n_sequences"]):
            raise ConfigError("corpus.n_sequences too small for the val/test splits")
        sweep = self.sweep_params()
        for key in ("samples_per_input", "iid_samples"):
            if int(sweep[key]) < 2:
                raise ConfigError(f"sweep.{key} must be >= 2")
        buckets = [int(e) for e in sweep["kl_bucket_epochs"]]
        if len(buckets) != len(set(buckets)):
            raise ConfigError("sweep.kl_bucket_epochs entries must be distinct")
        for key in ("n_inputs", "iid_num_terms"):
            if int(sweep[key]) < 1:
                raise ConfigError(f"sweep.{key} must be >= 1")
        for key in ("iid_var_sa", "iid_var_s"):
            if not float(sweep[key]) >= 0.0:
                raise ConfigError(f"sweep.{key} must be >= 0")
        fit = self.teacher_fit_params()
        if int(fit["epochs"]) < 0:
            raise ConfigError("teacher_fit.epochs must be >= 0")
        if int(fit["epochs"]) > 0 and not float(fit["lr"]) > 0.0:
            raise ConfigError("teacher_fit.lr must be positive when epochs > 0")
        if not float(fit["init_scale"]) >= 0.0:
            raise ConfigError("teacher_fit.init_scale must be >= 0")
        try:
            self.task()
            self.arch("teacher")
            self.arch("student")
            check_table_size(self.vocab.size, self.window)
            # the bias/variance sweep pre-distils for each bucket's epochs
            for epochs in [None, *buckets]:
                self.predistill_config(epochs)
            self.rl_config("kstep", 1, 0)
        except (ValueError, KeyError) as exc:
            raise ConfigError(str(exc)) from exc


def from_dict(data: dict[str, Any]) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    raw = _merge(DEFAULTS, data, "")
    for which in ("teacher", "student"):
        # a linear model has no hidden layer, so its width defaults to 0
        if raw[which]["kind"] == "linear" and "hidden" not in data.get(which, {}):
            raw[which]["hidden"] = 0
    cfg = ExperimentConfig(raw)
    cfg.validate()
    return cfg


def load_config(path: str | Path | None) -> ExperimentConfig:
    if path is None:
        return from_dict({})
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return from_dict(data)
