"""In-memory span tracing of kstepkd's layers, applied from outside.

The tracer replaces a public function or method of a kstepkd module with a
wrapper, under the name its caller uses (``trainer.rollout`` is the
``rollout`` that ``trainer`` imported; ``LogitModel.logits`` is the method on
the class).  Each call records a span: name, start, end, parent span and
workload id.  Counts (rows, steps, trajectories) are recorded per span at
the same wrappers.  Spans are kept in flat arrays and written out once, when
the run ends.

A wrapped name that no longer exists is skipped and listed as absent, so the
traced run survives refactors that delete call sites.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

LAYERS = ("tasks", "teacher", "models", "seqmdp", "returns", "trainer", "oracle", "pipeline")


def _rows(args: tuple, kwargs: dict, result: Any) -> int:
    # LogitModel.cross_entropy_grad(self, contexts, targets)
    contexts = args[1] if len(args) > 1 else kwargs["contexts"]
    return int(contexts.shape[0])


def _steps(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result.num_steps)


def _length(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


@dataclass(frozen=True)
class Target:
    """One wrapped call site: ``module`` is the kstepkd module that owns the
    name, ``attr`` the name (``Class.method`` for methods) and ``layer`` the
    module whose code runs.  ``counter`` gives each call's span an amount
    (rows, steps, trajectories) from its arguments and result."""

    module: str
    attr: str
    layer: str
    counter: Callable[[tuple, dict, Any], int] | None = None

    @property
    def name(self) -> str:
        return self.attr if "." in self.attr else f"{self.module}.{self.attr}"


TARGETS = (
    Target("tasks", "gen_corpus", "tasks"),
    Target("tasks", "conditioning_states", "tasks"),
    Target("tasks", "write_corpus", "tasks"),
    Target("teacher", "fit_teacher", "teacher"),
    Target("teacher", "fit_teacher_logged", "teacher"),
    Target("teacher", "FrozenModelTeacher.q_values", "teacher"),
    Target("teacher", "TabularTeacher.q_values", "teacher"),
    Target("teacher", "TeacherQ.distribution", "teacher"),
    Target("teacher", "save_teacher", "teacher"),
    Target("models", "LogitModel.logits", "models"),
    Target("models", "LogitModel.batch_logits", "models"),
    Target("models", "LogitModel.grad_log_prob", "models"),
    Target("models", "LogitModel.grad_log_prob_with_entropy", "models"),
    Target("models", "LogitModel.cross_entropy_grad", "models", _rows),
    Target("models", "save_model", "models"),
    Target("trainer", "rollout", "seqmdp", _steps),
    Target("pipeline", "rollout", "seqmdp", _steps),
    Target("oracle", "rollout", "seqmdp", _steps),
    Target("returns", "trajectory_q_terms", "returns"),
    Target("returns", "actual_from_terms", "returns"),
    Target("returns", "kstep_from_terms", "returns"),
    Target("returns", "actual_return", "returns"),
    Target("returns", "estimate", "returns"),
    Target("returns", "implied_baseline", "returns"),
    Target("trainer", "train", "trainer"),
    Target("trainer", "reinforce_step", "trainer"),
    Target("trainer", "predistill", "trainer"),
    Target("trainer", "teacher_greedy_targets", "trainer"),
    Target("trainer", "evaluate_greedy", "trainer"),
    Target("oracle", "enumerate_trajectories", "oracle", _length),
    Target("oracle", "exact_moments", "oracle"),
    Target("oracle", "exact_objective", "oracle"),
    Target("oracle", "check_gradient", "oracle"),
    Target("oracle", "montecarlo_convergence", "oracle"),
    Target("pipeline", "run_pipeline", "pipeline"),
    Target("pipeline", "run_seed", "pipeline"),
    Target("pipeline", "build_corpus", "pipeline"),
    Target("pipeline", "fit_seed_teacher", "pipeline"),
    Target("pipeline", "predistill_student", "pipeline"),
    Target("pipeline", "sweep_bias_variance", "pipeline"),
    Target("pipeline", "bias_variance_rows_for_student", "pipeline"),
    Target("pipeline", "mean_kl_to_teacher", "pipeline"),
    Target("pipeline", "oracle_check", "pipeline"),
)


def _resolve(target: Target) -> tuple[Any, str, Callable] | None:
    """(owner, attribute, current function) for a target, or None if absent."""
    try:
        owner: Any = importlib.import_module(f"kstepkd.{target.module}")
    except ImportError:
        return None
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # methods are patched where they are defined, so inherited ones count once
    fn = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
    if not callable(fn):
        return None
    return owner, leaf, fn


class Tracer:
    """Span recorder.  ``install`` wraps every present target; ``uninstall``
    restores the originals.  Use as a context manager."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.absent: list[str] = []
        self.workloads: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.workload_id = array("i")
        self.amount = array("q")
        self._stack = [-1]
        self._current_workload = 0
        self._patched: list[tuple[Any, str, Callable]] = []

    def set_workload(self, label: str) -> None:
        self.workloads.append(label)
        self._current_workload = len(self.workloads) - 1

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(target.name)
        self.layer_of.append(target.layer)
        start, end, name_id, parent, workload_id, amount = (
            self.start, self.end, self.name_id, self.parent, self.workload_id, self.amount
        )
        stack, counter, clock = self._stack, target.counter, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            workload_id.append(tracer._current_workload)
            amount.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                amount[idx] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for target in self.targets:
            found = _resolve(target)
            if found is None:
                self.absent.append(target.name)
                continue
            owner, leaf, fn = found
            setattr(owner, leaf, self._wrap(target, fn))
            self._patched.append((owner, leaf, fn))

    def uninstall(self) -> None:
        while self._patched:
            owner, leaf, fn = self._patched.pop()
            setattr(owner, leaf, fn)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns, plus each span's duration and self
        time (duration minus the time its child spans cover)."""
        cols = {
            name: np.array(getattr(self, name), dtype=dtype)
            for name, dtype in (
                ("start", np.float64), ("end", np.float64), ("name_id", np.int64),
                ("parent", np.int64), ("workload_id", np.int64), ("amount", np.int64),
            )
        }
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {**cols, "duration": dur, "self": dur - child}

    def save(self, path) -> None:
        data = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            workloads=np.array(self.workloads),
            absent=np.array(self.absent, dtype=str),
            **{k: v for k, v in data.items() if k not in ("duration", "self")},
        )


class SpanStats:
    """Aggregates over recorded spans, looked up by wrapped name."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.data = tracer.arrays()
        self._ids = {name: i for i, name in enumerate(tracer.names)}

    def present(self, *names: str) -> bool:
        return any(n in self._ids for n in names)

    def _mask(self, names: tuple[str, ...]) -> np.ndarray:
        ids = [self._ids[n] for n in names if n in self._ids]
        return np.isin(self.data["name_id"], ids)

    def calls(self, *names: str) -> int:
        return int(self._mask(names).sum())

    def total(self, *names: str) -> float:
        return float(self.data["duration"][self._mask(names)].sum())

    def self_total(self, *names: str) -> float:
        return float(self.data["self"][self._mask(names)].sum())

    def percentile(self, q: float, *names: str) -> float:
        dur = self.data["duration"][self._mask(names)]
        return float(np.percentile(dur, q)) if len(dur) else 0.0

    def amount(self, *names: str) -> int:
        return int(self.data["amount"][self._mask(names)].sum())

    def layer_self(self, layer: str) -> float:
        ids = [i for i, lay in enumerate(self.tracer.layer_of) if lay == layer]
        return float(self.data["self"][np.isin(self.data["name_id"], ids)].sum())

    def under(self, name: str, ancestor: str) -> np.ndarray:
        """Indices of ``name`` spans that have an ``ancestor`` span above them."""
        if name not in self._ids or ancestor not in self._ids:
            return np.zeros(0, dtype=np.int64)
        target = self._ids[ancestor]
        name_id, parent = self.data["name_id"], self.data["parent"]
        out = []
        for idx in np.flatnonzero(name_id == self._ids[name]):
            p = parent[idx]
            while p >= 0 and name_id[p] != target:
                p = parent[p]
            if p >= 0:
                out.append(idx)
        return np.asarray(out, dtype=np.int64)


STEP_GRADS = ("LogitModel.grad_log_prob", "LogitModel.grad_log_prob_with_entropy")
ROLLOUTS = ("trainer.rollout", "pipeline.rollout", "oracle.rollout")
ESTIMATORS = ("returns.actual_from_terms", "returns.kstep_from_terms")
CHECKPOINTS = ("models.save_model", "teacher.save_teacher")
CE_GRAD = "LogitModel.cross_entropy_grad"


def per_layer_metrics(
    st: SpanStats, pool_wall: float | None, overhead_pct: float
) -> list[tuple[str, float, str, bool]]:
    """(name, value, unit, present) for every per-layer metric of one traced
    pass.  Times are totals over the pass unless named as a percentile.  A
    metric is not present when every name it reads is absent."""
    fit_epochs = st.under(CE_GRAD, "teacher.fit_teacher")
    n_epochs = len(fit_epochs)
    fit_rows = float(st.data["amount"][fit_epochs].mean()) if n_epochs else 0.0
    fit_epoch_ms = 1e3 * float(st.data["duration"][fit_epochs].mean()) if n_epochs else 0.0
    run_seed_s = st.total("pipeline.run_seed")
    fanout = run_seed_s / pool_wall if pool_wall else 0.0
    rows: list[tuple[str, float, str, tuple[str, ...]]] = [
        ("tasks.corpus_s", st.total("tasks.gen_corpus"), "s", ("tasks.gen_corpus",)),
        ("tasks.corpus_builds", st.calls("tasks.gen_corpus"), "count", ("tasks.gen_corpus",)),
        ("teacher.fit_s", st.total("teacher.fit_teacher"), "s", ("teacher.fit_teacher",)),
        ("teacher.fit_epoch_ms", fit_epoch_ms, "ms", ("teacher.fit_teacher", CE_GRAD)),
        ("teacher.fit_rows", fit_rows, "count", ("teacher.fit_teacher", CE_GRAD)),
        ("teacher.q_lookups",
         st.calls("FrozenModelTeacher.q_values", "TabularTeacher.q_values"), "count",
         ("FrozenModelTeacher.q_values", "TabularTeacher.q_values")),
        ("models.ce_grad_ms.p50", 1e3 * st.percentile(50, CE_GRAD), "ms", (CE_GRAD,)),
        ("models.ce_grad_ms.p99", 1e3 * st.percentile(99, CE_GRAD), "ms", (CE_GRAD,)),
        ("models.ce_grad_calls", st.calls(CE_GRAD), "count", (CE_GRAD,)),
        ("models.ce_grad_rows", st.amount(CE_GRAD), "count", (CE_GRAD,)),
        ("models.step_grad_us.p50", 1e6 * st.percentile(50, *STEP_GRADS), "us", STEP_GRADS),
        ("models.step_grad_us.p99", 1e6 * st.percentile(99, *STEP_GRADS), "us", STEP_GRADS),
        ("models.step_grad_calls", st.calls(*STEP_GRADS), "count", STEP_GRADS),
        ("models.logits_calls", st.calls("LogitModel.logits"), "count", ("LogitModel.logits",)),
        ("models.batch_logits_calls", st.calls("LogitModel.batch_logits"), "count",
         ("LogitModel.batch_logits",)),
        ("models.checkpoint_writes", st.calls(*CHECKPOINTS), "count", CHECKPOINTS),
        ("models.checkpoint_write_ms", 1e3 * st.total(*CHECKPOINTS), "ms", CHECKPOINTS),
        ("seqmdp.rollout_ms", 1e3 * st.self_total(*ROLLOUTS), "ms", ROLLOUTS),
        ("seqmdp.rollouts", st.calls(*ROLLOUTS), "count", ROLLOUTS),
        ("seqmdp.rollout_steps", st.amount(*ROLLOUTS), "count", ROLLOUTS),
        ("returns.q_terms_ms", 1e3 * st.total("returns.trajectory_q_terms"), "ms",
         ("returns.trajectory_q_terms",)),
        ("returns.estimator_ms", 1e3 * st.total(*ESTIMATORS), "ms", ESTIMATORS),
        ("returns.estimator_calls", st.calls(*ESTIMATORS), "count", ESTIMATORS),
        ("trainer.rl_iter_ms.p50", 1e3 * st.percentile(50, "trainer.reinforce_step"), "ms",
         ("trainer.reinforce_step",)),
        ("trainer.rl_iter_ms.p99", 1e3 * st.percentile(99, "trainer.reinforce_step"), "ms",
         ("trainer.reinforce_step",)),
        ("trainer.rl_iters", st.calls("trainer.reinforce_step"), "count",
         ("trainer.reinforce_step",)),
        ("trainer.rl_step_self_ms", 1e3 * st.self_total("trainer.reinforce_step"), "ms",
         ("trainer.reinforce_step",)),
        ("trainer.predistill_s", st.total("trainer.predistill"), "s", ("trainer.predistill",)),
        ("trainer.eval_greedy_ms", 1e3 * st.total("trainer.evaluate_greedy"), "ms",
         ("trainer.evaluate_greedy",)),
        ("oracle.enumerate_s", st.total("oracle.enumerate_trajectories"), "s",
         ("oracle.enumerate_trajectories",)),
        ("oracle.trajectories", st.amount("oracle.enumerate_trajectories"), "count",
         ("oracle.enumerate_trajectories",)),
        ("oracle.exact_moments_s", st.total("oracle.exact_moments"), "s",
         ("oracle.exact_moments",)),
        ("oracle.fd_objective_calls", st.calls("oracle.exact_objective"), "count",
         ("oracle.exact_objective",)),
        ("oracle.mc_samples", st.calls("oracle.rollout"), "count", ("oracle.rollout",)),
        ("pipeline.run_seed_s", run_seed_s, "s", ("pipeline.run_seed",)),
        ("pipeline.fanout_speedup", fanout, "ratio", ("pipeline.run_seed",)),
        ("pipeline.kl_s", st.total("pipeline.mean_kl_to_teacher"), "s",
         ("pipeline.mean_kl_to_teacher",)),
        ("trace.overhead_pct", overhead_pct, "%", ()),
    ]
    rows += [(f"{layer}.self_s", st.layer_self(layer), "s",
              tuple(t.name for t in st.tracer.targets if t.layer == layer))
             for layer in LAYERS]
    return [(name, value, unit, not names or st.present(*names))
            for name, value, unit, names in rows]


def rl_split(st: SpanStats) -> dict[str, float]:
    """Shares of the RL stage's time (REINFORCE steps plus the greedy evals
    made inside ``trainer.train``): rollout, per-step gradient, teacher
    scoring, estimator signals with accumulation and the optimizer, and
    greedy eval.  Empty when no RL step ran."""
    steps = st.under("trainer.reinforce_step", "trainer.train")
    if not len(steps):
        return {}
    dur = st.data["duration"]

    def inside(name: str) -> float:
        return float(dur[st.under(name, "trainer.reinforce_step")].sum())

    parts = {
        "rollout": sum(inside(n) for n in ROLLOUTS),
        "step grad": sum(inside(n) for n in STEP_GRADS),
        "teacher scoring": inside("returns.trajectory_q_terms"),
        "signals and update": float(dur[steps].sum()),
        "greedy eval": float(dur[st.under("trainer.evaluate_greedy", "trainer.train")].sum()),
    }
    parts["signals and update"] -= parts["rollout"] + parts["step grad"] + parts["teacher scoring"]
    total = sum(parts.values())
    return {k: v / total for k, v in parts.items()}
