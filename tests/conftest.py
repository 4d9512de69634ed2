"""Session-scoped desk-scale fixtures shared by the trainer and acceptance
tests, the hand-table teacher helper, and the one-run policy update and
greedy evaluation.

Building ten (teacher, pre-distilled student) pairs and running the full
estimator sweep is minutes of work, so both are computed once per session.
"""

import numpy as np
import pytest

from kstepkd import pipeline, trainer
from kstepkd.config import from_dict
from kstepkd.models import LogitModel, ModelStack
from kstepkd.teacher import FrozenModelTeacher, TeacherStack

# C11's two-seed pipeline: every stage of ``sweep-k`` in about a second
TINY_CONFIG = {
    "vocab_size": 6,
    "horizon": 8,
    "window": 2,
    "task": {"kind": "markov_chain", "order": 1, "transition_seed": 3,
             "eos_prob": 0.1, "cond_len": 1},
    "teacher": {"kind": "mlp1", "hidden": 8},
    "student": {"kind": "mlp1", "hidden": 4},
    "teacher_fit": {"epochs": 25, "lr": 1.0},
    "predistill": {"epochs": 2, "lr": 0.5},
    "rl": {"iterations": 6, "lr": 0.02, "batch_size": 2, "eval_every": 3},
    "k_list": [1, 2],
    "seeds": [0, 1],
    "corpus": {"n_sequences": 24, "seed": 5, "n_val": 4, "n_test": 4},
}

# C11's config with a linear teacher whose Q table is finite but whose q - m
# overflows, trained for no epoch and no iteration, over five seeds: seeds 1
# and 3 have greedy returns of -inf on every input, and seed 4 finite ones
# near -1e308 whose sum overflows
OVERFLOW_CONFIG = {
    **TINY_CONFIG,
    "teacher": {"kind": "linear", "hidden": 0},
    "teacher_fit": {"epochs": 0, "init_scale": 3e307},
    "predistill": {"epochs": 0, "lr": 0.5},
    "rl": {**TINY_CONFIG["rl"], "iterations": 0},
    "seeds": [0, 1, 2, 3, 4],
}


def table_teacher(rows, vocab_size, window=1):
    """A frozen linear teacher whose Q-vector at each context of ``rows``
    (context tuple -> row) is that row, bitwise.

    One distinct row becomes the bias, so every context gets it.  Otherwise
    the contexts must end in distinct tokens, and the last slot's column for
    token c holds the row of the context ending in c; every other weight and
    the bias are 0, so a logit is the row entry plus exact zeros.
    """
    rows = {ctx: np.asarray(row, dtype=np.float64) for ctx, row in rows.items()}
    v = vocab_size
    w = np.zeros((v, window * v))
    b = np.zeros(v)
    if len({row.tobytes() for row in rows.values()}) == 1:
        b[:] = next(iter(rows.values()))
    else:
        last = [ctx[-1] for ctx in rows]
        assert len(set(last)) == len(last), "contexts must end in distinct tokens"
        for ctx, row in rows.items():
            w[:, (window - 1) * v + ctx[-1]] = row
    params = np.concatenate([w.ravel(), b])
    return FrozenModelTeacher(LogitModel("linear", v, window, 0, params))


def update_one(student, teacher, batch, cfg, variant, rng):
    """One sampled-batch policy update of one run, with its (estimator, k)
    ``variant``: ``trainer._lockstep_step`` on a population of one.  Returns
    (student, record), with the record's iteration and greedy return 0."""
    stack, stats = trainer._lockstep_step(
        ModelStack.of([student]), TeacherStack.of([teacher]), [batch], cfg, [variant], [rng],
        np.zeros(1, int),
    )
    return stack.model(0), trainer.TrainRecord(0, *stats[0].tolist(), 0.0)


def updates_many(policy, teacher, batch, cfg, variant, rng, n):
    """n sampled-batch updates of one policy, each as its parameter step
    [n, P] (the updated params minus the policy's): ``trainer._lockstep_step``
    on a population of n copies of the policy, each run drawing from the one
    generator ``rng`` in run order, so bitwise n ``update_one`` calls in a
    row on ``rng``."""
    stack, _ = trainer._lockstep_step(
        ModelStack.of([policy] * n), TeacherStack.of([teacher]), [batch] * n, cfg,
        [variant] * n, [rng] * n, np.zeros(n, int),
    )
    return stack.params - policy.params


def greedy_return(student, teacher, inputs, horizon):
    """Mean actual return of one student's greedy rollouts over the inputs:
    ``trainer.evaluate_population`` on a population of one."""
    return trainer.evaluate_population(
        ModelStack.of([student]), TeacherStack.of([teacher]), inputs, horizon, np.zeros(1, int)
    )[0]


@pytest.fixture(scope="session")
def desk_cfg():
    return from_dict({})


@pytest.fixture(scope="session")
def desk_splits(desk_cfg):
    return pipeline.build_corpus(desk_cfg)


@pytest.fixture(scope="session")
def desk_models(desk_cfg, desk_splits):
    """Per-seed frozen teacher and default pre-distilled student."""
    return {seed: pipeline.fit_seed(desk_cfg, desk_splits, seed) for seed in desk_cfg.seeds}


@pytest.fixture(scope="session")
def k_sweep_results(desk_cfg, desk_splits, desk_models):
    """Final greedy test returns per (variant, seed) for the default sweep,
    every seed's variants trained as one population by the sweep's own
    ``pipeline.train_seeds`` (bitwise each run alone), plus the wall-clock
    seconds the sweep took."""
    import time

    start = time.time()
    variants = pipeline.variant_list(desk_cfg)
    trained = pipeline.train_seeds(desk_cfg, desk_splits, desk_models, variants)
    rows = {
        (name, seed): test_return
        for seed, (_, test_returns) in trained.items()
        for (name, _, _), test_return in zip(variants, test_returns, strict=True)
    }
    return rows, time.time() - start
