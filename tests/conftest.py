"""Session-scoped desk-scale fixtures shared by the trainer and acceptance tests.

Building ten (teacher, pre-distilled student) pairs and running the full
estimator sweep is minutes of work, so both are computed once per session.
"""

import numpy as np
import pytest

from kstepkd import pipeline, trainer
from kstepkd.config import from_dict


@pytest.fixture(scope="session")
def desk_cfg():
    return from_dict({})


@pytest.fixture(scope="session")
def desk_splits(desk_cfg):
    return pipeline.build_corpus(desk_cfg)


@pytest.fixture(scope="session")
def desk_models(desk_cfg, desk_splits):
    """Per-seed frozen teacher and default pre-distilled student."""
    out = {}
    for seed in desk_cfg.seeds:
        teacher = pipeline.fit_seed_teacher(desk_cfg, desk_splits, seed)
        student0 = pipeline.init_seed_student(desk_cfg, seed)
        student = pipeline.predistill_student(desk_cfg, student0, teacher, desk_splits, seed)
        out[seed] = (teacher, student)
    return out


@pytest.fixture(scope="session")
def k_sweep_results(desk_cfg, desk_splits, desk_models):
    """Final greedy test returns per (variant, seed) for the default sweep,
    plus the wall-clock seconds the sweep took."""
    import time

    start = time.time()
    rows = {}
    for seed in desk_cfg.seeds:
        teacher, student = desk_models[seed]
        for name, estimator, k in pipeline.variant_list(desk_cfg):
            rl = desk_cfg.rl_config(estimator, k, seed)
            best, _ = trainer.train(
                student, teacher, desk_splits.train_states, rl,
                val_inputs=desk_splits.val_states,
            )
            rows[(name, seed)] = trainer.evaluate_greedy(
                best, teacher, desk_splits.test_states, desk_cfg.horizon
            )
    return rows, time.time() - start
