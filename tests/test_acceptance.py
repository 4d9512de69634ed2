"""Acceptance suite: one test per release criterion, one printed line each.

Criteria cover exactness of the estimator algebra (1-3), the closed-form
variance law on the iid surrogate (4), the policy-gradient identity against
finite differences (5), unbiasedness checks (6), the empirical bias/variance
trends on the desk-scale task (7-8), the end-to-end directional result (9),
gradient correctness of the models (10), and byte-level determinism (11).
"""

import time

import numpy as np
import pytest

from kstepkd import models, oracle, pipeline, returns as ret, trainer
from kstepkd.config import from_dict
from kstepkd.models import ModelArch, init_model
from kstepkd.oracle import EnumerationSpec
from kstepkd.returns import ReturnConfig
from kstepkd.seqmdp import Vocabulary, initial_state, rollout, step
from kstepkd.teacher import FrozenModelTeacher

from conftest import TINY_CONFIG, updates_many

K_GRID = (1, 2, 4, 8, 16)
VOCAB5 = Vocabulary(size=5, eos_id=4, bos_id=0)
VOCAB3 = Vocabulary(size=3, eos_id=2, bos_id=0)

_LINES = []


def _report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    _LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def _summary():
    yield
    print("\n".join(["", "acceptance summary:"] + _LINES))


def _random_teacher(rng):
    return FrozenModelTeacher(
        init_model(ModelArch("mlp1", window=2, hidden=6), VOCAB5.size, rng, scale=1.0)
    )


def _random_policy_trajectory(rng, horizon=12):
    policy = init_model(ModelArch("linear", window=2), VOCAB5.size, rng, scale=0.5)
    return rollout(policy, initial_state(VOCAB5), horizon, mode="sample", rng=rng)


def test_c01_teacher_greedy_zero_bias():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        teacher = _random_teacher(rng)
        traj = rollout(teacher, initial_state(VOCAB5), 12, mode="greedy")
        g = ret.actual_return(traj, teacher)
        for k in K_GRID:
            khat = ret.estimate(traj, teacher, ReturnConfig(k=k)).g_hat_clipped
            worst = max(worst, float(np.abs(khat - g).max()))
    elapsed = time.time() - start
    _report(
        "C1 greedy zero-bias",
        worst <= 1e-12 and elapsed < 5.0,
        f"max |Ghat-G| {worst:.2e} over 1000 greedy pairs x K{list(K_GRID)}, {elapsed:.1f}s",
    )


def test_c02_k1_collapse_bitwise():
    start = time.time()
    rng = np.random.default_rng(202)
    identical = True
    for _ in range(1000):
        teacher = _random_teacher(rng)
        traj = _random_policy_trajectory(rng, horizon=int(rng.integers(1, 13)))
        khat = ret.estimate(traj, teacher, ReturnConfig(k=1)).g_hat_clipped
        g = ret.actual_return(traj, teacher)
        identical &= bool(np.array_equal(khat, g))
    elapsed = time.time() - start
    _report(
        "C2 K=1 collapse",
        identical and elapsed < 5.0,
        f"bitwise equal on 1000 random trajectories, {elapsed:.1f}s",
    )


def test_c03_decomposition_identity():
    rng = np.random.default_rng(303)
    exact = True
    for _ in range(500):
        teacher = _random_teacher(rng)
        traj = _random_policy_trajectory(rng, horizon=int(rng.integers(1, 13)))
        for k in K_GRID:
            cfg = ReturnConfig(k=k)
            lhs = ret.actual_return(traj, teacher) - ret.estimate(traj, teacher, cfg).g_hat
            exact &= bool(np.array_equal(lhs, ret.implied_baseline(traj, teacher, cfg)))
            est = ret.estimate(traj, teacher, cfg)
            exact &= bool(np.array_equal(est.g_actual - est.g_hat, est.baseline))
    _report("C3 decomposition identity", exact, "G - Ghat == baseline, exact, 500 cases x 5 K")


@pytest.mark.slow
def test_c04_iid_variance_closed_form():
    start = time.time()
    rng = np.random.default_rng(404)
    n, terms, var_sa, var_s = 1_000_000, 16, 1.0, 0.5
    g, _ = ret.iid_gaussian_samples(terms, 1, var_sa, var_s, n, rng)
    rel_g = abs(g.var(ddof=1) / 24.0 - 1.0)
    ok = rel_g < 0.02
    details = [f"Var[G] rel err {rel_g:.4f}"]
    for k in (2, 4, 8):
        _, gh = ret.iid_gaussian_samples(terms, k, var_sa, var_s, n, rng)
        predicted = ((terms - 1) // k + 1) * (var_sa + var_s)
        rel = abs(gh.var(ddof=1) / predicted - 1.0)
        ok &= rel < 0.02
        details.append(f"K={k} rel err {rel:.4f}")
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    _report("C4 iid variance law", ok, ", ".join(details) + f", {elapsed:.1f}s")


def test_c05_policy_gradient_oracle():
    start = time.time()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for i in range(20):
        if i % 2 == 0:
            arch, horizon = ModelArch("linear", window=2), 3
        else:
            arch, horizon = ModelArch("mlp1", window=2, hidden=4), 4
        policy = init_model(arch, VOCAB3.size, rng, scale=0.6)
        teacher = FrozenModelTeacher(
            init_model(ModelArch("linear", window=2), VOCAB3.size, rng, scale=1.0)
        )
        spec = EnumerationSpec(VOCAB3, horizon, initial_state(VOCAB3))
        report = oracle.check_gradient(policy, spec, teacher, ReturnConfig(k=2), fd_step=1e-5)
        worst = max(worst, report.max_rel_error)
    elapsed = time.time() - start
    _report(
        "C5 policy-gradient oracle",
        worst < 1e-6 and elapsed < 60.0,
        f"max rel error {worst:.2e} over 20 draws, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_c06_unbiasedness():
    # enumeration-exact zero bias at K=1
    rng = np.random.default_rng(606)
    exact_zero = True
    for _ in range(5):
        policy = init_model(ModelArch("linear", window=1), VOCAB3.size, rng, scale=0.5)
        teacher = FrozenModelTeacher(
            init_model(ModelArch("linear", window=1), VOCAB3.size, rng, scale=1.0)
        )
        spec = EnumerationSpec(VOCAB3, 3, initial_state(VOCAB3))
        moments = oracle.exact_moments(spec, policy, teacher, ReturnConfig(k=1))
        exact_zero &= bool(np.array_equal(moments.bias, np.zeros_like(moments.bias)))

    # Monte-Carlo mean of the mean-baseline gradient vs the exact gradient
    vocab = Vocabulary(size=2, eos_id=1, bos_id=0)
    rng2 = np.random.default_rng(607)
    policy = init_model(ModelArch("linear", window=1), 2, rng2, scale=0.4)
    teacher = FrozenModelTeacher(init_model(ModelArch("linear", window=1), 2, rng2))
    spec = EnumerationSpec(vocab, 3, initial_state(vocab))
    exact_grad = oracle._exact_policy_gradient(spec, policy, teacher)
    cfg = trainer.TrainConfig(lr=1.0, batch_size=5, horizon=3)
    n_calls = 20_000  # 1e5 sampled trajectories in batches of 5
    rng3 = np.random.default_rng(608)
    sums = updates_many(policy, teacher, [spec.initial] * 5, cfg, ("mean_baseline", 1), rng3,
                        n_calls)
    mean = sums.mean(axis=0)
    se = sums.std(axis=0, ddof=1) / np.sqrt(n_calls)
    z = np.abs(mean - exact_grad) / np.maximum(se, 1e-12)
    _report(
        "C6 unbiasedness",
        exact_zero and bool(np.all(z < 4.0)),
        f"K=1 bias exactly 0; mean-baseline max |z| {z.max():.2f} at 1e5 samples",
    )


@pytest.mark.slow
def test_c07_bias_monotone_in_k(desk_cfg, desk_splits, desk_models):
    cfg = from_dict({**desk_cfg.raw, "k_list": list(K_GRID)})
    monotone = 0
    chains = []
    for seed in desk_cfg.seeds:
        teacher, student = desk_models[seed]
        inputs = [
            desk_splits.train_states[i % len(desk_splits.train_states)] for i in range(256)
        ]
        rows, _ = pipeline.bias_variance_rows_for_student(cfg, student, teacher, inputs, 32, seed)
        chain = [abs(b) for _, b, _ in rows]
        chains.append(chain)
        if all(b2 >= b1 - 1e-12 for b1, b2 in zip(chain, chain[1:])):
            monotone += 1
    _report(
        "C7 bias monotone in K",
        monotone >= 8,
        f"non-decreasing |bias| chain in {monotone}/10 seeds; "
        f"seed-mean chain {[round(float(v), 3) for v in np.mean(chains, axis=0)]}",
    )


@pytest.mark.slow
def test_c08_variance_ratio_on_mdp(desk_cfg, desk_splits, desk_models):
    teacher, student = desk_models[desk_cfg.seeds[0]]
    inputs = [desk_splits.train_states[i % len(desk_splits.train_states)] for i in range(1000)]
    cfg = from_dict({**desk_cfg.raw, "k_list": [1, 2, 4, 8]})
    rows, _ = pipeline.bias_variance_rows_for_student(
        cfg, student, teacher, inputs, 32, desk_cfg.seeds[0]
    )
    variances = {k: v for k, _, v in rows}
    ratios = {k: variances[k] / variances[1] for k in (2, 4, 8)}
    _report(
        "C8 variance ratio",
        all(r <= 1.05 for r in ratios.values()),
        "Var[Ghat]/Var[G] at t=0: "
        + ", ".join(f"K={k}: {r:.3f}" for k, r in ratios.items())
        + " (32 samples x 1000 inputs)",
    )


@pytest.mark.slow
def test_c09_end_to_end_directional(desk_cfg, k_sweep_results):
    results, sweep_seconds = k_sweep_results
    seeds = desk_cfg.seeds
    wins = {}
    means = {}
    strict, ties = {}, {}
    for name in ("kstep_k2", "kstep_k4", "kstep_k8"):
        per_seed = [results[(name, s)] >= results[("llmr", s)] - 1e-12 for s in seeds]
        wins[name] = sum(per_seed)
        strict[name] = sum(results[(name, s)] > results[("llmr", s)] + 1e-12 for s in seeds)
        ties[name] = wins[name] - strict[name]
        means[name] = float(np.mean([results[(name, s)] for s in seeds]))
    best_k_mean = max(means.values())
    mean_bl = float(np.mean([results[("mean_baseline", s)] for s in seeds]))
    minvar_bl = float(np.mean([results[("minvar_baseline", s)] for s in seeds]))
    llmr_mean = float(np.mean([results[("llmr", s)] for s in seeds]))
    directional = any(w >= 7 for w in wins.values())
    baselines_below = mean_bl <= best_k_mean and minvar_bl <= best_k_mean
    _report(
        "C9 end-to-end directional",
        directional and baselines_below and sweep_seconds < 1800.0,
        f"wins vs one-step {wins} (strict {strict}, ties {ties}); "
        f"seed-means llmr {llmr_mean:.3f}, best-K {best_k_mean:.3f}, "
        f"mean-baseline {mean_bl:.3f}, minvar-baseline {minvar_bl:.3f}; "
        f"sweep ran in {sweep_seconds:.0f}s",
    )


def test_c10_gradient_correctness_suite():
    start = time.time()
    rng = np.random.default_rng(1010)
    worst = 0.0
    worst_abs = 0.0
    for arch in (ModelArch("linear", window=3), ModelArch("mlp1", window=3, hidden=6)):
        for _ in range(100):
            m = init_model(arch, VOCAB5.size, rng, scale=0.5)
            s = initial_state(VOCAB5)
            for _ in range(int(rng.integers(0, 4))):
                tok = int(rng.integers(0, VOCAB5.size - 1))
                if tok == VOCAB5.eos_id:
                    break
                s = step(s, tok)
            a = int(rng.integers(0, VOCAB5.size))
            analytic = m.grad_log_prob(s, a)
            h = 1e-5
            fd = np.zeros_like(analytic)
            base = m.params
            for i in range(len(base)):
                up, down = base.copy(), base.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (
                    m.with_params(up).distribution(s).log_probs[a]
                    - m.with_params(down).distribution(s).log_probs[a]
                ) / (2 * h)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
            rel = np.abs(analytic - fd) / denom
            worst_abs = max(worst_abs, float(np.abs(analytic - fd).max()))
            rel[np.abs(analytic - fd) < 1e-8] = 0.0  # absolute floor
            worst = max(worst, float(rel.max()))
    elapsed = time.time() - start
    _report(
        "C10 gradient correctness",
        worst < 1e-5 and elapsed < 10.0,
        f"max rel error {worst:.2e} (max abs diff {worst_abs:.2e}) "
        f"over 100 draws x 2 architectures, {elapsed:.1f}s",
    )


def test_c11_pipeline_determinism(tmp_path):
    data = {**TINY_CONFIG, "out_dir": str(tmp_path / "a")}
    out_a = pipeline.run_pipeline(from_dict(data))
    out_b = pipeline.run_pipeline(from_dict({**data, "out_dir": str(tmp_path / "b")}))
    identical = (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
    identical &= (out_a / "corpus.txt").read_bytes() == (out_b / "corpus.txt").read_bytes()
    n_csv = 0
    for path_a in sorted(out_a.rglob("*.csv")):
        path_b = out_b / path_a.relative_to(out_a)
        identical &= path_a.read_bytes() == path_b.read_bytes()
        n_csv += 1
    _report(
        "C11 determinism",
        identical and n_csv >= 5,
        f"{n_csv} CSVs byte-identical across reruns (timestamps confined to metadata.json)",
    )
