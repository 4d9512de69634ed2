"""Enumeration oracle: completeness, the batched enumeration against the
per-state one, exact moments, gradient identity, MC rates."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstepkd import oracle, pipeline
from kstepkd import returns as ret
from kstepkd.models import ModelArch, init_model, zero_model
from kstepkd.oracle import EnumerationSpec, SizeBoundError
from kstepkd.returns import ReturnConfig
from kstepkd.seqmdp import State, Vocabulary, initial_state, rollout, step
from kstepkd.teacher import FrozenModelTeacher

from conftest import table_teacher

VOCAB2 = Vocabulary(size=2, eos_id=1, bos_id=0)
VOCAB3 = Vocabulary(size=3, eos_id=2, bos_id=0)


def bias_only_policy(vocab_size, logits, window=1):
    model = zero_model(ModelArch("linear", window=window), vocab_size)
    params = model.params.copy()
    params[-vocab_size:] = logits
    return model.with_params(params)


def uniform_policy(vocab_size, window=1):
    return zero_model(ModelArch("linear", window=window), vocab_size)


class TestEnumeration:
    def test_vocab2_horizon1(self):
        spec = EnumerationSpec(VOCAB2, 1, initial_state(VOCAB2))
        trajs = oracle.enumerate_trajectories(spec, uniform_policy(2))
        assert len(trajs) == 2
        assert abs(sum(p for _, p in trajs) - 1.0) < 1e-10

    def test_vocab2_horizon2_three_trajectories(self):
        spec = EnumerationSpec(VOCAB2, 2, initial_state(VOCAB2))
        trajs = oracle.enumerate_trajectories(spec, uniform_policy(2))
        actions = sorted(t.actions for t, _ in trajs)
        assert actions == [(0, 0), (0, 1), (1,)]
        assert abs(sum(p for _, p in trajs) - 1.0) < 1e-10

    def test_uniform_vocab3_horizon2_probabilities(self):
        spec = EnumerationSpec(VOCAB3, 2, initial_state(VOCAB3))
        trajs = oracle.enumerate_trajectories(spec, uniform_policy(3))
        for traj, p in trajs:
            if traj.num_steps == 2:
                assert abs(p - 1.0 / 9.0) < 1e-12
        assert abs(sum(p for _, p in trajs) - 1.0) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_probability_completeness_random_policies(self, seed):
        rng = np.random.default_rng(seed)
        policy = init_model(ModelArch("mlp1", window=2, hidden=4), VOCAB3.size, rng, scale=1.0)
        spec = EnumerationSpec(VOCAB3, 4, initial_state(VOCAB3))
        trajs = oracle.enumerate_trajectories(spec, policy)
        assert abs(sum(p for _, p in trajs) - 1.0) < 1e-10

    def test_returned_list_freed_without_cyclic_collector(self):
        # the enumeration holds no reference cycle, so dropping the returned
        # list frees its trajectories by reference counting alone
        spec = EnumerationSpec(VOCAB3, 3, initial_state(VOCAB3))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            trajs = oracle.enumerate_trajectories(spec, uniform_policy(3))
            ref = weakref.ref(trajs[0][0])
            del trajs
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("arch,horizon", [(ModelArch("linear", window=2), 3),
                                              (ModelArch("mlp1", window=2, hidden=4), 4)],
                             ids=["linear", "mlp1"])
    def test_steps_and_paths_pinned_to_the_policy_bitwise(self, arch, horizon, seed):
        """On C5-shaped instances, every step's logprob is the policy's
        log-prob of its action at its state, and every path probability is
        np.exp of the step logprobs summed left to right from 0.0, bitwise."""
        policy = init_model(arch, VOCAB3.size, np.random.default_rng([seed, 5]), scale=0.6)
        spec = EnumerationSpec(VOCAB3, horizon, initial_state(VOCAB3))
        for traj, p in oracle.enumerate_trajectories(spec, policy):
            path_logp = 0.0
            for s in traj.steps:
                assert s.logprob == policy.distribution(s.state).log_probs[s.action]
                path_logp += s.logprob
            assert p == np.exp(path_logp)

    def test_size_bounds_enforced(self):
        with pytest.raises(SizeBoundError):
            EnumerationSpec(Vocabulary(6, eos_id=5, bos_id=0), 3, initial_state(VOCAB3))
        with pytest.raises(SizeBoundError):
            EnumerationSpec(VOCAB3, 9, initial_state(VOCAB3))

    @pytest.mark.parametrize("token", [-1, 3, 5], ids=["minus-one", "V", "V+2"])
    def test_prefix_tokens_outside_the_vocabulary_refused(self, token):
        """A prefix token outside [0, V) is refused as ``decode`` refuses it:
        the enumeration would read wrapped table rows at -1, and the exact
        moments would fail inside numpy."""
        with pytest.raises(ValueError, match=rf"initial prefix token {token} outside \[0, 3\)"):
            EnumerationSpec(VOCAB3, 3, State(VOCAB3, (0, token, 1)))

    def test_initial_state_of_another_vocabulary_refused(self):
        vocab5 = Vocabulary(size=5, eos_id=4, bos_id=0)
        with pytest.raises(ValueError, match="share one vocabulary"):
            EnumerationSpec(VOCAB3, 3, initial_state(vocab5, (1,)))


@st.composite
def enumeration_instances(draw):
    """A spec within the size bounds, with a ragged conditioning prefix of
    non-EOS tokens, and a linear or mlp1 policy of window 1-3."""
    size = draw(st.integers(2, 5))
    vocab = Vocabulary(size=size, bos_id=0, eos_id=size - 1)
    prefix = draw(st.lists(st.integers(0, size - 2), max_size=4))
    horizon = draw(st.integers(1, oracle.MAX_HORIZON))
    kind = draw(st.sampled_from(["linear", "mlp1"]))
    arch = ModelArch(kind, window=draw(st.integers(1, 3)), hidden=4 if kind == "mlp1" else 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    policy = init_model(arch, size, rng, scale=draw(st.sampled_from([0.3, 1.0, 3.0])))
    return EnumerationSpec(vocab, horizon, initial_state(vocab, tuple(prefix))), policy


class TestEnumerateBatch:
    @settings(max_examples=60, deadline=None)
    @given(enumeration_instances())
    def test_matches_per_state_enumeration(self, inst):
        spec, policy = inst
        batch, (probs,) = oracle.enumerate_batch(spec, policy)
        reference = {t.actions: (t, p) for t, p in oracle.enumerate_trajectories(spec, policy)}
        paths = [tuple(row[:n]) for row, n in zip(batch.actions.tolist(), batch.lengths.tolist())]
        assert len(paths) == len(set(paths)) and set(paths) == set(reference)
        contexts = batch.step_contexts(policy.window)
        for i, path in enumerate(paths):
            traj, p = reference[path]
            if policy.kind == "linear":
                assert probs[i] == p
            else:
                assert abs(probs[i] - p) <= 1e-12
            for t, s in enumerate(traj.steps):
                assert tuple(contexts[i, t]) == s.state.last_tokens(policy.window)
            assert not batch.actions[i, len(path):].any()


def reference_moments(spec, policy, teacher, cfg):
    """Per-step moments, conditioned on the step existing, and exact
    gradients from the per-state enumeration, ``estimate`` and
    ``grad_log_prob``, in Python sums."""
    trajs = [
        (traj, p, ret.estimate(traj, teacher, cfg))
        for traj, p in oracle.enumerate_trajectories(spec, policy)
    ]
    out = {key: np.zeros(spec.horizon) for key in ("eg", "egh", "vg", "vgh", "step_prob")}
    for t in range(spec.horizon):
        alive = [(p, e.g_actual_clipped[t], e.g_hat_clipped[t]) for tr, p, e in trajs
                 if tr.num_steps > t]
        total = sum(p for p, _, _ in alive)
        eg = sum(p * g for p, g, _ in alive) / total
        egh = sum(p * gh for p, _, gh in alive) / total
        out["step_prob"][t], out["eg"][t], out["egh"][t] = total, eg, egh
        out["vg"][t] = sum(p * (g - eg) ** 2 for p, g, _ in alive) / total
        out["vgh"][t] = sum(p * (gh - egh) ** 2 for p, _, gh in alive) / total
    out["grad_g"] = np.zeros(policy.num_params)
    out["grad_gh"] = np.zeros(policy.num_params)
    for traj, p, est in trajs:
        for t, s in enumerate(traj.steps):
            score = policy.grad_log_prob(s.state, s.action)
            out["grad_g"] += p * est.g_actual_clipped[t] * score
            out["grad_gh"] += p * est.g_hat_clipped[t] * score
    return out


def hand_instance():
    """Two-token MDP where EOS is always the teacher-optimal action.

    Teacher row at every context: q = [0.5, 1.0].  Constant policy
    pi = (0.7, 0.3).  At horizon 3 the four trajectories and their K=2
    returns give E[G_0] = 0.2335, E[Ghat_0] = 0.4785, bias_0 = 0.245.
    """
    teacher = table_teacher({(0,): [0.5, 1.0]}, vocab_size=2)
    policy = bias_only_policy(2, np.log([7.0, 3.0]))
    spec = EnumerationSpec(VOCAB2, 3, initial_state(VOCAB2))
    return spec, policy, teacher


class TestExactMoments:
    def test_k1_bias_exactly_zero(self):
        spec, policy, teacher = hand_instance()
        moments = oracle.exact_moments(spec, policy, teacher, ReturnConfig(k=1))
        assert np.array_equal(moments.bias, np.zeros_like(moments.bias))

    def test_k1_takes_g_and_its_gradient_once(self, monkeypatch):
        """At K = 1 Ghat is G: one recursion and one weighted gradient serve
        both, and every Ghat field equals its G field bitwise."""
        calls = {"recursion": 0, "weights": []}

        def recursion(*args):
            calls["recursion"] += 1
            return kstep(*args)

        def score_sums(policy, batch, *weights):
            calls["weights"].append(len(weights))
            return sums(policy, batch, *weights)

        kstep, sums = ret.kstep_from_batch_terms, oracle._weighted_score_sums
        monkeypatch.setattr(ret, "kstep_from_batch_terms", recursion)
        monkeypatch.setattr(oracle, "_weighted_score_sums", score_sums)
        spec, policy, teacher = hand_instance()
        m = oracle.exact_moments(spec, policy, teacher, ReturnConfig(k=1))
        assert calls == {"recursion": 1, "weights": [1]}
        for g, g_hat in [(m.expected_g, m.expected_g_hat), (m.var_g, m.var_g_hat),
                         (m.grad_j_actual, m.grad_j_kstep)]:
            assert g.tobytes() == g_hat.tobytes()
        oracle.exact_moments(spec, policy, teacher, ReturnConfig(k=2))
        assert calls == {"recursion": 3, "weights": [1, 2]}

    def test_hand_computed_bias(self):
        spec, policy, teacher = hand_instance()
        moments = oracle.exact_moments(spec, policy, teacher, ReturnConfig(k=2))
        assert abs(moments.expected_g[0] - 0.2335) < 1e-9
        assert abs(moments.expected_g_hat[0] - 0.4785) < 1e-9
        assert abs(moments.bias[0] - 0.245) < 1e-9
        # at t=1 every surviving trajectory is in the one-step tail: no bias
        assert abs(moments.bias[1]) < 1e-12

    def test_step_conditioning_probabilities(self):
        spec, policy, teacher = hand_instance()
        moments = oracle.exact_moments(spec, policy, teacher, ReturnConfig(k=2))
        assert abs(moments.step_prob[0] - 1.0) < 1e-12
        assert abs(moments.step_prob[1] - 0.7) < 1e-12
        assert abs(moments.step_prob[2] - 0.49) < 1e-12

    def test_near_greedy_policy_bias_vanishes(self):
        rng = np.random.default_rng(6)
        q_model = init_model(ModelArch("linear", window=2), VOCAB3.size, rng, scale=1.0)
        teacher = FrozenModelTeacher(q_model)
        spec = EnumerationSpec(VOCAB3, 4, initial_state(VOCAB3))
        # align the policy argmax with the teacher's and scale the logits so
        # every reachable margin is >= 30: non-greedy mass < 1e-13
        margins = []
        seen = set()
        stack = [initial_state(VOCAB3)]
        while stack:
            s = stack.pop()
            if s.prefix in seen or s.is_terminal or s.length >= 4:
                continue
            seen.add(s.prefix)
            q = np.sort(q_model.logits(s))
            margins.append(q[-1] - q[-2])
            for a in range(VOCAB3.size):
                stack.append(step(s, a))
        scale = 35.0 / min(margins)
        policy = q_model.with_params(q_model.params * scale)
        for k in (2, 3):
            moments = oracle.exact_moments(spec, policy, teacher, ReturnConfig(k=k))
            assert np.all(np.abs(moments.bias) <= 1e-9)

    def test_variances_non_negative(self):
        spec, policy, teacher = hand_instance()
        moments = oracle.exact_moments(spec, policy, teacher, ReturnConfig(k=2))
        assert np.all(moments.var_g >= 0) and np.all(moments.var_g_hat >= 0)


    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_per_state_reference(self, seed, k):
        rng = np.random.default_rng([seed, 33])
        vocab = Vocabulary(size=4, eos_id=3, bos_id=0)
        arch = ModelArch("linear", window=2) if seed % 2 else ModelArch("mlp1", window=3, hidden=4)
        policy = init_model(arch, vocab.size, rng, scale=0.8)
        teacher = FrozenModelTeacher(
            init_model(ModelArch("mlp1", window=2, hidden=5), vocab.size, rng, scale=1.5)
        )
        spec = EnumerationSpec(vocab, 4, initial_state(vocab, (1, 2)[: seed % 3]))
        cfg = ReturnConfig(k=k, clip_range=(-2.0, 2.0))
        moments = oracle.exact_moments(spec, policy, teacher, cfg)
        ref = reference_moments(spec, policy, teacher, cfg)
        for got, key in [
            (moments.expected_g, "eg"), (moments.expected_g_hat, "egh"), (moments.var_g, "vg"),
            (moments.var_g_hat, "vgh"), (moments.step_prob, "step_prob"),
            (moments.grad_j_actual, "grad_g"), (moments.grad_j_kstep, "grad_gh"),
        ]:
            np.testing.assert_allclose(got, ref[key], rtol=0, atol=1e-12, err_msg=key)
        if k == 1:
            assert np.array_equal(moments.bias, np.zeros(spec.horizon))


class TestCheckGradient:
    def test_policy_gradient_identity(self):
        rng = np.random.default_rng(14)
        policy = init_model(ModelArch("linear", window=2), VOCAB3.size, rng, scale=0.6)
        teacher = FrozenModelTeacher(
            init_model(ModelArch("linear", window=2), VOCAB3.size, rng, scale=1.0)
        )
        spec = EnumerationSpec(VOCAB3, 3, initial_state(VOCAB3))
        report = oracle.check_gradient(policy, spec, teacher, ReturnConfig(k=1))
        assert report.passed, f"max rel error {report.max_rel_error:.2e}"
        assert np.all(np.isfinite(report.rel_errors))

    @pytest.mark.parametrize(
        "arch", [ModelArch("linear", window=2), ModelArch("mlp1", window=3, hidden=4)]
    )
    def test_exact_gradients_match_per_step_reference(self, arch):
        # the enumeration's weights are summed per (context, action) row before
        # the one backward call; the per-step sum must agree to 1e-12
        vocab = Vocabulary(size=4, eos_id=3, bos_id=0)
        rng = np.random.default_rng(15)
        policy = init_model(arch, vocab.size, rng, scale=0.8)
        teacher = FrozenModelTeacher(
            init_model(ModelArch("linear", window=2), vocab.size, rng, scale=1.0)
        )
        spec = EnumerationSpec(vocab, 4, initial_state(vocab, (1,)))
        cfg = ReturnConfig(k=2)
        ref_g = np.zeros(policy.num_params)
        ref_gh = np.zeros(policy.num_params)
        for traj, p in oracle.enumerate_trajectories(spec, policy):
            est = ret.estimate(traj, teacher, cfg)
            for t, s in enumerate(traj.steps):
                w = policy.grad_log_prob(s.state, s.action)
                ref_g += p * est.g_actual_clipped[t] * w
                ref_gh += p * est.g_hat_clipped[t] * w
        moments = oracle.exact_moments(spec, policy, teacher, cfg)
        np.testing.assert_allclose(moments.grad_j_actual, ref_g, rtol=0, atol=1e-12)
        np.testing.assert_allclose(moments.grad_j_kstep, ref_gh, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            oracle._exact_policy_gradient(spec, policy, teacher), ref_g, rtol=0, atol=1e-12
        )

    def test_code_space_past_the_bound_raises_before_any_count(self, monkeypatch):
        # V = 5 at window 10: 5^11 (context, action) codes, above 2^24
        vocab = Vocabulary(size=5, eos_id=4, bos_id=0)
        policy = uniform_policy(vocab.size, window=10)
        batch, (probs,) = oracle.enumerate_batch(
            EnumerationSpec(vocab, 2, initial_state(vocab)), policy
        )

        def no_count(*args, **kwargs):
            raise AssertionError("bincount ran past the code-space bound")

        monkeypatch.setattr(np, "bincount", no_count)
        with pytest.raises(ValueError, match=r"context code of 5\^11"):
            oracle._weighted_score_sums(policy, batch, probs[:, None] * batch.step_mask)

    @pytest.mark.parametrize(
        "kind,horizon,prefix",
        [("linear", 3, ()), ("mlp1", 4, ()), ("linear", 3, (1,)), ("mlp1", 3, (1, 0, 1))],
        ids=["linear", "mlp1", "linear-prefix", "mlp1-long-prefix"],
    )
    @pytest.mark.parametrize("stack_rows", [oracle.FD_STACK_ROWS, 1, 2000])
    def test_stacked_check_matches_per_parameter_objectives_bitwise(
        self, monkeypatch, kind, horizon, prefix, stack_rows
    ):
        """The stacked enumeration gives the finite differences of one
        ``exact_objective`` per perturbed parameter, and the analytic
        gradient of ``_exact_policy_gradient``, bit for bit (C5 shapes, and
        prefixes shorter and longer than the window), in one block of runs,
        one run per block, or blocks of a few dozen runs."""
        monkeypatch.setattr(oracle, "FD_STACK_ROWS", stack_rows)
        rng = np.random.default_rng(len(prefix) * 10 + horizon)
        arch = ModelArch(kind, window=2, hidden=4 if kind == "mlp1" else 0)
        policy = init_model(arch, VOCAB3.size, rng, scale=0.6)
        teacher = FrozenModelTeacher(
            init_model(ModelArch("linear", window=2), VOCAB3.size, rng, scale=1.0)
        )
        spec = EnumerationSpec(VOCAB3, horizon, initial_state(VOCAB3, prefix))
        fd_step = 1e-5
        report = oracle.check_gradient(policy, spec, teacher, ReturnConfig(k=2), fd_step)
        base = policy.params
        fd = np.zeros_like(base)
        for i in range(len(base)):
            bumped = base.copy()
            bumped[i] = base[i] + fd_step
            j_plus = oracle.exact_objective(spec, policy.with_params(bumped), teacher)
            bumped[i] = base[i] - fd_step
            j_minus = oracle.exact_objective(spec, policy.with_params(bumped), teacher)
            fd[i] = (j_plus - j_minus) / (2.0 * fd_step)
        assert np.array_equal(report.finite_diff, fd)
        assert np.array_equal(report.analytic, oracle._exact_policy_gradient(spec, policy, teacher))

    def test_one_enumeration_and_one_teacher_scoring(self, monkeypatch):
        calls = {"enumerate": 0, "score": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(oracle, "enumerate_batch", counted("enumerate", oracle.enumerate_batch))
        monkeypatch.setattr(ret, "batch_q_terms", counted("score", ret.batch_q_terms))
        rng = np.random.default_rng(16)
        policy = init_model(ModelArch("mlp1", window=2, hidden=4), VOCAB3.size, rng, scale=0.6)
        teacher = FrozenModelTeacher(
            init_model(ModelArch("linear", window=2), VOCAB3.size, rng, scale=1.0)
        )
        spec = EnumerationSpec(VOCAB3, 4, initial_state(VOCAB3))
        oracle.check_gradient(policy, spec, teacher, ReturnConfig(k=2))
        assert calls == {"enumerate": 1, "score": 1}

    def test_symmetric_teacher_zero_gradient(self):
        # all Q-values equal: every return is the same constant, so the
        # score-function average cancels exactly
        teacher = table_teacher({(0,): [0.7, 0.7, 0.7], (1,): [0.7, 0.7, 0.7]}, vocab_size=3)
        policy = uniform_policy(3, window=1)
        spec = EnumerationSpec(VOCAB3, 3, initial_state(VOCAB3))
        grad = oracle._exact_policy_gradient(spec, policy, teacher)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)


class TestMonteCarloConvergence:
    def _instance(self):
        rng = np.random.default_rng(20)
        policy = init_model(ModelArch("linear", window=2), VOCAB3.size, rng, scale=0.4)
        teacher = FrozenModelTeacher(
            init_model(ModelArch("linear", window=2), VOCAB3.size, rng, scale=1.0)
        )
        spec = EnumerationSpec(VOCAB3, 3, initial_state(VOCAB3))
        return spec, policy, teacher

    @pytest.mark.slow
    def test_z_scores_within_threshold(self):
        spec, policy, teacher = self._instance()
        report = oracle.montecarlo_convergence(
            policy, spec, teacher, ReturnConfig(k=2), 10_000, np.random.default_rng(0)
        )
        assert not report.any_flagged, str(report)

    @pytest.mark.parametrize("seed", range(8))
    def test_single_sample_draws_the_rollout_path(self, seed):
        # n = 1 draws exactly the path rollout(mode="sample") draws from the
        # same seed, and reports that path's Ghat_0 and gradient estimate
        spec, policy, teacher = self._instance()
        cfg = ReturnConfig(k=2)
        report = oracle.montecarlo_convergence(
            policy, spec, teacher, cfg, 1, np.random.default_rng(seed)
        )
        traj = rollout(policy, spec.initial, spec.horizon, "sample", np.random.default_rng(seed))
        g_hat = ret.estimate(traj, teacher, cfg).g_hat_clipped
        grad = sum(w * policy.grad_log_prob(s.state, s.action) for s, w in zip(traj.steps, g_hat))
        assert report.entries[0].sample_mean == g_hat[0]
        np.testing.assert_allclose(
            [e.sample_mean for e in report.entries[1:]], grad, rtol=0, atol=1e-12
        )

    def test_single_sample_produces_report(self):
        spec, policy, teacher = self._instance()
        report = oracle.montecarlo_convergence(
            policy, spec, teacher, ReturnConfig(k=2), 1, np.random.default_rng(0)
        )
        assert report.n_samples == 1
        assert all(e.z_score is None for e in report.entries)
        assert not report.any_flagged

    def test_fixed_seed_reproducible(self):
        spec, policy, teacher = self._instance()
        r1 = oracle.montecarlo_convergence(
            policy, spec, teacher, ReturnConfig(k=2), 500, np.random.default_rng(7)
        )
        r2 = oracle.montecarlo_convergence(
            policy, spec, teacher, ReturnConfig(k=2), 500, np.random.default_rng(7)
        )
        assert [(e.metric, e.sample_mean, e.z_score) for e in r1.entries] == [
            (e.metric, e.sample_mean, e.z_score) for e in r2.entries
        ]

    def test_report_csv(self, tmp_path):
        spec, policy, teacher = self._instance()
        report = oracle.montecarlo_convergence(
            policy, spec, teacher, ReturnConfig(k=2), 200, np.random.default_rng(3)
        )
        path = tmp_path / "report.csv"
        pipeline.write_table(path, pipeline.ORACLE_REPORT_HEADER, report.csv_rows())
        first = path.read_text().splitlines()[0]
        assert first == "metric,value,threshold,status"

    def test_report_csv_spells_missing_z_as_nan(self):
        entry = oracle.ConvergenceEntry("g_hat_0", 1.0, 1.0, float("inf"), None, False)
        report = oracle.ConvergenceReport(1, (entry,))
        text = pipeline.table_text(pipeline.ORACLE_REPORT_HEADER, report.csv_rows())
        assert text.splitlines()[1] == "z:g_hat_0,nan,4.0,pass"

    @pytest.mark.slow
    def test_root_n_convergence_rate(self):
        # Drawing n trajectories iid equals a multinomial draw over the
        # enumerated trajectory set, so the sample mean of Ghat_0 can be
        # simulated per repetition in O(#trajectories).  Many independent
        # repetitions keep the fitted slope's own noise well below the
        # +-0.1 acceptance band.
        import kstepkd.returns as ret

        spec, policy, teacher = self._instance()
        trajs = oracle.enumerate_trajectories(spec, policy)
        probs = np.array([p for _, p in trajs])
        values = np.array(
            [float(ret.estimate(t, teacher, ReturnConfig(k=2)).g_hat_clipped[0]) for t, _ in trajs]
        )
        exact = float(np.dot(probs, values))
        rng = np.random.default_rng(2024)
        sizes = (1_000, 10_000, 100_000)
        reps = 200
        rms_errors = []
        for n in sizes:
            counts = rng.multinomial(n, probs, size=reps)
            means = counts @ values / n
            rms_errors.append(float(np.sqrt(np.mean((means - exact) ** 2))))
        slope = np.polyfit(np.log10(sizes), np.log10(rms_errors), 1)[0]
        assert -0.6 <= slope <= -0.4, f"slope {slope:.3f}, errors {rms_errors}"
