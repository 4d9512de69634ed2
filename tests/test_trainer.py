"""Pre-distillation, REINFORCE stepping, and the training loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstepkd import pipeline, trainer
from kstepkd import returns as ret
from kstepkd.config import from_dict
from kstepkd.models import LogitModel, ModelArch, ModelStack, init_model, param_count
from kstepkd.seqmdp import Vocabulary, decode, initial_state, rollout
from kstepkd.teacher import FrozenModelTeacher, TeacherStack
from kstepkd.trainer import (
    NonFiniteGradientError,
    TrainConfig,
    estimator_signals,
    predistill,
    train_population,
)

from conftest import OVERFLOW_CONFIG, greedy_return, table_teacher, update_one, updates_many

VOCAB = Vocabulary(size=5, eos_id=4, bos_id=0)


def make_teacher(seed=0, scale=1.0):
    return FrozenModelTeacher(
        init_model(ModelArch("mlp1", window=2, hidden=6), VOCAB.size, np.random.default_rng(seed), scale=scale)
    )


def make_student(seed=1):
    return init_model(ModelArch("mlp1", window=2, hidden=4), VOCAB.size, np.random.default_rng(seed))


def first_sampled_actions(student, batch, horizon=8, seed=0):
    """The actions of the first trajectory ``update_one`` samples from
    ``default_rng(seed)``."""
    u = np.random.default_rng(seed).random((len(batch), horizon))
    trajs = decode(student.batch_logits, student.window, batch, horizon, u)
    return tuple(trajs.actions[0, : trajs.lengths[0]].tolist())


def train_one(student, teacher, inputs, cfg, variant=("kstep", 1), val_inputs=None, seed=0):
    """One run of ``train_population``, the (seed, variant) of a population
    of one: (best student, log), or its error raised."""
    outcome, = train_population({seed: (teacher, student)}, inputs, cfg, [variant],
                                val_inputs)[seed]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome[:2]


def rl_cfg(**kw):
    defaults = dict(lr=0.05, batch_size=4, iterations=5, horizon=8)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainConfig:
    @pytest.mark.parametrize("build", [
        lambda: rl_cfg(lr=float("nan")), lambda: rl_cfg(clip_range=(1.0, -1.0)),
        lambda: rl_cfg(clip_range=(1.0, 1.0)), lambda: trainer.check_variant("llmr", 1),
        lambda: rl_cfg(horizon=0),
    ], ids=["nan-lr", "reversed-clip", "empty-clip", "llmr", "zero-horizon"])
    def test_bad_setting_raises_at_construction(self, build):
        """A bad RL setting raises when the config or the variant is
        checked, not in the first step; ``llmr`` is a variant name, not an
        estimator."""
        with pytest.raises(ValueError):
            build()


class TestPredistill:
    def test_zero_epochs_unchanged(self):
        student = make_student()
        out, losses = predistill(
            student, make_teacher(), [initial_state(VOCAB)], horizon=8, epochs=0, lr=0.1
        )
        assert losses == []
        np.testing.assert_array_equal(out.params, student.params)

    def test_self_distillation_fixed_point_neighborhood(self):
        teacher = make_teacher(seed=3)
        student = teacher.model  # same architecture, same parameters
        _, losses = predistill(
            student, teacher, [initial_state(VOCAB)], horizon=8, epochs=2, lr=0.05
        )
        assert losses[1] <= losses[0] + 1e-6

    def test_overfits_one_input(self):
        teacher = make_teacher(seed=5)
        student = make_student(seed=6)
        inputs = [initial_state(VOCAB)]
        out, losses = predistill(student, teacher, inputs, horizon=8, epochs=800, lr=1.0)
        target = rollout(teacher, inputs[0], 8, mode="greedy").actions
        got = rollout(out, inputs[0], 8, mode="greedy").actions
        assert got == target
        assert losses[-1] < losses[0]

    def test_non_finite_loss_raises(self):
        # every logit overflows, so the first epoch's loss is nan
        student = make_student()
        huge = student.with_params(np.full(student.num_params, 1e308))
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="loss nan at epoch 0"):
            predistill(huge, make_teacher(), [initial_state(VOCAB)], horizon=8, epochs=2, lr=0.1)


class TestReinforceStep:
    def test_teacher_greedy_batch_kstep_equals_llmr(self):
        # a student whose softmax concentrates on the teacher argmax samples
        # teacher-greedy trajectories; then Ghat == G and updates coincide
        teacher = make_teacher(seed=7)
        sharp = teacher.model.with_params(teacher.model.params * 60.0)
        batch = [initial_state(VOCAB)] * 4
        outs = {}
        for estimator, k in (("kstep", 4), ("kstep", 8), ("kstep", 1)):
            student, _ = update_one(
                sharp, teacher, batch, rl_cfg(lr=0.1), (estimator, k), np.random.default_rng(11)
            )
            outs[(estimator, k)] = student.params
        np.testing.assert_allclose(outs[("kstep", 4)], outs[("kstep", 1)], rtol=0, atol=1e-12)
        np.testing.assert_allclose(outs[("kstep", 8)], outs[("kstep", 1)], rtol=0, atol=1e-12)

    def test_lr_zero_keeps_params_and_logs(self):
        teacher = make_teacher()
        student = make_student()
        out, record = update_one(
            student, teacher, [initial_state(VOCAB)] * 3, rl_cfg(lr=0.0), ("kstep", 1),
            np.random.default_rng(2),
        )
        np.testing.assert_array_equal(out.params, student.params)
        assert np.isfinite(record.mean_return_actual)
        assert np.isfinite(record.grad_norm)

    def test_estimator_plug_compatibility(self, monkeypatch):
        # identical seeds must sample identical trajectories under every
        # estimator; only the per-step signals differ
        teacher = make_teacher(seed=9)
        student = make_student(seed=10)
        batch = [initial_state(VOCAB)] * 4
        seen = sampled_batches(monkeypatch)
        for variant in (
            ("kstep", 4), ("kstep", 1), ("mean_baseline", 1), ("minvar_baseline", 1),
        ):
            update_one(student, teacher, batch, rl_cfg(), variant, np.random.default_rng(33))
        assert len(seen) == 4
        assert all(s == seen[0] for s in seen[1:])

    @pytest.mark.parametrize(
        "arch,variant",
        [(ModelArch("linear", window=2), ("kstep", 2)),
         (ModelArch("mlp1", window=2, hidden=4), ("mean_baseline", 1)),
         (ModelArch("mlp1", window=2, hidden=4), ("minvar_baseline", 1))],
        ids=["linear-kstep", "mlp1-mean", "mlp1-minvar"],
    )
    def test_updates_many_is_the_update_one_loop(self, arch, variant):
        """``updates_many`` on n copies gives, bitwise, the steps of n
        ``update_one`` calls in a row on one generator, and leaves that
        generator where the loop leaves it."""
        student = init_model(arch, VOCAB.size, np.random.default_rng(4))
        teacher, batch, cfg = make_teacher(seed=5), [initial_state(VOCAB)] * 3, rl_cfg(lr=1.0)
        rng_many, rng_loop = np.random.default_rng(77), np.random.default_rng(77)
        many = updates_many(student, teacher, batch, cfg, variant, rng_many, 5)
        loop = [update_one(student, teacher, batch, cfg, variant, rng_loop)[0].params
                - student.params for _ in range(5)]
        assert many.tobytes() == np.array(loop).tobytes()
        assert rng_many.random() == rng_loop.random()

    @pytest.mark.slow
    def test_one_step_mdp_matches_analytic_gradient(self):
        # vocab 2, horizon 1: exact gradient is sum_a pi(a) q(a) dlogpi(a)
        vocab = Vocabulary(size=2, eos_id=1, bos_id=0)
        teacher = table_teacher({(0, 0): [0.8, -0.3]}, vocab_size=2, window=2)
        student = init_model(ModelArch("linear", window=2), 2, np.random.default_rng(3), scale=0.3)
        s0 = initial_state(vocab)
        probs = student.distribution(s0).probs
        exact = sum(
            probs[a] * teacher.q_values(s0)[a] * student.grad_log_prob(s0, a) for a in range(2)
        )

        cfg = rl_cfg(lr=1.0, batch_size=10, horizon=1)
        rng = np.random.default_rng(123)
        n_calls = 10_000  # 1e5 sampled one-step trajectories in total
        # lr = 1.0: each step is the direction itself
        sums = updates_many(student, teacher, [s0] * 10, cfg, ("kstep", 1), rng, n_calls)
        mean = sums.mean(axis=0)
        se = sums.std(axis=0, ddof=1) / np.sqrt(n_calls)
        z = np.abs(mean - exact) / np.maximum(se, 1e-12)
        assert np.all(z < 3.0), f"max z {z.max():.2f}"

    @pytest.mark.parametrize(
        "estimator,k", [("kstep", 4), ("kstep", 1), ("mean_baseline", 1), ("minvar_baseline", 1)]
    )
    def test_teacher_overflow_raises_non_finite_gradient(self, estimator, k):
        # every teacher logit overflows to inf, so each q - m term is inf - inf = nan
        huge = np.full(param_count(ModelArch("linear", window=2), VOCAB.size), 1e308)
        student = make_student()
        batch = [initial_state(VOCAB)] * 4
        first = first_sampled_actions(student, batch)
        assert len(first) >= 2  # a one-step trajectory's clipped return stays finite
        message = f"non-finite gradient from trajectory 0 (actions {first})"
        with np.errstate(all="ignore"):
            # the teacher's Q table overflows as it is built
            teacher = FrozenModelTeacher(LogitModel("linear", VOCAB.size, 2, 0, huge))
            with pytest.raises(NonFiniteGradientError) as info:
                update_one(
                    student, teacher, batch, rl_cfg(), (estimator, k), np.random.default_rng(0),
                )
        assert str(info.value) == message

    def test_student_gradient_overflow_names_trajectory(self):
        # zero first layer: h = 0 and the policy is uniform, so the rollouts
        # and the (clipped) signals stay finite while the hidden-layer
        # gradient, signal * (err @ w2) with |w2| = 1e308, overflows
        student = make_student()
        w1_end = 4 * 2 * VOCAB.size + 4
        params = np.zeros(student.num_params)
        w2 = params[w1_end : w1_end + 4 * VOCAB.size].reshape(VOCAB.size, 4)
        w2[0], w2[1:] = 1e308, -1e308
        student = student.with_params(params)
        batch = [initial_state(VOCAB)] * 4
        first = first_sampled_actions(student, batch)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteGradientError) as info:
            update_one(
                student, make_teacher(scale=50.0), batch, rl_cfg(), ("kstep", 1),
                np.random.default_rng(0),
            )
        assert str(info.value) == f"non-finite gradient from trajectory 0 (actions {first})"

    @pytest.mark.parametrize("estimator", ["mean_baseline", "minvar_baseline", "kstep"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_batch_signals_match_per_row_loop(self, estimator, data):
        """The masked [B, H] signals against a loop over each step's running
        rows.  The clip range excludes 0, so a padded entry that leaked into
        a baseline's sum would show."""
        lengths = data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=5))
        b, h = len(lengths), max(lengths)
        term = st.floats(-3.0, 3.0)
        q = np.array(data.draw(st.lists(term, min_size=b * h, max_size=b * h))).reshape(b, h)
        m = np.array(data.draw(st.lists(term, min_size=b * h, max_size=b * h))).reshape(b, h)
        w = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
        sq = np.array(data.draw(st.lists(w, min_size=b * h, max_size=b * h))).reshape(b, h)
        rc = ret.ReturnConfig(clip_range=(0.5, 4.0))
        n = np.array(lengths)
        g_batch = ret.kstep_from_batch_terms(q, m, n, 1)
        got = estimator_signals(
            g_batch, ret.kstep_from_batch_terms(q, m, n, 2), n, sq, estimator, rc.clip_range
        )

        rows = [(q[i, :n], m[i, :n]) for i, n in enumerate(lengths)]
        if estimator == "kstep":
            want = [ret.clip_returns(ret.kstep_from_terms(qi, mi, 2), rc) for qi, mi in rows]
        else:
            g = [ret.clip_returns(ret.kstep_from_terms(qi, mi, 1), rc) for qi, mi in rows]
            want = [gi.copy() for gi in g]
            for t in range(h):
                alive = [i for i, n in enumerate(lengths) if n > t]
                if estimator == "mean_baseline":
                    for i in alive:
                        others = [g[j][t] for j in alive if j != i]
                        want[i][t] -= sum(others) / len(others) if others else 0.0
                else:
                    denom = sum(sq[i, t] for i in alive)
                    base = sum(sq[i, t] * g[i][t] for i in alive) / denom if denom > 0 else 0.0
                    for i in alive:
                        want[i][t] -= base
        for i, n in enumerate(lengths):
            np.testing.assert_allclose(got[i, :n], want[i], rtol=0, atol=1e-12)
            assert not got[i, n:].any()

    def test_non_finite_record_rejected(self):
        """One check per iteration covers every run's log row and names the
        first non-finite field, in run order, and the iteration."""
        values = np.zeros((3, 5))
        values[2, 0] = values[1, 3] = np.inf
        values[1, 4] = np.nan
        with pytest.raises(NonFiniteGradientError, match="non-finite policy_entropy at iteration 7"):
            trainer._check_finite(7, values)
        trainer._check_finite(7, np.zeros((3, 5)))


class TestTrainLoop:
    def test_zero_iterations_returns_input(self):
        teacher = make_teacher()
        student = make_student()
        out, log = train_one(student, teacher, [initial_state(VOCAB)], rl_cfg(iterations=0))
        assert out is student
        assert log == []

    def test_deterministic_given_seed(self, tmp_path):
        teacher = make_teacher(seed=21)
        student = make_student(seed=22)
        inputs = [initial_state(VOCAB)] * 6
        cfg = rl_cfg(iterations=12, eval_every=5)
        out1, log1 = train_one(student, teacher, inputs, cfg, seed=77)
        out2, log2 = train_one(student, teacher, inputs, cfg, seed=77)
        assert log1 == log2
        np.testing.assert_array_equal(out1.params, out2.params)
        for log, name in ((log1, "a.csv"), (log2, "b.csv")):
            pipeline.write_table(tmp_path / name, trainer.TRAINLOG_HEADER, log)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_log_always_finite(self):
        teacher = make_teacher(seed=31)
        student = make_student(seed=32)
        _, log = train_one(
            student, teacher, [initial_state(VOCAB)] * 4, rl_cfg(iterations=20, eval_every=7)
        )
        assert len(log) == 20
        for r in log:
            for v in (r.mean_return_actual, r.mean_return_khat, r.grad_norm,
                      r.policy_entropy, r.eval_greedy_return):
                assert np.isfinite(v)


def tiny_population(student_kind):
    """(config, splits, teacher, pre-distilled student) on a second-scale
    config with all 7 variants; rl.iterations 7 with eval_every 3 evaluates
    at iterations 2, 5 and 6."""
    student = {"kind": "mlp1", "hidden": 4} if student_kind == "mlp1" else {"kind": "linear", "hidden": 0}
    cfg = from_dict({
        "vocab_size": 6, "horizon": 8, "window": 2,
        "task": {"kind": "markov_chain", "order": 1, "transition_seed": 3,
                 "eos_prob": 0.1, "cond_len": 1},
        "teacher": {"kind": "mlp1", "hidden": 8}, "student": student,
        "teacher_fit": {"epochs": 25, "lr": 1.0}, "predistill": {"epochs": 2, "lr": 0.5},
        "rl": {"iterations": 7, "lr": 0.3, "batch_size": 3, "eval_every": 3},
        "seeds": [0], "corpus": {"n_sequences": 24, "seed": 5, "n_val": 4, "n_test": 4},
    })
    splits = pipeline.build_corpus(cfg)
    return (cfg, splits, *pipeline.fit_seed(cfg, splits, 0))


def sampled_batches(monkeypatch):
    """Record (actions, lengths) of every sampled decode the trainer makes."""
    seen = []

    def recording(score, window, initial, horizon, u=None):
        batch = decode(score, window, initial, horizon, u)
        if u is not None:
            n = batch.lengths
            seen.append([tuple(a[: n[i]].tolist()) for i, a in enumerate(batch.actions)])
        return batch

    monkeypatch.setattr(trainer, "decode", recording)
    return seen


def spoil_signals(monkeypatch, estimator, factor):
    """Multiply one estimator's learning signals by ``factor``, in every code
    path that calls ``estimator_signals``."""
    signals = trainer.estimator_signals

    def spoiled(g, g_hat, lengths, sq_norms, name, clip_range):
        out = signals(g, g_hat, lengths, sq_norms, name, clip_range)
        return out * factor if name == estimator else out

    monkeypatch.setattr(trainer, "estimator_signals", spoiled)


def variant_pairs(cfg):
    """The (estimator, k) of every variant of the configured sweep."""
    return [(estimator, k) for _, estimator, k in pipeline.variant_list(cfg)]


class TestTrainPopulation:
    @pytest.mark.parametrize("student_kind", ["linear", "mlp1"])
    def test_each_run_matches_solo_train_bitwise(self, monkeypatch, student_kind):
        cfg, splits, teacher, student = tiny_population(student_kind)
        variants = variant_pairs(cfg)
        assert len(variants) == 7
        rl = cfg.rl_config()
        seen = sampled_batches(monkeypatch)
        solo = [train_one(student, teacher, splits.train_states, rl, v, splits.val_states)
                for v in variants]
        solo_draws, seen[:] = list(seen), []
        population = train_population(
            {0: (teacher, student)}, splits.train_states, rl, variants, splits.val_states
        )[0]
        b, iters = rl.batch_size, rl.iterations
        assert len(solo_draws) == len(variants) * iters and len(seen) == iters
        for r, ((best, log), (p_best, p_log, p_val)) in enumerate(zip(solo, population)):
            for it in range(iters):
                assert seen[it][r * b : (r + 1) * b] == solo_draws[r * iters + it], (r, it)
            assert np.array_equal(p_best.params, best.params)
            assert p_log == log
            assert p_val == greedy_return(best, teacher, splits.val_states, cfg.horizon)
        tests = trainer.evaluate_population(
            ModelStack.of([out[0] for out in population]), TeacherStack.of([teacher]),
            splits.test_states, cfg.horizon, np.zeros(len(population), int),
        )
        assert tests == [
            greedy_return(best, teacher, splits.test_states, cfg.horizon) for best, _ in solo
        ]

    @pytest.mark.parametrize("factor,message", [
        (np.nan, "non-finite gradient from trajectory"),
        (1e150, "entropy 0.0"),
        (1e302, "non-finite grad_norm"),
    ], ids=["gradient", "collapse", "record"])
    def test_failed_run_dropped_with_its_solo_error(self, monkeypatch, factor, message):
        """One run's signals are scaled so that it fails: a non-finite
        gradient naming a trajectory of that run, a policy collapsed to
        entropy 0.0 on the next step, or an overflowing gradient norm.  That
        run stops with its solo error; the others match their solo runs."""
        cfg, splits, teacher, student = tiny_population("mlp1")
        rl, variants = cfg.rl_config(), variant_pairs(cfg)
        spoil_signals(monkeypatch, "mean_baseline", factor)
        with np.errstate(all="ignore"):
            population = train_population(
                {0: (teacher, student)}, splits.train_states, rl, variants, splits.val_states
            )[0]
        for v, out in zip(variants, population):
            if v[0] == "mean_baseline":
                with np.errstate(all="ignore"), pytest.raises(Exception) as solo_error:
                    train_one(student, teacher, splits.train_states, rl, v, splits.val_states)
                assert type(out) is solo_error.type and str(out) == str(solo_error.value)
                assert message in str(out)
                continue
            best, log = train_one(student, teacher, splits.train_states, rl, v, splits.val_states)
            assert np.array_equal(out[0].params, best.params)
            assert out[1] == log

    def test_two_seeds_stacked_match_each_seed_alone(self):
        """Two seeds' runs, each from its own student and scored by its own
        teacher, trained as one population and evaluated in one call, give
        bitwise what each seed's own population gives: best students, logs,
        best validation returns and test returns."""
        cfg, splits, teacher0, student0 = tiny_population("mlp1")
        fitted = {0: (teacher0, student0), 1: pipeline.fit_seed(cfg, splits, 1)}
        assert not np.array_equal(teacher0.q, fitted[1][0].q)
        variants = pipeline.variant_list(cfg)
        both = pipeline.train_seeds(cfg, splits, fitted, variants)
        assert list(both) == [0, 1]
        for seed, pair in fitted.items():
            (alone, alone_tests), = pipeline.train_seeds(
                cfg, splits, {seed: pair}, variants
            ).values()
            outcomes, tests = both[seed]
            assert len(tests) == 7 and tests == alone_tests
            for (best, log, val), (a_best, a_log, a_val) in zip(outcomes, alone, strict=True):
                assert np.array_equal(best.params, a_best.params)
                assert log == a_log and val == a_val

    def test_failed_first_evaluation_fails_only_its_seed(self):
        """A student whose logits overflow fails its first evaluation: each
        of its seed's runs fails with that evaluation's solo error, and each
        run of the other seed matches its solo run."""
        cfg, splits, teacher, student = tiny_population("linear")
        broken = student.with_params(np.full(student.num_params, 1e308))
        rl, variants = cfg.rl_config(), [("kstep", 2), ("mean_baseline", 1)]
        with np.errstate(all="ignore"):
            out = train_population({0: (teacher, student), 1: (teacher, broken)},
                                   splits.train_states, rl, variants, splits.val_states)
            with pytest.raises(ValueError, match="non-finite log-probability") as solo:
                train_one(broken, teacher, splits.train_states, rl, variants[0],
                          splits.val_states, seed=1)
        for v, outcome in zip(variants, out[0], strict=True):
            best, log = train_one(student, teacher, splits.train_states, rl, v, splits.val_states)
            assert np.array_equal(outcome[0].params, best.params) and outcome[1] == log
        assert len(out[1]) == 2
        for failed in out[1]:
            assert type(failed) is ValueError and str(failed) == str(solo.value)

    def test_non_finite_first_evaluation_fails_its_seed(self):
        """A greedy validation return of -inf, from greedy returns of -inf,
        fails every run of its seed before the first iteration; the other
        seed's runs go on."""
        cfg = from_dict(OVERFLOW_CONFIG)
        splits = pipeline.build_corpus(cfg)
        fitted = {seed: pipeline.fit_seed(cfg, splits, seed) for seed in (0, 1)}
        with np.errstate(all="ignore"):
            out = train_population(fitted, splits.train_states, cfg.rl_config(),
                                   [("kstep", 1), ("kstep", 2)], splits.val_states)
        assert all(isinstance(outcome, tuple) for outcome in out[0])
        for failed in out[1]:
            assert type(failed) is FloatingPointError and str(failed) == (
                "non-finite eval_greedy_return (-inf) before the first iteration"
            )

    def test_non_finite_test_return_fails_its_run(self, monkeypatch):
        """A test input whose greedy return is -inf (the first of each test
        mean's returns, spoiled) fails the seed's first variant, and no test
        return is kept; validated on one input, every run trains."""
        cfg = from_dict(OVERFLOW_CONFIG)
        splits = pipeline.build_corpus(cfg)
        splits = replace(splits, val_states=splits.test_states[:1])
        mean = trainer._left_to_right_mean
        spoiled = lambda values: mean([-np.inf, *values[1:]] if len(values) > 1 else values)
        monkeypatch.setattr(trainer, "_left_to_right_mean", spoiled)
        (runs, tests), = pipeline.train_seeds(
            cfg, splits, {0: pipeline.fit_seed(cfg, splits, 0)}, pipeline.variant_list(cfg)
        ).values()
        assert tests == []
        assert type(runs[0]) is FloatingPointError
        assert str(runs[0]) == "non-finite test_return (-inf)"
        assert all(isinstance(outcome, tuple) for outcome in runs[1:])

    def test_test_return_whose_sum_overflows_is_the_termwise_mean(self, monkeypatch):
        """Seed 4's greedy returns on the test inputs are each finite, but
        their sum overflows: every run's test return is their mean taken
        termwise, a left-to-right sum of each divided by their count."""
        cfg = from_dict(OVERFLOW_CONFIG)
        splits = pipeline.build_corpus(cfg)
        splits = replace(splits, val_states=splits.test_states[:1])
        seen = []
        mean = trainer._left_to_right_mean
        monkeypatch.setattr(trainer, "_left_to_right_mean",
                            lambda values: seen.append(values) or mean(values))
        with np.errstate(all="ignore"):
            (runs, tests), = pipeline.train_seeds(
                cfg, splits, {4: pipeline.fit_seed(cfg, splits, 4)}, pipeline.variant_list(cfg)
            ).values()
        assert all(isinstance(outcome, tuple) for outcome in runs)
        assert len(tests) == len(runs)
        for values, test_return in zip(seen[-len(runs):], tests, strict=True):
            total, termwise = 0.0, 0.0
            for v in values:
                total, termwise = total + v, termwise + v / len(values)
            assert np.all(np.isfinite(values)) and total == -np.inf
            assert np.isfinite(test_return) and test_return == termwise

    def test_zero_iterations_evaluates_once(self):
        cfg, splits, teacher, student = tiny_population("linear")
        rl = replace(cfg.rl_config(), iterations=0)
        val = greedy_return(student, teacher, splits.val_states, cfg.horizon)
        for best, log, best_val in train_population(
            {0: (teacher, student)}, splits.train_states, rl, variant_pairs(cfg)[:2],
            splits.val_states,
        )[0]:
            assert best is student and log == [] and best_val == val

    def test_empty_validation_set_raises_before_any_evaluation(self, monkeypatch):
        """No validation input is an error; only None means the training
        inputs."""

        def evaluated(*args, **kwargs):
            raise AssertionError("an evaluation ran")

        monkeypatch.setattr(trainer, "evaluate_population", evaluated)
        with pytest.raises(ValueError, match="non-empty validation set"):
            train_population({0: (make_teacher(), make_student())}, [initial_state(VOCAB)],
                             rl_cfg(), [("kstep", 1)], val_inputs=[])

    @pytest.mark.parametrize("variant,message", [
        (("llmr", 1), "unknown estimator 'llmr'"),
        (("reinforce", 1), "unknown estimator 'reinforce'"),
        (("kstep", 0), "k must be >= 1, got 0"),
        (("mean_baseline", -3), "k must be >= 1, got -3"),
    ], ids=["llmr", "unknown", "kstep-k0", "mean_baseline-k-3"])
    def test_bad_variant_raises_before_any_evaluation(self, monkeypatch, variant, message):
        """Every variant is checked before the first evaluation: ``llmr``
        is a variant name, not an estimator, and no estimator runs at a K
        below 1."""

        def evaluated(*args, **kwargs):
            raise AssertionError("an evaluation ran")

        monkeypatch.setattr(trainer, "evaluate_population", evaluated)
        with pytest.raises(ValueError, match=message):
            train_population({0: (make_teacher(), make_student())}, [initial_state(VOCAB)],
                             rl_cfg(), [("kstep", 2), variant])


@pytest.mark.slow
class TestDirectionalResult:
    def test_k2_matches_or_beats_one_step_in_most_seeds(self, desk_cfg, k_sweep_results):
        # statistical: over the default task, the two-step estimator's final
        # greedy eval should match or beat the one-step estimator's in a
        # clear majority of seeds
        results, _ = k_sweep_results
        wins = sum(
            results[("kstep_k2", s)] >= results[("llmr", s)] - 1e-12
            for s in desk_cfg.seeds
        )
        assert wins >= 7, f"kstep_k2 >= llmr in only {wins}/10 seeds"


def test_left_to_right_mean_divides_first_only_when_a_finite_sum_overflows():
    """A finite sum keeps the bits of sum / n; finite terms whose sum
    overflows give the left-to-right sum of each divided by n; with a
    non-finite term the plain sum's inf or nan stands."""
    rng = np.random.default_rng(9)
    for _ in range(200):
        values = (rng.normal(size=int(rng.integers(1, 9))) * 10.0 ** rng.integers(-5, 300)).tolist()
        total = 0.0
        for v in values:
            total += v
        assert trainer._left_to_right_mean(values) == total / len(values)
    big = [-1.04e308, -1.04e308, -1.04e308, -3.8e307]
    termwise = ((big[0] / 4 + big[1] / 4) + big[2] / 4) + big[3] / 4
    assert np.isfinite(termwise) and trainer._left_to_right_mean(big) == termwise
    assert trainer._left_to_right_mean([1e308, np.inf, 1.0]) == np.inf
    assert np.isnan(trainer._left_to_right_mean([1e308, 1e308, -np.inf]))


@pytest.mark.slow
class TestMeanBaselineUnbiasedness:
    def test_expected_gradient_matches_vanilla(self):
        # leave-one-out batch mean is independent of each trajectory's own
        # actions, so the mean-baseline estimator has the same expectation as
        # plain REINFORCE; checked against the enumeration-exact gradient
        from kstepkd import oracle
        from kstepkd.returns import ReturnConfig

        vocab = Vocabulary(size=2, eos_id=1, bos_id=0)
        rng_setup = np.random.default_rng(61)
        policy = init_model(ModelArch("linear", window=1), 2, rng_setup, scale=0.4)
        teacher = FrozenModelTeacher(init_model(ModelArch("linear", window=1), 2, rng_setup))
        spec = oracle.EnumerationSpec(vocab, 3, initial_state(vocab))
        exact = oracle._exact_policy_gradient(spec, policy, teacher)

        cfg = rl_cfg(lr=1.0, batch_size=5, horizon=3)
        rng = np.random.default_rng(62)
        n_calls = 6000
        sums = updates_many(policy, teacher, [spec.initial] * 5, cfg, ("mean_baseline", 1), rng,
                            n_calls)
        mean = sums.mean(axis=0)
        se = sums.std(axis=0, ddof=1) / np.sqrt(n_calls)
        z = np.abs(mean - exact) / np.maximum(se, 1e-12)
        assert np.all(z < 4.0), f"max z {z.max():.2f}"
