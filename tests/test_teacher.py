"""Teacher Q-sources, induced rewards, and supervised teacher fitting."""

import numpy as np
import pytest

from kstepkd import models
from kstepkd.models import ModelArch, init_model, zero_model
from kstepkd.seqmdp import TerminalStateError, Vocabulary, initial_state, rollout, step
from kstepkd.tasks import MarkovChainTask, gen_corpus
from kstepkd.teacher import (
    FrozenModelTeacher,
    InducedReward,
    MissingContextError,
    TabularTeacher,
    fit_teacher,
    load_teacher,
    save_teacher,
)

VOCAB = Vocabulary(size=3, eos_id=2, bos_id=0)


def tabular(window, vocab_size, entries):
    return TabularTeacher(
        {ctx: np.array(q, dtype=np.float64) for ctx, q in entries.items()},
        window=window,
        vocab_size=vocab_size,
    )


class TestQValue:
    def test_table_lookup(self):
        t = tabular(1, 3, {(0,): [1.0, 2.0, 0.0]})
        assert t.q_value(initial_state(VOCAB), 1) == 2.0

    def test_zero_model_everywhere_zero(self):
        t = FrozenModelTeacher(zero_model(ModelArch("linear", window=2), VOCAB.size))
        s = step(initial_state(VOCAB), 1)
        assert all(t.q_value(s, a) == 0.0 for a in range(VOCAB.size))

    def test_agrees_with_model_logits(self):
        m = init_model(ModelArch("mlp1", window=2, hidden=4), VOCAB.size, np.random.default_rng(4))
        t = FrozenModelTeacher(m)
        s = step(initial_state(VOCAB), 1)
        for a in range(VOCAB.size):
            assert t.q_value(s, a) == m.logits(s)[a]

    def test_missing_context_errors(self):
        t = tabular(1, 3, {(0,): [1.0, 2.0, 0.0]})
        with pytest.raises(MissingContextError):
            t.q_values(step(initial_state(VOCAB), 1))

    def test_terminal_state_rejected(self):
        t = tabular(1, 3, {(0,): [1.0, 2.0, 0.0]})
        with pytest.raises(TerminalStateError):
            t.q_value(step(initial_state(VOCAB), VOCAB.eos_id), 0)


class TestMaxQ:
    def test_max_of_logits(self):
        t = tabular(1, 3, {(0,): [1.0, 2.0, 0.0]})
        assert t.max_q(initial_state(VOCAB)) == 2.0

    def test_terminal_convention_zero(self):
        t = tabular(1, 3, {(0,): [1.0, 2.0, 0.0]})
        assert t.max_q(step(initial_state(VOCAB), VOCAB.eos_id)) == 0.0

    def test_dominates_every_action(self):
        rng = np.random.default_rng(8)
        t = FrozenModelTeacher(init_model(ModelArch("linear", window=2), VOCAB.size, rng))
        s = step(initial_state(VOCAB), 1)
        assert all(t.max_q(s) >= t.q_value(s, a) for a in range(VOCAB.size))

    def test_action_shortfall_non_positive(self):
        # q(s, a) - max_a' q(s, a') <= 0 for every state and action
        rng = np.random.default_rng(12)
        for _ in range(50):
            t = FrozenModelTeacher(
                init_model(ModelArch("mlp1", window=2, hidden=4), VOCAB.size, rng, scale=1.0)
            )
            s = initial_state(VOCAB)
            for _ in range(int(rng.integers(0, 4))):
                s = step(s, int(rng.integers(0, VOCAB.size - 1)))
            for a in range(VOCAB.size):
                assert t.q_value(s, a) - t.max_q(s) <= 0.0


class TestInducedReward:
    def test_arithmetic(self):
        t = tabular(1, 3, {(0,): [0.0, 2.0, 0.0], (1,): [1.5, 0.0, 1.0]})
        r = InducedReward(t)
        s = initial_state(VOCAB)
        assert r.reward(s, 1, step(s, 1)) == 2.0 - 1.5

    def test_terminal_step_keeps_raw_q(self):
        t = tabular(1, 3, {(0,): [0.0, 0.0, 1.2]})
        r = InducedReward(t)
        s = initial_state(VOCAB)
        assert r.reward(s, VOCAB.eos_id, step(s, VOCAB.eos_id)) == 1.2

    def test_clipping(self):
        t = tabular(1, 3, {(0,): [0.0, -250.0, 0.0], (1,): [0.0, 0.0, 0.0]})
        r = InducedReward(t, clip_range=(-100.0, 100.0))
        s = initial_state(VOCAB)
        assert r.reward(s, 1, step(s, 1)) == -100.0

    def test_clip_idempotent(self):
        lo, hi = -100.0, 100.0
        for x in (-250.0, -100.0, 3.7, 100.0, 250.0):
            once = min(max(x, lo), hi)
            assert min(max(once, lo), hi) == once

    def test_transition_mismatch_rejected(self):
        t = tabular(1, 3, {(0,): [0.0, 2.0, 0.0], (1,): [0.0, 0.0, 0.0]})
        r = InducedReward(t)
        s = initial_state(VOCAB)
        with pytest.raises(ValueError):
            r.reward(s, 1, step(s, 0))


class TestFitTeacher:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit_teacher([], VOCAB, ModelArch("linear", window=1), 1, 0.1, np.random.default_rng(0))

    def test_corpus_must_end_with_eos(self):
        with pytest.raises(ValueError):
            fit_teacher([[1, 1]], VOCAB, ModelArch("linear", window=1), 1, 0.1,
                        np.random.default_rng(0))

    def test_zero_epochs_equals_init(self):
        arch = ModelArch("mlp1", window=2, hidden=4)
        t, losses = fit_teacher(
            [[1, VOCAB.eos_id]], VOCAB, arch, 0, 0.1, np.random.default_rng(55)
        )
        assert losses == []
        reference = models.init_model(arch, VOCAB.size, np.random.default_rng(55))
        np.testing.assert_array_equal(t.model.params, reference.params)

    def test_overfits_single_sequence(self):
        vocab = Vocabulary(size=4, eos_id=3, bos_id=0)
        seq = [1, 2, 1, 3]
        t, _ = fit_teacher([seq], vocab, ModelArch("linear", window=2), epochs=400, lr=2.0,
                           rng=np.random.default_rng(9))
        traj = rollout(t, initial_state(vocab), horizon=8, mode="greedy")
        assert list(traj.actions) == seq

    def test_loss_non_increasing_in_most_runs(self):
        vocab = Vocabulary(size=4, eos_id=3, bos_id=0)
        task = MarkovChainTask(vocab, order=1, transition_seed=3, eos_prob=0.2)
        corpus = gen_corpus(task, 40, np.random.default_rng(0), max_len=12)
        monotone = 0
        n_runs = 10
        for seed in range(n_runs):
            _, losses = fit_teacher(
                corpus, vocab, ModelArch("mlp1", window=2, hidden=8),
                epochs=25, lr=0.5, rng=np.random.default_rng(seed),
            )
            if all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])):
                monotone += 1
        assert monotone >= 0.9 * n_runs

    @pytest.mark.parametrize(
        "lr,reason", [(1e300, "loss rose 1.38"), (1e307, "loss inf at epoch 1")],
        ids=["loss-rises", "loss-inf"],
    )
    def test_divergent_fit_raises(self, lr, reason):
        # at lr 1e300 every parameter stays finite while the loss climbs to ~1e299
        vocab = Vocabulary(size=4, eos_id=3, bos_id=0)
        task = MarkovChainTask(vocab, order=1, transition_seed=3, eos_prob=0.2)
        corpus = gen_corpus(task, 40, np.random.default_rng(0), max_len=12)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=reason):
            fit_teacher(corpus, vocab, ModelArch("linear", window=1), epochs=10, lr=lr,
                        rng=np.random.default_rng(0))

    def test_recovers_markov_rows_within_tv(self):
        vocab = Vocabulary(size=4, eos_id=3, bos_id=0)
        task = MarkovChainTask(vocab, order=1, transition_seed=21, eos_prob=0.15)
        corpus = gen_corpus(task, 3000, np.random.default_rng(5), max_len=30)
        t, _ = fit_teacher(corpus, vocab, ModelArch("linear", window=1), epochs=300, lr=2.0,
                           rng=np.random.default_rng(1))
        for prev in (vocab.bos_id, 1, 2):
            if prev == vocab.bos_id:
                s = initial_state(vocab)
            else:
                s = step(initial_state(vocab), prev)
            learned = t.distribution(s).probs
            truth = task.transition_row((prev,))
            tv = 0.5 * float(np.abs(learned - truth).sum())
            assert tv < 0.1, f"context {prev}: TV {tv:.3f}"


class TestSerialization:
    def test_frozen_model_round_trip(self, tmp_path):
        m = init_model(ModelArch("mlp1", window=2, hidden=3), 4, np.random.default_rng(2))
        save_teacher(FrozenModelTeacher(m), tmp_path / "t.json")
        loaded = load_teacher(tmp_path / "t.json")
        assert isinstance(loaded, FrozenModelTeacher)
        np.testing.assert_array_equal(loaded.model.params, m.params)

    def test_tabular_round_trip(self, tmp_path):
        t = tabular(2, 3, {(0, 1): [1.0, -2.0, 0.25], (1, 1): [0.0, 0.5, 0.125]})
        save_teacher(t, tmp_path / "t.json")
        loaded = load_teacher(tmp_path / "t.json")
        assert isinstance(loaded, TabularTeacher)
        assert set(loaded.table) == set(t.table)
        for ctx in t.table:
            np.testing.assert_array_equal(loaded.table[ctx], t.table[ctx])

    def test_immutability_under_queries(self, tmp_path):
        m = init_model(ModelArch("linear", window=2), VOCAB.size, np.random.default_rng(3))
        t = FrozenModelTeacher(m)
        save_teacher(t, tmp_path / "before.json")
        s = step(initial_state(VOCAB), 1)
        for _ in range(200):
            t.q_value(s, 0)
            t.max_q(s)
        save_teacher(t, tmp_path / "after.json")
        assert (tmp_path / "before.json").read_bytes() == (tmp_path / "after.json").read_bytes()

    def test_unfrozen_checkpoint_rejected(self, tmp_path):
        m = init_model(ModelArch("linear", window=1), 3, np.random.default_rng(0))
        models.save_model(m, tmp_path / "plain.json")
        with pytest.raises(ValueError):
            load_teacher(tmp_path / "plain.json")
