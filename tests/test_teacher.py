"""The frozen teacher's Q-values, the step rewards they induce, and
supervised teacher fitting."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kstepkd import models
from kstepkd import returns as ret
from kstepkd.models import MAX_TABLE_FLOATS, ModelArch, init_model, zero_model
from kstepkd.returns import ReturnConfig
from kstepkd.seqmdp import (
    State,
    TerminalStateError,
    Trajectory,
    TrajectoryStep,
    Vocabulary,
    initial_state,
    rollout,
    step,
)
from kstepkd.tasks import MarkovChainTask, gen_corpus
from kstepkd.teacher import (
    FrozenModelTeacher,
    _corpus_training_rows,
    check_table_size,
    fit_teacher,
    load_teacher,
    save_teacher,
)

from conftest import table_teacher

VOCAB = Vocabulary(size=3, eos_id=2, bos_id=0)


def path_of(actions):
    """The trajectory that takes ``actions`` from the initial state."""
    state, steps = initial_state(VOCAB), []
    for a in actions:
        steps.append(TrajectoryStep(state, a, 0.0))
        state = step(state, a)
    return Trajectory(tuple(steps), state)


class TestTableHelper:
    @pytest.mark.parametrize("rows,window", [
        ({(0,): [0.5, 2.0, 1.0, -1.0], (1,): [1.5, -0.5, 1.0, 0.8], (2,): [0.2, 0.9, -0.3, 2.5]},
         1),
        ({(0, 1): [0.5, -1.0, 2.0, 0.0], (1, 2): [1.0, 1.0, -3.0, 0.25]}, 2),
        ({(0,): [0.7, 0.7, 0.7, 0.7], (1,): [0.7, 0.7, 0.7, 0.7]}, 1),
        ({(0, 0): [0.8, -0.3, 1e-300, -250.0]}, 2),
    ], ids=["window1", "window2", "constant", "bias-only"])
    def test_rows_bitwise(self, rows, window):
        vocab = Vocabulary(size=4, eos_id=3, bos_id=0)
        teacher = table_teacher(rows, vocab.size, window=window)
        contexts = np.array(list(rows), dtype=np.int64)
        expected = np.array(list(rows.values()), dtype=np.float64)
        assert teacher.batch_q_values(contexts).tobytes() == expected.tobytes()
        for ctx, row in zip(rows, expected):
            state = initial_state(vocab, tuple(t for t in ctx if t != vocab.bos_id))
            assert state.last_tokens(window) == ctx
            assert teacher.q_values(state).tobytes() == row.tobytes()


class TestQValue:
    def test_table_lookup(self):
        t = table_teacher({(0,): [1.0, 2.0, 0.0]}, 3)
        assert t.q_values(initial_state(VOCAB))[1] == 2.0

    def test_zero_model_everywhere_zero(self):
        t = FrozenModelTeacher(zero_model(ModelArch("linear", window=2), VOCAB.size))
        s = step(initial_state(VOCAB), 1)
        assert t.q_values(s).tolist() == [0.0] * VOCAB.size

    def test_agrees_with_model_logits(self):
        m = init_model(ModelArch("mlp1", window=2, hidden=4), VOCAB.size, np.random.default_rng(4))
        t = FrozenModelTeacher(m)
        s = step(initial_state(VOCAB), 1)
        contexts = np.array([s.last_tokens(2)])
        np.testing.assert_array_equal(t.q_values(s), m.logits(s))
        np.testing.assert_array_equal(t.batch_q_values(contexts), m.batch_logits(contexts))

    def test_terminal_state_rejected(self):
        t = table_teacher({(0,): [1.0, 2.0, 0.0]}, 3)
        with pytest.raises(TerminalStateError):
            t.q_values(step(initial_state(VOCAB), VOCAB.eos_id))


class TestQTable:
    @pytest.mark.parametrize("size", [3, 5, 12])
    @pytest.mark.parametrize("window", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["linear", "mlp1"])
    def test_rows_match_model_logits(self, kind, window, size):
        vocab = Vocabulary(size=size, eos_id=size - 1, bos_id=0)
        arch = ModelArch(kind, window=window, hidden=5 if kind == "mlp1" else 0)
        t = FrozenModelTeacher(init_model(arch, size, np.random.default_rng(size), scale=1.0))
        assert t.q.shape == (size**window, size)
        contexts = np.indices((size,) * window).reshape(window, -1).T
        np.testing.assert_array_equal(models.context_code(contexts, size), np.arange(size**window))
        for ctx, row in zip(contexts, t.q):
            state = State(vocab, (vocab.bos_id, *ctx.tolist()), 0)
            np.testing.assert_allclose(row, t.model.logits(state), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(t.max_q, t.q.max(axis=1))

    def test_frozen(self):
        m = init_model(ModelArch("linear", window=2), 4, np.random.default_rng(0))
        t = FrozenModelTeacher(m)
        for table in (t.q, t.max_q):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0

    def test_size_bound(self):
        check_table_size(4096, 1)  # 4096^2 = 2^24 floats: at the bound
        assert 4096**2 == MAX_TABLE_FLOATS
        with pytest.raises(ValueError, match="Q table of"):
            check_table_size(4097, 1)
        with pytest.raises(ValueError, match="Q table of"):
            FrozenModelTeacher(zero_model(ModelArch("linear", window=3), 200))

    def test_size_bound_of_huge_window_is_quick(self):
        """A window of 10^9 is refused without computing 12^(10^9 + 1),
        which alone would take minutes."""
        env = {**os.environ}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "from kstepkd.teacher import check_table_size; check_table_size(12, 10**9)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
        )
        assert proc.returncode == 1
        assert f"ValueError: teacher Q table of 12^{10**9 + 1} > {MAX_TABLE_FLOATS}" in proc.stderr


class TestMaxQ:
    def test_max_of_logits(self):
        t = table_teacher({(0,): [1.0, 2.0, 0.0]}, 3)
        q, m = ret.q_terms(t, np.array([[0]]), np.array([0]))
        assert (q[0], m[0]) == (1.0, 2.0)

    def test_terminal_convention_zero(self):
        # no continuation value after the final action: G[T] = q[T]
        t = table_teacher({(0,): [1.0, 2.0, 0.5], (1,): [0.0, 3.0, -1.0]}, 3)
        assert ret.actual_return(path_of([1, VOCAB.eos_id]), t).tolist() == [2.0 - 3.0 - 1.0, -1.0]

    def test_dominates_every_action(self):
        rng = np.random.default_rng(8)
        t = FrozenModelTeacher(init_model(ModelArch("linear", window=2), VOCAB.size, rng))
        contexts = np.array([[0, 1]] * VOCAB.size)
        q, m = ret.q_terms(t, contexts, np.arange(VOCAB.size))
        assert np.all(m >= q)

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
            contexts = np.array([s.last_tokens(2)] * VOCAB.size)
            q, m = ret.q_terms(t, contexts, np.arange(VOCAB.size))
            assert np.all(q - m <= 0.0)


class TestStepReward:
    """The induced reward r(s, a) = q(s, a) - max_a' q(s', a'), read off the
    returns: r_t = G[t] - G[t+1], and the last step's reward is its raw q."""

    def test_arithmetic(self):
        t = table_teacher({(0,): [0.0, 2.0, 0.0], (1,): [1.5, 0.0, 1.0]}, 3)
        g = ret.actual_return(path_of([1, VOCAB.eos_id]), t)
        assert g[0] - g[1] == 2.0 - 1.5

    def test_terminal_step_keeps_raw_q(self):
        t = table_teacher({(0,): [0.0, 0.0, 1.2]}, 3)
        assert ret.actual_return(path_of([VOCAB.eos_id]), t).tolist() == [1.2]

    def test_clipping(self):
        t = table_teacher({(0,): [0.0, -250.0, 0.0], (1,): [0.0, 0.0, 0.0]}, 3)
        cfg = ReturnConfig(k=1, clip_range=(-100.0, 100.0))
        assert ret.kstep_return(path_of([1, VOCAB.eos_id]), t, cfg).tolist() == [-100.0, 0.0]

    def test_clip_idempotent(self):
        cfg = ReturnConfig(clip_range=(-100.0, 100.0))
        once = ret.clip_returns(np.array([-250.0, -100.0, 3.7, 100.0, 250.0]), cfg)
        assert once.tolist() == [-100.0, -100.0, 3.7, 100.0, 100.0]
        assert ret.clip_returns(once, cfg).tolist() == once.tolist()


class TestFitTeacher:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit_teacher([], VOCAB, ModelArch("linear", window=1), 1, 0.1, np.random.default_rng(0))

    def test_corpus_must_end_with_eos(self):
        with pytest.raises(ValueError):
            fit_teacher([[1, 1]], VOCAB, ModelArch("linear", window=1), 1, 0.1,
                        np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [[1, 7, 2], [1, -1, 2], [3, 2]])
    def test_token_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="out of range") as info:
            fit_teacher([[1, 2], bad], VOCAB, ModelArch("linear", window=2), 1, 0.1,
                        np.random.default_rng(0))
        assert not isinstance(info.value, TerminalStateError)

    def test_eos_before_end_of_line_rejected(self):
        with pytest.raises(TerminalStateError):
            fit_teacher([[1, 2], [1, 2, 1, 2]], VOCAB, ModelArch("linear", window=2), 1, 0.1,
                        np.random.default_rng(0))

    @pytest.mark.parametrize("window", [1, 2, 3, 5])
    def test_training_rows_match_per_token_states(self, window):
        vocab = Vocabulary(size=4, eos_id=3, bos_id=0)
        task = MarkovChainTask(vocab, order=1, transition_seed=3, eos_prob=0.2)
        corpus = gen_corpus(task, 30, np.random.default_rng(1), max_len=9)
        ref_contexts, ref_targets = [], []
        for seq in corpus:
            state = initial_state(vocab)
            for tok in seq:
                ref_contexts.append(state.last_tokens(window))
                ref_targets.append(tok)
                state = step(state, tok)
        contexts, targets = _corpus_training_rows(corpus, vocab, window)
        assert contexts.dtype == targets.dtype == np.int64
        assert np.array_equal(contexts, np.array(ref_contexts))
        assert np.array_equal(targets, np.array(ref_targets))

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

    def test_tabular_checkpoint_rejected(self, tmp_path):
        # the retired context -> logits table format is no longer a teacher
        data = {"format_version": models.CHECKPOINT_FORMAT_VERSION, "kind": "tabular",
                "frozen": True, "vocab_size": 3, "window": 1, "table": {"0": [1.0, 2.0, 0.0]}}
        (tmp_path / "t.json").write_text(json.dumps(data))
        with pytest.raises(ValueError, match="kind 'tabular'"):
            load_teacher(tmp_path / "t.json")

    def test_immutability_under_queries(self, tmp_path):
        m = init_model(ModelArch("linear", window=2), VOCAB.size, np.random.default_rng(3))
        t = FrozenModelTeacher(m)
        save_teacher(t, tmp_path / "before.json")
        s = step(initial_state(VOCAB), 1)
        for _ in range(200):
            t.q_values(s)
            t.batch_q_values(np.array([[0, 1]]))
            t.distribution(s)
        save_teacher(t, tmp_path / "after.json")
        assert (tmp_path / "before.json").read_bytes() == (tmp_path / "after.json").read_bytes()

    def test_unfrozen_checkpoint_rejected(self, tmp_path):
        m = init_model(ModelArch("linear", window=1), 3, np.random.default_rng(0))
        models.save_model(m, tmp_path / "plain.json")
        with pytest.raises(ValueError):
            load_teacher(tmp_path / "plain.json")
