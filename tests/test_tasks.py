"""Synthetic tasks, corpus files, and conditioning prefixes."""

import numpy as np
import pytest

from kstepkd.seqmdp import Vocabulary
from kstepkd.tasks import (
    CopyTask,
    MarkovChainTask,
    ReverseTask,
    conditioning_states,
    gen_corpus,
    read_corpus,
    write_corpus,
)

VOCAB = Vocabulary(size=6, eos_id=5, bos_id=0)


class TestMarkovChain:
    def test_rows_are_distributions(self):
        task = MarkovChainTask(VOCAB, order=1, transition_seed=3, eos_prob=0.2)
        for prev in range(VOCAB.size - 1):
            row = task.transition_row((prev,))
            assert abs(row.sum() - 1.0) < 1e-12
            assert row[VOCAB.bos_id] == 0.0
            assert row[VOCAB.eos_id] == 0.2

    def test_rows_deterministic(self):
        task = MarkovChainTask(VOCAB, order=1, transition_seed=3)
        np.testing.assert_array_equal(task.transition_row((2,)), task.transition_row((2,)))

    def test_sequences_eos_terminated_and_capped(self):
        task = MarkovChainTask(VOCAB, order=1, transition_seed=5, eos_prob=0.05)
        rng = np.random.default_rng(0)
        for seq in gen_corpus(task, 200, rng, max_len=12):
            assert seq[-1] == VOCAB.eos_id
            assert 1 <= len(seq) <= 12
            assert VOCAB.eos_id not in seq[:-1]

    @pytest.mark.slow
    def test_bigram_frequencies_match_rows(self):
        # 1e4 sequences with a generous cap: forced-EOS distortion is rare
        task = MarkovChainTask(VOCAB, order=1, transition_seed=11, eos_prob=0.15)
        corpus = gen_corpus(task, 10_000, np.random.default_rng(4), max_len=30)
        counts = {prev: np.zeros(VOCAB.size) for prev in range(VOCAB.size)}
        for seq in corpus:
            prev = None
            for tok in seq:
                if prev is not None:
                    counts[prev][tok] += 1
                prev = tok
        for prev in range(1, VOCAB.size - 1):
            total = counts[prev].sum()
            assert total > 500
            empirical = counts[prev] / total
            tv = 0.5 * float(np.abs(empirical - task.transition_row((prev,))).sum())
            assert tv < 0.05, f"context {prev}: TV {tv:.3f}"

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 1234])
    def test_cached_cdf_sampling_matches_choice(self, order, seed):
        """The cached-CDF draw reproduces a per-token rng.choice(V, p=row)
        reference token for token, so corpora stay byte-identical."""
        task = MarkovChainTask(VOCAB, order=order, transition_seed=7 + seed, eos_prob=0.05)

        def reference(rng, max_len):
            seq, ctx = [], (VOCAB.bos_id,) * order
            while True:
                if len(seq) == max_len - 1:
                    return seq + [VOCAB.eos_id]
                tok = int(rng.choice(VOCAB.size, p=task.transition_row(ctx)))
                seq.append(tok)
                if tok == VOCAB.eos_id:
                    return seq
                ctx = (ctx + (tok,))[-order:]

        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [reference(rng_ref, 20) for _ in range(150)]
        assert gen_corpus(task, 150, rng, max_len=20) == expected
        assert rng.random() == rng_ref.random()

    def test_order2_contexts(self):
        task = MarkovChainTask(VOCAB, order=2, transition_seed=9, eos_prob=0.1)
        row = task.transition_row((1, 2))
        assert abs(row.sum() - 1.0) < 1e-12
        with pytest.raises(ValueError):
            task.transition_row((1,))

    def test_conditioning_prefix_skips_eos(self):
        task = MarkovChainTask(VOCAB, cond_len=3)
        assert task.conditioning_prefix([1, VOCAB.eos_id]) == (1,)
        assert task.conditioning_prefix([1, 2, 3, 4, VOCAB.eos_id]) == (1, 2, 3)


class TestCopyReverse:
    def test_copy_targets_equal_source(self):
        task = CopyTask(VOCAB, length=3)
        for seq in gen_corpus(task, 50, np.random.default_rng(1), max_len=99):
            assert len(seq) == 7
            assert seq[:3] == seq[3:6]
            assert seq[-1] == VOCAB.eos_id

    def test_reverse_targets(self):
        task = ReverseTask(VOCAB, length=4)
        for seq in gen_corpus(task, 50, np.random.default_rng(2), max_len=99):
            assert seq[4:8] == seq[:4][::-1]
            assert seq[-1] == VOCAB.eos_id

    def test_sources_avoid_special_tokens(self):
        task = CopyTask(VOCAB, length=5)
        for seq in gen_corpus(task, 50, np.random.default_rng(3), max_len=99):
            assert VOCAB.bos_id not in seq[:-1]
            assert VOCAB.eos_id not in seq[:-1]

    def test_conditioning_states(self):
        task = CopyTask(VOCAB, length=2)
        corpus = gen_corpus(task, 5, np.random.default_rng(4), max_len=99)
        states = conditioning_states(task, corpus)
        for seq, state in zip(corpus, states):
            assert state.prefix == (VOCAB.bos_id,) + tuple(seq[:2])
            assert state.length == 0


class TestCorpusFiles:
    def test_round_trip(self, tmp_path):
        task = MarkovChainTask(VOCAB, transition_seed=2, eos_prob=0.2)
        corpus = gen_corpus(task, 20, np.random.default_rng(7), max_len=10)
        path = tmp_path / "corpus.txt"
        write_corpus(path, corpus)
        assert read_corpus(path) == corpus

    def test_single_sequence_single_line(self, tmp_path):
        task = CopyTask(VOCAB, length=2)
        corpus = gen_corpus(task, 1, np.random.default_rng(0), max_len=99)
        path = tmp_path / "one.txt"
        write_corpus(path, corpus)
        assert len(path.read_text().splitlines()) == 1

    def test_line_format_space_separated_ids(self, tmp_path):
        task = CopyTask(VOCAB, length=2)
        write_corpus(tmp_path / "c.txt", gen_corpus(task, 3, np.random.default_rng(1), max_len=99))
        for line in (tmp_path / "c.txt").read_text().splitlines():
            toks = line.split(" ")
            assert all(t.isdigit() for t in toks)
            assert toks[-1] == str(VOCAB.eos_id)

    def test_write_error_has_path_context(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            write_corpus(tmp_path / "no" / "such" / "dir.txt", [[1, VOCAB.eos_id]])

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            gen_corpus(CopyTask(VOCAB, length=2), 0, np.random.default_rng(0), max_len=9)
