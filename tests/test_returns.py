"""Return estimators: recursion correctness, decomposition, and moments.

Two independent test oracles guard the K-step recursion: an iterative
forward-summation over segment jumps, and a literal memoized transcription of
the backward pseudocode.  The shipped implementation must agree with both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstepkd import oracle
from kstepkd import returns as ret
from kstepkd.models import ModelArch, init_model
from kstepkd.returns import (
    ReturnConfig,
    estimate,
    iid_gaussian_samples,
    predicted_var_actual,
    predicted_var_kstep,
)
from kstepkd.seqmdp import Trajectory, TrajectoryStep, Vocabulary, initial_state, rollout, step
from kstepkd.teacher import FrozenModelTeacher

from conftest import table_teacher

K_GRID = (1, 2, 4, 8, 16)


# -- test oracles -------------------------------------------------------------


def forward_summation(q, m, k):
    """Iterative segment-sum form of the K-step return (independent oracle)."""
    n = len(q)
    last = n - 1
    out = np.empty(n)
    for t0 in range(n):
        j, total = t0, 0.0
        while True:
            if j == last:
                total += q[j]
                break
            if last - j < k:
                total += q[j] - m[j + 1]
                j += 1
            else:
                total += q[j] - m[j + k]
                j += k
        out[t0] = total
    return out


def reference_recursion(q, m, k):
    """Memoized transcription of the backward three-branch recursion."""
    last = len(q) - 1
    memo = {}

    def ghat(t):
        if t not in memo:
            if t == last:
                memo[t] = q[t]
            elif last - t < k:
                memo[t] = (q[t] - m[t + 1]) + ghat(t + 1)
            else:
                memo[t] = (q[t] - m[t + k]) + ghat(t + k)
        return memo[t]

    return np.array([ghat(t) for t in range(last + 1)])


def make_trajectory(vocab, actions):
    state = initial_state(vocab)
    steps = []
    for a in actions:
        steps.append(TrajectoryStep(state, a, -0.5))
        state = step(state, a)
    return Trajectory(tuple(steps), state)


def random_model_teacher(vocab, rng, window=2):
    return FrozenModelTeacher(
        init_model(ModelArch("mlp1", window=window, hidden=6), vocab.size, rng, scale=1.0)
    )


def random_trajectory(vocab, rng, horizon):
    policy = init_model(ModelArch("linear", window=2), vocab.size, rng, scale=0.5)
    return rollout(policy, initial_state(vocab), horizon, mode="sample", rng=rng)


VOCAB4 = Vocabulary(size=4, eos_id=3, bos_id=0)


def hand_case():
    """Window-1 table teacher and the trajectory [1, 2, eos].

    q taken per step: 2.0, 1.0, 2.5; max at visited states s1, s2: 1.5, 2.5.
    Backward accumulation gives G = [1.5, 1.0, 2.5].  With K=2 the jump from
    t=0 lands on s2: Ghat = [2.0, 1.0, 2.5]; the skipped step 1 has shortfall
    q - max = 1.0 - 1.5, so the baseline is [-0.5, 0, 0].
    """
    teacher = table_teacher(
        {
            (0,): [0.5, 2.0, 1.0, -1.0],
            (1,): [1.5, -0.5, 1.0, 0.8],
            (2,): [0.2, 0.9, -0.3, 2.5],
        },
        vocab_size=4,
    )
    traj = make_trajectory(VOCAB4, [1, 2, 3])
    return teacher, traj


class TestActualReturn:
    def test_single_step_is_raw_q(self):
        # one action straight to EOS: no continuation term, G_0 = q(s_0, eos)
        teacher = table_teacher({(0,): [0.0, 0.0, 0.0, 3.0]}, 4)
        traj = make_trajectory(VOCAB4, [3])
        assert ret.actual_return(traj, teacher).tolist() == [3.0]

    def test_hand_computed_three_step(self):
        teacher, traj = hand_case()
        np.testing.assert_array_equal(ret.actual_return(traj, teacher), [1.5, 1.0, 2.5])

    def test_teacher_greedy_telescopes_to_q(self):
        # all actions argmax: every intermediate max cancels the next q,
        # so G[t] = q(s_t, a_t) exactly
        rng = np.random.default_rng(31)
        for _ in range(30):
            teacher = random_model_teacher(VOCAB4, rng)
            traj = rollout(teacher, initial_state(VOCAB4), 8, mode="greedy")
            q, _ = ret.trajectory_q_terms(traj, teacher)
            np.testing.assert_allclose(ret.actual_return(traj, teacher), q, atol=1e-12)


class TestKStepReturn:
    def test_hand_computed_k2(self):
        teacher, traj = hand_case()
        np.testing.assert_array_equal(
            estimate(traj, teacher, ReturnConfig(k=2)).g_hat_clipped, [2.0, 1.0, 2.5]
        )

    def test_hand_computed_k_beyond_length_collapses(self):
        teacher, traj = hand_case()
        np.testing.assert_array_equal(
            estimate(traj, teacher, ReturnConfig(k=3)).g_hat_clipped,
            ret.actual_return(traj, teacher),
        )

    def test_k1_collapse_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            teacher = random_model_teacher(VOCAB4, rng)
            traj = random_trajectory(VOCAB4, rng, horizon=int(rng.integers(1, 10)))
            khat = estimate(traj, teacher, ReturnConfig(k=1)).g_hat_clipped
            g = ret.actual_return(traj, teacher)
            assert np.array_equal(khat, g)

    def test_greedy_zero_bias_all_k(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            teacher = random_model_teacher(VOCAB4, rng)
            traj = rollout(teacher, initial_state(VOCAB4), 18, mode="greedy")
            g = ret.actual_return(traj, teacher)
            for k in K_GRID:
                khat = estimate(traj, teacher, ReturnConfig(k=k)).g_hat_clipped
                np.testing.assert_allclose(khat, g, rtol=0, atol=1e-12)

    def test_matches_forward_summation_oracle(self):
        rng = np.random.default_rng(99)
        # the T=5, K=2 case plus random (length, K) corners incl. tails
        cases = [(6, 2)] + [
            (int(rng.integers(1, 12)), int(rng.integers(1, 14))) for _ in range(300)
        ]
        for horizon, k in cases:
            teacher = random_model_teacher(VOCAB4, rng)
            traj = random_trajectory(VOCAB4, rng, horizon)
            q, m = ret.trajectory_q_terms(traj, teacher)
            np.testing.assert_allclose(
                estimate(traj, teacher, ReturnConfig(k=k)).g_hat,
                forward_summation(q, m, k),
                rtol=0,
                atol=1e-12,
            )

    def test_tail_matches_reference_recursion(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(1, 14))
            q = rng.normal(size=n)
            m = q + rng.uniform(0, 2, size=n)
            assert np.array_equal(ret.kstep_from_terms(q, m, k), reference_recursion(q, m, k))

    def test_clip_applies_to_assembled_values(self):
        # q = 0 on every action taken and max q = 60 at every state: each
        # q-term lies inside the clip range, but G[0] = -60 - 60 = -120 does
        # not, so only clipping the assembled return gives -100
        teacher = table_teacher({(0,): [60.0, 0.0, 0.0, 0.0]}, 4)
        traj = make_trajectory(VOCAB4, [1, 2, 3])
        q, m = ret.trajectory_q_terms(traj, teacher)
        assert q.tolist() == [0.0, 0.0, 0.0] and m.tolist() == [60.0, 60.0, 60.0]
        est = estimate(traj, teacher, ReturnConfig(k=1, clip_range=(-100.0, 100.0)))
        assert est.g_hat.tolist() == [-120.0, -60.0, 0.0]
        assert est.g_hat_clipped.tolist() == [-100.0, -60.0, 0.0]


class TestImpliedBaseline:
    def test_k1_baseline_zero(self):
        rng = np.random.default_rng(3)
        teacher = random_model_teacher(VOCAB4, rng)
        traj = random_trajectory(VOCAB4, rng, 8)
        np.testing.assert_array_equal(
            ret.implied_baseline(traj, teacher, ReturnConfig(k=1)), np.zeros(traj.num_steps)
        )

    def test_greedy_baseline_zero(self):
        rng = np.random.default_rng(4)
        teacher = random_model_teacher(VOCAB4, rng)
        traj = rollout(teacher, initial_state(VOCAB4), 12, mode="greedy")
        for k in K_GRID:
            np.testing.assert_allclose(
                ret.implied_baseline(traj, teacher, ReturnConfig(k=k)),
                0.0,
                atol=1e-12,
            )

    def test_hand_computed_baseline(self):
        teacher, traj = hand_case()
        np.testing.assert_array_equal(
            ret.implied_baseline(traj, teacher, ReturnConfig(k=2)), [-0.5, 0.0, 0.0]
        )

    def test_equals_skipped_step_shortfalls(self):
        # baseline[t] = sum over skipped steps of (q - max); each summand <= 0
        rng = np.random.default_rng(17)
        for _ in range(100):
            teacher = random_model_teacher(VOCAB4, rng)
            traj = random_trajectory(VOCAB4, rng, 10)
            q, m = ret.trajectory_q_terms(traj, teacher)
            assert np.all(q - m <= 1e-12)
            for k in (2, 3, 5):
                base = ret.implied_baseline(traj, teacher, ReturnConfig(k=k))
                gaps = ret.skipped_gaps_from_terms(q, m, k)
                np.testing.assert_allclose(base, gaps, rtol=0, atol=1e-12)
                assert np.all(base <= 1e-12)

    def test_decomposition_identity_exact(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            teacher = random_model_teacher(VOCAB4, rng)
            traj = random_trajectory(VOCAB4, rng, int(rng.integers(1, 10)))
            for k in K_GRID:
                est = estimate(traj, teacher, ReturnConfig(k=k))
                assert np.array_equal(est.g_actual - est.g_hat, est.baseline)
                assert np.array_equal(
                    est.baseline, ret.implied_baseline(traj, teacher, ReturnConfig(k=k))
                )


# -- properties on random (q, m) term arrays ------------------------------------

# unit-scale terms, so the termwise sums agree with G - Ghat to 1e-12 absolute
TERM = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def term_arrays(draw, min_size=1, max_size=20):
    n = draw(st.integers(min_size, max_size))
    q = np.array(draw(st.lists(TERM, min_size=n, max_size=n)))
    m = np.array(draw(st.lists(TERM, min_size=n, max_size=n)))
    return q, m


@settings(max_examples=200, deadline=None)
@given(term_arrays(), st.integers(0, 5))
def test_k_at_least_length_gives_actual_bitwise(terms, extra):
    q, m = terms
    assert np.array_equal(ret.kstep_from_terms(q, m, len(q) + extra), ret.kstep_from_terms(q, m, 1))


@settings(max_examples=200, deadline=None)
@given(term_arrays(), st.integers(1, 25))
def test_skipped_gaps_sum_to_implied_baseline(terms, k):
    q, m = terms
    gap = ret.kstep_from_terms(q, m, 1) - ret.kstep_from_terms(q, m, k)
    np.testing.assert_allclose(ret.skipped_gaps_from_terms(q, m, k), gap, rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(term_arrays(), min_size=1, max_size=6), st.floats(-5.0, 5.0))
def test_batch_terms_match_per_row_bitwise(rows, pad):
    """[B, H] rows of ragged lengths 1-20, padded with an arbitrary value,
    give each row's ``kstep_from_terms`` exactly at every K (K = 1: the
    actual return G), and zeros past its length."""
    width = max(len(q) for q, _ in rows)
    q_pad, m_pad = np.full((len(rows), width), pad), np.full((len(rows), width), pad)
    for i, (q, m) in enumerate(rows):
        q_pad[i, : len(q)], m_pad[i, : len(m)] = q, m
    lengths = np.array([len(q) for q, _ in rows])
    for k in range(1, width + 2):
        g = ret.kstep_from_batch_terms(q_pad, m_pad, lengths, k)
        for i, (q, m) in enumerate(rows):
            assert np.array_equal(g[i, : len(q)], ret.kstep_from_terms(q, m, k))
            assert not g[i, len(q) :].any()
    g = ret.kstep_from_batch_terms(q_pad, m_pad, lengths, 1)
    for i, (q, m) in enumerate(rows):
        assert np.array_equal(g[i, : len(q)], ret.kstep_from_terms(q, m, 1))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(term_arrays(), st.integers(1, 9)), min_size=1, max_size=8),
    st.floats(-5.0, 5.0),
)
def test_batch_terms_per_row_k_bitwise(rows, pad):
    """A [B] array of per-row K (1-9) gives each row's ``kstep_from_terms``
    at its own K exactly, whatever the padding holds, and zeros past its
    length."""
    width = max(len(q) for (q, _), _ in rows)
    q_pad, m_pad = np.full((len(rows), width), pad), np.full((len(rows), width), pad)
    for i, ((q, m), _) in enumerate(rows):
        q_pad[i, : len(q)], m_pad[i, : len(m)] = q, m
    lengths = np.array([len(q) for (q, _), _ in rows])
    k = np.array([k for _, k in rows])
    g = ret.kstep_from_batch_terms(q_pad, m_pad, lengths, k)
    for i, ((q, m), k_i) in enumerate(rows):
        assert np.array_equal(g[i, : len(q)], ret.kstep_from_terms(q, m, k_i))
        assert not g[i, len(q) :].any()


# finite values, both infinities and nan, so that sums of terms hit inf - inf
NON_FINITE_TERM = st.sampled_from([0.0, -1.5, 2.25, 1e308, np.inf, -np.inf, np.nan])


@st.composite
def non_finite_term_arrays(draw):
    n = draw(st.integers(1, 12))
    q = np.array(draw(st.lists(NON_FINITE_TERM, min_size=n, max_size=n)))
    m = np.array(draw(st.lists(NON_FINITE_TERM, min_size=n, max_size=n)))
    return q, m


@settings(max_examples=200, deadline=None)
@given(st.lists(non_finite_term_arrays(), min_size=1, max_size=4), st.integers(1, 6))
def test_non_finite_terms_match_batch_rows(rows, k):
    """With +-inf and nan among the terms, ``kstep_from_terms`` at K and at
    K = 1 equals the matching rows of
    ``kstep_from_batch_terms`` position by position (nan where it has nan),
    and the per-trajectory recursions raise no RuntimeWarning (the
    settings turn one into an error) even outside ``np.errstate``."""
    width = max(len(q) for q, _ in rows)
    q_pad, m_pad = np.zeros((2, len(rows), width))
    for i, (q, m) in enumerate(rows):
        q_pad[i, : len(q)], m_pad[i, : len(m)] = q, m
    lengths = np.array([len(q) for q, _ in rows])
    with np.errstate(all="ignore"):
        g_hat = ret.kstep_from_batch_terms(q_pad, m_pad, lengths, k)
        g = ret.kstep_from_batch_terms(q_pad, m_pad, lengths, 1)
        for i, (q, m) in enumerate(rows):
            n = len(q)
            assert np.array_equal(ret.kstep_from_terms(q, m, k), g_hat[i, :n], equal_nan=True)
            assert np.array_equal(ret.kstep_from_terms(q, m, 1), g[i, :n], equal_nan=True)
    for q, m in rows:
        ret.kstep_from_terms(q, m, k)
        ret.kstep_from_terms(q, m, 1)


@pytest.mark.slow
class TestIidConstruction:
    def test_variance_matches_closed_form(self):
        rng = np.random.default_rng(42)
        n = 200_000
        var_sa, var_s, terms = 1.0, 0.5, 16
        for k in (1, 2, 4, 8):
            g, gh = iid_gaussian_samples(terms, k, var_sa, var_s, n, rng)
            assert abs(g.var(ddof=1) / predicted_var_actual(terms, var_sa, var_s) - 1) < 0.02
            assert abs(gh.var(ddof=1) / predicted_var_kstep(terms, k, var_sa, var_s) - 1) < 0.02

    def test_variance_ratio_never_exceeds_one(self):
        rng = np.random.default_rng(43)
        g, _ = iid_gaussian_samples(16, 1, 1.0, 0.5, 100_000, rng)
        for k in (1, 2, 4, 8, 16):
            _, gh = iid_gaussian_samples(16, k, 1.0, 0.5, 100_000, rng)
            assert gh.var(ddof=1) / g.var(ddof=1) <= 1.02

    def test_term_count_law(self):
        rng = np.random.default_rng(44)
        terms = 16
        g, _ = iid_gaussian_samples(terms, 1, 1.0, 0.5, 100_000, rng)
        for k in (2, 4, 8):
            _, gh = iid_gaussian_samples(terms, k, 1.0, 0.5, 100_000, rng)
            measured = gh.var(ddof=1) / g.var(ddof=1)
            expected = ((terms - 1) // k + 1) / terms
            assert abs(measured / expected - 1) < 0.05


def test_per_state_estimates_match_the_batched_path_on_the_largest_instance():
    """On the largest enumerable instance (V=5, H=6: 5461 paths; mlp1
    policy, linear teacher), ``estimate`` and ``implied_baseline`` on every
    enumerated path, with the memos cold and then warm, equal the batched
    ``batch_q_terms`` and ``kstep_from_batch_terms`` recursion bitwise."""
    vocab = Vocabulary(size=5, bos_id=0, eos_id=4)
    rng = np.random.default_rng([0, 606])
    policy = init_model(ModelArch("mlp1", window=2, hidden=4), vocab.size, rng, 0.6)
    teacher = FrozenModelTeacher(init_model(ModelArch("linear", window=2), vocab.size, rng, 1.0))
    spec = oracle.EnumerationSpec(vocab, oracle.MAX_HORIZON, initial_state(vocab))
    batch, _ = oracle.enumerate_batch(spec, policy)
    q, m = ret.batch_q_terms(batch, teacher)
    g = ret.kstep_from_batch_terms(q, m, batch.lengths, 1)
    g_hat = ret.kstep_from_batch_terms(q, m, batch.lengths, 2)
    row = {tuple(a[:n]): i for i, (a, n) in
           enumerate(zip(batch.actions.tolist(), batch.lengths.tolist()))}
    cfg = ReturnConfig(k=2)
    for _ in range(2):
        paths = oracle.enumerate_trajectories(spec, policy)
        assert len(paths) == len(row) == 5461
        for traj, _ in paths:
            i, n = row[traj.actions], traj.num_steps
            est = estimate(traj, teacher, cfg)
            assert est.g_actual.tobytes() == g[i, :n].tobytes()
            assert est.g_hat.tobytes() == g_hat[i, :n].tobytes()
            want = (g[i, :n] - g_hat[i, :n]).tobytes()
            assert est.baseline.tobytes() == want
            assert ret.implied_baseline(traj, teacher, cfg).tobytes() == want
