"""Logit models: forward, analytic gradients, updates, checkpoints."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kstepkd import models, returns
from kstepkd.models import LogitModel, ModelArch, encode_context, init_model, zero_model
from kstepkd.seqmdp import (
    State, TerminalStateError, Trajectory, TrajectoryStep, Vocabulary, initial_state, step,
)
from kstepkd.teacher import FrozenModelTeacher

VOCAB3 = Vocabulary(size=3, eos_id=2, bos_id=0)
VOCAB4 = Vocabulary(size=4, eos_id=3, bos_id=0)


def random_state(vocab, rng, max_extra=4):
    s = initial_state(vocab)
    for _ in range(int(rng.integers(0, max_extra + 1))):
        tok = int(rng.integers(0, vocab.size))
        if tok == vocab.eos_id:
            break
        s = step(s, tok)
    return s


def finite_diff_log_prob(model, state, action, h=1e-5):
    base = model.params
    out = np.zeros_like(base)
    for i in range(len(base)):
        up, down = base.copy(), base.copy()
        up[i] += h
        down[i] -= h
        lp_up = model.with_params(up).distribution(state).log_probs[action]
        lp_down = model.with_params(down).distribution(state).log_probs[action]
        out[i] = (lp_up - lp_down) / (2 * h)
    return out


class TestForward:
    def test_zero_params_give_uniform(self):
        m = zero_model(ModelArch("linear", window=2), VOCAB3.size)
        d = m.distribution(initial_state(VOCAB3))
        np.testing.assert_allclose(d.probs, 1.0 / 3.0, atol=1e-15)

    def test_softmax_arithmetic(self):
        np.testing.assert_allclose(
            models.softmax(np.array([0.0, math.log(2.0), 0.0])),
            [0.25, 0.5, 0.25],
            atol=1e-15,
        )

    def test_mlp1_probs_normalized(self):
        m = init_model(ModelArch("mlp1", window=3, hidden=8), VOCAB4.size, np.random.default_rng(3))
        d = m.distribution(step(initial_state(VOCAB4), 1))
        assert abs(d.probs.sum() - 1.0) < 1e-12
        assert np.all(d.probs > 0)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=6)
        p1 = models.softmax(logits)
        p2 = models.softmax(logits + 123.456)
        np.testing.assert_allclose(p1, p2, atol=1e-12)
        assert np.argmax(p1) == np.argmax(p2)

    def test_forward_is_pure(self):
        m = init_model(ModelArch("linear", window=2), VOCAB3.size, np.random.default_rng(5))
        s = step(initial_state(VOCAB3), 1)
        np.testing.assert_array_equal(m.logits(s), m.logits(s))

    def test_context_encoding_has_window_ones(self):
        s = step(initial_state(VOCAB4), 2)
        m = zero_model(ModelArch("linear", window=3), VOCAB4.size)
        ctx = m.context(s)
        assert ctx == (0, 0, 2)  # left-padded with bos
        enc = encode_context(ctx, VOCAB4.size)
        assert enc.sum() == 3
        assert len(enc) == 3 * VOCAB4.size

    def test_non_finite_params_rejected(self):
        arch = ModelArch("linear", window=1)
        params = np.zeros(models.param_count(arch, 3))
        params[0] = np.nan
        with pytest.raises(ValueError):
            LogitModel("linear", 3, 1, 0, params)

    @pytest.mark.parametrize("arch", [ModelArch("linear", window=2),
                                      ModelArch("mlp1", window=3, hidden=4)],
                             ids=["linear", "mlp1"])
    def test_state_of_another_vocabulary_rejected(self, arch):
        """Every per-state call refuses a state whose vocabulary size is
        not the model's, padded context or not."""
        model = init_model(arch, VOCAB3.size, np.random.default_rng(5))
        teacher = FrozenModelTeacher(model)
        for state in (initial_state(VOCAB4), step(step(initial_state(VOCAB4), 1), 2),
                      State(VOCAB4, (1, 2, 1, 2), 4)):
            with pytest.raises(ValueError, match="vocab"):
                model.logits(state)
            with pytest.raises(ValueError, match="vocab"):
                model.distribution(state)
            with pytest.raises(ValueError, match="vocab"):
                model.grad_log_prob(state, 0)
            with pytest.raises(ValueError, match="vocab"):
                teacher.q_values(state)

    @pytest.mark.parametrize("bad", [-1, VOCAB4.size])
    @pytest.mark.parametrize("arch", [ModelArch("linear", window=2),
                                      ModelArch("mlp1", window=3, hidden=4)],
                             ids=["linear", "mlp1"])
    def test_token_out_of_range_rejected(self, arch, bad):
        """Every per-state reader refuses a context token outside [0, V),
        which indexing would wrap (-1) or fail on (V), before and after the
        model has memoized other contexts, and stores nothing for it."""
        model = init_model(arch, VOCAB4.size, np.random.default_rng(7))
        teacher = FrozenModelTeacher(model)
        state = State(VOCAB4, (0, 1, bad), 2)
        traj = Trajectory((TrajectoryStep(state, 0, 0.0),), State(VOCAB4, (0, 1, bad, 0), 3))
        for calls in range(2):
            with pytest.raises(ValueError, match="outside"):
                model.logits(state)
            with pytest.raises(ValueError, match="outside"):
                model.distribution(state)
            with pytest.raises(ValueError, match="outside"):
                model.grad_log_prob(state, 0)
            with pytest.raises(ValueError, match="outside"):
                teacher.q_values(state)
            with pytest.raises(ValueError, match="outside"):
                returns.trajectory_q_terms(traj, teacher)
            assert len(model._memo) == calls  # only the good context below
            model.logits(State(VOCAB4, (0, 1, 2), 2))

    def test_batch_logits_match_single(self):
        rng = np.random.default_rng(17)
        for arch in (ModelArch("linear", window=2), ModelArch("mlp1", window=2, hidden=5)):
            m = init_model(arch, VOCAB4.size, rng)
            states = [random_state(VOCAB4, rng) for _ in range(10)]
            ctxs = np.array([m.context(s) for s in states])
            batched = m.batch_logits(ctxs)
            for i, s in enumerate(states):
                np.testing.assert_allclose(batched[i], m.logits(s), atol=1e-14)


    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind,hidden", [("linear", 0), ("mlp1", 4), ("mlp1", 8), ("mlp1", 32)])
    def test_slot_accumulation_matches_window_reduction(self, kind, hidden, window):
        """The first layer accumulates slot by slot; the batched logits must
        equal those from the sum over the gathered [N, window, width] block
        bitwise."""
        rng = np.random.default_rng(window * 100 + hidden)
        m = init_model(ModelArch(kind, window=window, hidden=hidden), 7, rng, scale=1.0)
        contexts = rng.integers(0, 7, size=(5000, window))
        cols = contexts + np.arange(window) * 7
        width = 7 if kind == "linear" else hidden
        o = width * window * 7
        w1, b1 = m.params[:o].reshape(width, window * 7), m.params[o : o + width]
        u = w1.T[cols].sum(axis=1) + b1
        if kind == "linear":
            assert np.array_equal(m.batch_logits(contexts), u)
        else:
            w2 = m.params[o + width : o + width + 7 * width].reshape(7, width)
            b2 = m.params[o + width + 7 * width :]
            assert np.array_equal(m.batch_logits(contexts), np.tanh(u) @ w2.T + b2)


    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind,hidden", [("linear", 0), ("mlp1", 4), ("mlp1", 32)])
    @pytest.mark.parametrize("vocab", [VOCAB3, Vocabulary(size=12, eos_id=11, bos_id=0)])
    def test_per_state_logits_match_column_sum(self, vocab, kind, hidden, window):
        """``logits(state)`` adds the context's table rows slot by slot; it
        must equal the sum over the gathered columns of the first-layer
        weights [width, window x V], in C and in Fortran order, bitwise."""
        rng = np.random.default_rng(window * 100 + hidden + vocab.size)
        v = vocab.size
        m = init_model(ModelArch(kind, window=window, hidden=hidden), v, rng, scale=1.0)
        width = v if kind == "linear" else hidden
        o = width * window * v
        w1, b1 = m.params[:o].reshape(width, window * v), m.params[o : o + width]
        for _ in range(40):
            state = random_state(vocab, rng, max_extra=7)
            cols = np.arange(window) * v + np.array(state.last_tokens(window))
            for w in (w1, np.asfortranarray(w1)):
                u = w[:, cols].sum(axis=1) + b1
                if kind == "mlp1":
                    w2 = m.params[o + width : o + width + v * width].reshape(v, width)
                    u = w2 @ np.tanh(u) + m.params[o + width + v * width :]
                assert np.array_equal(m.logits(state), u)


@st.composite
def memo_cases(draw):
    """(model, states): a linear or mlp1 model over VOCAB4, window 1-3, and
    states, some repeated, whose prefixes run from empty to two tokens past
    the window."""
    kind = draw(st.sampled_from(["linear", "mlp1"]))
    window = draw(st.integers(1, 3))
    arch = ModelArch(kind, window=window, hidden=3 if kind == "mlp1" else 0)
    model = init_model(arch, VOCAB4.size, np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                       scale=1.0)
    prefix = st.lists(st.integers(0, VOCAB4.size - 1), max_size=window + 2)
    states = draw(st.lists(prefix.map(lambda p: State(VOCAB4, tuple(p), len(p))),
                           min_size=1, max_size=8))
    return model, states


@settings(max_examples=100, deadline=None)
@given(memo_cases())
def test_logits_memo_is_transparent(case):
    """``logits(state)`` and ``distribution(state)`` return, first call and
    repeat, the bytes of the same calls on a fresh copy of the model, as
    read-only arrays of one memo entry that a repeat returns again, and the
    entry's floats are their values; the teacher's ``trajectory_q_terms``,
    cold and warm, gives a fresh teacher's bytes; a state of another
    vocabulary still raises after its tokens are memoized; an updated model
    starts with an empty memo and returns its own logits."""
    model, states = case
    teacher = FrozenModelTeacher(model)
    live = [s for s in states if not s.is_terminal]
    traj = Trajectory(tuple(TrajectoryStep(s, i % VOCAB4.size, 0.0) for i, s in enumerate(live)),
                      states[0])
    fresh = FrozenModelTeacher(model.with_params(model.params))
    fresh_terms = returns.trajectory_q_terms(traj, fresh)
    for _ in range(2):
        for got, want in zip(returns.trajectory_q_terms(traj, teacher), fresh_terms):
            assert got.tobytes() == want.tobytes()
        for state in states:
            got, dist, e = model.logits(state), model.distribution(state), model.entry(state)
            ref = model.with_params(model.params).distribution(state)
            for a, b in zip((got, dist.probs, dist.log_probs),
                            (ref.logits, ref.probs, ref.log_probs)):
                assert a.tobytes() == b.tobytes() and not a.flags.writeable
            assert model.logits(state) is got and dist.logits is got and e.dist is dist
            assert (e.row, e.log_probs, e.max) == (got.tolist(), dist.log_probs.tolist(), got.max())
    other = Vocabulary(size=5, eos_id=4, bos_id=0)
    with pytest.raises(ValueError, match="vocab"):
        model.logits(State(other, states[0].prefix, states[0].length))
    updated = model.apply_update(np.ones_like(model.params), 0.5)
    assert len(updated._memo) == 0
    for state in states:
        got = updated.logits(state)
        assert got.tobytes() == updated.with_params(updated.params).logits(state).tobytes()
        assert got.tobytes() != model.logits(state).tobytes()


@pytest.mark.parametrize("arch", [ModelArch("linear", window=2),
                                  ModelArch("mlp1", window=3, hidden=4)],
                         ids=["linear", "mlp1"])
def test_checks_hold_on_a_memo_hit(arch):
    """A terminal state, and a state of another vocabulary, raise in every
    teacher per-state call after their context is memoized."""
    model = init_model(arch, VOCAB4.size, np.random.default_rng(8))
    teacher = FrozenModelTeacher(model)
    live = step(initial_state(VOCAB4), 1)
    terminal = step(live, VOCAB4.eos_id)
    other = State(Vocabulary(size=5, eos_id=4, bos_id=0), live.prefix, live.length)
    for state in (live, terminal):
        model.entry(state)
    calls = [teacher.q_values, teacher.distribution,
             lambda s: returns.trajectory_q_terms(
                 Trajectory((TrajectoryStep(s, 0, 0.0),), step(live, 0)), teacher)]
    for call in calls:
        with pytest.raises(TerminalStateError):
            call(terminal)
        with pytest.raises(ValueError, match="vocab"):
            call(other)
    for call in (model.logits, model.distribution, model.entry):
        with pytest.raises(ValueError, match="vocab"):
            call(other)


@st.composite
def coded_rows(draw):
    """(V, int rows [N, width] of tokens in [0, V) with repeats, weights [N]
    spread over 10^-8..10^8 in magnitude), width >= 2 so that the rows split
    into contexts and targets."""
    v = draw(st.integers(2, 12))
    width = draw(st.integers(2, 4))
    token = st.integers(0, v - 1)
    pool = draw(st.lists(st.lists(token, min_size=width, max_size=width), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    n = len(picks)
    mantissas = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    exponents = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
    weights = np.array(mantissas) * 10.0 ** np.array(exponents)
    return v, np.array([pool[i] for i in picks], dtype=np.int64), weights


@settings(max_examples=200, deadline=None)
@given(coded_rows())
@example((5, np.array([[4, 0, 3], [0, 4, 4], [4, 0, 3]], dtype=np.int64), np.array([1e8, 3.0, -1e-8])))
def test_context_code_merges_rows_as_unique_bitwise(case):
    """Rows read as base-V codes and merged by ``bincount`` give
    ``np.unique(axis=0, return_inverse=True)``'s distinct rows, in its order
    and dtype, the same ``target_counts`` matrix, and weight sums keyed by
    code equal to those keyed by the inverse, bit for bit."""
    v, rows, weights = case
    width = rows.shape[1]
    ref_rows, inverse = np.unique(rows, axis=0, return_inverse=True)
    code = models.context_code(rows, v)
    present = np.flatnonzero(np.bincount(code, minlength=v**width))
    distinct = np.column_stack(np.unravel_index(present, (v,) * width))
    assert distinct.dtype == ref_rows.dtype and np.array_equal(distinct, ref_rows)
    sums = np.bincount(code, weights=weights, minlength=v**width)[present]
    ref_sums = np.bincount(inverse.reshape(-1), weights=weights, minlength=len(ref_rows))
    assert sums.tobytes() == ref_sums.tobytes()

    contexts, targets = rows[:, :-1], rows[:, -1]
    ref_contexts, ctx_inverse = np.unique(contexts, axis=0, return_inverse=True)
    ref_counts = np.zeros((len(ref_contexts), v))
    np.add.at(ref_counts, (ctx_inverse.reshape(-1), targets), 1.0)
    got_contexts, counts = models.target_counts(contexts, targets, v)
    assert got_contexts.dtype == ref_contexts.dtype
    assert np.array_equal(got_contexts, ref_contexts)
    assert counts.dtype == ref_counts.dtype and counts.tobytes() == ref_counts.tobytes()


class TestContextCode:
    def test_reads_rows_base_v_first_slot_high(self):
        rows = np.array([[0, 0, 0], [0, 0, 4], [0, 1, 0], [4, 4, 4], [2, 3, 1]])
        assert models.context_code(rows, 5).tolist() == [0, 4, 5, 124, 2 * 25 + 3 * 5 + 1]

    @pytest.mark.parametrize("bad", [5, -1])
    def test_token_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid entry"):
            models.context_code(np.array([[0, 1], [bad, 2]]), 5)

    def test_code_space_bound(self):
        assert models.context_code(np.array([[4095, 4095]]), 4096).tolist() == [2**24 - 1]
        # 2^40 codes: the bound raises before any code or count is made
        with pytest.raises(ValueError, match="context code of"):
            models.context_code(np.array([[0, 1]]), 2**20)


def test_scatter_rows_matches_add_at_bitwise():
    """The first-layer scatter of a stack's backward: repeated table rows
    across four runs, run 2 with no rows, equal to np.add.at slot by slot."""
    rng = np.random.default_rng(23)
    window, v, width, n_runs = 3, 5, 6, 4
    run = np.sort(rng.choice([0, 1, 3], size=200))
    contexts = rng.integers(0, v, size=(40, window))[rng.integers(0, 40, size=200)]
    idx = contexts + np.arange(window) * v + (run * window * v)[:, None]
    d1 = rng.standard_normal((200, width)) * 10.0 ** rng.integers(-8, 8, size=(200, 1))
    ref = np.zeros((n_runs * window * v, width))
    for j in range(window):
        np.add.at(ref, idx[:, j], d1)
    got = models._scatter_rows(idx, d1, n_runs * window * v)
    assert np.array_equal(got, ref)
    assert not got[2 * window * v : 3 * window * v].any()


@st.composite
def stacked_rows(draw):
    """A stack of R models of one drawn architecture, and rows of int
    contexts, actions and weights split into runs of equal or ragged sizes."""
    kind = draw(st.sampled_from(["linear", "mlp1"]))
    hidden = draw(st.sampled_from([4, 8, 32])) if kind == "mlp1" else 0
    arch = ModelArch(kind, window=draw(st.integers(1, 3)), hidden=hidden)
    v = draw(st.sampled_from([3, 5, 12]))
    n_runs = draw(st.integers(1, 8))
    if draw(st.booleans()):
        sizes = [draw(st.integers(1, 40))] * n_runs
    else:
        sizes = draw(st.lists(st.integers(0, 40), min_size=n_runs, max_size=n_runs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ms = [init_model(arch, v, rng, scale=draw(st.sampled_from([0.3, 1.0, 3.0])))
          for _ in range(n_runs)]
    n = sum(sizes)
    rows = (rng.integers(0, v, size=(n, arch.window)), rng.integers(0, v, size=n),
            rng.normal(size=n))
    return ms, sizes, rows


@settings(max_examples=150, deadline=None)
@given(stacked_rows())
def test_stack_matches_per_run_models_bitwise(case):
    """Logits, weighted gradients, log-probs and squared score norms of a
    stack (strided layer views of one [R, P] array) equal each run's own
    ``LogitModel`` calls on its rows, bitwise: runs of equal size take one
    stacked product, ragged runs one product per run."""
    ms, sizes, (contexts, actions, weights) = case
    stack = models.ModelStack.of(ms)
    run = np.repeat(np.arange(len(sizes)), sizes)
    layout = stack.layout(run)
    logits, scores = layout.batch_logits(contexts), layout.scores(contexts, actions)
    grad, sq = scores.weighted_grad(weights), scores.sq_norms()
    ends = np.cumsum([0] + sizes)
    for r, m in enumerate(ms):
        rows = slice(ends[r], ends[r + 1])
        assert np.array_equal(logits[rows], m.batch_logits(contexts[rows]))
        alone = m.layout().scores(contexts[rows], actions[rows])
        assert np.array_equal(grad[r], alone.weighted_grad(weights[rows])[0])
        assert np.array_equal(scores.log_probs[rows], alone.log_probs)
        assert np.array_equal(sq[rows], alone.sq_norms())


@settings(max_examples=150, deadline=None)
@given(stacked_rows(), st.data())
def test_segment_keyed_grad_matches_each_segment_alone(case, data):
    """A backward keyed by any sorted segment key nested in the runs (gaps
    included) gives, in row s, the one-run gradient of segment s's rows
    alone under its run's model: bitwise for linear, whose cotangent is the
    score itself; to 1e-12 for mlp1, whose products run over the whole run's
    rows.  Keyed by the run itself it is the call without a key, bitwise."""
    ms, sizes, (contexts, actions, weights) = case
    stack = models.ModelStack.of(ms)
    run = np.repeat(np.arange(len(sizes)), sizes)
    # each row steps the segment by 0-2, and the first row of a run by at least 1
    segment, s = [], -1
    for n in sizes:
        steps = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        for i, step in enumerate(steps):
            s += max(step, 1) if i == 0 else step
            segment.append(s)
    segment = np.array(segment, dtype=np.int64)
    scores = stack.layout(run).scores(contexts, actions)
    keyed = scores.weighted_grad(weights, segment)
    assert keyed.shape == (s + 1, stack.params.shape[1])
    for seg in range(s + 1):
        rows = segment == seg
        r = run[rows][0] if rows.any() else 0
        alone = ms[r].layout().scores(contexts[rows], actions[rows])
        expected = alone.weighted_grad(weights[rows])[0]
        if ms[r].kind == "linear":
            assert np.array_equal(keyed[seg], expected)
        else:
            np.testing.assert_allclose(keyed[seg], expected, rtol=1e-12, atol=1e-12)
    whole = scores.weighted_grad(weights)
    by_run = scores.weighted_grad(weights, run)
    assert np.array_equal(by_run, whole[: len(by_run)])
    assert not whole[len(by_run) :].any()  # trailing empty runs


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([ModelArch("linear", window=1), ModelArch("linear", window=3),
                     ModelArch("mlp1", window=2, hidden=4), ModelArch("mlp1", window=3, hidden=32)]),
    st.integers(1, 60),
    st.integers(0, 2**32 - 1),
)
def test_run_of_one_layout_matches_unkeyed_layout_bitwise(arch, n, seed):
    """The layout of n rows all keyed to run 0 and the layout of one run
    (``layout()``) give the same logits, log-probs, squared score norms and
    weighted gradient, bitwise, for a model and for its stack of one."""
    rng = np.random.default_rng(seed)
    m = init_model(arch, 5, rng, scale=1.0)
    contexts = rng.integers(0, 5, size=(n, arch.window))
    actions, weights = rng.integers(0, 5, size=n), rng.normal(size=n)
    for model in (m, models.ModelStack.of([m])):
        keyed, unkeyed = model.layout(np.zeros(n, dtype=np.int64)), model.layout()
        assert np.array_equal(keyed.batch_logits(contexts), unkeyed.batch_logits(contexts))
        a, b = keyed.scores(contexts, actions), unkeyed.scores(contexts, actions)
        assert np.array_equal(a.log_probs, b.log_probs)
        assert np.array_equal(a.sq_norms(), b.sq_norms())
        assert np.array_equal(a.weighted_grad(weights), b.weighted_grad(weights))


class TestModelStack:
    @pytest.mark.parametrize("arch", [
        ModelArch("linear", window=2),
        ModelArch("mlp1", window=3, hidden=8),
        ModelArch("mlp1", window=2, hidden=32),
    ])
    @pytest.mark.parametrize("sizes", [(1,), (3, 1, 40), (0, 5, 2, 300)])
    def test_each_run_matches_its_model_bitwise(self, arch, sizes):
        """Logits, weighted gradients, log-probs and squared score norms of
        each run's rows equal the one-model call on those rows alone, for
        ragged run sizes, an empty run included."""
        rng = np.random.default_rng(sum(sizes))
        ms = [init_model(arch, 6, rng, scale=1.0) for _ in sizes]
        stack = models.ModelStack.of(ms)
        run = np.repeat(np.arange(len(sizes)), sizes)
        contexts = rng.integers(0, 6, size=(len(run), arch.window))
        actions = rng.integers(0, 6, size=len(run))
        weights = rng.normal(size=len(run))
        layout = stack.layout(run)
        logits, scores = layout.batch_logits(contexts), layout.scores(contexts, actions)
        grad, lp, sq = scores.weighted_grad(weights), scores.log_probs, scores.sq_norms()
        ends = np.cumsum((0,) + sizes)
        for r, m in enumerate(ms):
            rows = slice(ends[r], ends[r + 1])
            assert np.array_equal(logits[rows], m.batch_logits(contexts[rows]))
            alone = m.layout().scores(contexts[rows], actions[rows])
            assert np.array_equal(grad[r], alone.weighted_grad(weights[rows])[0])
            assert np.array_equal(lp[rows], alone.log_probs)
            assert np.array_equal(sq[rows], alone.sq_norms())
            assert np.array_equal(stack.model(r).params, m.params)

    @pytest.mark.parametrize("arch", [
        ModelArch("linear", window=2),
        ModelArch("mlp1", window=3, hidden=8),
    ])
    def test_each_run_matches_per_state_references(self, arch):
        """Each run of a ragged stack, an empty run included, against the
        per-state references of its model: the weighted sum of
        ``grad_log_prob``, ``distribution(state).log_probs`` and g @ g."""
        vocab = Vocabulary(size=6, eos_id=5, bos_id=0)
        sizes = (4, 0, 1, 12)
        rng = np.random.default_rng(29)
        ms = [init_model(arch, vocab.size, rng, scale=1.0) for _ in sizes]
        stack = models.ModelStack.of(ms)
        run = np.repeat(np.arange(len(sizes)), sizes)
        contexts = rng.integers(0, vocab.size, size=(len(run), arch.window))
        actions = rng.integers(0, vocab.size, size=len(run))
        weights = rng.normal(size=len(run))
        scores = stack.layout(run).scores(contexts, actions)
        grad, sq = scores.weighted_grad(weights), scores.sq_norms()
        states = [State(vocab, tuple(c)) for c in contexts.tolist()]
        for i, (state, a, r) in enumerate(zip(states, actions, run)):
            g = ms[r].grad_log_prob(state, a)
            np.testing.assert_allclose(sq[i], g @ g, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                scores.log_probs[i], ms[r].distribution(state).log_probs, rtol=0, atol=1e-12
            )
        for r, m in enumerate(ms):
            ref = np.zeros(m.num_params)
            for i in np.flatnonzero(run == r):
                ref += weights[i] * m.grad_log_prob(states[i], actions[i])
            np.testing.assert_allclose(grad[r], ref, rtol=0, atol=1e-12)

    def test_mixed_architectures_rejected(self):
        rng = np.random.default_rng(3)
        a = init_model(ModelArch("mlp1", window=2, hidden=4), 5, rng)
        b = init_model(ModelArch("mlp1", window=2, hidden=5), 5, rng)
        with pytest.raises(ValueError):
            models.ModelStack.of([a, b])

    def test_non_finite_update_rejected(self):
        m = init_model(ModelArch("linear", window=1), 3, np.random.default_rng(4))
        stack = models.ModelStack.of([m, m])
        grad = np.zeros_like(stack.params)
        grad[1, 0] = np.inf
        with pytest.raises(ValueError, match="must be finite"):
            stack.apply_update(grad, 0.1)


class TestGradLogProb:
    def test_bias_gradient_at_uniform(self):
        # vocab 2, window 1, zero params, action 0: bias grad = onehot - [.5,.5]
        vocab = Vocabulary(size=2, eos_id=1, bos_id=0)
        m = zero_model(ModelArch("linear", window=1), vocab.size)
        g = m.grad_log_prob(initial_state(vocab), 0)
        np.testing.assert_allclose(g[-2:], [0.5, -0.5], atol=1e-15)

    @pytest.mark.parametrize("arch", [
        ModelArch("linear", window=2),
        ModelArch("mlp1", window=3, hidden=6),
    ])
    def test_finite_difference_oracle(self, arch):
        rng = np.random.default_rng(101)
        for _ in range(100):
            m = init_model(arch, VOCAB4.size, rng, scale=0.5)
            s = random_state(VOCAB4, rng)
            a = int(rng.integers(0, VOCAB4.size))
            analytic = m.grad_log_prob(s, a)
            fd = finite_diff_log_prob(m, s, a)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
            rel = np.abs(analytic - fd) / denom
            bad = rel >= 1e-5
            # allow the relative criterion to pass on the absolute floor
            bad &= np.abs(analytic - fd) >= 1e-8
            assert not bad.any(), f"max rel err {rel.max():.2e}"

    def test_score_function_identity(self):
        rng = np.random.default_rng(7)
        for arch in (ModelArch("linear", window=2), ModelArch("mlp1", window=2, hidden=4)):
            m = init_model(arch, VOCAB3.size, rng, scale=0.8)
            s = random_state(VOCAB3, rng)
            probs = m.distribution(s).probs
            total = sum(probs[a] * m.grad_log_prob(s, a) for a in range(VOCAB3.size))
            np.testing.assert_allclose(total, 0.0, atol=1e-9)


class TestCrossEntropyGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        for arch in (ModelArch("linear", window=2), ModelArch("mlp1", window=2, hidden=4)):
            m = init_model(arch, VOCAB4.size, rng, scale=0.4)
            ctxs, counts = models.target_counts(
                rng.integers(0, VOCAB4.size, size=(12, 2)),
                rng.integers(0, VOCAB4.size, size=12),
                VOCAB4.size,
            )
            loss, grad = m.cross_entropy_grad(ctxs, counts)
            h = 1e-6
            for i in rng.choice(m.num_params, size=10, replace=False):
                up, down = m.params.copy(), m.params.copy()
                up[i] += h
                down[i] -= h
                lu, _ = m.with_params(up).cross_entropy_grad(ctxs, counts)
                ld, _ = m.with_params(down).cross_entropy_grad(ctxs, counts)
                fd = (lu - ld) / (2 * h)
                assert abs(fd - grad[i]) < 1e-6


class TestApplyUpdate:
    def test_arithmetic(self):
        m = zero_model(ModelArch("linear", window=1), 2).with_params(
            np.array([1.0, 2.0, 0.0, 0.0, 0.0, 0.0])
        )
        g = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
        m2 = m.apply_update(g, 0.5)
        np.testing.assert_array_equal(m2.params[:2], [1.5, 1.5])

    def test_zero_gradient_is_noop(self):
        m = init_model(ModelArch("linear", window=1), 3, np.random.default_rng(0))
        m2 = m.apply_update(np.zeros(m.num_params), 0.1)
        np.testing.assert_array_equal(m.params, m2.params)

    def test_update_linearity(self):
        rng = np.random.default_rng(2)
        m = init_model(ModelArch("mlp1", window=1, hidden=3), 3, rng)
        g1 = rng.normal(size=m.num_params)
        g2 = rng.normal(size=m.num_params)
        seq = m.apply_update(g1, 0.3).apply_update(g2, 0.3)
        once = m.apply_update(g1 + g2, 0.3)
        np.testing.assert_allclose(seq.params, once.params, rtol=0, atol=1e-14)

    def test_length_mismatch_rejected(self):
        m = zero_model(ModelArch("linear", window=1), 3)
        with pytest.raises(ValueError):
            m.apply_update(np.zeros(m.num_params + 1), 0.1)


class TestCheckpoint:
    @pytest.mark.parametrize("arch", [
        ModelArch("linear", window=3),
        ModelArch("mlp1", window=2, hidden=7),
    ])
    def test_round_trip_bit_identical(self, tmp_path, arch):
        m = init_model(arch, 5, np.random.default_rng(77))
        path = tmp_path / "model.json"
        models.save_model(m, path)
        m2 = models.load_model(path)
        assert m2.kind == m.kind and m2.window == m.window and m2.hidden == m.hidden
        assert np.array_equal(m.params, m2.params)
        # a second save is byte-identical
        models.save_model(m2, tmp_path / "model2.json")
        assert path.read_bytes() == (tmp_path / "model2.json").read_bytes()

    def test_version_gate(self, tmp_path):
        m = zero_model(ModelArch("linear", window=1), 3)
        data = models.model_to_dict(m)
        data["format_version"] = 99
        with pytest.raises(ValueError):
            models.model_from_dict(data)
